import collections

import pytest

from autgeom import automorphisms as aut
from autgeom import glrep
from autgeom import words as fw
from autgeom.automorphisms import nielsen_left, nielsen_right

from conftest import (
    STABILIZING, inversion, is_reduced, mat2_mul, random_a3_even_word,
    random_stabilizing_endo, run_cli, swap,
)

L, R, E, P = nielsen_left, nielsen_right, inversion, swap


IDENTITY5 = [[int(i == j) for j in range(5)] for i in range(5)]


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


class TestNu:
    @pytest.mark.parametrize(
        "text,expected",
        [("a3^2", 0), ("a3", 1), ("a1 a2", 0), ("a3^-1", 1), ("a1 a3 a2 a3", 0)],
    )
    def test_values(self, text, expected):
        assert glrep.nu(fw.parse_word(text, 3)) == expected


class TestStabilizes:
    def test_examples(self):
        assert glrep.stabilizes(aut.endo_of(L(1, 2)))
        assert glrep.stabilizes(aut.endo_of(L(2, 1)))
        assert not glrep.stabilizes(aut.endo_of(L(1, 3)))
        assert glrep.stabilizes(aut.identity_endo(3))

    def test_all_listed_generators(self):
        for x in STABILIZING:
            assert glrep.stabilizes(aut.endo_of(x))


class TestRewrite:
    def test_basis_elements(self):
        assert glrep.rewrite(fw.parse_word("a3^2", 3)) == fw.gen(3)
        assert glrep.rewrite(fw.parse_word("a3 a1 a3^-1", 3)) == fw.gen(4)
        assert glrep.rewrite(fw.gen(1)) == fw.gen(1)

    def test_derived_example(self):
        # Oracle: whatever the scan outputs must expand back to the input.
        w = fw.parse_word("a1 a3^2 a1^-1", 3)
        out = glrep.rewrite(w)
        assert glrep.expand(out) == w
        assert out == fw.parse_word("a1 a3 a1^-1", 5)  # x1 x3 x1^-1

    def test_rejects_odd_words(self):
        with pytest.raises(ValueError):
            glrep.rewrite(fw.gen(3))

    def test_round_trip_random(self, rng):
        for _ in range(100):
            w = random_a3_even_word(rng, 40)
            assert glrep.expand(glrep.rewrite(w)) == w


# The per-letter Reidemeister-Schreier scan that the two-state table on
# signed ints replaced, kept as the reference for it: the Schreier
# generator emitted when reading a positive letter a_i at coset state s,
# or None for a transversal letter.
REF_SCHREIER = {
    (0, 1): 1, (0, 2): 2, (0, 3): None,
    (1, 1): 4, (1, 2): 5, (1, 3): 3,
}


def reference_rewrite(w):
    out = []
    state = 0
    for x in w:
        index = abs(x)
        if x < 0 and index == 3:
            state ^= 1
        emitted = REF_SCHREIER[(state, index)]
        if x > 0 and index == 3:
            state ^= 1
        if emitted is not None:
            y = emitted if x > 0 else -emitted
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)


class TestRewriteAgainstReference:
    def test_random_even_words(self, rng):
        for _ in range(2000):
            w = random_a3_even_word(rng, rng.choice((0, 4, 40)))
            got = glrep.rewrite(w)
            assert got == reference_rewrite(w), w
            assert is_reduced(got)

    def test_images_of_the_basis(self, rng):
        # Long words with heavy a3 traffic: images of the subgroup basis
        # under random stabilizing automorphisms.
        for _ in range(40):
            e = random_stabilizing_endo(rng)
            for x in glrep.BASIS:
                w = aut.apply(e, x)
                got = glrep.rewrite(w)
                assert got == reference_rewrite(w)
                assert is_reduced(got)

    def test_corrupt_table_fails_self_check(self, monkeypatch):
        # A scan that emits x5 for a1 from the a3 coset expands to the
        # wrong word; the round-trip self-check must refuse to return it.
        bad = (glrep._SCAN[0], {**glrep._SCAN[1], 1: (5, 1), -1: (-5, 1)})
        monkeypatch.setattr(glrep, "_SCAN", bad)
        assert glrep.rewrite(fw.parse_word("a1 a2", 3)) == fw.parse_word("a1 a2", 5)
        with pytest.raises(RuntimeError, match="round-trip"):
            glrep.rewrite(fw.parse_word("a3 a1 a3^-1", 3))


class TestAb5:
    def test_identity(self):
        assert glrep.ab5(aut.identity_endo(3)) == IDENTITY5

    def test_deck_involution_is_double_swap(self):
        expected = [
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1],
            [0, 0, 1, 0, 0],
            [1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0],
        ]
        assert glrep.sigma_star() == expected

    def test_l12_matrix(self):
        expected = [
            [1, 0, 0, 0, 0],
            [1, 1, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 1, 1],
        ]
        assert glrep.ab5(aut.endo_of(L(1, 2))) == expected

    def test_rejects_non_stabilizing(self):
        with pytest.raises(ValueError):
            glrep.ab5(aut.endo_of(L(1, 3)))

    def test_multiplicative(self, rng):
        for _ in range(25):
            e1 = random_stabilizing_endo(rng)
            e2 = random_stabilizing_endo(rng)
            lhs = glrep.ab5(aut.compose(e1, e2))
            assert mat_mul(glrep.ab5(e1), glrep.ab5(e2)) == lhs


class TestMatPower:
    def test_matches_repeated_products(self, rng):
        for _ in range(10):
            m = glrep.ab5(random_stabilizing_endo(rng))
            acc = IDENTITY5
            for k in range(12):
                assert glrep.mat_power(m, k) == acc
                acc = mat_mul(acc, m)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError, match="k >= 0"):
            glrep.mat_power(IDENTITY5, -1)


# Tokens for random gl-rep expressions: the stabilizing elementary maps,
# plus two (P13, L13) whose square stabilizes although they do not.
GL_TOKENS = ["L12", "L21", "L31", "L32", "R12", "R21", "R31", "R32",
             "E1", "E2", "E3", "P12"]


def word_path_report(text, p):
    """gl-rep by the word path: ab5 rewrites the images of X^p.  Returns
    (0, ab5, mu, images) or (2, error message)."""
    try:
        endo = aut.endo_of(aut.expr_power(aut.parse_autexpr(text), p))
        m5 = glrep.ab5(endo)
    except ValueError as exc:
        return 2, str(exc)
    images = {f"a{i + 1}": fw.format_word(w) for i, w in enumerate(endo.images)}
    return 0, m5, glrep.restrict_to_eigenplane(m5), images


def gl_rep_report(text, p):
    code, report = run_cli(["gl-rep", text, "--power", str(p)])
    if code != 0:
        return code, report.payload["error"]
    (stab, _) = report.checks
    return code, report.payload["ab5"], report.payload["mu"], stab.witness["images"]


class TestGlRepPowers:
    """gl-rep takes ab5(X^p) as ab5(X^(sign p))^|p|; the word path is the
    reference."""

    def test_random_expressions(self, rng):
        for trial in range(60):
            tokens = GL_TOKENS + ["P13", "L13"] * (trial % 3 == 0)
            text = " ".join(
                f"{rng.choice(tokens)}^{rng.choice((-2, -1, 1, 2, 3))}"
                for _ in range(rng.randint(1, 4))
            )
            p = rng.randint(-12, 12)
            assert gl_rep_report(text, p) == word_path_report(text, p), (text, p)

    @pytest.mark.parametrize(
        "text,p",
        [
            ("L21", 50_000),
            ("R12^-3", 20_000),
            ("P12 L21 R12 P12", 11),
            ("L21 R12", -11),
            ("P13", 2),
            ("L13", 2),
            ("L13", -2),
            ("L21 R12", 0),
            # The square of X^10 is bounded over the letter cap, so the
            # factors of X^p are composed one at a time.
            ("L13^-1 L31^-2 R13", 20),
            ("L13^-1 L31^-2 R13", -80),
        ],
    )
    def test_cases(self, text, p):
        report = gl_rep_report(text, p)
        assert report[0] == 0
        assert report == word_path_report(text, p)

    @pytest.mark.parametrize(
        "text,p", [("P13", 3), ("L13 L31", 2), ("L13", 1), ("L21", 100_000)]
    )
    def test_refusals(self, text, p):
        report = gl_rep_report(text, p)
        assert report[0] == 2
        assert report == word_path_report(text, p)

    @pytest.mark.parametrize("p", [40_000, -40_000])
    def test_long_polynomial_power(self, p):
        # 80,000 factors: composed one at a time they would write over
        # MAX_ENDO_WORK letters; squared, the two moved images have
        # 40,001 letters each.  The reference ab5 rewrites those images,
        # written out by hand.
        code, m5, m2, images = gl_rep_report("L21 R31", p)
        a1_p = fw.power(fw.gen(1), p)
        assert (code, images) == (
            0, {"a1": "a1", "a2": fw.format_word(a1_p + (2,)),
                "a3": fw.format_word((3,) + a1_p)},
        )
        assert m5 == glrep.ab5(aut.Endo((fw.gen(1), a1_p + (2,), (3,) + a1_p)))
        assert m2 == glrep.restrict_to_eigenplane(m5)

    def test_power_zero_builds_no_image_of_x(self):
        # X alone is over the letter cap; X^0 is the identity.
        text = "L12 L21 " * 40
        assert gl_rep_report(text, 1) == (2, "images would exceed 100000 letters")
        code, m5, m2, images = gl_rep_report(text, 0)
        assert (code, m5, m2) == (0, IDENTITY5, [[1, 0], [0, 1]])
        assert images == {"a1": "a1", "a2": "a2", "a3": "a3"}


class TestSanovPowers:
    """sanov takes mu(X^p) as mu(X^(sign p))^|p|; the word path, mu of the
    images of X^p, is the reference."""

    def test_matches_word_path(self):
        for p in [*range(-20, 0), *range(1, 21), 99_999, -99_999]:
            code, report = run_cli(["sanov", "--power", str(p), "--max-len", "2"])
            assert code == 0, p
            for key, x in (("mu_L12_power", L(1, 2)), ("mu_L21_power", L(2, 1))):
                expected = glrep.mu(aut.endo_of(aut.expr_power(x, p)))
                assert report.payload[key] == expected, (p, key)

    @pytest.mark.parametrize("p", [100_000, -100_000, 2_000_000_000])
    def test_refusal(self, p):
        code, report = run_cli(["sanov", "--power", str(p)])
        assert (code, report.payload["error"]) == (
            2, f"L12^{p} makes an image over 100000 letters"
        )


class TestEigenplane:
    def test_canonical_basis(self):
        assert glrep.minus_eigenbasis() == ((1, 0, 0, -1, 0), (0, 1, 0, 0, -1))

    def test_involution(self):
        sigma = glrep.sigma_star()
        assert mat_mul(sigma, sigma) == IDENTITY5

    def test_eigenbasis_computed_once(self, monkeypatch):
        calls = []
        real = glrep.sigma_star

        def counting():
            calls.append(1)
            return real()

        glrep.minus_eigenbasis.cache_clear()
        monkeypatch.setattr(glrep, "sigma_star", counting)
        try:
            glrep.restrict_to_eigenplane(IDENTITY5)
            glrep.restrict_to_eigenplane(IDENTITY5)
        finally:
            glrep.minus_eigenbasis.cache_clear()
        assert len(calls) == 1

    def test_certificate_rejects_three_dimensional_eigenspace(self, monkeypatch):
        # x3 -> -x3 keeps x1 - x4 and x2 - x5 as (-1)-eigenvectors but
        # adds a third, so every 3x3 minor of sigma + I vanishes.
        sigma = [row[:] for row in glrep.sigma_star()]
        sigma[2][2] = -1
        glrep.minus_eigenbasis.cache_clear()
        monkeypatch.setattr(glrep, "sigma_star", lambda: sigma)
        try:
            with pytest.raises(RuntimeError, match="dimension"):
                glrep.minus_eigenbasis()
        finally:
            glrep.minus_eigenbasis.cache_clear()

    def test_certificate_rejects_wrong_eigenvectors(self, monkeypatch):
        glrep.minus_eigenbasis.cache_clear()
        monkeypatch.setattr(glrep, "sigma_star", lambda: [row[:] for row in IDENTITY5])
        try:
            with pytest.raises(RuntimeError, match="eigenvector"):
                glrep.minus_eigenbasis()
        finally:
            glrep.minus_eigenbasis.cache_clear()

    def test_restrict_rejects_non_invariant(self):
        bad = [row[:] for row in IDENTITY5]
        bad[2][0] = 1  # image of x1 - x4 picks up an x3 component
        with pytest.raises(ValueError):
            glrep.restrict_to_eigenplane(bad)


class TestMu:
    def test_identity(self):
        assert glrep.mu(aut.identity_endo(3)) == [[1, 0], [0, 1]]

    def test_elementary_values(self):
        assert glrep.mu(aut.endo_of(L(1, 2))) == [[1, 0], [1, 1]]
        assert glrep.mu(aut.endo_of(L(2, 1))) == [[1, 1], [0, 1]]

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_powers_are_elementary(self, p):
        assert glrep.mu(aut.endo_of(aut.expr_power(L(1, 2), p))) == [[1, 0], [p, 1]]
        assert glrep.mu(aut.endo_of(aut.expr_power(L(2, 1), p))) == [[1, p], [0, 1]]

    def test_power_compatibility(self):
        m = glrep.mu(aut.endo_of(L(1, 2)))
        acc = [[1, 0], [0, 1]]
        for p in range(1, 6):
            acc = mat2_mul(acc, m)
            assert acc == glrep.mu(aut.endo_of(aut.expr_power(L(1, 2), p)))

    def test_multiplicative(self, rng):
        for _ in range(25):
            e1 = random_stabilizing_endo(rng)
            e2 = random_stabilizing_endo(rng)
            assert glrep.mu(aut.compose(e1, e2)) == mat2_mul(
                glrep.mu(e1), glrep.mu(e2)
            )

    def test_unimodular(self, rng):
        for _ in range(25):
            assert glrep.mat2_det(glrep.mu(random_stabilizing_endo(rng))) in (1, -1)


class TestLkBasis:
    def test_k2(self):
        assert glrep.lk_basis(2) == (fw.gen(2), fw.gen(1))

    def test_k3(self):
        words = glrep.lk_basis(3)
        assert [fw.format_word(w) for w in words] == ["a2", "a1 a2 a1^-1", "a1^2"]

    def test_k5_exponent_sum(self):
        words = glrep.lk_basis(5)
        assert len(words) == 5
        total = sum(fw.ab_vector(w, 2)[0] for w in words)
        assert total == 4

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            glrep.lk_basis(1)

    def test_letter_cap(self):
        # The basis has k(k-1) letters: 99,540 at k = 316, 100,172 at 317.
        words = glrep.lk_basis(316)
        assert sum(map(len, words)) == 316 * 315 <= fw.MAX_WORD_LETTERS
        assert all(map(is_reduced, words))
        with pytest.raises(ValueError, match=r"need k\(k - 1\) <= 100000 letters"):
            glrep.lk_basis(317)


IDENTITY2 = [[1, 0], [0, 1]]


def reference_no_short_relation(m1, m2, max_len):
    """The exhaustive depth-first search over reduced words, kept as the
    reference for the meet-in-the-middle search."""
    letters = [m1, glrep.mat2_inv(m1), m2, glrep.mat2_inv(m2)]

    def search(prod, last, depth):
        for idx, m in enumerate(letters):
            if last >= 0 and idx == (last ^ 1):
                continue  # would cancel the previous letter
            nxt = mat2_mul(prod, m)
            if nxt == IDENTITY2:
                return False
            if depth + 1 < max_len and not search(nxt, idx, depth + 1):
                return False
        return True

    return search(IDENTITY2, -1, 0)


# Elements of order 3, 4, 6 and 2 (two of them) in GL(2, Z).
FINITE_ORDER = [
    [[0, -1], [1, -1]],
    [[0, -1], [1, 0]],
    [[1, -1], [1, 0]],
    [[0, 1], [1, 0]],
    [[-1, 0], [0, -1]],
]


def random_unimodular(rng, bound):
    while True:
        m = [[rng.randint(-bound, bound) for _ in range(2)] for _ in range(2)]
        if glrep.mat2_det(m) in (1, -1):
            return m


def random_search_matrix(rng):
    roll = rng.random()
    if roll < 0.1:
        return rng.choice((IDENTITY2, [[-1, 0], [0, -1]]))
    if roll < 0.25:
        k = rng.randint(-2, 2)
        return rng.choice(([[1, k], [0, 1]], [[1, 0], [k, 1]]))
    if roll < 0.5:
        g = random_unimodular(rng, 1)
        return mat2_mul(mat2_mul(g, rng.choice(FINITE_ORDER)), glrep.mat2_inv(g))
    return random_unimodular(rng, rng.randint(1, 3))


def random_search_pair(rng):
    m1 = random_search_matrix(rng)
    roll = rng.random()
    if roll < 0.08:
        return m1, m1
    if roll < 0.16:
        return m1, glrep.mat2_inv(m1)
    if roll < 0.24:
        return m1, mat2_mul(m1, m1)
    return m1, random_search_matrix(rng)


class TestNoShortRelation:
    def test_sanov_pair_is_free_to_length_8(self):
        m1 = glrep.mu(aut.endo_of(aut.expr_power(L(1, 2), 2)))
        m2 = glrep.mu(aut.endo_of(aut.expr_power(L(2, 1), 2)))
        assert m1 == [[1, 0], [2, 1]] and m2 == [[1, 2], [0, 1]]
        assert glrep.no_short_relation(m1, m2, 8)

    def test_identity_generator_fails(self):
        assert not glrep.no_short_relation([[1, 0], [0, 1]], [[1, 2], [0, 1]], 1)

    def test_repeated_generator_fails(self):
        m = [[1, 2], [0, 1]]
        assert not glrep.no_short_relation(m, m, 2)

    def test_power_one_has_relations(self):
        # With exponent +-1 the pair is not free: it satisfies the braid
        # relation m1 m2^-1 m1 = m2^-1 m1 m2^-1, of length 6, and nothing
        # shorter; (m1 m2^-1 m1)^4 = I is a relation of length 12.
        for p in (1, -1):
            m1 = glrep.mu(aut.endo_of(aut.expr_power(L(1, 2), p)))
            m2 = glrep.mu(aut.endo_of(aut.expr_power(L(2, 1), p)))
            assert glrep.no_short_relation(m1, m2, 5)
            assert not glrep.no_short_relation(m1, m2, 6)
            assert not glrep.no_short_relation(m1, m2, 12)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            glrep.no_short_relation([[2, 0], [0, 1]], [[1, 0], [0, 1]], 2)

    @pytest.mark.parametrize("max_len", [0, -5])
    def test_nonpositive_length_rejected(self, max_len):
        with pytest.raises(ValueError, match="max_len"):
            glrep.no_short_relation([[1, 0], [2, 1]], [[1, 2], [0, 1]], max_len)

    def test_search_cap(self):
        cap = glrep.MAX_SEARCH_LEN
        free = [[1, 0], [2, 1]], [[1, 2], [0, 1]]
        assert glrep.no_short_relation(*free, cap)
        with pytest.raises(ValueError, match="over the cap"):
            glrep.no_short_relation(*free, cap + 1)
        # A relation inside the cap still answers a longer bound.
        braid = [[1, 0], [1, 1]], [[1, 1], [0, 1]]
        assert not glrep.no_short_relation(*braid, 10 ** 6)

    def test_matches_depth_first_reference(self, rng):
        shortest = collections.Counter()
        for _ in range(3000):
            m1, m2 = random_search_pair(rng)
            cap = rng.randint(1, 8)
            ell = next(
                (n for n in range(1, cap + 1)
                 if not reference_no_short_relation(m1, m2, n)),
                None,
            )
            shortest[ell] += 1
            for n in range(1, cap + 1):
                expected = ell is None or n < ell
                assert glrep.no_short_relation(m1, m2, n) is expected, (m1, m2, n)
        # The pairs reach every shortest length from 1 to 8, and some
        # have no relation within their bound.
        assert set(shortest) == {None, *range(1, 9)}
