import itertools
import time

import pytest

from autgeom import automorphisms as aut
from autgeom import glrep
from autgeom import words as fw
from autgeom.automorphisms import (
    commutator,
    conjugate_expr,
    expr_power,
    format_expr,
    inverse,
    inversion,
    nielsen_left,
    nielsen_right,
)
from autgeom.reports import all_pass

from conftest import is_reduced, naive_reduce, random_word, swap

L, R, E, P = nielsen_left, nielsen_right, inversion, swap


def random_expr(rng, max_len=6, exps=(-2, -1, 1, 2)):
    factories = [L, R, lambda i, j: E(i), P]
    out = ()
    for _ in range(rng.randint(1, max_len)):
        i, j = rng.sample(range(1, 4), 2)
        out = out + expr_power(rng.choice(factories)(i, j), rng.choice(exps))
    return out


class TestEndoOf:
    def test_left_nielsen_images(self):
        e = aut.endo_of(L(2, 1))
        assert e.images == (
            fw.gen(1),
            fw.parse_word("a1 a2", 3),
            fw.gen(3),
        )

    def test_inversion_squared_is_identity(self):
        assert aut.equal(aut.endo_of(expr_power(E(2), 2)), aut.identity_endo(3))

    def test_inverse_right_nielsen(self):
        # Verified by substitution: the claimed inverse composes to identity.
        e = aut.endo_of(inverse(R(2, 1)))
        assert e.images[1] == fw.parse_word("a2 a1^-1", 3)
        assert aut.equal(aut.compose(e, aut.endo_of(R(2, 1))), aut.identity_endo(3))

    def test_transposition(self):
        e = aut.endo_of(P(1, 3))
        assert e.images == (fw.gen(3), fw.gen(2), fw.gen(1))

    def test_syntactic_inverse_is_sound(self, rng):
        for _ in range(50):
            x = random_expr(rng, max_len=10)
            assert all(map(is_reduced, aut.endo_of(x).images))
            assert aut.equal(aut.endo_of(x + inverse(x)), aut.identity_endo(3))


def naive_images(x):
    """The images of the factor list x by letter substitution on raw lists.

    Under (f g)(w) = f(g(w)) the last factor acts first, so each basis
    letter goes through the factors right to left; nothing is reduced
    until naive_reduce runs on the end result.
    """

    def image(kind, i, j, exp, letter):
        """The raw image of one letter under one factor."""
        a = abs(letter)
        if kind in "LR" and a == i:
            run = [j if exp > 0 else -j] * abs(exp)
            raw = run + [i] if kind == "L" else [i] + run
        elif kind == "E" and a == i and exp % 2:
            raw = [-i]
        elif kind == "P" and a in (i, j) and exp % 2:
            raw = [i + j - a]
        else:
            raw = [a]
        return raw if letter > 0 else [-y for y in reversed(raw)]

    images = []
    for t in range(1, aut.RANK + 1):
        raw = [t]
        for factor in reversed(x):
            raw = [y for letter in raw for y in image(*factor, letter)]
        images.append(naive_reduce(raw))
    return tuple(images)


class TestEndoOfOracle:
    def test_random_factor_lists(self, rng):
        exps = (0, 1, -1, 2, -2, 3, -3)
        seen = set()
        for _ in range(300):
            x = []
            for _ in range(rng.randint(0, 5)):
                kind, exp = rng.choice("LREP"), rng.choice(exps)
                i, j = rng.sample(range(1, 4), 2)
                x.append((kind, i, 0 if kind == "E" else j, exp))
                seen.add((kind, exp))
            x = tuple(x)
            assert aut.endo_of(x).images == naive_images(x), format_expr(x)
        assert seen == {(kind, exp) for kind in "LREP" for exp in exps}

    def test_empty_expression(self):
        assert aut.endo_of(()) == aut.identity_endo(3)
        assert naive_images(()) == aut.identity_endo(3).images


class TestImageCap:
    def test_elementary_image_cap_is_exact(self):
        n = fw.MAX_WORD_LETTERS
        assert len(aut.endo_of(expr_power(R(1, 2), -(n - 1))).images[0]) == n
        with pytest.raises(ValueError, match="image over"):
            aut.endo_of(expr_power(L(1, 2), n))
        # Swaps and inversions keep their images short at any exponent.
        assert aut.equal(aut.endo_of(expr_power(E(1), 2 * n)), aut.identity_endo(3))
        assert aut.equal(aut.endo_of(expr_power(P(1, 2), 2 * n)), aut.identity_endo(3))

    def test_factor_count_cap(self):
        n = fw.MAX_WORD_LETTERS
        assert len(expr_power(E(1) + E(2), n // 2)) == n
        with pytest.raises(ValueError, match="factors"):
            expr_power(E(1) + E(2), -(n // 2 + 1))

    def test_growth_refused_before_compose(self):
        # The longest image of (L12 L21)^k has Fibonacci length F(2k + 2):
        # 46,368 letters at k = 11, 121,393 at k = 12.
        x = L(1, 2) + L(2, 1)
        assert max(map(len, aut.endo_of(expr_power(x, 11)).images)) == 46_368
        for k in (12, 40):
            with pytest.raises(ValueError, match="exceed"):
                aut.endo_of(expr_power(x, k))

    def test_work_cap(self):
        # The k-th of n L21 factors bounds the images by k + 3 letters,
        # so n factors write n(n + 1)/2 + 3n: 8,014,000 at n = 4,000 and
        # 12,515,000 at n = 5,000, around MAX_ENDO_WORK = 10,000,000.
        assert aut.MAX_ENDO_WORK == 100 * fw.MAX_WORD_LETTERS
        assert len(aut.endo_of(aut.parse_autexpr("L21 " * 4000)).images[1]) == 4001
        for text in ("L21 " * 5000, "L21 " * 100_000, "L21 L31 " * 10_000):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="^composing the factors would write"):
                aut.endo_of(aut.parse_autexpr(text))
            assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("x,error", [
        (aut.parse_autexpr("L12^100000"), "L12^100000 makes an image over 100000 letters"),
        (expr_power(L(1, 2) + L(2, 1), 12), "images would exceed 100000 letters"),
        (aut.parse_autexpr("L21 " * 5000),
         "composing the factors would write over 10000000 letters"),
    ])
    def test_refusal_messages(self, x, error):
        with pytest.raises(ValueError) as exc:
            aut.endo_of(x)
        assert str(exc.value) == error

    def test_bound_cap_is_checked_before_work_cap(self):
        # 4,468 L21 factors sum 9,997,150 letters of bounds and leave
        # a2 -> a1^4468 a2.  L12^22 then bounds a1 by 98,319 letters,
        # within the letter cap, and its 102,789 letters of bounds cross
        # the work cap; L12^23 crosses both at once, and the letter cap
        # is named.
        prefix = aut.parse_autexpr("L21 " * 4468)
        assert len(aut.endo_of(prefix).images[1]) == 4469
        with pytest.raises(ValueError, match="^composing the factors"):
            aut.endo_of(prefix + expr_power(L(1, 2), 22))
        with pytest.raises(ValueError, match="^images would exceed 100000 letters$"):
            aut.endo_of(prefix + expr_power(L(1, 2), 23))


class TestEndoPower:
    """endo_power against endo_of(expr_power(x, p)), which takes the
    factors of x^p one at a time."""

    @staticmethod
    def assert_matches_factor_path(x, p):
        unit = aut.endo_of(expr_power(x, 1 if p > 0 else -1))
        expected = aut.endo_of(expr_power(x, p))
        assert aut.endo_power(unit, abs(p)) == expected, (format_expr(x), p)

    def test_random_expressions(self, rng):
        compared = stabilizing = zero = 0
        for _ in range(150):
            # At least two factors, so x^p is not one closed-form factor.
            x = random_expr(rng, max_len=3) + random_expr(rng, max_len=3)
            p = rng.randint(-12, 12)
            try:
                aut.endo_of(expr_power(x, p))
                self.assert_matches_factor_path(x, p)
            except ValueError:
                continue  # over a cap of either path
            compared += 1
            stabilizing += glrep.stabilizes(aut.endo_of(x))
            zero += p == 0
        assert compared >= 100 and 0 < stabilizing < compared and zero > 0

    @pytest.mark.parametrize(
        "text,p",
        [
            ("P13", 2),  # does not stabilize the even-a3 subgroup; P13^2 does
            ("P13 L21", 2),
            ("L13 L31", 2),
            ("L21 R12", 0),
            ("L21 R12", -11),
        ],
    )
    def test_cases(self, text, p):
        self.assert_matches_factor_path(aut.parse_autexpr(text), p)

    def test_cancelling_images_are_refused(self):
        # The bound counts letters that cancel: the square of X^10 (images
        # of 345 and 347 letters) is bounded by 120,081, although X^20
        # has images of 1,485 and 1,487 letters.
        x = aut.parse_autexpr("L13^-1 L31^-2 R13")
        assert [len(w) for w in aut.endo_of(expr_power(x, 20)).images] == [1485, 1, 1487]
        with pytest.raises(ValueError, match="^images would exceed 100000 letters$"):
            aut.endo_power(aut.endo_of(x), 20)

    def test_logarithmic_compositions(self, monkeypatch):
        unit = aut.endo_of(aut.parse_autexpr("L21 R31"))
        calls = []
        real = aut.compose
        monkeypatch.setattr(aut, "compose", lambda e1, e2: calls.append(1) or real(e1, e2))
        out = aut.endo_power(unit, 40_000)
        # 40,000 has 16 bits, 5 of them set: 15 squares and 4 products.
        assert len(calls) == 19
        assert out.images == (fw.gen(1), (1,) * 40_000 + (2,), (3,) + (1,) * 40_000)

    def test_refusals(self):
        with pytest.raises(ValueError, match="k >= 0"):
            aut.endo_power(aut.identity_endo(3), -1)
        # (L12 L21)^k has a longest image of F(2k + 2) letters.
        x = aut.endo_of(L(1, 2) + L(2, 1))
        assert max(map(len, aut.endo_power(x, 11).images)) == 46_368
        for k in (12, 40, 10**9):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="^images would exceed 100000 letters$"):
                aut.endo_power(x, k)
            assert time.perf_counter() - start < 1.0


class TestApplyComposeEqual:
    def test_apply_is_homomorphism(self):
        got = aut.apply(aut.endo_of(L(2, 1)), fw.parse_word("a2 a2", 3))
        assert got == fw.parse_word("a1 a2 a1 a2", 3)

    def test_inner_composition(self):
        a1, a2 = fw.gen(1), fw.gen(2)
        lhs = aut.compose(aut.inner(a1, 3), aut.inner(a2, 3))
        assert aut.equal(lhs, aut.inner(fw.mul(a1, a2), 3))

    def test_equal_left_right_products(self):
        assert aut.equal(
            aut.endo_of(L(2, 1) + R(2, 1)), aut.endo_of(R(2, 1) + L(2, 1))
        )

    def test_compose_contract(self, rng):
        for _ in range(25):
            e1, e2 = aut.endo_of(random_expr(rng)), aut.endo_of(random_expr(rng))
            w = random_word(rng, 3, 10)
            assert aut.apply(aut.compose(e1, e2), w) == aut.apply(e1, aut.apply(e2, w))


def substitute_all(e1, e2):
    """compose written out: every image of e2 goes through substitute."""
    return aut.Endo(tuple(fw.substitute(img, e1.images) for img in e2.images))


def random_endo(rng, rank, fixed=0.0, empty=0.0, max_len=8):
    """An endomorphism, not necessarily invertible: each image is a_i
    with probability ``fixed``, else empty with probability ``empty``,
    else a random reduced word."""
    images = []
    for i in range(1, rank + 1):
        if rng.random() < fixed:
            images.append(fw.gen(i))
        elif rng.random() < empty:
            images.append(fw.empty())
        else:
            images.append(random_word(rng, rank, max_len))
    return aut.Endo(tuple(images))


class TestComposeSkipsFixedLetters:
    """compose passes an image with no letter that e1 moves through
    unchanged; it must agree with substituting every image."""

    def check(self, rng, e1, e2):
        rank = len(e1.images)
        got = aut.compose(e1, e2)
        assert got == substitute_all(e1, e2)
        assert all(map(is_reduced, got.images))
        w = random_word(rng, rank, 12)
        assert aut.apply(got, w) == aut.apply(e1, aut.apply(e2, w))

    def test_random_ranks(self, rng):
        for rank in range(1, 10):
            for _ in range(20):
                self.check(rng, random_endo(rng, rank), random_endo(rng, rank))

    def test_identity_heavy(self, rng):
        for rank in range(1, 10):
            for fixed in (0.5, 0.8, 1.0):
                for _ in range(10):
                    e1 = random_endo(rng, rank, fixed=fixed)
                    self.check(rng, e1, random_endo(rng, rank, fixed=fixed))
                    self.check(rng, e1, e1)

    def test_empty_images(self, rng):
        for rank in range(1, 10):
            for _ in range(10):
                e1 = random_endo(rng, rank, fixed=0.3, empty=0.5)
                e2 = random_endo(rng, rank, fixed=0.3, empty=0.5)
                self.check(rng, e1, e2)
                self.check(rng, e2, e1)

    def test_gpq_shaped(self, rng):
        # As in gpq_check: right multipliers of the last generator by a
        # word in the first rank - 3, against t with long images.
        for rank in range(4, 10):
            for _ in range(5):
                u = random_word(rng, rank - 3, 10)
                p, q = rng.choice((-3, -1, 2)), rng.choice((-2, 1, 3))
                alpha = aut.right_multiplier(rank, rank, u)
                beta = aut.right_multiplier(rank, rank, fw.gen(rank - 2))
                t_images = [fw.gen(i) for i in range(1, rank + 1)]
                t_images[rank - 3] = fw.mul(fw.gen(rank - 2), fw.power(u, p))
                t_images[rank - 2] = fw.mul(fw.gen(rank - 1), fw.power(u, q))
                t = aut.Endo(tuple(t_images))
                for e1, e2 in itertools.permutations((alpha, beta, t), 2):
                    self.check(rng, e1, e2)
                self.check(rng, aut.compose(beta, alpha), t)


class TestInner:
    def test_inner_empty_is_identity(self):
        assert aut.equal(aut.inner(fw.empty(), 3), aut.identity_endo(3))

    def test_inner_definition(self):
        e = aut.inner(fw.gen(1), 3)
        assert e.images[1] == fw.parse_word("a1 a2 a1^-1", 3)

    def test_functoriality(self, rng):
        # phi inner(g) phi^-1 = inner(phi(g)), in the inverse-free form.
        for _ in range(30):
            phi = aut.endo_of(random_expr(rng))
            g = random_word(rng, 3, 12)
            assert aut.equal(
                aut.compose(phi, aut.inner(g, 3)),
                aut.compose(aut.inner(aut.apply(phi, g), 3), phi),
            )


class TestIsInner:
    def test_identity(self):
        assert aut.is_inner(aut.identity_endo(3)) == fw.empty()

    def test_round_trip_example(self):
        g = fw.parse_word("a1 a2^-1", 3)
        assert aut.is_inner(aut.inner(g, 3)) == g

    def test_nielsen_not_inner(self):
        assert aut.is_inner(aut.endo_of(L(2, 1))) is None

    def test_round_trip_random(self, rng):
        for _ in range(60):
            g = random_word(rng, 3, 20)
            found = aut.is_inner(aut.inner(g, 3))
            assert found is not None
            assert aut.equal(aut.inner(found, 3), aut.inner(g, 3))
            # Conjugators are unique in rank >= 2, so the round trip is exact.
            assert found == g

    def test_rank_one(self):
        assert aut.is_inner(aut.identity_endo(1)) == fw.empty()
        flip = aut.Endo((fw.gen(1, -1),))
        assert aut.is_inner(flip) is None


class TestVerifyRelation:
    def test_left_commutator_identity(self):
        lhs = commutator(inverse(L(2, 3)), inverse(L(3, 1)))
        assert aut.verify_relation(lhs, inverse(L(2, 1)))

    def test_right_commutator_identity(self):
        lhs = commutator(inverse(R(2, 3)), inverse(R(3, 1)))
        assert aut.verify_relation(lhs, inverse(R(2, 1)))

    def test_inversion_swap(self):
        assert aut.verify_relation(conjugate_expr(inverse(L(2, 1)), E(2)), R(2, 1))
        assert aut.verify_relation(conjugate_expr(L(3, 1), E(2)), L(3, 1))

    def test_out_mode_weaker(self):
        # Differ by an inner automorphism: equal in Out, not in Aut.
        prod = inverse(L(2, 1)) + R(2, 1) + inverse(L(3, 1)) + R(3, 1)
        trivial = ()
        assert not aut.verify_relation(prod, trivial, "aut")
        assert aut.verify_relation(prod, trivial, "out")

    def test_aut_implies_out(self, rng):
        for _ in range(15):
            x = random_expr(rng)
            y = random_expr(rng)
            lhs, rhs = x + y, x + y  # trivially equal pair
            assert aut.verify_relation(lhs, rhs, "aut")
            assert aut.verify_relation(lhs, rhs, "out")

    def test_left_right_conjugate_all_ranks(self):
        # Every ordered index pair of rank 3, the rank of every expression.
        for i, j in itertools.permutations(range(1, 4), 2):
            lhs = conjugate_expr(L(i, j), E(i))
            assert aut.verify_relation(lhs, inverse(R(i, j)))


class TestGpq:
    def test_basic(self):
        checks = aut.gpq_check(4, 1, 2, fw.parse_word("a1", 2))
        assert all_pass(checks) and len(checks) == 3

    def test_equal_parameters_still_algebraic(self):
        assert all_pass(aut.gpq_check(4, 3, 3, fw.parse_word("a1", 2)))

    def test_longer_word(self):
        assert all_pass(aut.gpq_check(5, 2, 3, fw.parse_word("a1 a2^-1", 3)))

    def test_negative_parameter(self):
        assert all_pass(aut.gpq_check(4, -1, 3, fw.parse_word("a1", 2)))

    def test_forbidden_generator(self):
        with pytest.raises(ValueError, match="forbidden"):
            aut.gpq_check(4, 1, 2, fw.parse_word("a3", 3))

    def test_zero_parameter(self):
        with pytest.raises(ValueError):
            aut.gpq_check(4, 0, 2, fw.parse_word("a1", 2))

    def test_random_words(self, rng):
        for n in (3, 4, 5):
            for _ in range(5):
                w = random_word(rng, n - 2, 6)
                assert all_pass(aut.gpq_check(n, 1, 2, w))


class TestInnerGpq:
    @pytest.mark.parametrize("p,q", [(1, 2), (3, 3), (-1, 4)])
    def test_relations_hold(self, p, q):
        assert all_pass(aut.inner_gpq_check(p, q))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            aut.inner_gpq_check(0, 1)


class TestNielsenZ4:
    def test_all_checks_pass(self):
        checks = aut.nielsen_z4_check()
        assert all_pass(checks)

    def test_commutation_count(self):
        names = [c.name for c in aut.nielsen_z4_check()]
        assert sum(1 for n in names if n.startswith("commute-")) == 6

    def test_recorded_sign(self):
        # Under the fixed composition convention the product is the inner
        # automorphism of a1^-1; the report must record that sign.
        by_name = {c.name: c for c in aut.nielsen_z4_check()}
        witness = by_name["z4-product-is-inner-a1"].witness
        assert witness["inner_power_of_a1"] == -1
        assert witness["conjugator"] == "a1^-1"


class TestIdentitySuite:
    def test_aut_mode_all_pass(self):
        assert all_pass(aut.identity_suite("aut"))

    def test_out_mode_all_pass(self):
        checks = aut.identity_suite("out")
        assert all_pass(checks)
        assert any(c.name == "z4-product-vanishes-mod-inner" for c in checks)


class TestExprGrammar:
    def test_parse_tokens(self):
        x = aut.parse_autexpr("L21 R13^-2 E2 P12^3")
        assert format_expr(x) == "L21 R13^-2 E2 P12^3"
        assert aut.equal(aut.endo_of(x), aut.endo_of(x))

    def test_parse_matches_constructors(self):
        assert aut.equal(
            aut.endo_of(aut.parse_autexpr("L21^2")),
            aut.endo_of(expr_power(L(2, 1), 2)),
        )

    def test_parse_error_position(self):
        with pytest.raises(ValueError, match="^char 4: bad token 'X9'$"):
            aut.parse_autexpr("L21 X9")

    def test_repeated_tokens(self):
        x = aut.parse_autexpr("L21 E3^0 L21 R13^-2 L21 E3^0")
        assert format_expr(x) == "L21 L21 R13^-2 L21"
        with pytest.raises(ValueError, match="^char 8: indices must differ$"):
            aut.parse_autexpr("L21 L21 L11 L11")

    def test_bad_indices(self):
        with pytest.raises(ValueError, match="^char 0: indices must differ$"):
            aut.parse_autexpr("L11")
        with pytest.raises(ValueError, match="^char 0: index 4 out of range"):
            aut.parse_autexpr("L14")  # out of range for rank 3

    def test_constructors_check_indices(self):
        with pytest.raises(ValueError, match="^index 4 out of range for rank 3$"):
            L(1, 4)
        with pytest.raises(ValueError, match="^index 0 out of range for rank 3$"):
            R(0, 2)
        with pytest.raises(ValueError, match="^index 4 out of range for rank 3$"):
            E(4)
        with pytest.raises(ValueError, match="^indices must differ$"):
            L(2, 2)


class TestTupleApi:
    """Expressions are tuples of (kind, i, j, exp) factors; products are +."""

    def test_format_parse_round_trip(self, rng):
        assert format_expr(()) == "1" and aut.parse_autexpr("1") == ()
        assert aut.parse_autexpr("E3^0 1 E3^0") == ()
        for _ in range(200):
            x = random_expr(rng, max_len=8, exps=(-7, -2, -1, 1, 2, 3, 12))
            assert aut.parse_autexpr(format_expr(x)) == x
            # "E3^0" and "1" are identity tokens the parser drops.
            tokens = format_expr(x).split()
            for _ in range(rng.randint(1, 3)):
                tokens.insert(rng.randint(0, len(tokens)), rng.choice(("E3^0", "1")))
            assert aut.parse_autexpr(" ".join(tokens)) == x

    def test_power_matches_concatenation(self, rng):
        for _ in range(60):
            x = random_expr(rng, max_len=3)
            for k in range(-6, 7):
                repeated = (x if k > 0 else inverse(x)) * abs(k)
                got = expr_power(x, k)
                if len(x) == 1:
                    # A single factor takes the exponent itself.
                    kind, i, j, exp = x[0]
                    assert got == (((kind, i, j, exp * k),) if k else ())
                else:
                    assert got == repeated
                assert aut.endo_of(got) == aut.endo_of(repeated)

    def test_endo_of_power_matches_composition(self, rng):
        for _ in range(25):
            x = random_expr(rng, max_len=3, exps=(-1, 1))
            e, e_inv = aut.endo_of(x), aut.endo_of(inverse(x))
            acc = aut.identity_endo(3)
            for k in range(0, 7):
                assert aut.endo_of(expr_power(x, k)) == acc
                acc = aut.compose(acc, e)
            acc = aut.identity_endo(3)
            for k in range(0, -7, -1):
                assert aut.endo_of(expr_power(x, k)) == acc
                acc = aut.compose(acc, e_inv)

    def test_inverse_is_syntactic(self):
        x = aut.parse_autexpr("L21 R13^-2 E2 P12^3")
        assert format_expr(inverse(x)) == "P12^-3 E2^-1 R13^2 L21^-1"
        assert inverse(inverse(x)) == x and inverse(()) == ()
