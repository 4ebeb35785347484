from fractions import Fraction
from math import gcd, lcm

import pytest

from autgeom import flats, latgeom as lg, linalg
from autgeom.flats import AffineIsometry

from conftest import constraint, fraction_equidistant_check, octo_flags


def isometry(block_dim, source, signs, vector):
    """The AffineIsometry translating by a rational vector: its entries
    scaled to integers over their least common denominator."""
    v = [Fraction(x) for x in vector]
    den = lcm(*(x.denominator for x in v))
    return AffineIsometry(block_dim, tuple(source), tuple(signs),
                          tuple(int(x * den) for x in v), den)


def pure_translation(vector):
    return isometry(len(vector), (0,), (1,), vector)


def translation_vector(iso):
    return [Fraction(t, iso.den) for t in iso.translation]


def length_and_point(g):
    """trans_length_sq with its witness as Fractions."""
    length_sq, witness, den = flats.trans_length_sq(g)
    return length_sq, tuple(Fraction(w, den) for w in witness)


def apply(iso, point):
    """g(x) = O x + t, coordinate by coordinate from the definition."""
    k = iso.block_dim
    return tuple(
        iso.signs[i // k] * Fraction(point[iso.source[i // k] * k + i % k]) + t
        for i, t in enumerate(translation_vector(iso))
    )


def displacement_sq(iso, point):
    moved = apply(iso, point)
    return sum((m - p) ** 2 for m, p in zip(moved, [Fraction(x) for x in point]))


def orthogonal_matrix(iso):
    """The dense rotational part: output block i is signs[i] times
    input block source[i]."""
    n, k = iso.dim, iso.block_dim
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(iso.blocks):
        for j in range(k):
            m[i * k + j][iso.source[i] * k + j] = Fraction(iso.signs[i])
    return m


def random_fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def random_isometry(rng, k, m):
    """A signed block permutation of m blocks of k coordinates whose
    translation has entries over a random denominator from 1 to 12."""
    source = list(range(m))
    rng.shuffle(source)
    signs = [rng.choice((1, -1)) for _ in range(m)]
    den = rng.randint(1, 12)
    return isometry(k, source, signs,
                    [Fraction(rng.randint(-12, 12), den) for _ in range(m * k)])


def random_induction(rng):
    """A random coset permutation and base isometries over different
    denominators."""
    k, m, d = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 5)
    perm = list(range(d))
    rng.shuffle(perm)
    return perm, [random_isometry(rng, k, m) for _ in range(d)]


def random_signed_block_permutation(rng):
    """An induced action of random base isometries through a random
    coset permutation: a signed block permutation with rational
    translation."""
    return flats.induced_action(*random_induction(rng))


def cycle_oracle(g):
    """Squared translation length and the displacement g(x) - x at a
    minimal point, cycle by cycle.

    On a block cycle i_0 -> source(i_0) -> ... of length L the fixed
    vectors are (sigma_j v)_j with sigma_0 = 1, sigma_(j+1) = sigma_j *
    signs[i_j], provided the sign product is +1 (else only 0 is fixed).
    The projection of t there is sigma_j S / L with S = sum sigma_j t_(i_j),
    contributing |S|^2 / L to the squared length.
    """
    k = g.block_dim
    t = translation_vector(g)
    block = lambda i: t[i * k:(i + 1) * k]
    shift = [Fraction(0)] * g.dim
    length_sq = Fraction(0)
    seen = set()
    for start in range(g.blocks):
        if start in seen:
            continue
        cycle, sigmas, i, sigma = [], [], start, 1
        while i not in seen:
            seen.add(i)
            cycle.append(i)
            sigmas.append(sigma)
            sigma *= g.signs[i]
            i = g.source[i]
        if sigma == -1:
            continue
        total = [sum(s * block(i)[c] for i, s in zip(cycle, sigmas)) for c in range(k)]
        length_sq += sum(x * x for x in total) / len(cycle)
        for i, s in zip(cycle, sigmas):
            for c in range(k):
                shift[i * k + c] = s * total[c] / len(cycle)
    return length_sq, shift


def identity(block_dim: int, blocks: int) -> AffineIsometry:
    return AffineIsometry(block_dim, tuple(range(blocks)), (1,) * blocks,
                          (0,) * (block_dim * blocks), 1)


def compose(self: AffineIsometry, other: AffineIsometry) -> AffineIsometry:
    """self after other."""
    if self.block_dim != other.block_dim or self.blocks != other.blocks:
        raise ValueError("incompatible block structures")
    source = tuple(other.source[i] for i in self.source)
    signs = tuple(s * other.signs[i] for i, s in zip(self.source, self.signs))
    rotated = self._rotate(other.translation)
    den = lcm(self.den, other.den)
    a, b = den // self.den, den // other.den
    translation = [b * r + a * t for r, t in zip(rotated, self.translation)]
    g = gcd(den, *translation)
    if g > 1:
        den //= g
        translation = [t // g for t in translation]
    return AffineIsometry(self.block_dim, source, signs, tuple(translation), den)


def cycle_lengths(g):
    return [(len(cycle), product) for cycle, product in linalg._cycles(g.source, g.signs)]


def top_blocks(g):
    """The largest block of every cycle of sign product +1."""
    tops = []
    for start in range(g.blocks):
        cycle, product, i = [start], g.signs[start], g.source[start]
        while i != start:
            cycle.append(i)
            product *= g.signs[i]
            i = g.source[i]
        if product == 1 and start == max(cycle):
            tops.append(start)
    return tops


class TestFastPathsAgainstReference:
    CASES = 3000

    def test_power_and_length_match_the_slow_paths(self, rng):
        # Random signed block permutations of 1 to 8 blocks of 1 to 3
        # coordinates, with fixed blocks and cycles of both sign
        # products, raised to every k from 0 to 3 times the longest cycle
        # plus 2 in turn.  The power is compared with k-fold composition,
        # and each length and witness with the cycle oracle.
        seen, ks = set(), set()
        for case in range(self.CASES):
            g = random_isometry(rng, rng.randint(1, 3), rng.randint(1, 8))
            cycles = cycle_lengths(g)
            seen |= {(n > 1, product) for n, product in cycles}
            longest = max(n for n, _ in cycles)
            k = case % (3 * longest + 3)
            if k == 0:
                ks.add("zero")
            elif k > longest:
                ks.add("whole turns")
            if k and any(k % n == 0 for n, _ in cycles if n > 1):
                ks.add("a multiple of a cycle length")
            fast = g.power(k)
            naive = identity(g.block_dim, g.blocks)
            for _ in range(k):
                naive = compose(naive, g)
            assert fast == naive
            for h in (g, fast):
                length_sq, witness, den = flats.trans_length_sq(h)
                assert den >= 1 and gcd(den, *witness) == 1
                assert all(type(w) is int for w in witness)
                point = tuple(Fraction(w, den) for w in witness)
                oracle_length, shift = cycle_oracle(h)
                assert length_sq == oracle_length
                assert [m - p for m, p in zip(apply(h, point), point)] == shift
        assert seen == {(False, 1), (False, -1), (True, 1), (True, -1)}
        assert ks == {"zero", "whole turns", "a multiple of a cycle length"}

    def test_cyclic_induced_powers(self):
        # Powers of the induced generator, across and beyond its order.
        for d in (1, 2, 5, 12):
            iso = flats.cyclic_induced(d, Fraction(-7, 3))
            naive = identity(iso.block_dim, iso.blocks)
            for k in range(3 * d + 3):
                assert iso.power(k) == naive
                naive = compose(naive, iso)


class TestAffineIsometry:
    def test_pure_translation_length(self):
        g = pure_translation([3, 4])
        length_sq, point = length_and_point(g)
        assert length_sq == 25
        assert displacement_sq(g, point) == 25

    def test_elliptic_rotation_has_fixed_point(self):
        g = AffineIsometry(1, (1, 2, 0), (1, 1, 1), (0, 0, 0), 1)
        length_sq, point = length_and_point(g)
        assert length_sq == 0
        assert apply(g, point) == point

    def test_cyclic_block_with_translation(self):
        g = AffineIsometry(1, (1, 2, 0), (1, 1, 1), (0, 0, 5), 1)
        length_sq, point = length_and_point(g)
        assert length_sq == Fraction(25, 3)
        assert displacement_sq(g, point) == length_sq

    def test_witness_is_in_min_set(self):
        # Any point moves at least as far as the witness does.
        g = AffineIsometry(1, (1, 0), (1, 1), (7, 0), 2)
        length_sq, _ = length_and_point(g)
        for probe in ([0, 0], [1, 5], [Fraction(-3, 2), 2]):
            assert displacement_sq(g, probe) >= length_sq

    def test_signed_block_can_be_elliptic(self):
        # A sign flip has no fixed directions, so any translation along
        # it is absorbed: the isometry is elliptic.
        g = AffineIsometry(1, (0,), (-1,), (4,), 1)
        length_sq, point = length_and_point(g)
        assert length_sq == 0
        assert apply(g, point) == point

    def test_power_scaling_for_translations(self):
        g = pure_translation([2, 1])
        for m in (2, 3, 5):
            assert flats.trans_length_sq(g.power(m))[0] == m * m * 5

    def test_power_at_permutation_order(self):
        g = AffineIsometry(1, (1, 2, 0), (1, 1, 1), (0, 0, 3), 1)
        cubed = g.power(3)
        assert orthogonal_matrix(cubed) == orthogonal_matrix(identity(1, 3))
        assert flats.trans_length_sq(cubed)[0] == 9 * flats.trans_length_sq(g)[0]

    def test_compose_matches_apply(self, rng):
        g = isometry(1, (1, 0), (1, -1), (Fraction(1, 3), 2))
        h = isometry(1, (0, 1), (-1, 1), (0, Fraction(3, 4)))
        point = (Fraction(5), Fraction(-2))
        assert apply(compose(g, h), point) == apply(g, apply(h, point))
        # Mixed denominators, put in lowest terms by the constructor.
        for _ in range(100):
            k, m = rng.randint(1, 3), rng.randint(1, 4)
            g, h = random_isometry(rng, k, m), random_isometry(rng, k, m)
            point = [random_fraction(rng) for _ in range(k * m)]
            gh = compose(g, h)
            assert lcm(g.den, h.den) % gh.den == 0
            assert apply(gh, point) == apply(g, apply(h, point))

    def test_validation(self):
        with pytest.raises(ValueError):
            AffineIsometry(1, (0, 0), (1, 1), (0, 0), 1)
        with pytest.raises(ValueError):
            AffineIsometry(1, (0, 1), (2, 1), (0, 0), 1)
        with pytest.raises(ValueError, match="lowest terms"):
            AffineIsometry(1, (0, 1), (1, 1), (2, 4), 6)
        with pytest.raises(ValueError, match="lowest terms"):
            AffineIsometry(1, (0, 1), (1, 1), (0, 0), 2)
        with pytest.raises(ValueError, match="lowest terms"):
            AffineIsometry(1, (0, 1), (1, 1), (1, 0), 0)

    def test_orthogonal_part_preserves_inner_product(self, rng):
        for _ in range(20):
            d = rng.randint(1, 4)
            k = rng.randint(1, 3)
            perm = list(range(d))
            rng.shuffle(perm)
            g = AffineIsometry(
                k,
                tuple(perm),
                tuple(rng.choice((1, -1)) for _ in range(d)),
                tuple(rng.randint(-3, 3) for _ in range(d * k)),
                1,
            )
            o = orthogonal_matrix(g)
            gram = [[sum(x * y for x, y in zip(r, s)) for s in o] for r in o]
            assert gram == [[int(i == j) for j in range(d * k)] for i in range(d * k)]

    def test_power_matches_repeated_composition(self, rng):
        dens = set()
        for _ in range(20):
            g = random_signed_block_permutation(rng)
            dens.add(g.den)
            naive = identity(g.block_dim, g.blocks)
            for k in range(10):
                assert g.power(k) == naive
                naive = compose(naive, g)
        assert len(dens) > 5


class TestTransLengthOracle:
    def test_random_signed_block_permutations(self, rng):
        dens = set()
        for _ in range(150):
            g = random_signed_block_permutation(rng)
            dens.add(g.den)
            length_sq, shift = cycle_oracle(g)
            got, point = length_and_point(g)
            assert got == length_sq
            moved = apply(g, point)
            assert [m - w for m, w in zip(moved, point)] == shift
            probe = [random_fraction(rng) for _ in range(g.dim)]
            assert displacement_sq(g, probe) >= length_sq
        assert len(dens) > 10

    def test_witness_is_zero_at_the_top_of_every_fixed_cycle(self, rng):
        # g moves x + f as it moves x for every f fixed by O, so the shift
        # leaves the witness free along the fixed space.  trans_length_sq
        # takes the witness that is 0 at the largest block of every cycle
        # of sign product +1, which pins it.
        seen = set()
        for _ in range(300):
            k = rng.randint(1, 3)
            g = random_isometry(rng, k, rng.randint(1, 8))
            _, witness, den = flats.trans_length_sq(g)
            point = [Fraction(w, den) for w in witness]
            _, shift = cycle_oracle(g)
            assert [m - p for m, p in zip(apply(g, point), point)] == shift
            assert all(witness[b * k + j] == 0 for b in top_blocks(g) for j in range(k))
            seen |= {(k, n > 1, product) for n, product in cycle_lengths(g)}
        assert seen == {(k, n, p) for k in (1, 2, 3) for n in (False, True) for p in (1, -1)}

    def test_lift_keeps_every_base_translation(self, rng):
        # Block perm[i] of the induced translation is base[i]'s, over
        # the least common multiple of the base denominators.
        for _ in range(100):
            perm, base = random_induction(rng)
            g = flats.induced_action(perm, base)
            assert g.den == lcm(*(b.den for b in base))
            t = translation_vector(g)
            size = base[0].dim
            for i, b in enumerate(base):
                out = perm[i]
                assert t[out * size:(out + 1) * size] == translation_vector(b)

    def test_oracle_shift_is_fixed_by_o(self, rng):
        # The oracle's displacement lies in the fixed space of O.
        for _ in range(30):
            g = random_signed_block_permutation(rng)
            o = orthogonal_matrix(g)
            _, shift = cycle_oracle(g)
            assert [sum(x * y for x, y in zip(row, shift)) for row in o] == shift


    def test_overlapping_kernel_basis_is_never_a_wrong_length(self, rng, monkeypatch):
        # The projection takes sigma S / n on each kernel entry, which is
        # the orthogonal projection only for entries of disjoint
        # supports.  Entries of the same span that overlap -- the first
        # two cycles merged into one, with the second kept -- must end
        # in the right length or a RuntimeError, never in a wrong length.
        kernel = linalg.kernel

        def overlapping(g):
            basis = kernel(g)
            if len(basis) > 1:
                (c0, s0), (c1, s1) = basis[:2]
                basis[0] = (c0 + c1, s0 + s1)
            return basis

        monkeypatch.setattr(flats.linalg, "kernel", overlapping)
        outcomes = set()
        for _ in range(150):
            g = random_signed_block_permutation(rng)
            length_sq, _ = cycle_oracle(g)
            try:
                got, _, _ = flats.trans_length_sq(g)
            except RuntimeError:
                outcomes.add("refused")
            else:
                assert got == length_sq
                outcomes.add("right")
        assert outcomes == {"refused", "right"}


class TestInducedAction:
    def test_single_coset_passthrough(self):
        base = pure_translation([Fraction(3, 4)])
        assert flats.induced_action((0,), [base]) == base

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_cyclic_length(self, d, rng):
        for _ in range(5):
            ell = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            iso = flats.cyclic_induced(d, ell)
            assert flats.trans_length_sq(iso)[0] == ell * ell / d
            # Positive base length promotes to positive induced length.
            assert flats.trans_length_sq(iso)[0] > 0

    def test_power_is_diagonal_translation(self):
        ell = Fraction(5, 3)
        iso = flats.cyclic_induced(3, ell)
        cubed = iso.power(3)
        assert translation_vector(cubed) == [ell, ell, ell]
        assert flats.trans_length_sq(cubed)[0] == 3 * ell * ell

    def test_functorial_on_words(self):
        # Inducing the square equals squaring the induced element.
        e = pure_translation([0])
        h = pure_translation([Fraction(2, 5)])
        g = flats.induced_action((1, 2, 0), [e, e, h])
        g2_direct = flats.induced_action((2, 0, 1), [e, h, h])
        assert g.power(2) == g2_direct

    def test_cyclic_induced_caps_the_cosets(self):
        assert flats.MAX_COSETS == 100_000
        at_cap = flats.cyclic_induced(flats.MAX_COSETS, 1)
        assert at_cap.blocks == flats.MAX_COSETS
        assert flats.trans_length_sq(at_cap)[0] == Fraction(1, flats.MAX_COSETS)
        with pytest.raises(ValueError, match=f"need d <= {flats.MAX_COSETS}"):
            flats.cyclic_induced(flats.MAX_COSETS + 1, 1)

    def test_empty_coset_list_refused(self):
        with pytest.raises(ValueError, match="at least one coset"):
            flats.induced_action((), ())

    def test_float_ell_refused(self):
        # 0.1 is a binary float, not 1/10.
        with pytest.raises(ValueError, match="float"):
            flats.cyclic_induced(2, 0.1)
        assert flats.trans_length_sq(flats.cyclic_induced(2, "1/10"))[0] == Fraction(1, 200)

    def test_inconsistent_blocks_rejected(self):
        a = pure_translation([1])
        b = pure_translation([1, 0])
        with pytest.raises(ValueError):
            flats.induced_action((0, 1), [a, b])


def fraction_elimination_combination(tau, p, q, a):
    """q times the p-constraint minus p times the q-constraint, which
    eliminates the terms linear in a."""
    return q * constraint(tau, p, a) - p * constraint(tau, q, a)


def random_rational_vector(rng, k):
    """k entries, ints or Fractions over a random denominator up to 10^6."""
    den = rng.choice((1, 2, 6, 35, 10**6))
    return [rng.choice((int, Fraction))(rng.randint(-50, 50)) if den == 1
            else Fraction(rng.randint(-50, 50), rng.randint(1, den)) for _ in range(k)]


class TestEquidistance:
    def test_certificate_example(self):
        checks = flats.equidistant_forces_zero([1, 0], 1, 2)
        assert [c.name for c in checks] == ["elimination-identity"]
        assert checks[0].passed
        assert checks[0].witness == {"sample": ["1", "1"], "eliminant": -2}

    def test_combination_identity(self, rng):
        for _ in range(50):
            k = rng.randint(1, 3)
            tau = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(k)]
            p, q = rng.randint(-5, 5), rng.randint(-5, 5)
            if p == 0 or q == 0 or p == q:
                continue
            checks = flats.equidistant_forces_zero(tau, p, q)
            assert all(c.passed for c in checks)
            assert checks[0].witness["eliminant"] == p * q * (p - q)
            a = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)]
            norm_sq = sum(x * x for x in a)
            assert flats.elimination_combination(tau, p, q, a) == p * q * (p - q) * norm_sq

    def test_integer_evaluation_matches_fraction_reference(self, rng):
        for _ in range(400):
            k = rng.randint(1, 4)
            tau = random_rational_vector(rng, k)
            p = rng.choice((0, rng.randint(-9, 9), rng.randint(-10**30, 10**30)))
            q = rng.choice((0, p, rng.randint(-9, 9)))
            shape = rng.randrange(3)
            if shape == 0:
                a = [0] * k
            elif shape == 1 and p:
                # With p = q, a = -2 tau / p meets both constraints.
                a = [Fraction(-2 * t, p) for t in tau]
            else:
                a = random_rational_vector(rng, k)
            combination = flats.elimination_combination(tau, p, q, a)
            assert combination == fraction_elimination_combination(tau, p, q, a)
            assert type(combination) is Fraction

    def test_mismatched_dimensions_refused(self):
        # Zipping would drop coordinates: (1, 2, 3) against (1) gave -2.
        for tau, a in (([1, 2, 3], [1]), ([1], [1, 2, 3])):
            with pytest.raises(ValueError, match="different dimensions"):
                flats.elimination_combination(tau, 1, 2, a)

    def test_grid_search_finds_only_zero(self):
        tau = (Fraction(1), Fraction(0))
        grid = [Fraction(n, 2) for n in range(-4, 5)]
        solutions = [
            (x, y)
            for x in grid
            for y in grid
            if fraction_equidistant_check(tau, 1, 2, [x, y])
        ]
        assert solutions == [(Fraction(0), Fraction(0))]

    def test_zero_tau(self):
        assert fraction_equidistant_check([0, 0], 1, 3, [0, 0])
        assert not fraction_equidistant_check([0, 0], 1, 3, [1, 0])

    def test_refusals(self):
        with pytest.raises(ValueError):
            flats.equidistant_forces_zero([1, 0], 2, 2)
        with pytest.raises(ValueError):
            flats.equidistant_forces_zero([1, 0], 0, 2)

    def test_p_equals_q_admits_nonzero_solutions(self):
        # The refused case genuinely degenerates: with p = q = 1 and
        # tau = (1, 0), a = (-2, 0) satisfies both constraints.
        assert fraction_equidistant_check([1, 0], 1, 1, [-2, 0])


def flat_vectors(payload):
    return [tuple(int(c) for c in v) for v in payload["vectors"].values()]


class TestNielsenFlat:
    def test_scale_one_is_fcc(self):
        lattice, _, cls, checks, _ = flats.nielsen_flat(1)
        assert lattice.rank == 3
        assert lg.covolume(lattice) == 2
        assert cls["is_rhombic_dodecahedron"]
        assert [c.name for c in checks[:3]] == [
            "kernel-maps-to-zero", "equal-lengths", "is-rhombic-dodecahedron"]
        assert all(c.passed for c in checks[:3])
        assert all(octo_flags(checks[3:]))
        assert checks[1].witness == {"lengths_sq": ["2"] * 4}

    def test_scale_two_homogeneous(self):
        _, cell, cls, checks, _ = flats.nielsen_flat(2)
        assert lg.polytope_volume(cell) == 16
        assert cls["is_rhombic_dodecahedron"]
        assert cls["diag_ratios_sq"] == ["2"] * 12
        assert checks[1].witness == {"lengths_sq": ["8"] * 4}

    def test_kernel_vector_is_stated_combination(self):
        _, _, _, checks, payload = flats.nielsen_flat(3)
        exponents = checks[0].witness["exponents"]
        assert exponents == [-1, 1, -1, 1]
        vectors = flat_vectors(payload)
        assert list(payload["vectors"]) == list(flats.NIELSEN_FLAT_GENERATORS)
        assert vectors == [(-3, -3, 0), (3, -3, 0), (3, 0, -3), (-3, 0, -3)]
        assert [
            sum(n * v[k] for n, v in zip(exponents, vectors)) for k in range(3)
        ] == [0, 0, 0]
        assert [sum(x * x for x in v) for v in vectors] == [18, 18, 18, 18]

    def test_octo_quadruple_signs(self):
        _, _, _, checks, payload = flats.nielsen_flat(1)
        assert payload["octo_quadruple"] == ["-L21", "R21", "-R31", "L31"]
        vecs = dict(zip(flats.NIELSEN_FLAT_GENERATORS, flat_vectors(payload)))
        quad = [
            lg.vec3(*(-c if name.startswith("-") else c for c in vecs[name.lstrip("-")]))
            for name in payload["octo_quadruple"]
        ]
        octo = lg.octo_check(*quad)
        assert all(octo_flags(octo))
        assert octo == checks[3:]

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            flats.nielsen_flat(0)
