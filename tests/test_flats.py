from fractions import Fraction

import pytest

from autgeom import flats, latgeom as lg
from autgeom.flats import AffineIsometry

from conftest import octo_flags


def displacement_sq(iso, point):
    moved = iso.apply(point)
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


def random_signed_block_permutation(rng):
    """An induced action of random base isometries through a random
    coset permutation: a signed block permutation with rational
    translation."""
    k, m, d = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 5)
    base = []
    for _ in range(d):
        source = list(range(m))
        rng.shuffle(source)
        signs = tuple(rng.choice((1, -1)) for _ in range(m))
        translation = tuple(random_fraction(rng) for _ in range(m * k))
        base.append(AffineIsometry(k, tuple(source), signs, translation))
    perm = list(range(d))
    rng.shuffle(perm)
    return flats.induced_action(perm, base)


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
    block = lambda i: g.translation[i * k:(i + 1) * k]
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


class TestAffineIsometry:
    def test_pure_translation_length(self):
        g = AffineIsometry.pure_translation([3, 4])
        r = flats.trans_length_sq(g)
        assert r.length_sq == 25
        assert displacement_sq(g, r.min_point) == 25

    def test_elliptic_rotation_has_fixed_point(self):
        g = AffineIsometry(1, (1, 2, 0), (1, 1, 1), (Fraction(0),) * 3)
        r = flats.trans_length_sq(g)
        assert r.length_sq == 0
        assert g.apply(r.min_point) == r.min_point

    def test_cyclic_block_with_translation(self):
        ell = Fraction(5)
        g = AffineIsometry(1, (1, 2, 0), (1, 1, 1), (Fraction(0), Fraction(0), ell))
        r = flats.trans_length_sq(g)
        assert r.length_sq == ell * ell / 3
        assert displacement_sq(g, r.min_point) == r.length_sq

    def test_witness_is_in_min_set(self):
        # Any point moves at least as far as the witness does.
        ell = Fraction(7, 2)
        g = AffineIsometry(1, (1, 0), (1, 1), (ell, Fraction(0)))
        r = flats.trans_length_sq(g)
        for probe in ([0, 0], [1, 5], [Fraction(-3, 2), 2]):
            assert displacement_sq(g, probe) >= r.length_sq

    def test_signed_block_can_be_elliptic(self):
        # A sign flip has no fixed directions, so any translation along
        # it is absorbed: the isometry is elliptic.
        g = AffineIsometry(1, (0,), (-1,), (Fraction(4),))
        r = flats.trans_length_sq(g)
        assert r.length_sq == 0
        assert g.apply(r.min_point) == r.min_point

    def test_power_scaling_for_translations(self):
        g = AffineIsometry.pure_translation([2, 1])
        for m in (2, 3, 5):
            assert flats.trans_length_sq(g.power(m)).length_sq == m * m * 5

    def test_power_at_permutation_order(self):
        ell = Fraction(3)
        g = AffineIsometry(1, (1, 2, 0), (1, 1, 1), (Fraction(0), Fraction(0), ell))
        cubed = g.power(3)
        assert orthogonal_matrix(cubed) == orthogonal_matrix(AffineIsometry.identity(1, 3))
        assert flats.trans_length_sq(cubed).length_sq == 9 * flats.trans_length_sq(g).length_sq

    def test_compose_matches_apply(self):
        g = AffineIsometry(1, (1, 0), (1, -1), (Fraction(1), Fraction(2)))
        h = AffineIsometry(1, (0, 1), (-1, 1), (Fraction(0), Fraction(3)))
        point = (Fraction(5), Fraction(-2))
        assert g.compose(h).apply(point) == g.apply(h.apply(point))

    def test_validation(self):
        with pytest.raises(ValueError):
            AffineIsometry(1, (0, 0), (1, 1), (Fraction(0), Fraction(0)))
        with pytest.raises(ValueError):
            AffineIsometry(1, (0, 1), (2, 1), (Fraction(0), Fraction(0)))

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
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(d * k)),
            )
            o = orthogonal_matrix(g)
            gram = [[sum(x * y for x, y in zip(r, s)) for s in o] for r in o]
            assert gram == [[int(i == j) for j in range(d * k)] for i in range(d * k)]


    def test_power_matches_repeated_composition(self, rng):
        for _ in range(20):
            g = random_signed_block_permutation(rng)
            naive = AffineIsometry.identity(g.block_dim, g.blocks)
            for k in range(10):
                assert g.power(k) == naive
                naive = naive.compose(g)


class TestTransLengthOracle:
    def test_random_signed_block_permutations(self, rng):
        for _ in range(150):
            g = random_signed_block_permutation(rng)
            length_sq, shift = cycle_oracle(g)
            r = flats.trans_length_sq(g)
            assert r.length_sq == length_sq
            moved = g.apply(r.min_point)
            assert [m - w for m, w in zip(moved, r.min_point)] == shift
            probe = [random_fraction(rng) for _ in range(g.dim)]
            assert displacement_sq(g, probe) >= length_sq

    def test_oracle_shift_is_fixed_by_o(self, rng):
        # The oracle's displacement lies in the fixed space of O.
        for _ in range(30):
            g = random_signed_block_permutation(rng)
            o = orthogonal_matrix(g)
            _, shift = cycle_oracle(g)
            assert [sum(x * y for x, y in zip(row, shift)) for row in o] == shift


class TestInducedAction:
    def test_single_coset_passthrough(self):
        base = AffineIsometry.pure_translation([Fraction(3)])
        assert flats.induced_action((0,), [base]) == base

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_cyclic_length(self, d, rng):
        for _ in range(5):
            ell = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            iso = flats.cyclic_induced(d, ell)
            assert flats.trans_length_sq(iso).length_sq == ell * ell / d
            # Positive base length promotes to positive induced length.
            assert flats.trans_length_sq(iso).length_sq > 0

    def test_power_is_diagonal_translation(self):
        ell = Fraction(5, 3)
        iso = flats.cyclic_induced(3, ell)
        cubed = iso.power(3)
        assert cubed.translation == (ell, ell, ell)
        assert flats.trans_length_sq(cubed).length_sq == 3 * ell * ell

    def test_functorial_on_words(self):
        # Inducing the square equals squaring the induced element.
        e = AffineIsometry.pure_translation([Fraction(0)])
        h = AffineIsometry.pure_translation([Fraction(2)])
        g = flats.induced_action((1, 2, 0), [e, e, h])
        g2_direct = flats.induced_action((2, 0, 1), [e, h, h])
        assert g.compose(g) == g2_direct

    def test_cyclic_induced_caps_the_cosets(self):
        assert flats.cyclic_induced(flats.MAX_COSETS, 1).blocks == flats.MAX_COSETS
        with pytest.raises(ValueError, match=f"need d <= {flats.MAX_COSETS}"):
            flats.cyclic_induced(flats.MAX_COSETS + 1, 1)

    def test_inconsistent_blocks_rejected(self):
        a = AffineIsometry.pure_translation([Fraction(1)])
        b = AffineIsometry.pure_translation([Fraction(1), Fraction(0)])
        with pytest.raises(ValueError):
            flats.induced_action((0, 1), [a, b])


class TestEquidistance:
    def test_certificate_example(self):
        cert = flats.equidistant_forces_zero([1, 0], 1, 2)
        assert cert.eliminant_coefficient == -2
        assert abs(cert.eliminant_coefficient) == 2

    def test_combination_identity(self, rng):
        for _ in range(50):
            k = rng.randint(1, 3)
            tau = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(k)]
            p, q = rng.randint(-5, 5), rng.randint(-5, 5)
            if p == 0 or q == 0 or p == q:
                continue
            cert = flats.equidistant_forces_zero(tau, p, q)
            a = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)]
            norm_sq = sum(x * x for x in a)
            assert cert.combination(a) == cert.eliminant_coefficient * norm_sq

    def test_grid_search_finds_only_zero(self):
        tau = (Fraction(1), Fraction(0))
        grid = [Fraction(n, 2) for n in range(-4, 5)]
        solutions = [
            (x, y)
            for x in grid
            for y in grid
            if flats.equidistant_check(tau, 1, 2, [x, y])
        ]
        assert solutions == [(Fraction(0), Fraction(0))]

    def test_zero_tau(self):
        assert flats.equidistant_check([0, 0], 1, 3, [0, 0])
        assert not flats.equidistant_check([0, 0], 1, 3, [1, 0])

    def test_refusals(self):
        with pytest.raises(ValueError):
            flats.equidistant_forces_zero([1, 0], 2, 2)
        with pytest.raises(ValueError):
            flats.equidistant_forces_zero([1, 0], 0, 2)

    def test_p_equals_q_admits_nonzero_solutions(self):
        # The refused case genuinely degenerates: with p = q = 1 and
        # tau = (1, 0), a = (-2, 0) satisfies both constraints.
        assert flats.equidistant_check([1, 0], 1, 1, [-2, 0])


class TestNielsenFlat:
    def test_scale_one_is_fcc(self):
        m = flats.nielsen_flat(1)
        assert m.lattice.rank == 3
        assert lg.covolume(m.lattice) == 2
        assert m.classification.is_rhombic_dodecahedron
        assert m.kernel_is_zero
        assert all(octo_flags(m.octo))
        assert set(m.lengths_sq) == {Fraction(2)}

    def test_scale_two_homogeneous(self):
        m = flats.nielsen_flat(2)
        assert lg.polytope_volume(m.cell) == 16
        assert m.classification.is_rhombic_dodecahedron
        assert all(s.diag_ratio_sq == 2 for s in m.classification.faces)
        assert set(m.lengths_sq) == {Fraction(8)}

    def test_kernel_vector_is_stated_combination(self):
        m = flats.nielsen_flat(3)
        assert m.kernel_exponents == (-1, 1, -1, 1)
        assert m.vectors == ((-3, -3, 0), (3, -3, 0), (3, 0, -3), (-3, 0, -3))
        assert [
            sum(n * v[k] for n, v in zip(m.kernel_exponents, m.vectors))
            for k in range(3)
        ] == [0, 0, 0]
        assert m.lengths_sq == (18, 18, 18, 18)

    def test_octo_quadruple_signs(self):
        m = flats.nielsen_flat(1)
        assert m.octo_quadruple == ("-L21", "R21", "-R31", "L31")
        vecs = dict(zip(flats.NIELSEN_FLAT_GENERATORS, m.vectors))
        quad = [
            lg.vec3(*(-c if name.startswith("-") else c for c in vecs[name.lstrip("-")]))
            for name in m.octo_quadruple
        ]
        rep = lg.octo_check(*quad)
        assert all(octo_flags(rep))
        assert rep == m.octo

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            flats.nielsen_flat(0)
