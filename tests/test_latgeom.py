import functools
import itertools
import json
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

import pytest

from autgeom import latgeom as lg
from autgeom.latgeom import Vec3, vec3

from conftest import (
    FCC_GENS, apply_matrix, octo_flags, random_rotation, rotation_from_quaternion, run_cli,
)

CUBE_GENS = (vec3(1, 0, 0), vec3(0, 1, 0), vec3(0, 0, 1))
SCALED_X_GENS = (vec3(2, 0, 0), vec3(0, 1, 0), vec3(0, 0, 1))
ECHELON_FAULT = "echelon basis does not span the generator module"
# Generators and expected f-vector of each lattice type the benchmark uses.
LATTICE_TYPES = {
    "fcc": (FCC_GENS, (14, 24, 12)),
    "cube": (CUBE_GENS, (8, 12, 6)),
    "bcc": ((vec3(1, 1, 1), vec3(1, -1, -1), vec3(-1, 1, -1)), (24, 36, 14)),
    "hexagonal": ((vec3(1, -1, 0), vec3(0, 1, -1), vec3(2, 2, 2)), (12, 18, 8)),
    "orthorhombic": ((vec3(5, 6, 7), vec3(5, -6, -7), vec3(-5, 6, -7)), (24, 36, 14)),
}


# Fraction arithmetic on Vec3 records, which carry none of their own.


def scale(v, c):
    c = Fraction(c)
    return Vec3(v.x * c, v.y * c, v.z * c)


def add(u, v):
    return Vec3(u.x + v.x, u.y + v.y, u.z + v.z)


def neg(v):
    return Vec3(-v.x, -v.y, -v.z)


def sub(u, v):
    return add(u, neg(v))


def dot(u, v):
    return u.x * v.x + u.y * v.y + u.z * v.z


def cross(u, v):
    return Vec3(
        u.y * v.z - u.z * v.y,
        u.z * v.x - u.x * v.z,
        u.x * v.y - u.y * v.x,
    )


def is_zero(v):
    return not any(v.coords())


def points(cell):
    """The vertices of a cell as rational points."""
    return tuple(Vec3(*(Fraction(x, cell.den) for x in p)) for p in cell.vertices)


def basis(lat):
    """The basis vectors of a lattice as rational points."""
    return tuple(Vec3(*(Fraction(x, lat.den) for x in r)) for r in lat.rows)


def in_lattice(vectors, v):
    """Exact membership of a rational point in the module of linearly
    independent rational vectors b_i, by Gauss-Jordan elimination over
    Fraction: v = sum c_i b_i must have a solution with every c_i an
    integer."""
    n = len(vectors)
    # One equation per coordinate in the unknowns c_i, then v.
    eqs = [[*(b.coords()[k] for b in vectors), v.coords()[k]] for k in range(3)]
    for col in range(n):
        pivot = next(r for r in range(col, 3) if eqs[r][col])
        eqs[col], eqs[pivot] = eqs[pivot], eqs[col]
        eqs[col] = [x / eqs[col][col] for x in eqs[col]]
        for r in range(3):
            if r != col:
                f = eqs[r][col]
                eqs[r] = [x - f * y for x, y in zip(eqs[r], eqs[col])]
    # Rows n.. read 0 = eqs[r][n]; rows ..n read c_r = eqs[r][n].
    return (not any(eqs[r][n] for r in range(n, 3))
            and all(eqs[r][n].denominator == 1 for r in range(n)))


def minors_covolume(gens):
    """The covolume of the lattice of rational 3-vectors: over their
    least common denominator, the gcd of the 3x3 minors of the
    generator matrix, which also covers a redundant fourth generator."""
    den = lcm(*(c.denominator for v in gens for c in v.coords()))
    rows = [[int(c * den) for c in v.coords()] for v in gens]
    g = 0
    for a, b, c in itertools.combinations(rows, 3):
        g = gcd(g, a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
                + a[2] * (b[0] * c[1] - b[1] * c[0]))
    return Fraction(g, den ** 3)


# The Fraction four-vector check that the integer version replaced, kept
# as its reference, with the rank taken by Gaussian elimination.


def fraction_rank(vectors):
    """The rank of rational 3-vectors, by Gaussian elimination over Fraction."""
    rows = [list(v.coords()) for v in vectors]
    rank = 0
    for col in range(3):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def fraction_octo_check(u1, u2, v1, v2):
    """The four verdicts and the shared witness of the four-vector check."""
    norms = tuple(dot(v, v) for v in (u1, u2, v1, v2))
    equal_norms = len(set(norms)) == 1 and norms[0] != 0
    rank = fraction_rank((u1, u2, v1, v2))
    flags = (
        equal_norms,
        add(u1, u2) == add(v1, v2),
        dot(u1, u2) == 0 and dot(v1, v2) == 0,
        dot(sub(u1, u2), sub(v1, v2)) == 0,
    )
    witness = {
        "norms_sq": [str(n) for n in norms],
        "common_norm_sq": str(norms[0]) if equal_norms else None,
        "lattice_rank": rank,
    }
    return flags, witness


def random_quadruple_of_rank(rng, rank):
    """Four rational vectors that span a space of the given rank: random
    rational combinations, some of them zero, of ``rank`` random vectors,
    redrawn until the echelon form has that rank."""
    def ratio():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 6))

    while True:
        span = [vec3(*(ratio() for _ in range(3))) for _ in range(rank)]
        quad = []
        for _ in range(4):
            v = vec3(0, 0, 0)
            for b in span:
                if rng.randrange(3):
                    v = add(v, scale(b, ratio()))
            quad.append(v)
        nonzero = any(not is_zero(v) for v in quad)
        if (lg.lattice_from(quad).rank if nonzero else 0) == rank:
            return quad


def octo_result(checks):
    """octo_check's verdicts and the one witness its four checks share."""
    assert all(c.witness == checks[0].witness for c in checks)
    return octo_flags(checks), checks[0].witness


def random_unimodular_gens(rng, gens):
    """Apply a random invertible integer change of generators."""
    vs = list(gens)
    for _ in range(10):
        op = rng.randrange(3)
        i, j = rng.sample(range(len(vs)), 2)
        if op == 0:
            vs[i] = add(vs[i], scale(vs[j], rng.choice((-1, 1))))
        elif op == 1:
            vs[i], vs[j] = vs[j], vs[i]
        else:
            vs[i] = neg(vs[i])
    return tuple(vs)


# ---------------------------------------------------------------------------
# The Voronoi kernel that the obtuse-superbase construction replaced, kept
# as an independent reference: an LLL-reduced basis, the Voronoi-relevant
# planes picked from the L/2L classes of a 124-vector box, vertices from
# plane triples, and faces ordered by angle.
# ---------------------------------------------------------------------------

_dot, _cross = lg._dot, lg._cross
ORIGINAL_RING = lg._ring
ORIGINAL_SUPERBASE = lg._obtuse_superbase


def _nearest(n: int, d: int) -> int:
    """round(n / d) for d > 0, ties to even as round() takes them."""
    q, r = divmod(2 * n + d, 2 * d)
    return q - 1 if r == 0 and q % 2 else q


def _lll(rows: list[list[int]]) -> list[list[int]]:
    """Exact LLL reduction (delta = 3/4) of independent integer rows.

    The Gram-Schmidt data is kept in integers and updated in place
    (Cohen, *A Course in Computational Algebraic Number Theory*, alg.
    2.6.7): d[i] is the Gram determinant of the first i rows, so
    |b*_i|^2 = d[i + 1] / d[i], and lam[i][j] = d[j + 1] mu_ij.
    """
    b = [r[:] for r in rows]
    n = len(b)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = _dot(b[k], b[j])
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                d[k + 1] = u
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = _nearest(lam[k][j], d[j + 1])
            if q:
                b[k] = [a - q * c for a, c in zip(b[k], b[j])]
                lam[k][j] -= q * d[j + 1]
                for i in range(j):
                    lam[k][i] -= q * lam[j][i]
        m = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * m * m:
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        new = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
            lam[i][k - 1] = (new * t + m * lam[i][k]) // d[k + 1]
        d[k] = new
        k = max(k - 1, 1)
    return b


def _cyclic_order(
    indices: list[int], points: Sequence[Sequence[int]], normal: Sequence[int]
) -> tuple[int, ...]:
    """Order coplanar integer points into a convex cycle, deterministically.

    Coordinates in the plane are taken against the frame (u, normal x u)
    around the interior centroid, all scaled by the number of points so
    they stay integers; cyclic order of rays is invariant under the
    linear change of frame and under positive scaling, and the angular
    comparison itself uses only sign tests on integer cross products.
    """
    k = len(indices)
    total = [sum(points[i][c] for i in indices) for c in range(3)]
    offsets = {i: [k * points[i][c] - total[c] for c in range(3)] for i in indices}
    u = offsets[indices[0]]
    w = _cross(normal, u)

    def angle_key(i: int):
        s, t = _dot(offsets[i], u), _dot(offsets[i], w)
        half = 0 if (t > 0 or (t == 0 and s > 0)) else 1
        return half, s, t

    def cmp(i: int, j: int) -> int:
        hi, si, ti = angle_key(i)
        hj, sj, tj = angle_key(j)
        if hi != hj:
            return -1 if hi < hj else 1
        cross = si * tj - ti * sj
        if cross == 0:
            return 0
        return -1 if cross > 0 else 1

    ordered = sorted(indices, key=functools.cmp_to_key(cmp))
    # Canonical form: start at the smallest index, then pick the direction
    # whose next index is smaller.
    start = ordered.index(min(ordered))
    cycle = ordered[start:] + ordered[:start]
    if len(cycle) > 2 and cycle[-1] < cycle[1]:
        cycle = [cycle[0]] + cycle[1:][::-1]
    return tuple(cycle)


def reference_voronoi_cell(lat):
    """The Voronoi cell as the replaced kernel computed it, with its
    minimal-distance gate."""
    if lat.rank != 3:
        raise ValueError(f"Voronoi cell needs a rank-3 lattice, got rank {lat.rank}")
    reduced = _lll([list(r) for r in lat.rows])
    box = []
    classes: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}
    for c in itertools.product(range(-2, 3), repeat=3):
        if any(c):
            v = tuple(sum(c[j] * reduced[j][k] for j in range(3)) for k in range(3))
            box.append(v)
            if any(x % 2 for x in c):
                classes.setdefault((c[0] % 2, c[1] % 2, c[2] % 2), []).append(v)
    planes = []
    for members in classes.values():
        least = min(_dot(v, v) for v in members)
        minima = [v for v in members if _dot(v, v) == least]
        if len(minima) == 2:
            planes.extend((v, least) for v in minima)

    # Homogeneous vertices (X, Y, Z, D) with y = (X, Y, Z) / D, D > 0 and
    # gcd 1: three planes A_i.y = n_i / 2 meet at
    # y = sum n_i (A_j x A_k) / (2 det) by Cramer's rule.
    points = set()
    for (a1, n1), (a2, n2), (a3, n3) in itertools.combinations(planes, 3):
        c1, c2, c3 = _cross(a2, a3), _cross(a3, a1), _cross(a1, a2)
        det = _dot(a1, c1)
        if det == 0:
            continue
        p = [n1 * c1[k] + n2 * c2[k] + n3 * c3[k] for k in range(3)] + [2 * det]
        if det < 0:
            p = [-x for x in p]
        if all(2 * _dot(p, a) <= p[3] * n for a, n in planes):
            g = gcd(*p)
            points.add(tuple(x // g for x in p))
    if not points:
        raise RuntimeError("no Voronoi vertices found")
    # One common denominator: the vertices become integer points, and
    # their lexicographic order is that of their rational coordinates.
    common = functools.reduce(lambda m, p: m * p[3] // gcd(m, p[3]), points, 1)
    vertices = sorted(tuple(x * (common // p[3]) for x in p[:3]) for p in points)

    # Gate 1: every vertex minimizes its distance over the candidates,
    # equivalently satisfies every candidate halfspace.
    for y in vertices:
        for a in box:
            if 2 * _dot(y, a) > common * _dot(a, a):
                raise RuntimeError(
                    "vertex fails the minimal-distance gate; candidate box too small"
                )

    faces = []
    for a, n in planes:
        tight = [i for i, y in enumerate(vertices) if 2 * _dot(y, a) == common * n]
        if len(tight) >= 3:
            faces.append((_cyclic_order(tight, vertices, a), a, n))
    faces.sort(key=lambda face: sorted(face[0]))
    return lg.Polytope(
        tuple(vertices),
        tuple(cycle for cycle, _, _ in faces),
        tuple(tuple(common * x for x in a) for _, a, _ in faces),
        common * lat.den,
    )


def reference_classify(poly):
    """The classification payload of a cell, measured by code of its own
    on the integer vertex numerators: each squared length is den^2 times
    the true one, which changes no equality and no ratio.  The edges are
    counted as distinct vertex pairs."""
    def dist_sq(i, j):
        return sum((x - y) ** 2 for x, y in zip(poly.vertices[i], poly.vertices[j]))

    ratios = []
    rhombi = 0
    edges = set()
    for cycle in poly.faces:
        pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
        sides = {dist_sq(a, b) for a, b in pairs}
        if 0 in sides:
            raise ValueError("degenerate face with a zero-length edge")
        edges |= {(min(pair), max(pair)) for pair in pairs}
        rhombi += len(cycle) == 4 and len(sides) == 1
        ratio = None
        if len(cycle) == 4:
            d1, d2 = dist_sq(cycle[2], cycle[0]), dist_sq(cycle[3], cycle[1])
            ratio = Fraction(max(d1, d2), min(d1, d2))
        ratios.append(ratio)
    fv = [len(poly.vertices), len(edges), len(poly.faces)]
    all_rhombi = rhombi == len(poly.faces)
    is_rd = fv == [14, 24, 12] and all_rhombi and all(r == 2 for r in ratios)
    is_cube = fv == [8, 12, 6] and all_rhombi and all(r == 1 for r in ratios)
    return {
        "f_vector": fv,
        "is_rhombic_dodecahedron": is_rd,
        "is_cube": is_cube,
        "diag_ratios_sq": [None if r is None else str(r) for r in ratios],
        "rhombic_faces": rhombi,
    }


F_VECTORS = {(24, 36, 14), (18, 28, 12), (14, 24, 12), (12, 18, 8), (8, 12, 6)}


def random_lattice(rng):
    return lg.lattice_from(random_generators(rng))


def random_generators(rng):
    """Generators of a seeded rank-3 lattice: three integer vectors of a
    random size, sometimes with a fourth that is redundant or not, and
    in a third of the cases rotated by a rational quaternion and scaled
    by a rational factor."""
    while True:
        bound = rng.choice((1, 2, 3, 5, 30))
        gens = [vec3(*(rng.randint(-bound, bound) for _ in range(3)))
                for _ in range(3)]
        extra = rng.randrange(3)
        if extra == 1:
            x, y = rng.randint(-2, 2), rng.randint(-2, 2)
            gens.append(add(scale(gens[0], x), scale(gens[1], y)))
        elif extra == 2:
            gens.append(vec3(*(rng.randint(-bound, bound) for _ in range(3))))
        if any(not is_zero(g) for g in gens) and lg.lattice_from(gens).rank == 3:
            break
    if rng.randrange(3) == 0:
        rot = random_rotation(rng)
        factor = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        gens = [scale(apply_matrix(rot, g), factor) for g in gens]
    return gens


def skewed_lattice(z, rng):
    """The lattice of the echelon rows (1, 0, x), (0, 1, y), (0, 0, z)."""
    x, y = rng.randrange(z), rng.randrange(z)
    return lg.lattice_from((vec3(1, 0, x), vec3(0, 1, y), vec3(0, 0, z)))


class TestLatticeFrom:
    def test_fcc(self):
        lat = lg.lattice_from(FCC_GENS)
        assert lat.rank == 3
        assert lg.covolume(lat) == 2

    def test_cube(self):
        lat = lg.lattice_from(CUBE_GENS)
        assert lat.rank == 3
        assert lg.covolume(lat) == 1

    def test_collinear(self):
        lat = lg.lattice_from((vec3(1, 0, 0), vec3(2, 0, 0)))
        assert lat.rank == 1
        assert lat.rows == ((1, 0, 0),) and lat.den == 1

    def test_rational_generators(self):
        lat = lg.lattice_from((vec3("1/2", 0, 0), vec3(0, "1/3", 0)))
        assert lat.rank == 2
        assert in_lattice(basis(lat), vec3("1/2", "1/3", 0))
        assert not in_lattice(basis(lat), vec3("1/4", 0, 0))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            lg.lattice_from((vec3(0, 0, 0),))

    def test_membership_two_way(self, rng):
        for _ in range(10):
            gens = random_unimodular_gens(rng, FCC_GENS)
            lat = lg.lattice_from(gens)
            for g in gens:
                assert in_lattice(basis(lat), g)
            assert not in_lattice(basis(lat), vec3(1, 0, 0))
            # The first three FCC generators are a basis of its module.
            for b in basis(lat):
                assert in_lattice(FCC_GENS[:3], b)

    def test_canonical_under_generator_change(self, rng):
        base = lg.lattice_from(FCC_GENS)
        for _ in range(10):
            other = lg.lattice_from(random_unimodular_gens(rng, FCC_GENS))
            assert other == base

    def test_divisors_match_elimination_and_are_invariant(self, rng):
        # The rank against Gaussian elimination over Fraction, the pair
        # (rank, d) under a unimodular change of generators, and d under
        # scaling one echelon row by m.
        for rank in (0, 1, 2, 3):
            for _ in range(30):
                quad = random_quadruple_of_rank(rng, rank)
                rows = lg._int_rows(quad)[0]
                pair = lg._divisors(rows)
                assert pair[0] == fraction_rank(quad) == rank
                changed = random_unimodular_gens(rng, quad)
                assert lg._divisors(lg._int_rows(changed)[0]) == pair
                if rank:
                    echelon = lg._hnf(rows)
                    i = rng.randrange(rank)
                    m = rng.choice([k for k in range(-5, 6) if k])
                    echelon[i] = [m * x for x in echelon[i]]
                    assert lg._divisors(echelon) == (rank, abs(m) * pair[1])

    @pytest.mark.parametrize("gens,fault", [
        (FCC_GENS, lambda m: [[2 * x for x in m[0]], *m[1:]]),
        (SCALED_X_GENS, lambda m: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        # Of the same index as the generators' module, so only the
        # divisors of the generators and the basis together differ.
        (SCALED_X_GENS, lambda m: [[1, 0, 0], [0, 1, 0], [0, 0, 2]]),
        (FCC_GENS, lambda m: m[:-1]),
    ], ids=["first-pivot-doubled", "superlattice", "same-index-other-module",
            "row-dropped"])
    def test_faulty_echelon_basis_refused(self, monkeypatch, gens, fault):
        from autgeom.cli import INTERNAL_ERROR

        original = lg._hnf
        monkeypatch.setattr(lg, "_hnf", lambda rows: fault(original(rows)))
        with pytest.raises(RuntimeError, match=ECHELON_FAULT):
            lg.lattice_from(gens)
        text = ";".join(",".join(map(str, g.coords())) for g in gens)
        code, report = run_cli(["voronoi", "--gens", text])
        assert code == INTERNAL_ERROR
        assert ECHELON_FAULT in report.payload["error"]
        assert report.to_dict()["passed"] is False


class TestOctoCheck:
    def test_canonical_quadruple(self):
        flags, witness = octo_result(lg.octo_check(*FCC_GENS))
        assert all(flags)
        assert witness["common_norm_sq"] == "2"
        assert witness["lattice_rank"] == 3

    def test_repeated_pair_fails_difference_condition(self):
        flags, _ = octo_result(lg.octo_check(
            vec3(1, 0, 0), vec3(0, 1, 0), vec3(1, 0, 0), vec3(0, 1, 0)
        ))
        assert flags == (True, True, True, False)

    def test_scaled_quadruple_passes(self):
        flags, witness = octo_result(lg.octo_check(*(scale(v, 2) for v in FCC_GENS)))
        assert all(flags)
        assert witness["common_norm_sq"] == "8"

    def test_unequal_norms_reported(self):
        flags, witness = octo_result(lg.octo_check(
            vec3(2, 2, 0), vec3(1, -1, 0), vec3(1, 0, 1), vec3(1, 0, -1)
        ))
        assert not flags[0]
        assert witness["common_norm_sq"] is None

    @pytest.mark.parametrize("quad", [
        FCC_GENS,
        tuple(scale(v, 2) for v in FCC_GENS),
        tuple(scale(v, Fraction(3, 7)) for v in FCC_GENS),
        (vec3(1, 0, 0), vec3(0, 1, 0), vec3(1, 0, 0), vec3(0, 1, 0)),
        (vec3(2, 2, 0), vec3(1, -1, 0), vec3(1, 0, 1), vec3(1, 0, -1)),
        (vec3("1/2", 0, 0), vec3(0, "1/3", 0), vec3(0, 0, "1/5"), vec3(0, 0, 0)),
        (vec3(0, 0, 0),) * 4,
    ], ids=["fcc", "scaled", "rational-scale", "repeated-pair", "unequal-norms",
            "mixed-denominators", "zero"])
    def test_matches_fraction_reference(self, quad):
        assert octo_result(lg.octo_check(*quad)) == fraction_octo_check(*quad)

    def test_rotated_matches_fraction_reference(self, rng):
        for _ in range(20):
            rot = random_rotation(rng)
            factor = Fraction(rng.randint(1, 7), rng.randint(1, 7))
            quad = [scale(apply_matrix(rot, v), factor) for v in FCC_GENS]
            flags, witness = octo_result(lg.octo_check(*quad))
            assert (flags, witness) == fraction_octo_check(*quad)
            assert all(flags) and witness["common_norm_sq"] == str(2 * factor**2)

    @pytest.mark.parametrize("rank", [0, 1, 2, 3])
    def test_minor_rank_matches_lattice_rank(self, rng, rank):
        # The rank read off the minors of the integer rows against the
        # rank of the echelon basis that lattice_from builds.
        for _ in range(60):
            quad = random_quadruple_of_rank(rng, rank)
            assert lg._divisors(lg._int_rows(quad)[0])[0] == rank
            flags, witness = octo_result(lg.octo_check(*quad))
            assert witness["lattice_rank"] == rank
            assert (flags, witness) == fraction_octo_check(*quad)


class TestVoronoiCell:
    def test_unit_cube(self):
        cell = lg.voronoi_cell(lg.lattice_from(CUBE_GENS))
        cls = lg.classify(cell)
        assert cls["f_vector"] == [8, 12, 6]
        assert lg.polytope_volume(cell) == 1
        assert cls["is_cube"] and not cls["is_rhombic_dodecahedron"]
        half = Fraction(1, 2)
        assert all(abs(c) == half for v in points(cell) for c in v.coords())

    def test_fcc_cell(self):
        cell = lg.voronoi_cell(lg.lattice_from(FCC_GENS))
        cls = lg.classify(cell)
        assert cls["f_vector"] == [14, 24, 12]
        assert lg.polytope_volume(cell) == 2
        assert cls["is_rhombic_dodecahedron"]
        assert cls["rhombic_faces"] == 12
        assert cls["diag_ratios_sq"] == ["2"] * 12

    def test_scaled_cube_detected(self):
        cell = lg.voronoi_cell(lg.lattice_from([scale(v, 2) for v in CUBE_GENS]))
        cls = lg.classify(cell)
        assert cls["is_cube"] and not cls["is_rhombic_dodecahedron"]
        assert lg.polytope_volume(cell) == 8

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            lg.voronoi_cell(lg.lattice_from((vec3(1, 0, 0), vec3(0, 1, 0))))

    @pytest.mark.parametrize("kind", LATTICE_TYPES)
    def test_tiling_under_generator_changes(self, rng, kind):
        # The cell of s * R * L is s * R applied to the cell of L, whatever
        # the generators of the transformed lattice are.
        gens, f_vector = LATTICE_TYPES[kind]
        base = lg.voronoi_cell(lg.lattice_from(gens))
        assert base.f_vector() == f_vector
        for _ in range(8):
            rot = random_rotation(rng)
            factor = Fraction(rng.randint(1, 7), rng.randint(1, 7))
            lat = lg.lattice_from(
                [scale(apply_matrix(rot, g), factor)
                 for g in random_unimodular_gens(rng, gens)]
            )
            cell = lg.voronoi_cell(lat)
            assert cell.f_vector() == f_vector
            assert lg.polytope_volume(cell) == lg.covolume(lat)
            assert set(points(cell)) == {
                scale(apply_matrix(rot, v), factor) for v in points(base)
            }

    def test_symmetry_under_negation_and_basis_change(self, rng):
        base = lg.voronoi_cell(lg.lattice_from(FCC_GENS))
        negated = lg.voronoi_cell(lg.lattice_from([neg(v) for v in FCC_GENS]))
        assert negated.vertices == base.vertices
        for _ in range(5):
            other = lg.voronoi_cell(
                lg.lattice_from(random_unimodular_gens(rng, FCC_GENS))
            )
            assert other.vertices == base.vertices

    def test_skew_lattice_tiles(self):
        # A deliberately skewed basis exercises the reduction path.
        lat = lg.lattice_from((vec3(1, 0, 0), vec3(7, 1, 0), vec3(13, 9, 1)))
        cell = lg.voronoi_cell(lat)
        assert lg.polytope_volume(cell) == 1

    def test_anisotropic_lattice_tiles(self):
        lat = lg.lattice_from((vec3(5, 0, 0), vec3(0, 3, 0), vec3(4, 2, 1)))
        cell = lg.voronoi_cell(lat)
        assert lg.polytope_volume(cell) == 15 == lg.covolume(lat)

    def test_rational_lattice_tiles(self):
        lat = lg.lattice_from(
            (vec3("1/2", 0, 0), vec3("1/3", "1/3", 0), vec3(0, 0, "2/5"))
        )
        cell = lg.voronoi_cell(lat)
        assert lg.polytope_volume(cell) == Fraction(1, 15) == lg.covolume(lat)

    def test_octo_implies_rhombic_dodecahedron_under_rotations(self, rng):
        for _ in range(5):
            rot = random_rotation(rng)
            quad = [apply_matrix(rot, v) for v in FCC_GENS]
            flags, witness = octo_result(lg.octo_check(*quad))
            assert all(flags) and witness["lattice_rank"] == 3
            cls = lg.classify(lg.voronoi_cell(lg.lattice_from(quad)))
            assert cls["is_rhombic_dodecahedron"]


class TestAgainstReference:
    def test_random_lattices(self, rng):
        seen = set()
        for _ in range(2000):
            gens = random_generators(rng)
            lat = lg.lattice_from(gens)
            b = basis(lat)
            assert lat.den == lcm(*(c.denominator for v in b for c in v.coords()))
            covolume = minors_covolume(gens)
            assert lg.covolume(lat) == covolume
            quad = (*b, neg(add(add(b[0], b[1]), b[2])))
            assert octo_result(lg.octo_check(*quad)) == fraction_octo_check(*quad)
            cell = lg.voronoi_cell(lat)
            assert cell == reference_voronoi_cell(lat)
            # The cell tiles: its volume is the covolume.
            assert lg.polytope_volume(cell) == covolume
            assert lg.classify(cell) == reference_classify(cell)
            seen.add(cell.f_vector())
        assert seen == F_VECTORS

    @pytest.mark.parametrize("z", [10**3, 10**9, 10**40])
    def test_skewed_echelon_lattices(self, rng, z):
        for _ in range(3):
            lat = skewed_lattice(z, rng)
            v = lg._obtuse_superbase(lat.rows)
            assert [sum(c) for c in zip(*v)] == [0, 0, 0]
            assert all(lg._dot(v[i], v[j]) <= 0
                       for i, j in itertools.combinations(range(4), 2))
            assert abs(lg._dot(v[1], lg._cross(v[2], v[3]))) == z
            cell = lg.voronoi_cell(lat)
            assert lg.polytope_volume(cell) == z == lg.covolume(lat)
            assert cell == reference_voronoi_cell(lat)


def opposite_ring(letters):
    """Rings of the complementary letters: each face vector a gets the
    cycle of the opposite face, which lies on x.a = -|a|^2 / 2."""
    return ORIGINAL_RING(tuple(k for k in range(4) if k not in letters))


def swapped_ring(letters):
    """Rings with their first two orderings swapped: faces join vertices
    that share no edge, so they no longer close up into a sphere."""
    ring = ORIGINAL_RING(letters)
    return ring[1:2] + ring[:1] + ring[2:]


FACE_GATES = [(opposite_ring, "bisector plane"), (swapped_ring, "Euler gate failed")]


def one_ring_swapped(letters):
    """The ring of letters 1, 2, 3 with its first and fifth orderings
    swapped, the others as they are: only the facets S = {0} and
    S = {1, 2, 3} get a wrong cycle."""
    ring = ORIGINAL_RING(letters)
    if letters == (1, 2, 3):
        ring = [ring[4], *ring[1:4], ring[0], ring[5]]
    return ring


def det3(rows):
    return dot(rows[0], cross(rows[1], rows[2]))


def box_vector(superbase, c):
    return [c[0] * x + c[1] * y + c[2] * z for x, y, z in zip(*superbase[1:])]


BOX = [c for c in itertools.product(range(-2, 3), repeat=3) if any(c)]


def beyond_a_bisector(points, superbase):
    """Whether some point X / D, with D > 0, lies beyond the bisector of
    some of the 124 nonzero lattice vectors a of the [-2, 2]^3 box over
    v1, v2, v3: the brute force of gate 1, 2 X.a > D |a|^2."""
    for c in BOX:
        a = box_vector(superbase, c)
        limit = sum(x * x for x in a)
        if any(2 * sum(x * y for x, y in zip(point, a)) > limit * d
               for point, d in points):
            return True
    return False


def circumcentres(superbase):
    """The circumcentres X / D of the superbase's 24 simplices, each
    solving 2 x.p_t = |p_t|^2 by Cramer's rule, with X integer and
    D = 2 det > 0."""
    v = [Vec3(*r) for r in superbase]
    centres = []
    for order in itertools.permutations(range(4)):
        partial = list(itertools.accumulate((v[i] for i in order[:3]), add))
        rhs = [dot(p, p) for p in partial]
        columns = list(zip(*partial))
        x = [det3([Vec3(*(rhs[t] if j == k else columns[j][t] for j in range(3)))
                   for t in range(3)])
             for k in range(3)]
        d = 2 * det3(partial)
        centres.append(([-c for c in x], -d) if d < 0 else (x, d))
    return centres


def selling_zero_pattern(superbase):
    """The pairs i < j with v_i.v_j = 0, up to relabelling: how many there
    are and how many of the four vectors they touch.  The five patterns
    are those of the five cells: none (24 vertices), one (18), two that
    share a vector (12), two disjoint (14) and a triangle of three (8)."""
    zeros = [(i, j) for i, j in itertools.combinations(range(4), 2)
             if lg._dot(superbase[i], superbase[j]) == 0]
    return len(zeros), len(set(itertools.chain.from_iterable(zeros)))


class TestCentres:
    def test_gram_centres_match_cramer(self, rng):
        # The centres read off the Gram matrix over one least denominator
        # against Cramer's rule on the partial sums of each ordering.
        patterns = set()
        for _ in range(300):
            superbase = ORIGINAL_SUPERBASE(random_lattice(rng).rows)
            points, common = lg._centres(superbase)
            assert gcd(common, *itertools.chain.from_iterable(points)) == 1
            assert [tuple(Fraction(x, common) for x in p) for p in points] == [
                tuple(Fraction(x, d) for x in p) for p, d in circumcentres(superbase)]
            patterns.add(selling_zero_pattern(superbase))
        assert patterns == {(0, 0), (1, 2), (2, 3), (2, 4), (3, 3)}


class TestGates:
    # The superbase (1,0,0), (5,1,0), (0,7,1) of the cube lattice, with
    # v0 = -(6,8,1), is not obtuse, so its circumcentres are not the
    # vertices of the cell.
    UNREDUCED = [[-6, -8, -1], [1, 0, 0], [5, 1, 0], [0, 7, 1]]

    def test_minimal_distance_gate_fires(self, monkeypatch):
        monkeypatch.setattr(lg, "_obtuse_superbase", lambda rows: self.UNREDUCED)
        with pytest.raises(RuntimeError, match="minimal-distance gate"):
            lg.voronoi_cell(lg.lattice_from(CUBE_GENS))

    def test_half_box_gate_matches_full_box(self, rng, monkeypatch):
        # Superbases changed by a few unimodular steps are seldom obtuse,
        # and their circumcentres then leave the cell.  Gate 1 over the
        # half box must fire exactly when the brute force over all 124
        # box vectors finds a vertex beyond a bisector.
        outcomes = set()
        for _ in range(120):
            lat = random_lattice(rng)
            b = [list(r) for r in ORIGINAL_SUPERBASE(lat.rows)[1:]]
            for _ in range(rng.randrange(3)):
                i, j = rng.sample(range(3), 2)
                c = rng.choice((-1, 1))
                b[i] = [x + c * y for x, y in zip(b[i], b[j])]
            superbase = [[-sum(col) for col in zip(*b)], *b]
            monkeypatch.setattr(lg, "_obtuse_superbase", lambda rows, s=superbase: s)
            try:
                lg.voronoi_cell(lat)
                fired = False
            except RuntimeError as exc:
                fired = "minimal-distance gate" in str(exc)
            assert fired == beyond_a_bisector(circumcentres(superbase), superbase)
            outcomes.add(fired)
        assert outcomes == {True, False}

    def test_half_box_gate_matches_full_box_on_point_pairs(self, rng):
        # For a facet normal a, a pair +-y just beyond the midpoint of a
        # fails the halfspace of a and, with n this large, of no other
        # box vector; just short of the midpoint it fails none.  Every
        # box vector is tried, so a gate that skipped one would pass a
        # pair that the brute force fails.
        n = 1000
        outcomes = set()
        for _ in range(5):
            v = ORIGINAL_SUPERBASE(random_lattice(rng).rows)
            for c in BOX:
                for k in (n - 1, n + 1):
                    y = tuple(k * x for x in box_vector(v, c))
                    pair = [y, tuple(-x for x in y)]
                    try:
                        lg._minimal_distance_gate(pair, v, 2 * n)
                        fired = False
                    except RuntimeError:
                        fired = True
                    assert fired == beyond_a_bisector([(p, 2 * n) for p in pair], v)
                    outcomes.add(fired)
        assert outcomes == {True, False}

    def test_asymmetric_vertices_fire(self, monkeypatch):
        # Four vectors that do not sum to zero are no superbase, and the
        # circumcentres of their simplices are not centrally symmetric.
        vectors = [[1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
        monkeypatch.setattr(lg, "_obtuse_superbase", lambda rows: vectors)
        with pytest.raises(RuntimeError, match="not centrally symmetric"):
            lg.voronoi_cell(lg.lattice_from(CUBE_GENS))

    def test_minimal_distance_gate_exits_three(self, monkeypatch):
        from autgeom.cli import INTERNAL_ERROR

        monkeypatch.setattr(lg, "_obtuse_superbase", lambda rows: self.UNREDUCED)
        code, report = run_cli(["voronoi", "--gens", "1,0,0;0,1,0;0,0,1"])
        assert code == INTERNAL_ERROR
        assert "minimal-distance gate" in report.payload["error"]
        assert report.to_dict()["passed"] is False

    @pytest.mark.parametrize("ring,message", FACE_GATES, ids=["plane", "euler"])
    def test_face_gate_fires(self, monkeypatch, ring, message):
        monkeypatch.setattr(lg, "_ring", ring)
        monkeypatch.setattr(lg, "_FACES", lg._face_table())
        with pytest.raises(RuntimeError, match=message):
            lg.voronoi_cell(lg.lattice_from(FCC_GENS))

    @pytest.mark.parametrize("ring,message", FACE_GATES, ids=["plane", "euler"])
    def test_face_gate_exits_three(self, monkeypatch, ring, message):
        from autgeom.cli import INTERNAL_ERROR

        monkeypatch.setattr(lg, "_ring", ring)
        monkeypatch.setattr(lg, "_FACES", lg._face_table())
        code, report = run_cli(["voronoi", "--gens", "1,1,0;1,-1,0;1,0,1;1,0,-1"])
        assert code == INTERNAL_ERROR
        assert message in report.payload["error"]
        assert report.to_dict()["passed"] is False

    def test_volume_gate_needs_the_euler_gate(self, monkeypatch):
        # One swapped ring gives a polytope on the true vertices whose
        # volume is still the covolume: only the Euler gate refuses it.
        lat = lg.lattice_from((vec3(1, 1, 1), vec3(0, -2, -2), vec3(-1, 0, -2)))
        cell = lg.voronoi_cell(lat)
        monkeypatch.setattr(lg, "_ring", one_ring_swapped)
        monkeypatch.setattr(lg, "_FACES", lg._face_table())
        with pytest.raises(RuntimeError, match="Euler gate failed"):
            lg.voronoi_cell(lat)
        monkeypatch.setattr(lg.Polytope, "f_vector",
                            lambda poly: (len(poly.vertices), len(poly.vertices), 2))
        wrong = lg.voronoi_cell(lat)
        assert wrong != cell and wrong.vertices == cell.vertices
        assert lg.polytope_volume(wrong) == lg.covolume(lat)


class TestPolytopeInvariants:
    def test_faces_lie_on_halfspaces(self):
        cell = lg.voronoi_cell(lg.lattice_from(FCC_GENS))
        pts = points(cell)
        for cycle, n in zip(cell.faces, cell.normals):
            a = Vec3(*(Fraction(x, cell.den) for x in n))
            for idx in cycle:
                assert dot(pts[idx], a) == dot(a, a) / 2

    def test_deterministic(self):
        a = lg.voronoi_cell(lg.lattice_from(FCC_GENS))
        b = lg.voronoi_cell(lg.lattice_from(FCC_GENS))
        assert a == b


class TestOffExport(object):
    def test_round_trip_counts_and_sidecar(self, tmp_path):
        cell = lg.voronoi_cell(lg.lattice_from(FCC_GENS))
        path = str(tmp_path / "cell.off")
        off_path, sidecar = lg.export_off(cell, path, precision=4)
        lines = open(off_path).read().splitlines()
        assert lines[0] == "OFF"
        v, f, e = map(int, lines[1].split())
        assert (v, e, f) == cell.f_vector()
        assert len(lines) == 2 + v + f
        coords = lines[2].split()
        assert all("." in c and len(c.split(".")[1]) == 4 for c in coords)

        data = json.loads(open(sidecar).read())
        assert len(data["vertices"]) == v
        exact = [
            Vec3(*(Fraction(n, d) for n, d in vert)) for vert in data["vertices"]
        ]
        assert tuple(exact) == points(cell)
        assert [tuple(fc) for fc in data["faces"]] == list(cell.faces)
        assert len(data["halfspaces"]) == f

    def test_decimal_rendering(self):
        assert lg._decimal_str(1, 2, 3) == "0.500"
        assert lg._decimal_str(-1, 3, 4) == "-0.3333"
        assert lg._decimal_str(2, 3, 2) == "0.67"
        assert lg._decimal_str(0, 7, 2) == "0.00"
        assert lg._decimal_str(5, 1, 0) == "5"
        # Unreduced numerator and denominator render as their value.
        assert lg._decimal_str(-4, 6, 1) == "-0.7"
        assert lg._decimal_str(-1, 4, 0) == "0"
        assert lg._pair(-4, 6) == [-2, 3]
        assert lg._pair(0, 6) == [0, 1]


class TestRotations:
    def test_rotation_is_orthogonal(self, rng):
        for _ in range(10):
            rot = random_rotation(rng)
            for i in range(3):
                for j in range(3):
                    dot = sum(rot[i][k] * rot[j][k] for k in range(3))
                    assert dot == (1 if i == j else 0)

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError):
            rotation_from_quaternion(0, 0, 0, 0)
