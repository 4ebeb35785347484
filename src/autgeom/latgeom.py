"""Exact rational lattice geometry in three dimensions.

Lattices are Z-modules spanned by up to four rational vectors, carried
by a canonical Hermite-style echelon basis.  Voronoi (equivalently
Dirichlet) cells of rank-3 lattices are computed as exact convex
polytopes in one integer pass: the basis is turned into an obtuse
superbase by pairwise size reduction and Selling's steps, and the cell
is the permutohedron of that superbase, its vertices the circumcentres
of 24 Delaunay simplices and its faces the 14 subset sums.  Two
authoritative gates verify the result: every vertex minimizes its
distance over a box of lattice points holding all face normals, and the
cell volume equals the covolume of the lattice (the tiling condition).
The first is checked for half of the vertices over half of the box,
one of each pair +-y and +-a, after an exact check that the vertex set
is centrally symmetric.  The vertices are read off the Gram matrix of
the superbase over one denominator.  Two more gates check that the
faces lie on their bisector planes and satisfy Euler's formula.
lattice_from checks that its echelon basis spans the generators by the
rank and the gcd of maximal minors of both and of the two together.

Generators come in as Vec3 named tuples of Fractions and are scaled
once to integer rows over their least common denominator; a Lattice
holds its echelon rows and a Polytope its points, each a named tuple
over one denominator.
Fractions are built only for the values returned: the covolume and the
volume.  octo_check's squared norms and the diagonal ratios stay integer
pairs, rendered by ``ratio_str``, and the OFF export renders its
decimals and exact pairs from the integers.  Lengths are handled as
squared values so no square root is ever taken: a claimed diagonal ratio
of 1:sqrt(2) appears as a squared ratio of exactly 2.  ``classify`` and
``octo_check`` return what a report prints: the classification payload,
and the four conditions as Checks.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import gcd, lcm
from operator import lt
from typing import NamedTuple, Sequence

from .reports import Check, ratio_str

__all__ = [
    "Vec3",
    "Lattice",
    "Polytope",
    "vec3",
    "lattice_from",
    "covolume",
    "voronoi_cell",
    "polytope_volume",
    "classify",
    "octo_check",
    "export_off",
    "check_precision",
    "MAX_PRECISION",
]


class Vec3(NamedTuple):
    """An input vector with exact rational coordinates."""

    x: Fraction
    y: Fraction
    z: Fraction

    def coords(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.x, self.y, self.z)


def vec3(x, y, z) -> Vec3:
    """Build a Vec3 from ints, Fractions, or rational strings like '1/2'."""
    return Vec3(Fraction(x), Fraction(y), Fraction(z))


class Lattice(NamedTuple):
    """A Z-module in rational 3-space: basis vector i is ``rows[i] / den``,
    where the rows are the canonical echelon form of the module scaled
    by ``den``, the least common denominator of the basis entries."""

    rows: tuple[tuple[int, int, int], ...]
    den: int

    @property
    def rank(self) -> int:
        return len(self.rows)


def _int_rows(vectors: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Rational vectors (Vec3s, or any rows of ints and Fractions) as
    integer rows over their least common denominator."""
    den = lcm(*(c.denominator for v in vectors for c in v))
    return [[c.numerator * (den // c.denominator) for c in v] for v in vectors], den


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u: Sequence[int], v: Sequence[int]) -> tuple[int, int, int]:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _add(u: Sequence[int], v: Sequence[int]) -> list[int]:
    return [u[0] + v[0], u[1] + v[1], u[2] + v[2]]


def _dist_sq(u: Sequence[int], v: Sequence[int]) -> int:
    return (u[0] - v[0]) ** 2 + (u[1] - v[1]) ** 2 + (u[2] - v[2]) ** 2


def _divisors(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """(rank, d) for integer rows in 3-space: their rank r and the gcd d
    of their r x r minors, which are the triple products for r = 3, the
    cross-product components for r = 2 and the entries for r = 1; (0, 0)
    for zero rows.  Neither changes under a unimodular change of rows."""
    d = gcd(*(_dot(r, _cross(s, t)) for r, s, t in itertools.combinations(rows, 3)))
    if d:
        return 3, d
    pairs = itertools.combinations(rows, 2)
    d = gcd(*itertools.chain.from_iterable(_cross(r, s) for r, s in pairs))
    if d:
        return 2, d
    d = gcd(*itertools.chain.from_iterable(rows))
    return (1, d) if d else (0, 0)


def _hnf(rows: list[list[int]]) -> list[list[int]]:
    """Hermite-style row echelon form over Z, without its zero tail.

    Pivots are positive and the entries above each pivot are reduced
    into [0, pivot), so the form is canonical: two lists of rows span
    the same module exactly when their echelon forms are equal.
    """
    m = [r[:] for r in rows]
    n = len(m)
    h = 0
    for col in range(3):
        while True:
            live = [r for r in range(h, n) if m[r][col] != 0]
            if not live:
                break
            r0 = min(live, key=lambda r: abs(m[r][col]))
            m[h], m[r0] = m[r0], m[h]
            done = True
            for r in range(h + 1, n):
                if m[r][col] != 0:
                    q = m[r][col] // m[h][col]
                    m[r] = [a - q * b for a, b in zip(m[r], m[h])]
                    if m[r][col] != 0:
                        done = False
            if done:
                break
        if h < n and m[h][col] != 0:
            if m[h][col] < 0:
                m[h] = [-a for a in m[h]]
            for r in range(h):
                q = m[r][col] // m[h][col]
                if q:
                    m[r] = [a - q * b for a, b in zip(m[r], m[h])]
            h += 1
    return m[:h]


def lattice_from(gens: Sequence[Vec3]) -> Lattice:
    """Build a lattice from 1..4 rational generators.

    The basis is the Hermite-style echelon reduction of the generators,
    verified exactly before returning: the generator rows, the basis
    rows and the two together must have the same rank r and the same
    gcd of r x r minors, or RuntimeError is raised.  That suffices.  By
    Cauchy-Binet, the r x r minors of a rank-r submodule N of a module M
    are those of a basis of M times the determinant of the integer
    matrix that expresses a basis of N in it, so N = M exactly when the
    two gcds are equal.  The generators and the basis both lie in the
    module that they span together, so each is all of it.
    """
    gens = tuple(gens)
    if not 1 <= len(gens) <= 4:
        raise ValueError(f"need 1..4 generators, got {len(gens)}")
    rows, den = _int_rows(gens)
    if not any(map(any, rows)):
        raise ValueError("all generators are zero")
    basis_rows = _hnf(rows)
    if not _divisors(rows) == _divisors(basis_rows) == _divisors(rows + basis_rows):
        raise RuntimeError("echelon basis does not span the generator module")
    # The least common denominator of the basis entries divides den.
    g = gcd(den, *itertools.chain.from_iterable(basis_rows))
    return Lattice(tuple(tuple(x // g for x in r) for r in basis_rows), den // g)


def covolume(lat: Lattice) -> Fraction:
    """|det| of the basis for rank-3 lattices."""
    if lat.rank != 3:
        raise ValueError(f"covolume needs rank 3, got rank {lat.rank}")
    r0, r1, r2 = lat.rows
    return Fraction(abs(_dot(r0, _cross(r1, r2))), lat.den ** 3)


# ---------------------------------------------------------------------------
# Voronoi cells.
# ---------------------------------------------------------------------------


class Polytope(NamedTuple):
    """A Voronoi cell as integer points over one denominator.

    Vertex i is the point ``vertices[i] / den``.  ``faces[k]`` is the
    cyclic vertex-index cycle of the face on the bisector plane
    x.a = |a|^2 / 2 of the lattice vector a = ``normals[k] / den``.
    ``voronoi_cell`` gates every cell it returns.
    """

    vertices: tuple[tuple[int, int, int], ...]
    faces: tuple[tuple[int, ...], ...]
    normals: tuple[tuple[int, int, int], ...]
    den: int

    def f_vector(self) -> tuple[int, int, int]:
        edges = {frozenset(edge) for cycle in self.faces
                 for edge in zip(cycle, cycle[1:] + cycle[:1])}
        return (len(self.vertices), len(edges), len(self.faces))


def _obtuse_superbase(rows: Sequence[Sequence[int]]) -> list[Sequence[int]]:
    """An obtuse superbase v0..v3 of the lattice of three integer rows.

    The vectors sum to zero, any three of them are a basis, and every
    v_i.v_j <= 0.  The rows are first size-reduced in pairs,
    b_i -= q b_j with q the nearest integer to b_i.b_j / |b_j|^2,
    whenever that strictly shortens b_i.  Selling's steps then start
    from v0 = -(b1 + b2 + b3), b1, b2, b3: while some v_i.v_j > 0, add
    v_i to the other two vectors and negate v_i.  Each step keeps the
    sum zero and lowers sum |v|^2 by 2 v_i.v_j, so both stages stop.
    """
    b = list(rows)
    shortened = True
    while shortened:
        shortened = False
        for i, j in itertools.permutations(range(3), 2):
            d, n = _dot(b[i], b[j]), _dot(b[j], b[j])
            q = (2 * d + n) // (2 * n)
            if q * q * n < 2 * q * d:
                b[i] = [x - q * y for x, y in zip(b[i], b[j])]
                shortened = True
    v = [[-sum(c) for c in zip(*b)], *b]
    while True:
        pair = next(
            ((i, j) for i, j in itertools.combinations(range(4), 2)
             if _dot(v[i], v[j]) > 0),
            None,
        )
        if pair is None:
            return v
        i = pair[0]
        for k in range(4):
            if k not in pair:
                v[k] = _add(v[k], v[i])
        v[i] = [-x for x in v[i]]


def _ring(letters: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The orderings of one to three letters around the cycle in which
    neighbours differ by swapping two adjacent letters."""
    if len(letters) == 1:
        return [letters]
    if len(letters) == 2:
        return [letters, letters[::-1]]
    a, b, c = letters
    return [(a, b, c), (a, c, b), (c, a, b), (c, b, a), (b, c, a), (b, a, c)]


# The 24 orderings (i, j, k, l) of the superbase, in lexicographic order.
_ORDERINGS = tuple(itertools.permutations(range(4)))


def _face_table() -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Each facet S of the permutohedron with the positions in _ORDERINGS
    of the orderings that start with S, in their order around it.
    Neighbours differ by one swap inside the head S or inside the tail;
    the tail ring turns back on every other head, which closes the
    square of |S| = 2."""
    position = {order: n for n, order in enumerate(_ORDERINGS)}
    table = []
    for size in (1, 2, 3):
        for subset in itertools.combinations(range(4), size):
            tails = _ring(tuple(k for k in range(4) if k not in subset))
            ring = [head + tail for turn, head in enumerate(_ring(subset))
                    for tail in (tails if turn % 2 == 0 else tails[::-1])]
            table.append((subset, tuple(position[order] for order in ring)))
    return tuple(table)


_FACES = _face_table()


def _centres(v: Sequence[Sequence[int]]) -> tuple[list[tuple[int, int, int]], int]:
    """(points, common): the circumcentre x of 0, v_i, v_i + v_j,
    v_i + v_j + v_k for each ordering (i, j, k, l) in _ORDERINGS, as
    integer points over their least common denominator.

    With g the Gram matrix, s_m = 2 x.v_m is g_ii for m = i, g_jj + 2 g_ij
    for j, g_kk + 2 (g_ik + g_jk) for k and, as the superbase sums to
    zero, -g_ll for l; so x = (s1 v2 x v3 + s2 v3 x v1 + s3 v1 x v2) / N
    with N = 2 det(v1, v2, v3).  As lcm(N / a_i) = N / gcd(a_i) for
    divisors a_i of N, common is N over the gcd of N and the numerators.
    """
    g = [[_dot(a, b) for b in v] for a in v]
    c1, c2, c3 = _cross(v[2], v[3]), _cross(v[3], v[1]), _cross(v[1], v[2])
    det = _dot(v[1], c1)
    # The matrix with columns c1, c2, c3, negated with det so N > 0.
    sign = 1 if det > 0 else -1
    rows = [(sign * a, sign * b, sign * c) for a, b, c in zip(c1, c2, c3)]
    numerators = []
    for i, j, k, l in _ORDERINGS:
        s = {i: g[i][i], j: g[j][j] + 2 * g[i][j],
             k: g[k][k] + 2 * (g[i][k] + g[j][k]), l: -g[l][l]}
        s1, s2, s3 = s[1], s[2], s[3]
        numerators.append([s1 * a + s2 * b + s3 * c for a, b, c in rows])
    n = 2 * sign * det
    h = gcd(n, *itertools.chain.from_iterable(numerators))
    return [(x // h, y // h, z // h) for x, y, z in numerators], n // h


def polytope_volume(poly: Polytope) -> Fraction:
    """Exact volume via origin-apex pyramids over each face."""
    pts = poly.vertices
    total = 0
    for cycle in poly.faces:
        p0 = pts[cycle[0]]
        total += abs(sum(_dot(p0, _cross(pts[a], pts[b]))
                         for a, b in zip(cycle[1:], cycle[2:])))
    return Fraction(total, 6 * poly.den ** 3)


# The heads (c0, c1) > (0, 0) of the [-2, 2]^3 box.  Its vectors c > 0,
# one of each pair +-c of its 124 nonzero vectors, are (0, 0, 1),
# (0, 0, 2) and then each head with c2 = -2..2.
_HEADS = tuple(h for h in itertools.product(range(3), range(-2, 3)) if h > (0, 0))


def _minimal_distance_gate(vertices: Sequence[Sequence[int]],
                           v: Sequence[Sequence[int]], common: int) -> None:
    """Gate 1 of ``voronoi_cell``: every vertex y / common minimizes its
    distance over the box, which is to say 2 y.a <= common |a|^2 for the
    124 nonzero a = c0 v1 + c1 v2 + c2 v3 with c in [-2, 2]^3.

    The test of (y, c) is the test of (-y, -c), so once the vertex set
    is checked to be centrally symmetric, |2 y.a| <= common |a|^2 for
    y > (0, 0, 0) and c > (0, 0, 0) decides all four pairs (+-y, +-c).
    2 y.a is c.t for the doubled products t of y with v1, v2, v3, and
    |a|^2 is c G c for their Gram matrix G, each summed a head (c0, c1)
    at a time.  Raises RuntimeError if either check fails.
    """
    if {(-x, -y, -z) for x, y, z in vertices} != set(vertices):
        raise RuntimeError("vertex set is not centrally symmetric")
    # Entry n of limits and of dots belongs to the n-th c > (0, 0, 0) in
    # the order of _HEADS: common |a|^2 and 2 y.a.
    (g11, g12, g13), (_, g22, g23), (_, _, g33) = (
        [common * _dot(a, b) for b in v[1:]] for a in v[1:])
    heads = [(c0 * (c0 * g11 + 2 * c1 * g12) + c1 * c1 * g22, 2 * (c0 * g13 + c1 * g23))
             for c0, c1 in _HEADS]
    limits = [g33, 4 * g33] + [q + c2 * (lin + c2 * g33)
                               for q, lin in heads for c2 in range(-2, 3)]
    _, v1, v2, v3 = v
    for y in vertices:
        if y > (0, 0, 0):
            t1, t2, t3 = 2 * _dot(y, v1), 2 * _dot(y, v2), 2 * _dot(y, v3)
            c2_terms = (-2 * t3, -t3, 0, t3, 2 * t3)
            dots = [t3, 2 * t3] + [p + z for p in [c0 * t1 + c1 * t2 for c0, c1 in _HEADS]
                                   for z in c2_terms]
            if any(map(lt, limits, map(abs, dots))):
                raise RuntimeError("vertex fails the minimal-distance gate")


def voronoi_cell(lat: Lattice) -> Polytope:
    """The exact Voronoi cell {x : |x| <= |x - a| for all a in the lattice}.

    Every rank-3 lattice is of Voronoi's first kind: for an obtuse
    superbase v0..v3 (sum zero, every v_i.v_j <= 0) the cell is the
    permutohedron of the superbase (Conway & Sloane, "Low-dimensional
    lattices VI", Proc. R. Soc. Lond. A 436, 1992).  Its vertices are
    the circumcentres of the 24 Delaunay simplices
    0, v_i, v_i + v_j, v_i + v_j + v_k, one per ordering (i, j, k, l) of
    the superbase, read off its Gram matrix by ``_centres``.  Its facets
    are the 14 nonempty proper subsets S of {0, 1, 2, 3}, with normal
    v_S = sum of v_i over S and bounded by the orderings that start with
    S (``_FACES``): a hexagon for |S| = 1 or 3, a square for |S| = 2.
    Two orderings that differ by swapping adjacent letters i, j have the
    same circumcentre exactly when v_i.v_j = 0, so repeated vertices are
    dropped from each cycle and a facet with fewer than three vertices
    left is not a facet.

    Before returning, four gates are enforced exactly, each raising
    RuntimeError.  Gate 1: every vertex is at minimal squared distance
    from the origin among the 124 nonzero lattice points of the
    [-2, 2]^3 coefficient box over v1, v2, v3; the box holds all 14 v_S,
    so every vertex satisfies every face halfspace.  After an exact
    check that the vertex set is centrally symmetric, it tests half the
    vertices against half the box, each test deciding the pairs +-y,
    +-a.  The plane gate checks that each face's vertices lie on the
    bisector plane of its v_S, and the Euler gate that V - E + F = 2, so
    the polytope is the intersection of halfspaces x.v_S <= |v_S|^2/2
    that bisect true lattice vectors and holds the cell.  Gate 2: its
    volume equals |det basis|, which forces it to be the cell.  That
    holds only together with the Euler gate: faces cycled in a wrong
    order on the right vertices can keep the volume and break only
    V - E + F = 2.

    Internally a lattice vector a is the integer row A = lat.den * a and
    a point x is y = lat.den * x, so the halfspace of A reads
    2 y.A <= |A|^2.  The returned Polytope stays in integers: its
    vertices and face vectors are taken over the one denominator
    common * lat.den.
    """
    if lat.rank != 3:
        raise ValueError(f"Voronoi cell needs a rank-3 lattice, got rank {lat.rank}")
    v = _obtuse_superbase(lat.rows)

    centres, common = _centres(v)
    # The order of the integer points is that of their rational coordinates.
    vertices = sorted(set(centres))
    index = {y: i for i, y in enumerate(vertices)}
    at = [index[y] for y in centres]

    _minimal_distance_gate(vertices, v, common)

    faces = []
    for subset, positions in _FACES:
        ring = [at[n] for n in positions]
        cycle = [x for i, x in enumerate(ring) if x != ring[i - 1]]
        if len(cycle) < 3:
            continue
        # Canonical form: start at the smallest index, then go toward
        # the smaller neighbour.
        start = cycle.index(min(cycle))
        cycle = cycle[start:] + cycle[:start]
        if cycle[-1] < cycle[1]:
            cycle = [cycle[0]] + cycle[:0:-1]
        normal = tuple(common * sum(c) for c in zip(*[v[i] for i in subset]))
        faces.append((tuple(cycle), normal))
    faces.sort(key=lambda face: sorted(face[0]))
    poly = Polytope(
        tuple(vertices),
        tuple(cycle for cycle, _ in faces),
        tuple(normal for _, normal in faces),
        common * lat.den,
    )

    # The plane gate: a face at x.a = |a|^2 / 2 reads 2 p.n = |n|^2 for
    # the integer point p and face vector n over the one denominator.
    for cycle, n in zip(poly.faces, poly.normals):
        norm_sq = _dot(n, n)
        if any(2 * _dot(vertices[i], n) != norm_sq for i in cycle):
            raise RuntimeError("face vertex misses its bisector plane")
    n_v, n_e, n_f = poly.f_vector()
    if n_v - n_e + n_f != 2:
        raise RuntimeError(f"Euler gate failed: V={n_v} E={n_e} F={n_f}")

    # Gate 2: the cell tiles, so its volume is exactly the covolume.
    if polytope_volume(poly) != covolume(lat):
        raise RuntimeError("volume gate failed; computed cell does not tile")
    return poly


# ---------------------------------------------------------------------------
# Classification and the four-vector conditions.
# ---------------------------------------------------------------------------


def classify(poly: Polytope) -> dict:
    """The ``classification`` payload of a cell report: the f-vector,
    the two named verdicts, each face's squared diagonal ratio (None
    unless the face is a quadrilateral) and the number of rhombic faces.

    A rhombic dodecahedron must have f-vector (14, 24, 12) with twelve
    rhombic faces whose squared diagonal ratio is exactly 2; a cube has
    f-vector (8, 12, 6) with six square faces (rhombi with equal
    diagonals).
    """
    ratios = []
    rhombi = 0
    for cycle in poly.faces:
        pts = [poly.vertices[i] for i in cycle]
        edges = {_dist_sq(a, b) for a, b in zip(pts, pts[1:] + pts[:1])}
        if 0 in edges:
            raise ValueError("degenerate face with a zero-length edge")
        ratio = None
        if len(cycle) == 4:
            rhombi += len(edges) == 1
            d1 = _dist_sq(pts[2], pts[0])
            d2 = _dist_sq(pts[3], pts[1])
            ratio = max(d1, d2), min(d1, d2)
        ratios.append(ratio)
    fv = poly.f_vector()
    all_rhombi = rhombi == len(ratios)
    # all_rhombi leaves no None among the ratios.
    is_rd = fv == (14, 24, 12) and all_rhombi and all(hi == 2 * lo for hi, lo in ratios)
    is_cube = fv == (8, 12, 6) and all_rhombi and all(hi == lo for hi, lo in ratios)
    return {
        "f_vector": list(fv),
        "is_rhombic_dodecahedron": is_rd,
        "is_cube": is_cube,
        "diag_ratios_sq": [None if r is None else ratio_str(*r) for r in ratios],
        "rhombic_faces": rhombi,
    }


def octo_check(u1: Vec3, u2: Vec3, v1: Vec3, v2: Vec3) -> list[Check]:
    """The three four-vector conditions guaranteeing a rhombic-dodecahedral
    Dirichlet domain:

        (1) u1 + u2 = v1 + v2,
        (2) u1 . u2 = 0 and v1 . v2 = 0,
        (3) (u1 - u2) . (v1 - v2) = 0,

    together with the requirement that all four vectors share one
    nonzero squared norm (any common scale is accepted and reported;
    exact unit vectors are not representable rationally in general).
    The four checks share one witness: the squared norms, the common
    one (None unless they agree and are nonzero) and the rank of the
    generated lattice, which is 3 whenever every condition holds.  The
    rank is read off the minors of the four vectors scaled to integers,
    as lattice_from reads it: the size of the largest square minor that
    is not zero.  No lattice is built.
    """
    vectors = (u1, u2, v1, v2)
    (a1, a2, b1, b2), den = _int_rows(vectors)
    dots = [_dot(w, w) for w in (a1, a2, b1, b2)]
    norms = [ratio_str(n, den * den) for n in dots]
    equal_norms = len(set(dots)) == 1 and dots[0] != 0
    cross_terms = _dot(a1, b1) - _dot(a1, b2) - _dot(a2, b1) + _dot(a2, b2)
    witness = {
        "norms_sq": norms,
        "common_norm_sq": norms[0] if equal_norms else None,
        "lattice_rank": _divisors((a1, a2, b1, b2))[0],
    }
    return [
        Check(
            "equal-nonzero-norms",
            "all four vectors share one nonzero squared norm",
            equal_norms,
            witness,
        ),
        Check(
            "sum-condition",
            "u1 + u2 = v1 + v2",
            _add(a1, a2) == _add(b1, b2),
            witness,
        ),
        Check(
            "pair-orthogonality",
            "u1 . u2 = 0 and v1 . v2 = 0",
            _dot(a1, a2) == 0 and _dot(b1, b2) == 0,
            witness,
        ),
        Check(
            "difference-orthogonality",
            "(u1 - u2) . (v1 - v2) = 0",
            cross_terms == 0,
            witness,
        ),
    ]


# ---------------------------------------------------------------------------
# OFF export.
# ---------------------------------------------------------------------------


# The most fraction digits export_off renders, well under the 4,300
# digits CPython converts to a string; each digit costs time and memory.
MAX_PRECISION = 1000


def check_precision(precision: int) -> None:
    """Refuse an OFF precision outside 0..MAX_PRECISION with ValueError."""
    if precision < 0:
        raise ValueError(f"precision must be >= 0, got {precision}")
    if precision > MAX_PRECISION:
        raise ValueError(f"precision must be <= {MAX_PRECISION}, got {precision}")


def _decimal_str(x: int, den: int, digits: int) -> str:
    """Exact decimal rendering of x / den, for den > 0, with the given
    number of fraction digits, rounding halves away from zero."""
    q = 10 ** digits
    t, r = divmod(abs(x) * q, den)
    if 2 * r >= den:
        t += 1
    sign = "-" if x < 0 and t > 0 else ""
    if digits == 0:
        return f"{sign}{t}"
    return f"{sign}{t // q}.{t % q:0{digits}d}"


def _pair(x: int, den: int) -> list[int]:
    """x / den, for den > 0, as the [numerator, denominator] of its
    lowest terms."""
    g = gcd(x, den)
    return [x // g, den // g]


def export_off(poly: Polytope, path: str, precision: int = 6) -> tuple[str, str]:
    """Write an OFF file plus an exact JSON sidecar.

    The OFF file renders coordinates as decimal strings with the given
    precision, at most MAX_PRECISION; the sidecar at ``<path>.json``
    carries every vertex coordinate as an exact [numerator, denominator]
    pair along with the face cycles and the defining halfspaces (normal
    a and offset |a|^2 / 2 of x.a <= |a|^2 / 2).
    """
    check_precision(precision)
    den = poly.den
    n_v, n_e, n_f = poly.f_vector()
    lines = ["OFF", f"{n_v} {n_f} {n_e}"]
    for p in poly.vertices:
        lines.append(" ".join(_decimal_str(x, den, precision) for x in p))
    for cycle in poly.faces:
        lines.append(" ".join(str(n) for n in (len(cycle), *cycle)))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")

    sidecar = path + ".json"
    data = {
        "vertices": [[_pair(x, den) for x in p] for p in poly.vertices],
        "faces": [list(cycle) for cycle in poly.faces],
        "halfspaces": [
            {
                "normal": [_pair(x, den) for x in n],
                "offset": _pair(_dot(n, n), 2 * den * den),
            }
            for n in poly.normals
        ],
    }
    with open(sidecar, "w", encoding="ascii") as fh:
        fh.write(json.dumps(data, indent=1))
    return path, sidecar

