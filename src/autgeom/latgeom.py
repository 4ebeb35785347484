"""Exact rational lattice geometry in three dimensions.

Lattices are Z-modules spanned by up to four rational vectors, carried
by a canonical Hermite-style echelon basis.  Voronoi (equivalently
Dirichlet) cells of rank-3 lattices are computed as exact convex
polytopes in one integer pass: the basis is scaled to integer rows and
LLL-reduced, the Voronoi-relevant vectors are picked from a small box
over the reduced basis, and vertices are integer solutions of plane
triples.  Two authoritative gates verify the result: every vertex
minimizes its distance over the candidate lattice points, and the cell
volume equals the covolume of the lattice (the tiling condition).

Inputs and outputs are Fractions, the inner loops work on integers,
and lengths are handled as squared values so no square root is ever
taken.  A claimed diagonal ratio of 1:sqrt(2) therefore appears as a
squared ratio of exactly 2.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

__all__ = [
    "Vec3",
    "Lattice",
    "Polytope",
    "OctoReport",
    "FaceShape",
    "Classification",
    "vec3",
    "lattice_from",
    "contains",
    "covolume",
    "voronoi_cell",
    "polytope_volume",
    "classify",
    "octo_check",
    "export_off",
    "rotation_from_quaternion",
    "apply_matrix",
]


@dataclass(frozen=True)
class Vec3:
    """A point or vector with exact rational coordinates."""

    x: Fraction
    y: Fraction
    z: Fraction

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def scale(self, c) -> "Vec3":
        f = Fraction(c)
        return Vec3(self.x * f, self.y * f, self.z * f)

    def dot(self, other: "Vec3") -> Fraction:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm_sq(self) -> Fraction:
        return self.dot(self)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0 and self.z == 0

    def coords(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.x, self.y, self.z)


def vec3(x, y, z) -> Vec3:
    """Build a Vec3 from ints, Fractions, or rational strings like '1/2'."""
    return Vec3(Fraction(x), Fraction(y), Fraction(z))


ZERO = vec3(0, 0, 0)


@dataclass(frozen=True)
class Lattice:
    """A Z-module in rational 3-space with its canonical echelon basis."""

    generators: tuple[Vec3, ...]
    basis: tuple[Vec3, ...]
    rank: int


def _common_denominator(vectors: Iterable[Vec3]) -> int:
    den = 1
    for v in vectors:
        for c in v.coords():
            den = den * c.denominator // gcd(den, c.denominator)
    return den


def _int_rows(vectors: Sequence[Vec3]) -> tuple[list[list[int]], int]:
    den = _common_denominator(vectors)
    rows = [[int(c * den) for c in v.coords()] for v in vectors]
    return rows, den


def _hnf(rows: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Hermite-style row echelon form over Z with transform tracking.

    Returns (echelon rows without the zero tail, transform rows U) with
    echelon[i] == sum_j U[i][j] * rows[j].  Pivots are positive and the
    entries above each pivot are reduced into [0, pivot).
    """
    m = [r[:] for r in rows]
    n = len(m)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    h = 0
    for col in range(3):
        while True:
            live = [r for r in range(h, n) if m[r][col] != 0]
            if not live:
                break
            r0 = min(live, key=lambda r: abs(m[r][col]))
            m[h], m[r0] = m[r0], m[h]
            u[h], u[r0] = u[r0], u[h]
            done = True
            for r in range(h + 1, n):
                if m[r][col] != 0:
                    q = m[r][col] // m[h][col]
                    m[r] = [a - q * b for a, b in zip(m[r], m[h])]
                    u[r] = [a - q * b for a, b in zip(u[r], u[h])]
                    if m[r][col] != 0:
                        done = False
            if done:
                break
        if h < n and m[h][col] != 0:
            if m[h][col] < 0:
                m[h] = [-a for a in m[h]]
                u[h] = [-a for a in u[h]]
            for r in range(h):
                q = m[r][col] // m[h][col]
                if q:
                    m[r] = [a - q * b for a, b in zip(m[r], m[h])]
                    u[r] = [a - q * b for a, b in zip(u[r], u[h])]
            h += 1
    return m[:h], u[:h]


def _member_coeffs(basis_rows: list[list[int]], v: list[int]) -> list[int] | None:
    """Integer coefficients of v over echelon basis rows, or None."""
    rest = v[:]
    coeffs = []
    for row in basis_rows:
        col = next(c for c in range(3) if row[c] != 0)
        if rest[col] % row[col] != 0:
            return None
        q = rest[col] // row[col]
        rest = [a - q * b for a, b in zip(rest, row)]
        coeffs.append(q)
    if any(rest):
        return None
    return coeffs


def lattice_from(gens: Sequence[Vec3]) -> Lattice:
    """Build a lattice from 1..4 rational generators.

    The basis is the Hermite-style echelon reduction of the generators;
    both inclusions between the generator module and the basis module
    are verified exactly before returning.
    """
    gens = tuple(gens)
    if not 1 <= len(gens) <= 4:
        raise ValueError(f"need 1..4 generators, got {len(gens)}")
    if all(g.is_zero() for g in gens):
        raise ValueError("all generators are zero")
    rows, den = _int_rows(gens)
    basis_rows, transform = _hnf(rows)
    basis = tuple(
        Vec3(Fraction(r[0], den), Fraction(r[1], den), Fraction(r[2], den))
        for r in basis_rows
    )
    # Two-way membership: each basis vector is the tracked integer
    # combination of the generators, and each generator reduces to zero
    # against the basis.
    for i, coeffs in enumerate(transform):
        acc = ZERO
        for c, g in zip(coeffs, gens):
            acc = acc + g.scale(c)
        if acc != basis[i]:
            raise RuntimeError("echelon transform failed verification")
    for row in rows:
        if _member_coeffs(basis_rows, row) is None:
            raise RuntimeError("generator not contained in echelon basis module")
    return Lattice(gens, basis, len(basis_rows))


def contains(lat: Lattice, v: Vec3) -> bool:
    """Exact membership of a rational point in the lattice."""
    rows, den = _int_rows(lat.basis)
    scaled = [v.x * den, v.y * den, v.z * den]
    if any(c.denominator != 1 for c in scaled):
        return False
    return _member_coeffs(rows, [int(c) for c in scaled]) is not None


def covolume(lat: Lattice) -> Fraction:
    """|det| of the basis for rank-3 lattices."""
    if lat.rank != 3:
        raise ValueError(f"covolume needs rank 3, got rank {lat.rank}")
    b = lat.basis
    return abs(b[0].dot(b[1].cross(b[2])))


# ---------------------------------------------------------------------------
# Voronoi cells.
# ---------------------------------------------------------------------------


def _lll(rows: list[list[int]]) -> list[list[int]]:
    """Exact LLL reduction (delta = 3/4) of independent integer rows."""
    b = [r[:] for r in rows]
    n = len(b)

    def gram_schmidt():
        star: list[list[Fraction]] = []
        mu = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            v = [Fraction(x) for x in b[i]]
            for j in range(i):
                denom = sum(x * x for x in star[j])
                mu[i][j] = sum(Fraction(b[i][k]) * star[j][k] for k in range(3)) / denom
                v = [v[k] - mu[i][j] * star[j][k] for k in range(3)]
            star.append(v)
        return star, mu

    star, mu = gram_schmidt()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [a - q * c for a, c in zip(b[k], b[j])]
                star, mu = gram_schmidt()
        lhs = sum(x * x for x in star[k])
        rhs = (Fraction(3, 4) - mu[k][k - 1] ** 2) * sum(x * x for x in star[k - 1])
        if lhs >= rhs:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            star, mu = gram_schmidt()
            k = max(k - 1, 1)
    return b


@dataclass(frozen=True)
class Polytope:
    """An exact convex 3-polytope.

    ``faces[k]`` is the cyclic vertex-index cycle of the face supported
    by ``halfspaces[k]`` (pairs (normal a, offset c) meaning x.a <= c).
    """

    vertices: tuple[Vec3, ...]
    faces: tuple[tuple[int, ...], ...]
    halfspaces: tuple[tuple[Vec3, Fraction], ...]

    def __post_init__(self) -> None:
        if len(self.faces) != len(self.halfspaces):
            raise ValueError("faces and halfspaces must correspond one-to-one")
        edges = set()
        for cycle, (normal, offset) in zip(self.faces, self.halfspaces):
            if len(cycle) < 3:
                raise ValueError("face with fewer than three vertices")
            for idx in cycle:
                if self.vertices[idx].dot(normal) != offset:
                    raise ValueError("face vertex misses its supporting plane")
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                edges.add(frozenset((a, b)))
        v, e, f = len(self.vertices), len(edges), len(self.faces)
        if v - e + f != 2:
            raise ValueError(f"Euler check failed: V={v} E={e} F={f}")

    def edge_count(self) -> int:
        edges = set()
        for cycle in self.faces:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                edges.add(frozenset((a, b)))
        return len(edges)

    def f_vector(self) -> tuple[int, int, int]:
        return (len(self.vertices), self.edge_count(), len(self.faces))


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u: Sequence[int], v: Sequence[int]) -> tuple[int, int, int]:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


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


def polytope_volume(poly: Polytope) -> Fraction:
    """Exact volume via origin-apex pyramids over each face."""
    total = Fraction(0)
    for cycle in poly.faces:
        v0 = poly.vertices[cycle[0]]
        signed = Fraction(0)
        for a, b in zip(cycle[1:], cycle[2:]):
            va, vb = poly.vertices[a], poly.vertices[b]
            signed += v0.dot(va.cross(vb))
        total += abs(signed)
    return total / 6


def voronoi_cell(lat: Lattice) -> Polytope:
    """The exact Voronoi cell {x : |x| <= |x - a| for all a in the lattice}.

    The cell is the intersection of the bisector halfspaces
    x.a <= |a|^2/2 of the Voronoi-relevant vectors a, and by Voronoi's
    criterion a is relevant iff +-a are the only minimal vectors of its
    class in L/2L.  The candidates are the 124 nonzero vectors of the
    [-2, 2]^3 coefficient box over an LLL-reduced basis; their classes
    are read off the coefficient parities, and a plane is kept when its
    class has exactly the two minima +-a over the box.  Vertices are the
    plane-triple intersections satisfying every kept constraint.

    Before returning, two gates are enforced exactly: each vertex is at
    minimal squared distance from the origin among all candidate lattice
    points, and the cell volume equals |det basis|.  The volume gate is
    a complete certificate by itself: every kept plane bisects a true
    lattice vector, so the computed polytope contains the cell, and
    equal volume forces the two to be equal.

    Internally a lattice vector a is the integer row A = den * a and a
    point x is y = den * x, so the halfspace of A reads 2 y.A <= |A|^2;
    points are exact homogeneous integer vectors until the Polytope is
    built.
    """
    if lat.rank != 3:
        raise ValueError(f"Voronoi cell needs a rank-3 lattice, got rank {lat.rank}")
    rows, den = _int_rows(lat.basis)
    reduced = _lll(rows)
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
    poly = Polytope(
        tuple(Vec3(*(Fraction(x, common * den) for x in y)) for y in vertices),
        tuple(cycle for cycle, _, _ in faces),
        tuple(
            (Vec3(*(Fraction(x, den) for x in a)), Fraction(n, 2 * den * den))
            for _, a, n in faces
        ),
    )

    # Gate 2: the cell tiles, so its volume is exactly the covolume.
    if polytope_volume(poly) != covolume(lat):
        raise RuntimeError("volume gate failed; computed cell does not tile")
    return poly


# ---------------------------------------------------------------------------
# Classification and the four-vector conditions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaceShape:
    sides: int
    edge_lengths_sq: tuple[Fraction, ...]
    is_rhombus: bool
    diag_ratio_sq: Fraction | None


@dataclass(frozen=True)
class Classification:
    f_vector: tuple[int, int, int]
    faces: tuple[FaceShape, ...]
    is_rhombic_dodecahedron: bool
    is_cube: bool


def classify(poly: Polytope) -> Classification:
    """f-vector and per-face shape data, with the two named verdicts.

    A rhombic dodecahedron must have f-vector (14, 24, 12) with twelve
    rhombic faces whose squared diagonal ratio is exactly 2; a cube has
    f-vector (8, 12, 6) with six square faces (rhombi with equal
    diagonals).
    """
    shapes = []
    for cycle in poly.faces:
        pts = [poly.vertices[i] for i in cycle]
        edges = tuple(
            (b - a).norm_sq() for a, b in zip(pts, pts[1:] + pts[:1])
        )
        if any(e == 0 for e in edges):
            raise ValueError("degenerate face with a zero-length edge")
        rhombus = len(cycle) == 4 and len(set(edges)) == 1
        ratio = None
        if len(cycle) == 4:
            d1 = (pts[2] - pts[0]).norm_sq()
            d2 = (pts[3] - pts[1]).norm_sq()
            ratio = max(d1, d2) / min(d1, d2)
        shapes.append(FaceShape(len(cycle), edges, rhombus, ratio))
    fv = poly.f_vector()
    all_rhombi = all(s.is_rhombus for s in shapes)
    is_rd = fv == (14, 24, 12) and all_rhombi and all(
        s.diag_ratio_sq == 2 for s in shapes
    )
    is_cube = fv == (8, 12, 6) and all_rhombi and all(
        s.diag_ratio_sq == 1 for s in shapes
    )
    return Classification(fv, tuple(shapes), is_rd, is_cube)


@dataclass(frozen=True)
class OctoReport:
    norms_sq: tuple[Fraction, Fraction, Fraction, Fraction]
    common_norm_sq: Fraction | None
    equal_nonzero_norms: bool
    sums_agree: bool
    pairs_orthogonal: bool
    differences_orthogonal: bool
    lattice_rank: int

    @property
    def all_pass(self) -> bool:
        return (
            self.equal_nonzero_norms
            and self.sums_agree
            and self.pairs_orthogonal
            and self.differences_orthogonal
        )


def octo_check(u1: Vec3, u2: Vec3, v1: Vec3, v2: Vec3) -> OctoReport:
    """The three four-vector conditions guaranteeing a rhombic-dodecahedral
    Dirichlet domain:

        (1) u1 + u2 = v1 + v2,
        (2) u1 . u2 = 0 and v1 . v2 = 0,
        (3) (u1 - u2) . (v1 - v2) = 0,

    together with the requirement that all four vectors share one
    nonzero squared norm (any common scale is accepted and reported;
    exact unit vectors are not representable rationally in general).
    The rank of the generated lattice is included: when every condition
    holds, the four vectors necessarily span all of 3-space.
    """
    norms = (u1.norm_sq(), u2.norm_sq(), v1.norm_sq(), v2.norm_sq())
    equal_norms = len(set(norms)) == 1 and norms[0] != 0
    rank = 0
    if any(not v.is_zero() for v in (u1, u2, v1, v2)):
        rank = lattice_from((u1, u2, v1, v2)).rank
    return OctoReport(
        norms_sq=norms,
        common_norm_sq=norms[0] if equal_norms else None,
        equal_nonzero_norms=equal_norms,
        sums_agree=(u1 + u2) == (v1 + v2),
        pairs_orthogonal=(u1.dot(u2) == 0 and v1.dot(v2) == 0),
        differences_orthogonal=(u1 - u2).dot(v1 - v2) == 0,
        lattice_rank=rank,
    )


# ---------------------------------------------------------------------------
# OFF export and rational rotations.
# ---------------------------------------------------------------------------


def _decimal_str(x: Fraction, digits: int) -> str:
    """Exact decimal rendering with the given number of fraction digits."""
    q = 10 ** digits
    scaled = abs(x.numerator) * q
    t, r = divmod(scaled, x.denominator)
    if 2 * r >= x.denominator:
        t += 1
    sign = "-" if x < 0 and t > 0 else ""
    if digits == 0:
        return f"{sign}{t}"
    return f"{sign}{t // q}.{t % q:0{digits}d}"


def export_off(poly: Polytope, path: str, precision: int = 6) -> tuple[str, str]:
    """Write an OFF file plus an exact JSON sidecar.

    The OFF file renders coordinates as decimal strings with the given
    precision; the sidecar at ``<path>.json`` carries every vertex
    coordinate as an exact [numerator, denominator] pair along with the
    face cycles and the defining halfspaces.
    """
    if precision < 0:
        raise ValueError(f"precision must be >= 0, got {precision}")
    lines = ["OFF"]
    lines.append(
        f"{len(poly.vertices)} {len(poly.faces)} {poly.edge_count()}"
    )
    for v in poly.vertices:
        lines.append(
            " ".join(_decimal_str(c, precision) for c in v.coords())
        )
    for cycle in poly.faces:
        lines.append(" ".join(str(n) for n in (len(cycle), *cycle)))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")

    sidecar = path + ".json"
    data = {
        "vertices": [
            [[c.numerator, c.denominator] for c in v.coords()]
            for v in poly.vertices
        ],
        "faces": [list(cycle) for cycle in poly.faces],
        "halfspaces": [
            {
                "normal": [[c.numerator, c.denominator] for c in a.coords()],
                "offset": [c.numerator, c.denominator],
            }
            for a, c in poly.halfspaces
        ],
    }
    with open(sidecar, "w", encoding="ascii") as fh:
        json.dump(data, fh, indent=1)
    return path, sidecar


def rotation_from_quaternion(a: int, b: int, c: int, d: int) -> list[list[Fraction]]:
    """The exact rational rotation matrix of an integer quaternion.

    Any nonzero integer quadruple gives an orthogonal matrix with
    rational entries and determinant +1, which is how the test suites
    produce exact rigid motions.
    """
    n = a * a + b * b + c * c + d * d
    if n == 0:
        raise ValueError("zero quaternion")
    rows = [
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
    ]
    m = [[Fraction(x, n) for x in row] for row in rows]
    for i in range(3):
        for j in range(3):
            expected = Fraction(int(i == j))
            assert sum(m[i][k] * m[j][k] for k in range(3)) == expected
    return m


def apply_matrix(m: Sequence[Sequence[Fraction]], v: Vec3) -> Vec3:
    coords = v.coords()
    out = [sum(Fraction(m[i][k]) * coords[k] for k in range(3)) for i in range(3)]
    return Vec3(out[0], out[1], out[2])
