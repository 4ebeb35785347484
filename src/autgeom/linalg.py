"""Small exact linear algebra over the rationals.

Matrices are lists of row lists of Fractions.  Dimensions in this
package never exceed a dozen, so plain Gaussian elimination is used
throughout; there is deliberately no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

Vec = list[Fraction]
Mat = list[list[Fraction]]


def dot(u: Sequence, v: Sequence) -> Fraction:
    return sum(Fraction(x) * Fraction(y) for x, y in zip(u, v))


def rref(a: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and the pivot column list."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv_p = 1 / m[r][c]
        m[r] = [x * inv_p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def solve(a: Mat, b: Sequence) -> Vec | None:
    """A particular solution of a x = b, or None if inconsistent.

    Free variables are set to zero, so underdetermined systems are fine.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [list(a[i]) + [Fraction(b[i])] for i in range(rows)]
    m, pivots = rref(aug)
    if cols in pivots:
        return None  # pivot in the constant column: inconsistent
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = m[r][cols]
    # Verify (cheap, and guards against misuse with inconsistent input).
    for i in range(rows):
        if dot(a[i], x) != Fraction(b[i]):
            return None
    return x


def kernel(a: Mat) -> list[Vec]:
    """A basis for the null space of a."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis: list[Vec] = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -m[r][f]
        basis.append(v)
    return basis


def project_onto_span(basis: Sequence[Sequence], t: Sequence) -> Vec:
    """Orthogonal projection of t onto the span of the basis vectors.

    Uses the normal equations; the basis must be linearly independent.
    An empty basis projects everything to zero.
    """
    if not basis:
        return [Fraction(0)] * len(t)
    g = [[dot(u, v) for v in basis] for u in basis]
    rhs = [dot(u, t) for u in basis]
    coeffs = solve(g, rhs)
    assert coeffs is not None, "basis vectors are linearly dependent"
    out = [Fraction(0)] * len(t)
    for c, u in zip(coeffs, basis):
        for k in range(len(t)):
            out[k] += c * Fraction(u[k])
    return out


def primitive_integer(v: Sequence[Fraction]) -> list[int]:
    """Scale a rational vector to a primitive integer vector.

    Clears denominators, divides by the gcd, and normalizes so the
    first nonzero entry is positive.  The zero vector is rejected.
    """
    fr = [Fraction(x) for x in v]
    if all(x == 0 for x in fr):
        raise ValueError("zero vector has no primitive form")
    den = 1
    for x in fr:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    first = next(x for x in ints if x != 0)
    if first < 0:
        ints = [-x for x in ints]
    return ints
