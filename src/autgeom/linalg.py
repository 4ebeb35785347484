"""Small exact linear algebra over the rationals.

Matrices are lists of row lists of ints or Fractions.  One private
sparse Gauss--Jordan elimination serves ``kernel`` and ``solve``: rows
are held as ``{column: value}`` dicts of their nonzero entries, and a
row operation touches only those entries.
The systems this package solves are mostly signed block permutations
minus the identity, with at most two nonzeros per row, so elimination
costs time in proportion to the nonzeros rather than to the cube of the
dimension.  Entries are not converted: a pivot of +-1 scales its row by
+-1, so integer entries stay integers under unit pivots, and any other
pivot scales by its exact Fraction reciprocal.  Every pivot of O - I for
a signed block permutation is +-1 except the closing pivot of a cycle
whose sign product is -1, so the kernel of such a system is computed in
integers.  The reduced row echelon form is unique, so the pivots, kernel
bases and particular solutions have the values of the dense textbook
elimination.  There is deliberately no floating point anywhere.
``flats.trans_length_sq`` is the one caller.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from typing import Sequence

Num = int | Fraction
Vec = list[Num]
Mat = list[list[Num]]
Row = dict[int, Num]


def _sparse(a: Sequence[Sequence]) -> list[Row]:
    return [{j: row[j] for j in compress(count(), row)} for row in a]


def _gauss_jordan(rows: list[Row]) -> dict[int, Row]:
    """Reduced row echelon form of sparse rows, as {pivot column: row}.

    The rows are reduced in place.  Each returned row has a 1 at its
    pivot column, and no other row has an entry there.  Columns are
    taken in increasing order; among the rows that may pivot a column
    the sparsest is chosen to limit fill-in, which leaves the result
    unchanged because the reduced form is unique.
    """
    holders: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(i)
    pivots: dict[int, Row] = {}
    used: set[int] = set()
    for c in sorted(holders):
        candidates = [i for i in holders[c] if i not in used]
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        pivot = prow[c]
        if pivot == -1:
            for k in prow:
                prow[k] = -prow[k]
        elif pivot != 1:
            inv = Fraction(1, pivot)
            for k in prow:
                prow[k] *= inv
        for i in list(holders[c]):
            if i == p:
                continue
            row = rows[i]
            f = row[c]
            for k, v in prow.items():
                x = row.get(k, 0) - f * v
                if x:
                    if k not in row:
                        holders[k].add(i)
                    row[k] = x
                else:
                    del row[k]
                    holders[k].discard(i)
        used.add(p)
        pivots[c] = prow
    return pivots


def solve(a: Mat, b: Sequence) -> Vec | None:
    """A particular solution of a x = b, or None if inconsistent.

    Free variables are set to zero, so underdetermined systems are fine.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    sparse = _sparse(a)
    rhs = [b[i] for i in range(rows)]
    aug = [dict(row) for row in sparse]
    for row, v in zip(aug, rhs):
        if v:
            row[cols] = v
    pivots = _gauss_jordan(aug)
    if cols in pivots:
        return None  # pivot in the constant column: inconsistent
    x = [0] * cols
    for c, row in pivots.items():
        if cols in row:
            x[c] = row[cols]
    # Verify (cheap, and guards against misuse with inconsistent input).
    for row, v in zip(sparse, rhs):
        if sum(y * x[k] for k, y in row.items()) != v:
            return None
    return x


def kernel(a: Mat) -> list[Vec]:
    """A basis for the null space of a, one vector per free column."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = _gauss_jordan(_sparse(a))
    basis = {f: [0] * cols for f in range(cols) if f not in pivots}
    for f, v in basis.items():
        v[f] = 1
    for c, row in pivots.items():
        for f, y in row.items():
            if f != c:
                basis[f][c] = -y
    return list(basis.values())

