"""The algebra of O - I for a signed block permutation O.

O sends input block ``source[i]`` to output block i with sign
``signs[i]``, so O - I couples only the blocks of one cycle of
``source``, and each block coordinate on its own.  On a cycle listed
from its largest block m as m -> source[m] -> ..., a vector x is fixed
by O exactly when x[i] = signs[i] * x[source[i]] along it.  A cycle
whose sign product is +1 carries one fixed vector per block coordinate,
with entries +-1 and 1 at m; a cycle whose sign product is -1 fixes
only 0.  (O - I) x = b is solved along the same cycles, and x is
integer for an integer b except on a -1 cycle, where it may be a
half-integer.  There is no floating point.  ``flats.trans_length_sq``
is the one caller; ``g`` is anything with ``block_dim``, ``source`` and
``signs``, such as a ``flats.AffineIsometry``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def _cycles(source: Sequence[int], signs: Sequence[int]) -> list[tuple[list[int], int]]:
    """Each block cycle m -> source[m] -> ..., listed from its largest
    block m, with the product of its signs."""
    seen = [False] * len(source)
    cycles = []
    for start in reversed(range(len(source))):
        cycle, product, i = [], 1, start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            product *= signs[i]
            i = source[i]
        if cycle:
            cycles.append((cycle, product))
    return cycles


def kernel(g) -> list[dict[int, int]]:
    """The fixed space of O as {coordinate: +-1} vectors of disjoint
    supports, one per cycle of sign product +1 and block coordinate."""
    k = g.block_dim
    basis = []
    for cycle, product in _cycles(g.source, g.signs):
        if product == -1:
            continue
        sigmas, sigma = [], 1
        for i in cycle:
            sigmas.append(sigma)
            sigma *= g.signs[i]
        basis += ({i * k + j: s for i, s in zip(cycle, sigmas)} for j in range(k))
    return basis


def solve(g, b: Sequence) -> list | None:
    """The solution of (O - I) x = b that is 0 at the largest block of
    every cycle of sign product +1, or None if b is inconsistent.

    Each cycle is walked backwards with x[i] = signs[i] * x[source[i]]
    - b[i], from a guess at its largest block m, and the row of m then
    closes the cycle.  On a +1 cycle the guess is 0 and the closing row
    must give 0 back; on a -1 cycle the guess 0 gives back some c, and
    the value at m is c / 2.
    """
    k = g.block_dim
    x = [0] * len(b)

    def walk(rows, signs, top):
        value = top
        for r, s in zip(rows, signs):
            value = s * value - b[r]
            x[r] = value
        return value

    for cycle, product in _cycles(g.source, g.signs):
        signs = [g.signs[i] for i in reversed(cycle)]
        for j in range(k):
            rows = [i * k + j for i in reversed(cycle)]
            closing = walk(rows, signs, 0)
            if product == -1:
                walk(rows, signs, Fraction(closing, 2))
            elif closing:
                return None
    return x
