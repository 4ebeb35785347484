"""The algebra of O - I for a signed block permutation O.

O sends input block ``source[i]`` to output block i with sign
``signs[i]``, so O - I couples only the blocks of one cycle of
``source``, and each block coordinate on its own.  On a cycle listed
from its largest block m as m -> source[m] -> ..., a vector x is fixed
by O exactly when x[i] = signs[i] * x[source[i]] along it.  A cycle
whose sign product is +1 carries one fixed vector per block coordinate,
with entries +-1 and 1 at m, and ``kernel`` lists it once with those
signs; a cycle whose sign product is -1 fixes only 0.  (O - I) x = b
is solved along the same cycles; ``solve`` returns 2 x, which is an
integer vector for an integer b even where x has halves on a -1 cycle.
There is no floating point and no Fraction.  ``flats.trans_length_sq``
calls ``kernel`` and ``solve``, and ``flats.AffineIsometry.power`` walks
``_cycles``; ``g`` is anything with ``block_dim``, ``source`` and
``signs``, such as a ``flats.AffineIsometry``.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul
from typing import Iterator, Sequence


def _cycles(source: Sequence[int], signs: Sequence[int]) -> Iterator[tuple[list[int], int]]:
    """Each block cycle m -> source[m] -> ..., listed from its largest
    block m, with the product of its signs.  A generator, so a caller
    that walks the cycles one by one never holds them all."""
    seen = [False] * len(source)
    for start in reversed(range(len(source))):
        if seen[start]:
            continue
        cycle, product, i = [start], signs[start], source[start]
        while i != start:
            seen[i] = True
            cycle.append(i)
            product *= signs[i]
            i = source[i]
        yield cycle, product


def kernel(g) -> list[tuple[list[int], tuple[int, ...]]]:
    """The fixed space of O, one entry per cycle of sign product +1: the
    cycle's blocks, listed from its largest, and its signs sigma, with
    sigma_0 = 1 and sigma_(a+1) = sigma_a * signs[block a].  For each
    block coordinate j, the vector with entry sigma_a at coordinate j of
    block a and 0 elsewhere is fixed; these vectors have disjoint
    supports and together span the fixed space."""
    signs = g.signs
    # A fixed block, the only cycle a pure translation has, skips the
    # prefix product.
    return [(cycle, (1,) if len(cycle) == 1 else tuple(
                accumulate(map(signs.__getitem__, cycle[:-1]), mul, initial=1)))
            for cycle, product in _cycles(g.source, signs) if product == 1]


def solve(g, b: Sequence[int]) -> list[int] | None:
    """Twice the solution of (O - I) x = b that is 0 at the largest block
    of every cycle of sign product +1, or None if b is inconsistent.

    Each cycle is walked backwards with y[i] = signs[i] * y[source[i]]
    - 2 b[i], from a guess at its largest block m, and the row of m then
    closes the cycle.  On a +1 cycle the guess is 0 and the closing row
    must give 0 back; on a -1 cycle the guess 0 gives back some even c,
    and y at m is c / 2.  So y = 2 x is an integer vector for an integer
    b, and no half is ever built.
    """
    k, signs = g.block_dim, g.signs
    y = [0] * len(b)

    def walk(rows, blocks, top):
        value = top
        for r, i in zip(rows, blocks):
            value = signs[i] * value - 2 * b[r]
            y[r] = value
        return value

    for cycle, product in _cycles(g.source, signs):
        back = cycle[::-1] if len(cycle) > 1 else cycle
        for j in range(k):
            rows = back if k == 1 else [i * k + j for i in back]
            closing = walk(rows, back, 0)
            if product == -1:
                walk(rows, back, closing // 2)
            elif closing:
                return None
    return y
