"""The index-two cover of the rank-3 free group and its 2x2 representation.

The kernel H of the mod-2 map sending a1, a2 to 0 and a3 to 1 is free of
rank 5 with the fixed basis

    x1 = a1,  x2 = a2,  x3 = a3^2,  x4 = a3 a1 a3^-1,  x5 = a3 a2 a3^-1

coming from the Schreier transversal {1, a3}.  Words with even
a3-exponent are rewritten over this basis by the textbook
Reidemeister-Schreier coset scan.  Automorphisms stabilizing H act on
the rank-5 abelianization as 5x5 integer matrices; the deck involution
(conjugation by a3) acts with a 2-dimensional (-1)-eigenspace, and
restriction to that eigenplane yields 2x2 integer matrices of
determinant +-1.  Everything here is a pure function of its input.
"""

from __future__ import annotations

import functools
import operator
from itertools import combinations

from .automorphisms import Endo, apply, inner
from .words import (
    MAX_WORD_LETTERS, Word, ab_vector, gen, mul, power, reduce, substitute,
)

__all__ = [
    "RANK",
    "COVER_RANK",
    "BASIS",
    "nu",
    "stabilizes",
    "rewrite",
    "expand",
    "ab5",
    "mat_power",
    "sigma_star",
    "minus_eigenbasis",
    "restrict_to_eigenplane",
    "mu",
    "lk_basis",
    "mat2_inv",
    "mat2_det",
    "no_short_relation",
    "MAX_SEARCH_LEN",
]

RANK = 3
# no_short_relation's time and memory triple with every 2 of max_len,
# so it searches no further than this.
MAX_SEARCH_LEN = 20
COVER_RANK = 5

BASIS: tuple[Word, ...] = (
    gen(1),
    gen(2),
    reduce(3, [3, 3]),
    reduce(3, [3, 1, -3]),
    reduce(3, [3, 2, -3]),
)

# The Reidemeister-Schreier coset scan as a two-state table on signed
# letters.  State 0 is the coset of the transversal rep 1, state 1 that
# of a3.  _SCAN[state][letter] is (emitted cover letter, next state); 0
# emits nothing (the scan consumed a transversal letter).  From state 0,
# a1 and a2 emit x1 and x2; from state 1 they emit x4 = a3 a1 a3^-1 and
# x5 = a3 a2 a3^-1, and a3 emits x3 = a3^2.  Reading a_i^-1 emits the
# inverse of what a_i emits from the state that a_i^-1 leads to.
_SCAN: tuple[dict[int, tuple[int, int]], ...] = (
    {1: (1, 0), 2: (2, 0), 3: (0, 1), -1: (-1, 0), -2: (-2, 0), -3: (-3, 1)},
    {1: (4, 1), 2: (5, 1), 3: (3, 0), -1: (-4, 1), -2: (-5, 1), -3: (0, 0)},
)


def nu(w: Word) -> int:
    """Exponent sum of a3 modulo 2 (the coset of w in the 2-sheeted cover)."""
    return (w.count(3) - w.count(-3)) % 2


def stabilizes(e: Endo) -> bool:
    """True iff e preserves the even-a3 subgroup: nu(e(a_i)) = nu(a_i)."""
    return (
        nu(e.images[0]) == 0 and nu(e.images[1]) == 0 and nu(e.images[2]) == 1
    )


def expand(w5: Word) -> Word:
    """Evaluate a rank-5 word back through the subgroup basis into rank 3."""
    return substitute(w5, BASIS)


def rewrite(w: Word) -> Word:
    """Rewrite an even-a3 word over the rank-5 subgroup basis.

    The scan carries the coset state through the word, emitting one
    Schreier generator per letter (or nothing for transversal letters).
    With the Schreier transversal {1, a3} a reduced word rewrites to a
    reduced word, so the emitted letters are returned as they are, with
    nothing to cancel.  The result is verified by expanding back through
    the basis, so a wrong rewrite can never be returned.
    """
    if nu(w) != 0:
        raise ValueError("word has odd a3-exponent and is not in the subgroup")
    out: list[int] = []
    state = 0
    for x in w:
        y, state = _SCAN[state][x]
        if y:
            out.append(y)
    result = tuple(out)
    if expand(result) != w:
        raise RuntimeError("rewrite failed its round-trip self-check")
    return result


IntMat = list[list[int]]


def ab5(e: Endo) -> IntMat:
    """Action of a stabilizing automorphism on the subgroup abelianization.

    Column i is the exponent vector of rewrite(e(x_i)); the matrix acts
    on column vectors, so ab5 is multiplicative under composition, and
    the action of a power e^p is ab5(e)^p, which mat_power takes by
    squaring without rewriting the long images of e^p.
    """
    if not stabilizes(e):
        raise ValueError("automorphism does not stabilize the even-a3 subgroup")
    columns = [ab_vector(rewrite(apply(e, x)), COVER_RANK) for x in BASIS]
    return [[columns[j][i] for j in range(COVER_RANK)] for i in range(COVER_RANK)]


def mat_power(m: IntMat, k: int) -> IntMat:
    """m^k for a square integer matrix m and k >= 0, by repeated squaring."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    n = len(m)
    result = [[int(i == j) for j in range(n)] for i in range(n)]
    while k:
        if k & 1:
            result = _mat_mul(result, m)
        k >>= 1
        if k:
            m = _mat_mul(m, m)
    return result


def _mat_mul(a: IntMat, b: IntMat) -> IntMat:
    cols = list(zip(*b))
    # operator.mul, since mul here is the word product.
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def sigma_star() -> IntMat:
    """The deck involution on the abelianization: conjugation by a3."""
    return ab5(inner(gen(3), RANK))


def _det3(m: IntMat) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


@functools.cache
def minus_eigenbasis() -> tuple[tuple[int, ...], ...]:
    """Primitive integer basis {x1 - x4, x2 - x5} of the (-1)-eigenspace
    of the deck involution (its 2x2 minor on x1, x2 is 1).

    Certified in integers: sigma_star f = -f for both basis vectors, and
    a nonzero 3x3 minor of sigma_star + I gives it rank at least 3, so
    the eigenspace has dimension exactly 2.  Any drift in conventions
    fails loudly here (RuntimeError) rather than corrupting the 2x2
    representation downstream.  The result is constant, so the check
    runs once per process.
    """
    sigma = sigma_star()
    basis = ((1, 0, 0, -1, 0), (0, 1, 0, 0, -1))
    for f in basis:
        image = [sum(a * b for a, b in zip(row, f)) for row in sigma]
        if image != [-c for c in f]:
            raise RuntimeError(f"{f} is not a (-1)-eigenvector: image {image}")
    shifted = [
        [sigma[i][j] + (i == j) for j in range(COVER_RANK)] for i in range(COVER_RANK)
    ]
    if not any(
        _det3([[shifted[i][j] for j in cols] for i in rows])
        for rows in combinations(range(COVER_RANK), 3)
        for cols in combinations(range(COVER_RANK), 3)
    ):
        raise RuntimeError("the (-1)-eigenspace has dimension above 2")
    return basis


def restrict_to_eigenplane(m: IntMat) -> IntMat:
    """Restrict a 5x5 integer matrix to the plane spanned by x1-x4, x2-x5.

    Raises ValueError if the matrix does not preserve that plane.
    Returned as a 2x2 matrix acting on column vectors in that basis.
    """
    f1, f2 = minus_eigenbasis()
    cols = []
    for f in (f1, f2):
        g = [sum(map(operator.mul, row, f)) for row in m]
        if g[2] != 0 or g[0] != -g[3] or g[1] != -g[4]:
            raise ValueError("matrix does not preserve the (-1)-eigenplane")
        cols.append((g[0], g[1]))
    return [[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]]


def mu(e: Endo) -> IntMat:
    """The 2x2 integer representation of a stabilizing automorphism."""
    return restrict_to_eigenplane(ab5(e))


def lk_basis(k: int) -> tuple[Word, ...]:
    """Free basis of the index-(k-1) subgroup of F_2 = <a, b> generated by
    conjugates of b and one power of a:

        a^i b a^-i for 0 <= i <= k-2, followed by a^{k-1}.

    Returns k words; each is a conjugate of a power of a basis element.
    They have k(k-1) letters in all, and a k for which that is more than
    MAX_WORD_LETTERS is refused with ValueError before any is built; the
    message renders neither k nor k(k-1), which may have too many digits
    to convert to a string.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if k * (k - 1) > MAX_WORD_LETTERS:
        raise ValueError(f"need k(k - 1) <= {MAX_WORD_LETTERS} letters")
    a, b = gen(1), gen(2)
    words = [mul(mul(power(a, i), b), power(a, -i)) for i in range(k - 1)]
    words.append(power(a, k - 1))
    return tuple(words)


# ---------------------------------------------------------------------------
# 2x2 integer matrix helpers and the short-relation search.
# ---------------------------------------------------------------------------


def mat2_det(m: IntMat) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def mat2_inv(m: IntMat) -> IntMat:
    d = mat2_det(m)
    if d not in (1, -1):
        raise ValueError(f"matrix determinant {d} is not +-1")
    return [[d * m[1][1], -d * m[0][1]], [-d * m[1][0], d * m[0][0]]]


def no_short_relation(m1: IntMat, m2: IntMat, max_len: int) -> bool:
    """True iff no nonempty reduced word of length <= max_len in the two
    matrices and their inverses evaluates to the identity.

    Bounded evidence, not a proof, that the pair generates a free group.
    The search meets in the middle.  A reduced relation w of length l
    splits as u v^-1 with |u| = ceil(l/2) and |v| = floor(l/2), and
    u != v because their last letters differ (w does not cancel at the
    split).  Conversely two distinct reduced words u, v with equal
    matrices give the nonempty relation u v^-1, of length at most
    |u| + |v|.  So reduced words are enumerated breadth first up to
    length ceil(max_len/2), as integer 4-tuples, and ``least`` maps each
    matrix to the least length of a word reaching it (the identity at
    length 0); a word of length k landing on a matrix stored at length a
    is a relation when a + k <= max_len.  For odd max_len two words of
    the last length make a word one letter too long, so that length is
    looked up but not stored.  Time and memory are
    O(3^(max_len/2)), where a search over whole words takes 3^max_len:
    on CPython 3.11 (2-CPU x86-64) an exhaustive search takes about 20 ms
    at max_len 16, 0.17 s and 47 MB at the cap MAX_SEARCH_LEN = 20, and
    1.6 s and 320 MB at 24.  Past the cap the search stops: a relation
    found by then (such as the braid relation at length 6) still answers
    a larger max_len, and otherwise it raises ValueError, as it does for
    max_len < 1 or a matrix that is not unimodular.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    letters = [
        (m[0][0], m[0][1], m[1][0], m[1][1])
        for m in (m1, mat2_inv(m1), m2, mat2_inv(m2))
    ]
    # Letter i is the inverse of letter i ^ 1; next_letters[last] lists
    # the letters a word ending in `last` may take, and the empty word
    # (last = 4) may take all four.
    next_letters = [
        [(j, letters[j]) for j in range(4) if j != i ^ 1] for i in range(4)
    ] + [list(enumerate(letters))]
    least = {(1, 0, 0, 1): 0}
    frontier = [((1, 0, 0, 1), 4)]
    for k in range(1, (max_len + 1) // 2 + 1):
        if k > (MAX_SEARCH_LEN + 1) // 2:
            raise ValueError(f"max_len {max_len} is over the cap {MAX_SEARCH_LEN}")
        words = []
        store = 2 * k <= max_len
        for (p, q, r, s), last in frontier:
            for j, (a, b, c, d) in next_letters[last]:
                key = (p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d)
                seen = least.get(key)
                if seen is None:
                    if store:
                        least[key] = k
                elif seen + k <= max_len:
                    return False
                words.append((key, j))
        frontier = words
    return True
