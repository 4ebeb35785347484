"""Euclidean model computations: affine isometries with signed
block-permutation rotational parts and their exact translation lengths,
induced actions on finite products, the collinear-equidistance
degeneracy certificate, and the canonical flat model for the commuting
Nielsen family.

Every length is kept as a squared rational, so the module never takes a
square root and all comparisons are exact.  Orthogonal parts are
restricted to signed block permutations: these cover every isometry the
Euclidean model needs (inductions permute factors, flats carry pure
translations) while keeping the fixed-space projection exact and total.
An isometry is a named tuple, checked once where it enters, that holds
its translation as integers over one denominator.  Powering walks the
block cycles once, with prefix sums of integer translations, and
inducing copies integer slices; neither checks its product again.
Translation lengths are read off the cycles in integer numerators, and
the witness point is returned as integers over one denominator, so the
returned length is the one Fraction built (``linalg.solve`` returns
twice the witness, so even a cycle of sign product -1 builds no
half-integer).  The elimination of the equidistance constraints is
evaluated on integer vectors over the common denominators of tau and a;
the one Fraction it builds is the value it returns.  The flat model
translates by integer vectors, summed as integers.  The equidistance
certificate and the flat model return the Checks their reports print.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, chain, repeat
from math import gcd, lcm
from operator import floordiv, mul
from typing import Sequence

from . import linalg
from .latgeom import (
    Lattice,
    Polytope,
    _int_rows,
    classify,
    lattice_from,
    octo_check,
    vec3,
    voronoi_cell,
)
from .reports import Check

__all__ = [
    "AffineIsometry",
    "trans_length_sq",
    "induced_action",
    "cyclic_induced",
    "MAX_COSETS",
    "MAX_MULTIPLIER_DIGITS",
    "elimination_combination",
    "equidistant_forces_zero",
    "nielsen_flat",
    "MAX_SCALE_DIGITS",
    "NIELSEN_FLAT_GENERATORS",
]


class AffineIsometry(namedtuple("AffineIsometry", "block_dim source signs translation den")):
    """x -> O x + t with O a signed block permutation.

    The space splits into ``len(source)`` blocks of ``block_dim``
    coordinates; output block i is ``signs[i]`` times input block
    ``source[i]``.  That structure makes O orthogonal by construction
    and of finite order, so the isometry is always semisimple.  The
    translation t is ``translation[i] / den`` in lowest terms: integer
    entries over one positive denominator, as a Lattice holds its rows.

    An isometry is checked once, where it enters: the constructor
    refuses any other data.  ``_make`` builds one without the checks and
    is kept for isometries made from checked ones by a construction
    that keeps every invariant: ``power``, the product ``induced_action``
    builds once it has checked its permutation, and the one-block bases
    of ``cyclic_induced``.  ``_replace`` also bypasses the checks, so
    nothing here calls it.
    """

    __slots__ = ()

    def __new__(cls, block_dim: int, source: tuple[int, ...], signs: tuple[int, ...],
                translation: tuple[int, ...], den: int) -> "AffineIsometry":
        d = len(source)
        if sorted(source) != list(range(d)):
            raise ValueError("source is not a permutation of the blocks")
        if len(signs) != d or any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +-1, one per block")
        if len(translation) != d * block_dim:
            raise ValueError("translation has wrong dimension")
        if den < 1 or gcd(den, *translation) != 1:
            raise ValueError("translation is not in lowest terms over a positive den")
        return super().__new__(cls, block_dim, source, signs, translation, den)

    @property
    def blocks(self) -> int:
        return len(self.source)

    @property
    def dim(self) -> int:
        return self.block_dim * len(self.source)

    def _rotate(self, point: Sequence) -> list:
        """O applied to a point, block by block: each output block is a
        copy or the negation of a slice of the point."""
        k = self.block_dim
        out = []
        for src, sign in zip(self.source, self.signs):
            block = point[src * k:src * k + k]
            out += block if sign == 1 else [-x for x in block]
        return out

    def power(self, k: int) -> "AffineIsometry":
        """self composed with itself k times, in one pass over the block
        cycles, in time O(dim) whatever k is.

        Along a cycle c_0 -> c_1 = source[c_0] -> ... of n blocks and
        sign product p, let sigma_b be the product of the signs of
        c_0 .. c_(b-1) and T_b the sum of sigma_i t(c_i) over i < b,
        both taken along the doubled cycle, so sigma_(b+n) = p sigma_b.
        Then g^k sends input block c_(a+k) to output block c_a with sign
        sigma_(a+k) sigma_a and translation sigma_a (T_(a+k) - T_a).  For
        k = q n + r, the k steps are q whole turns and r steps: the turns
        add q (T_(a+n) - T_a) on a +1 cycle and alternate in sign on a -1
        cycle, so they add it once for odd q and not at all for even q,
        and the r steps add p^q (T_(a+r) - T_a).
        """
        if k < 0:
            raise ValueError("negative powers are not needed here")
        kd, signs, t = self.block_dim, self.signs, self.translation
        source, out_signs, translation = [0] * self.blocks, [0] * self.blocks, [0] * self.dim
        for cycle, product in linalg._cycles(self.source, signs):
            n = len(cycle)
            q, r = divmod(k, n)
            turns, tail = q if product == 1 else q & 1, product ** q
            doubled = cycle + cycle
            sigma = list(accumulate(map(signs.__getitem__, doubled), mul, initial=1))
            for i, to, s_a, s_ar in zip(cycle, doubled[r:], sigma, sigma[r:]):
                source[i] = to
                out_signs[i] = tail * s_ar * s_a
            for j in range(kd):
                rows = doubled if kd == 1 else [i * kd + j for i in doubled]
                prefix = list(accumulate(map(mul, sigma, map(t.__getitem__, rows)), initial=0))
                for row, s_a, p_a, p_an, p_ar in zip(
                        rows, sigma, prefix, prefix[n:], prefix[r:r + n]):
                    translation[row] = s_a * (turns * (p_an - p_a) + tail * (p_ar - p_a))
        den = self.den
        g = gcd(den, *translation)
        if g > 1:
            den //= g
            translation = [x // g for x in translation]
        return AffineIsometry._make(
            (kd, tuple(source), tuple(out_signs), tuple(translation), den))


def trans_length_sq(g: AffineIsometry) -> tuple[Fraction, tuple[int, ...], int]:
    """Squared translation length and a witness point where it is attained.

    Returns the length, and the witness as integer numerators over one
    positive denominator in lowest terms: coordinate i is
    ``witness[i] / den``.  The squared length is the squared norm of the
    projection of the translation part onto the fixed space of the
    rotational part; the witness solves (O - I) x = -(t - proj t), so g
    moves it by exactly proj t.  A zero length means g is elliptic and
    the witness is a fixed point.  ``linalg`` reads the fixed space and
    the witness off the cycles of the block permutation.

    ``linalg.kernel`` lists the cycles of sign product +1 with their
    signs sigma; on such a cycle of n blocks, coordinate j of proj t is
    sigma_a S / n at block a, where S is the sum of sigma_a t at
    coordinate j of block a.  Each S / n is kept as the integer S over
    the cycle length, and proj t, t and the right-hand side as integer
    vectors over q * g.den, where q is the least common denominator of
    the S / n.  A wrong projection cannot pass: it lies in the span of
    the kernel, the fixed space, so t - proj t lies in the image of
    O - I, the orthogonal complement of the fixed space, only if proj t
    is the orthogonal projection, and otherwise ``solve`` finds no
    witness.  ``solve`` returns twice the witness, integers even where a
    cycle of sign product -1 halves it, and the witness over 2 q g.den is
    reduced with one gcd.  A Fraction is built only for the length.
    Raises RuntimeError if the witness cannot be solved for or does not
    move by exactly proj t.
    """
    k, t = g.block_dim, g.translation
    fixed = linalg.kernel(g)
    # The fixed vectors laid end to end, one per cycle and coordinate j:
    # their coordinates, their signs and their lengths n.
    rows = [i * k + j for cycle, _ in fixed for j in range(k) for i in cycle]
    sigma = [s for _, sigmas in fixed for _ in range(k) for s in sigmas]
    lengths = [len(cycle) for cycle, _ in fixed for _ in range(k)]
    prefix = list(accumulate(map(mul, sigma, map(t.__getitem__, rows)), initial=0))
    sums = [prefix[end] - prefix[end - n] for end, n in zip(accumulate(lengths), lengths)]
    q = lcm(*map(floordiv, lengths, map(gcd, sums, lengths)))
    proj = [0] * g.dim
    scaled = (s * q // n for s, n in zip(sums, lengths))
    for r, p in zip(rows, map(mul, sigma, chain.from_iterable(map(repeat, scaled, lengths)))):
        proj[r] = p
    tq = [q * x for x in t]
    # solve returns twice the witness, over 2 q g.den.
    witness = linalg.solve(g, [p - x for x, p in zip(tq, proj)])
    if witness is None:
        raise RuntimeError("fixed-space projection left an unsolvable residual")
    moved = [r + 2 * x - w for r, x, w in zip(g._rotate(witness), tq, witness)]
    if moved != [2 * p for p in proj]:
        raise RuntimeError("witness displacement differs from the projected translation")
    length_sq = Fraction(sum(p * p for p in proj), (q * g.den) ** 2)
    den = 2 * q * g.den
    common = gcd(den, *witness)
    if common > 1:
        den //= common
        witness = [w // common for w in witness]
    return length_sq, tuple(witness), den


def induced_action(
    perm: Sequence[int], base: Sequence[AffineIsometry]
) -> AffineIsometry:
    """Induce one group element through a finite-index subgroup.

    ``perm[i]`` says which coset the element sends coset i to, and
    ``base[i]`` is the isometry of the subgroup element it carries along
    that route; output block perm[i] of the product space receives
    base[i] applied to input block i.  The base translations are lifted
    to the least common multiple of their denominators, which keeps the
    result in lowest terms.  Inducing each element of a group this way
    is functorial, which is what the tests exercise.  Refuses an empty
    coset list.
    """
    d = len(perm)
    if d == 0:
        raise ValueError("need at least one coset")
    if sorted(perm) != list(range(d)):
        raise ValueError("perm is not a permutation of the cosets")
    if len(base) != d:
        raise ValueError(f"need {d} base isometries, got {len(base)}")
    # cyclic_induced passes one isometry d - 1 times, so each distinct
    # base is checked once.
    distinct = dict(zip(map(id, base), base)).values()
    k = base[0].block_dim
    m = base[0].blocks
    if any(iso.block_dim != k or iso.blocks != m for iso in distinct):
        raise ValueError("base isometries have inconsistent block structure")

    den = lcm(*(iso.den for iso in distinct))
    # order[c] is the coset that perm sends to coset c: output blocks
    # c * m .. c * m + m - 1 receive its base isometry, applied to the
    # blocks of input coset order[c].
    order = [0] * d
    for i, out in enumerate(perm):
        order[out] = i
    source = tuple(i * m + src for i in order for src in base[i].source)
    signs = tuple(s for i in order for s in base[i].signs)
    translation = tuple(den // base[i].den * x for i in order for x in base[i].translation)
    # Each block of the product is a block of a checked base isometry,
    # moved by the checked perm, so the product is a checked isometry.
    return AffineIsometry._make((k, source, signs, translation, den))


# The most cosets cyclic_induced accepts, since the payload lists all d
# witness coordinates.  Powers and translation lengths cost time linear
# in d: on a 2-CPU Intel Xeon under CPython 3.11 a whole
# `induce --d 100000` request takes about 0.6 s and 45 MB as a process
# (0.4-0.5 s in-process, with a 23 MiB tracemalloc peak), in four parts
# of about 0.1 s each: cyclic_induced, trans_length_sq of the generator,
# its d-th power and rendering the witness.
MAX_COSETS = 100_000


def cyclic_induced(d: int, ell) -> AffineIsometry:
    """Induce the generator of Z through its index-d subgroup, where the
    subgroup generator translates the line by ell.

    The result is the d-block cyclic isometry whose squared translation
    length is ell^2 / d.  A d above MAX_COSETS is refused, and so is a
    float ell, which would stand for its binary value (0.1 is not 1/10).
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if d > MAX_COSETS:
        raise ValueError(f"need d <= {MAX_COSETS}, got {d}")
    if isinstance(ell, float):
        raise ValueError(f"ell must be an exact rational, got the float {ell!r}")
    ell = Fraction(ell)
    # A Fraction is in lowest terms over a positive denominator, so both
    # one-block bases are valid isometries.
    zero = AffineIsometry._make((1, (0,), (1,), (0,), 1))
    base = [zero] * (d - 1)
    base.append(AffineIsometry._make((1, (0,), (1,), (ell.numerator,), ell.denominator)))
    perm = tuple((i + 1) % d for i in range(d))
    return induced_action(perm, base)


# ---------------------------------------------------------------------------
# The equidistance degeneracy.
# ---------------------------------------------------------------------------


def elimination_combination(tau: Sequence, p: int, q: int, a: Sequence) -> Fraction:
    """q*(first constraint) - p*(second constraint), evaluated at a.

    If translations by tau, tau + p*a and tau + q*a all have the same
    length, expanding |tau + m a|^2 = |tau|^2 gives

        2 m (tau . a) + m^2 |a|^2 = 0      for m = p and m = q.

    Multiplying by q and p respectively and subtracting eliminates
    tau . a, so the combination always equals p q (p - q) |a|^2.  It is
    evaluated on the integer vectors T = d tau and A = d a, where d is
    their common denominator: over d^2 the first constraint is
    2 p (T . A) + p^2 |A|^2, and the second likewise with q.  Refuses
    tau and a of different dimensions.
    """
    (t, av), d = _int_rows([tau, a])
    if len(t) != len(av):
        raise ValueError("tau and a have different dimensions")
    ta = sum(x * y for x, y in zip(t, av))
    asq = sum(x * x for x in av)
    first = 2 * p * ta + p * p * asq
    second = 2 * q * ta + q * q * asq
    return Fraction(q * first - p * second, d * d)


# The most digits equidistant_forces_zero accepts in p and q.  The
# eliminant p q (p - q) is then below 2 * 10^4200, so it has at most
# 3 * 1,400 + 1 = 4,201 digits, under the 4,300 digits CPython converts
# to a string when the report renders it.
MAX_MULTIPLIER_DIGITS = 1400
_MULTIPLIER_BOUND = 10**MAX_MULTIPLIER_DIGITS


def equidistant_forces_zero(tau: Sequence, p: int, q: int) -> list[Check]:
    """The certificate that |tau + p a| = |tau + q a| = |tau| forces a = 0.

    The elimination of ``elimination_combination`` leaves
    p q (p - q) |a|^2 = 0, so a nonzero eliminant forces a = 0.  The one
    check re-verifies the elimination identity at a = (1, ..., 1), with
    the eliminant in its witness.  That a = 0 meets both constraints
    needs no check: |tau + m 0| = |tau| for every tau.

    Refuses p = q and zero multipliers, so the eliminant is nonzero: with
    p = q the two constraints coincide and nonzero solutions exist, so no
    such certificate can be issued.  Also refuses p or q of more than
    MAX_MULTIPLIER_DIGITS digits.
    """
    if p == 0 or q == 0:
        raise ValueError("multipliers must be nonzero")
    if max(abs(p), abs(q)) >= _MULTIPLIER_BOUND:
        raise ValueError(f"p and q must have at most {MAX_MULTIPLIER_DIGITS} digits")
    if p == q:
        raise ValueError(
            "p = q is degenerate: the two constraints coincide and admit "
            "nonzero solutions"
        )
    eliminant = p * q * (p - q)
    sample = [1] * len(tau)
    return [
        Check(
            "elimination-identity",
            "q*(p-constraint) - p*(q-constraint) = p q (p - q) |a|^2",
            elimination_combination(tau, p, q, sample) == eliminant * len(tau),
            {"sample": [str(c) for c in sample], "eliminant": eliminant},
        ),
    ]


# ---------------------------------------------------------------------------
# The canonical flat model for the commuting Nielsen family.
# ---------------------------------------------------------------------------

NIELSEN_FLAT_GENERATORS = ("L21", "R21", "L31", "R31")


# The most digits nielsen_flat accepts in the scale s.  The largest
# number in a cell report is the covolume 2 s^3, below 2 * 10^4200, so it
# has at most 3 * 1,400 + 1 = 4,201 digits, under the 4,300 digits
# CPython converts to a string.
MAX_SCALE_DIGITS = 1400
_SCALE_BOUND = 10**MAX_SCALE_DIGITS


def nielsen_flat(scale: int) -> tuple[Lattice, Polytope, dict, list[Check], dict]:
    """Build the canonical flat model at a given integer scale.

    The four generators L21, R21, L31, R31 translate 3-space by the
    integer vectors

        L21 -> -s(1,1,0), R21 -> s(1,-1,0),
        L31 -> -s(-1,0,1), R31 -> s(-1,0,-1),

    all of squared length 2 s^2 (conjugate generators translate equally
    far).  The signs are fixed so the exponent vector (-1, 1, -1, 1) --
    the combination equal to conjugation by a1, which must act
    elliptically -- sums the vectors to zero.  The effective lattice
    generated by the four vectors is the face-centred cubic lattice at
    scale s; its Dirichlet domain is computed and classified, and the
    four-vector conditions are checked on the sign-normalized quadruple
    (-L21, R21, -R31, L31), for which the sum condition becomes exactly
    the kernel relation.  A scale of more than MAX_SCALE_DIGITS digits
    is refused before anything is built.

    Returns the lattice, its cell, the cell's classification, the
    model's checks (kernel, lengths, cell shape, then ``octo_check``'s
    four) and its payload (the vectors and the quadruple).
    """
    if scale < 1:
        raise ValueError(f"scale must be a positive integer, got {scale}")
    if scale >= _SCALE_BOUND:
        raise ValueError(f"scale must have at most {MAX_SCALE_DIGITS} digits")
    s = scale
    vectors = ((-s, -s, 0), (s, -s, 0), (s, 0, -s), (-s, 0, -s))
    exponents = (-1, 1, -1, 1)
    kernel_vec = [sum(n * v[k] for n, v in zip(exponents, vectors)) for k in range(3)]
    lengths_sq = [x * x + y * y + z * z for x, y, z in vectors]
    lattice = lattice_from([vec3(*v) for v in vectors])
    cell = voronoi_cell(lattice)
    classification = classify(cell)
    checks = [
        Check(
            "kernel-maps-to-zero",
            "the exponent vector (-1, 1, -1, 1) acts as the zero translation",
            not any(kernel_vec),
            {"exponents": list(exponents)},
        ),
        Check(
            "equal-lengths",
            "all four generators translate equally far",
            len(set(lengths_sq)) == 1,
            {"lengths_sq": [str(x) for x in lengths_sq]},
        ),
        Check(
            "is-rhombic-dodecahedron",
            "the Dirichlet domain is a rhombic dodecahedron",
            classification["is_rhombic_dodecahedron"],
            {"f_vector": classification["f_vector"]},
        ),
        *octo_check(vec3(s, s, 0), vec3(s, -s, 0), vec3(s, 0, s), vec3(s, 0, -s)),
    ]
    payload = {
        "vectors": {
            name: [str(c) for c in v] for name, v in zip(NIELSEN_FLAT_GENERATORS, vectors)
        },
        "octo_quadruple": ["-L21", "R21", "-R31", "L31"],
    }
    return lattice, cell, classification, checks, payload
