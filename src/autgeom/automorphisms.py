"""Automorphisms of free groups and a relation-verification engine.

Two representations are used side by side:

* ``AutExpr`` -- a formal product of elementary generators of Aut(F_3),
  held as a plain tuple of ``(kind, i, j, exp)`` factors: a product is
  tuple ``+``, and :func:`inverse`, :func:`expr_power` and
  :func:`format_expr` invert, raise and print one.  Expressions are
  always rank 3; indices are checked where factors are made, in
  :func:`parse_autexpr` and the three constructors, and
* :class:`Endo` -- the concrete generator-image data the expression
  realizes, which supports exact application, composition and equality.
  Its rank is the number of images; functions that build an
  endomorphism from a word, such as ``inner(g, rank)``, take the rank as
  an argument.

Composition convention, fixed once for the whole package: products act
on the left, ``(phi psi)(x) = phi(psi(x))``, the commutator is
``[x, y] = x y x^-1 y^-1``, and ``inner(g)`` is ``x -> g x g^-1``.
Identities that hold only after inverting an element are reported with
the sign that was actually obtained, never silently accepted.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import combinations, permutations
from typing import Literal, NamedTuple

from .reports import Check
from .words import (
    MAX_WORD_LETTERS,
    Word,
    _LETTER_DIGITS,
    cyclic_reduce,
    empty,
    format_word,
    gen,
    inv,
    mul,
    power,
    substitute,
)

__all__ = [
    "AutExpr",
    "Endo",
    "RANK",
    "nielsen_left",
    "nielsen_right",
    "inverse",
    "expr_power",
    "format_expr",
    "commutator",
    "identity_endo",
    "endo_of",
    "endo_power",
    "apply",
    "compose",
    "equal",
    "inner",
    "is_inner",
    "verify_relation",
    "right_multiplier",
    "MAX_GPQ_N",
    "gpq_word_rank",
    "gpq_check",
    "inner_gpq_check",
    "nielsen_z4_check",
    "identity_suite",
    "parse_autexpr",
]

Mode = Literal["aut", "out"]

# The rank of every automorphism expression.
RANK = 3

# A factor (kind, i, j, exp) of an expression is an elementary
# automorphism of F_3 raised to exp:
#   kind "L": a_i -> a_j a_i   (left Nielsen transformation)
#   kind "R": a_i -> a_i a_j   (right Nielsen transformation)
#   kind "E": a_i -> a_i^-1    (inversion; j is 0)
#   kind "P": a_i <-> a_j      (swap of two generators)
# The factors read left to right as a composition under the package
# convention, so the expression (f, g) applied to x is f(g(x)).
AutExpr = tuple[tuple[str, int, int, int], ...]


def _factor(kind: str, i: int, j: int, exp: int) -> tuple[str, int, int, int]:
    """The factor (kind, i, j, exp), its indices checked against RANK."""
    for index in (i,) if kind == "E" else (i, j):
        if not 1 <= index <= RANK:
            raise ValueError(f"index {index} out of range for rank {RANK}")
    if kind != "E" and i == j:
        raise ValueError("indices must differ")
    return (kind, i, j, exp)


def nielsen_left(i: int, j: int) -> AutExpr:
    """lambda_ij: a_i -> a_j a_i."""
    return (_factor("L", i, j, 1),)


def nielsen_right(i: int, j: int) -> AutExpr:
    """rho_ij: a_i -> a_i a_j."""
    return (_factor("R", i, j, 1),)


def inverse(x: AutExpr) -> AutExpr:
    """The syntactic inverse: reverse the factors and negate exponents."""
    return tuple((kind, i, j, -exp) for kind, i, j, exp in reversed(x))


def expr_power(x: AutExpr, k: int) -> AutExpr:
    """x^k.  A single factor takes the exponent itself; otherwise more
    than MAX_WORD_LETTERS factors are refused with ValueError."""
    if k == 0:
        return ()
    base = x if k > 0 else inverse(x)
    if len(base) == 1:
        kind, i, j, exp = base[0]
        return ((kind, i, j, exp * abs(k)),)
    if len(base) * abs(k) > MAX_WORD_LETTERS:
        raise ValueError(f"power {k} has more than {MAX_WORD_LETTERS} factors")
    return base * abs(k)


def format_expr(x: AutExpr) -> str:
    """The text grammar of parse_autexpr; the empty product is "1"."""
    parts = []
    for kind, i, j, exp in x:
        name = f"E{i}" if kind == "E" else f"{kind}{i}{j}"
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return " ".join(parts) or "1"


def commutator(x: AutExpr, y: AutExpr) -> AutExpr:
    """[x, y] = x y x^-1 y^-1."""
    return x + y + inverse(x) + inverse(y)


class Endo(NamedTuple):
    """An endomorphism given by the reduced images of the basis."""

    images: tuple[Word, ...]


def identity_endo(rank: int) -> Endo:
    return Endo(tuple(gen(i) for i in range(1, rank + 1)))


def _image_bounds(e1: Endo, e2: Endo) -> None:
    """Raise ValueError if compose(e1, e2) would write an image of over
    MAX_WORD_LETTERS letters before reducing it: each letter of an image
    of e2 counts the length of its image under e1, which is what
    substitute concatenates.  This bounds the reduced image's length."""
    lengths = [*map(len, e1.images)]
    # Letter x indexes [0, l1, l2, ..., l2, l1] at x, from the end for
    # x < 0: a lookup per letter in C, since endo_power's inner operand
    # is long.
    length_of = [0, *lengths, *reversed(lengths)].__getitem__
    if max(sum(map(length_of, img)) for img in e2.images) > MAX_WORD_LETTERS:
        raise ValueError(f"images would exceed {MAX_WORD_LETTERS} letters")


# endo_of writes each moved image anew, so n factors that each add a
# letter write about n^2/2 letters: 100,000 L21 factors would write 5e9.
# endo_of sums the length bounds of the three images before each factor
# and stops at a hundred times the letter cap: on CPython 3.11 (2-CPU
# x86-64) 100,000 L21 factors are refused in about 0.07 s, and 4,000
# (8,014,000 letters of bounds) give their images in about 0.06 s.
# gl-rep builds powers with endo_power, so the cap guards long factor
# lists: no endo_of call of the benchmark requests sums more than 27
# letters of bounds (in `verify-relations`), where `gl-rep "P12 L21 R12
# P12" --power 10` summed 139,135 when it took its 40 factors one by one.
MAX_ENDO_WORK = 100 * MAX_WORD_LETTERS


def endo_of(x: AutExpr) -> Endo:
    """Realize a formal product as generator-image data.

    Each factor, left to right, rewrites the images in closed form:
    Lij^e sets image i to img_j^e img_i, Rij^e to img_i img_j^e, an odd
    E inverts image i and an odd P swaps images i and j.  ValueError is
    raised, in this order, for a Nielsen factor with |e| at
    MAX_WORD_LETTERS or above, for a bound len(img_i) + |e| len(img_j)
    on its new image over that cap, and for a sum of the three images'
    bounds over the factors so far above MAX_ENDO_WORK.
    """
    images = [gen(t) for t in range(1, RANK + 1)]
    work = 0
    for kind, i, j, exp in x:
        img = images[i - 1]
        grow = 0
        if kind in ("L", "R"):
            if abs(exp) >= MAX_WORD_LETTERS:
                raise ValueError(
                    f"{format_expr(((kind, i, j, exp),))} makes an image over "
                    f"{MAX_WORD_LETTERS} letters"
                )
            grow = abs(exp) * len(images[j - 1])
            if len(img) + grow > MAX_WORD_LETTERS:
                raise ValueError(f"images would exceed {MAX_WORD_LETTERS} letters")
        work += sum(map(len, images)) + grow
        if work > MAX_ENDO_WORK:
            raise ValueError(
                f"composing the factors would write over {MAX_ENDO_WORK} letters"
            )
        if kind in ("L", "R"):
            run = images[j - 1]
            # power first scans img_j for its cyclic split, which a +-1
            # power does without.
            if exp == -1:
                run = inv(run)
            elif exp != 1:
                run = power(run, exp)
            images[i - 1] = mul(run, img) if kind == "L" else mul(img, run)
        elif exp % 2 and kind == "E":
            images[i - 1] = inv(img)
        elif exp % 2:  # "P"
            images[i - 1], images[j - 1] = images[j - 1], img
    return Endo(tuple(images))


def endo_power(e: Endo, k: int) -> Endo:
    """e^k for k >= 0, by repeated squaring with compose.

    Composition is associative and reduced images are unique, so the
    images are those of k copies of e composed one at a time, at the
    cost of O(log k) compositions.  Before each one _image_bounds
    counts the letters substitute would write for each image; a count
    above MAX_WORD_LETTERS raises ValueError.  Images that cancel at
    their seams (as conjugates do) can be refused although the power's
    reduced images would fit: the square itself would write that many
    letters, and composing the factors one at a time is then cheaper.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if k == 0:
        return identity_endo(len(e.images))
    out = e
    # Left to right over the bits of k, so a multiplication composes
    # with e itself, whose short images are the inner operand.
    for bit in bin(k)[3:]:
        _image_bounds(out, out)
        out = compose(out, out)
        if bit == "1":
            _image_bounds(out, e)
            out = compose(out, e)
    return out


def apply(e: Endo, w: Word) -> Word:
    """Homomorphic image of w under e, reduced."""
    return substitute(w, e.images)


def compose(e1: Endo, e2: Endo) -> Endo:
    """e1 after e2: apply(compose(e1, e2), w) == apply(e1, apply(e2, w)).

    An image of e2 with no letter that e1 moves is returned as it is,
    unchecked against e1's rank; only the others go through apply.
    """
    moved = {x for i, img in enumerate(e1.images, 1) if img != (i,) for x in (i, -i)}
    return Endo(tuple(img if moved.isdisjoint(img) else apply(e1, img)
                      for img in e2.images))


def equal(e1: Endo, e2: Endo) -> bool:
    """Exact equality: all basis images agree as reduced words."""
    return e1.images == e2.images


def inner(g: Word, rank: int) -> Endo:
    """The inner automorphism x -> g x g^-1 of the free group of this rank."""
    g_inv = inv(g)
    return Endo(tuple(mul(mul(g, gen(i)), g_inv) for i in range(1, rank + 1)))


def _leading_a1_run(w: Word) -> int:
    """Signed length of the maximal leading run of a_1 letters."""
    run = 0
    for x in w:
        if x not in (1, -1):
            break
        run += x
    return run


def is_inner(e: Endo) -> Word | None:
    """The unique conjugator g with e = inner(g), or None.

    Procedure: cyclically reduce e(a1) as u * c * u^-1 and require
    c = a1; any conjugator must then be u * a1^k, where k is read off
    the leading a1-run of u^-1 * e(a2) * u.  The single candidate is
    verified on every generator, so a wrong guess cannot leak through.
    The caller is responsible for e being an automorphism.
    """
    rank = len(e.images)
    if rank == 1:
        # F_1 is abelian: the only inner automorphism is the identity.
        return empty() if equal(e, identity_endo(1)) else None
    core, u = cyclic_reduce(e.images[0])
    if core != gen(1):
        return None
    z = mul(mul(inv(u), e.images[1]), u)
    k = _leading_a1_run(z)
    g = mul(u, power(gen(1), k))
    return g if equal(e, inner(g, rank)) else None


def verify_relation(lhs: AutExpr, rhs: AutExpr, mode: Mode = "aut") -> bool:
    """Check lhs = rhs as automorphisms ("aut") or modulo inner ones ("out")."""
    if mode == "aut":
        return equal(endo_of(lhs), endo_of(rhs))
    if mode == "out":
        return is_inner(endo_of(lhs + inverse(rhs))) is not None
    raise ValueError(f"mode must be 'aut' or 'out', got {mode!r}")


# ---------------------------------------------------------------------------
# Relation families built from explicit generator-image data.
# ---------------------------------------------------------------------------


def right_multiplier(rank: int, target: int, w: Word) -> Endo:
    """The automorphism a_target -> a_target * w, fixing all other a_i.

    w must not use a_target, so the map is invertible with inverse
    a_target -> a_target * w^-1.
    """
    if target in w or -target in w:
        raise ValueError(f"multiplier word must avoid a{target}")
    images = [gen(t) for t in range(1, rank + 1)]
    images[target - 1] = mul(gen(target), w)
    return Endo(tuple(images))


def _image_table(e: Endo) -> dict[str, str]:
    return {
        f"a{i + 1}": format_word(img)
        for i, img in enumerate(e.images)
        if img != gen(i + 1)
    }


# The largest n gpq_check accepts: its endomorphisms have n + 1 images
# each, and `gpq --n 10000` takes 30-50 ms in-process (CPython 3.11,
# 2-CPU x86-64): compose passes the images no relation moves through.
MAX_GPQ_N = 10_000


def gpq_word_rank(n: int) -> int:
    """The rank n - 2 of the free factor that gpq_check's word lives in.

    Raises ValueError unless 3 <= n <= MAX_GPQ_N, so a caller can refuse
    n before it parses the word.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if n > MAX_GPQ_N:
        raise ValueError(f"need n <= {MAX_GPQ_N}, got {n}")
    return n - 2


def _hnn_checks(symbols: tuple[str, str, str], assign, rank: int, u: Word,
                b: int, c: int, p: int, q: int, head: dict) -> list[Check]:
    """The relations [t, alpha] = 1, t beta t^-1 = beta alpha^p and
    t gamma t^-1 = gamma alpha^q, each in the inverse-free form t x = rhs t.

    alpha = assign(u), beta = assign(a_b), gamma = assign(a_c), and t is
    [a_b -> a_b u^p, a_c -> a_c u^q] in the given rank.  ``symbols``
    spells alpha, beta and gamma in the claims; the check names write
    "inner(a1)" as "inner-a1".  The witness is ``head`` plus t's images.
    """
    t_images = [gen(i) for i in range(1, rank + 1)]
    t_images[b - 1] = mul(gen(b), power(u, p))
    t_images[c - 1] = mul(gen(c), power(u, q))
    t = Endo(tuple(t_images))
    alpha, beta, gamma = assign(u), assign(gen(b)), assign(gen(c))
    alpha_p, alpha_q = assign(power(u, p)), assign(power(u, q))
    witness = {**head, "t": _image_table(t)}
    sa, sb, sc = symbols
    slug = {s: s.replace("(", "-").rstrip(")") for s in symbols}
    return [
        Check(
            f"t-commutes-with-{slug[sa]}",
            f"[t, {sa}] = 1",
            equal(compose(t, alpha), compose(alpha, t)),
            witness,
        ),
        Check(
            f"t-conjugates-{slug[sb]}",
            f"t {sb} t^-1 = {sb} {sa}^p",
            equal(compose(t, beta), compose(compose(beta, alpha_p), t)),
            witness,
        ),
        Check(
            f"t-conjugates-{slug[sc]}",
            f"t {sc} t^-1 = {sc} {sa}^q",
            equal(compose(t, gamma), compose(compose(gamma, alpha_q), t)),
            witness,
        ),
    ]


def gpq_check(n: int, p: int, q: int, w: Word) -> list[Check]:
    """Verify the three defining relations of the two-parameter HNN-style
    group <alpha, beta, gamma, t | [t,alpha], t beta t^-1 = beta alpha^p,
    t gamma t^-1 = gamma alpha^q> under the right-multiplier assignment
    in rank n+1.

    The ambient basis is a_1..a_n plus one extra generator a_0 stored at
    index n+1.  With w a word in a_1..a_{n-2}:

        alpha = [a_0 -> a_0 w],  beta = [a_0 -> a_0 a_{n-1}],
        gamma = [a_0 -> a_0 a_n],
        t = [a_{n-1} -> a_{n-1} w^p, a_n -> a_n w^q].

    All three relations are checked in the inverse-free forms t*x = rhs*t.
    """
    free_factor = gpq_word_rank(n)
    if p == 0 or q == 0:
        raise ValueError("p and q must be nonzero")
    bad = next((abs(x) for x in w if abs(x) > free_factor), None)
    if bad is not None:
        raise ValueError(
            f"word uses forbidden generator a{bad}; "
            f"only a1..a{free_factor} are allowed"
        )
    a0 = rank = n + 1  # the extra basis element, stored last
    return _hnn_checks(
        ("alpha", "beta", "gamma"),
        lambda v: right_multiplier(rank, a0, v),
        rank, w, n - 1, n, p, q,
        {"n": n, "p": p, "q": q, "w": format_word(w)},
    )


def inner_gpq_check(p: int, q: int) -> list[Check]:
    """Same relations under the rank-3 inner assignment:

        alpha = inner(a1), beta = inner(a2), gamma = inner(a3),
        t = [a2 -> a2 a1^p, a3 -> a3 a1^q].
    """
    if p == 0 or q == 0:
        raise ValueError("p and q must be nonzero")
    return _hnn_checks(
        ("inner(a1)", "inner(a2)", "inner(a3)"),
        lambda v: inner(v, 3),
        3, gen(1), 2, 3, p, q,
        {"p": p, "q": q},
    )


# The product whose vanishing modulo inner automorphisms is the kernel
# relation of the commuting family.
_Z4_PRODUCT = "L21^-1 R21 L31^-1 R31"


@cache
def _side(text: str) -> AutExpr:
    """One side of a claim, parsed once per process: ``[x, y]`` is the
    commutator of the parsed halves, anything else a parse_autexpr text."""
    if text.startswith("["):
        x, y = text[1:-1].split(",")
        return commutator(_side(x.strip()), _side(y.strip()))
    return parse_autexpr(text)


def _relation(claim: str) -> tuple[AutExpr, AutExpr]:
    """The two sides of a claim ``lhs = rhs``, each parsed by _side."""
    lhs, rhs = claim.split(" = ")
    return _side(lhs), _side(rhs)


def nielsen_z4_check() -> list[Check]:
    """Checks on the rank-4 commuting family <L21, R21, L31, R31> in rank 3.

    Verifies that the four generators commute pairwise, that the product
    L21^-1 R21 L31^-1 R31 is the inner automorphism of a1^+1 or a1^-1
    (recording which sign the composition convention produces), and that
    the product is therefore trivial modulo inner automorphisms.  Each
    commutation, and the product, is parsed from the text the report
    prints.
    """
    checks = []
    for x, y in combinations(("L21", "R21", "L31", "R31"), 2):
        claim = f"{x} {y} = {y} {x}"
        checks.append(
            Check(f"commute-{x}-{y}", claim, verify_relation(*_relation(claim)), None))
    g = is_inner(endo_of(_side(_Z4_PRODUCT)))
    sign = {gen(1): 1, gen(1, -1): -1}.get(g)
    witness = {
        "product": _Z4_PRODUCT,
        "conjugator": None if g is None else format_word(g),
        "inner_power_of_a1": sign,
    }
    checks.append(
        Check(
            "z4-product-is-inner-a1",
            f"{_Z4_PRODUCT} = inner(a1^s) for s in {{+1, -1}}",
            sign is not None,
            witness,
        )
    )
    checks.append(
        Check(
            "z4-product-trivial-mod-inner",
            f"{_Z4_PRODUCT} is trivial modulo inner automorphisms",
            g is not None,
            witness,
        )
    )
    return checks


def _relation_check(name: str, claim: str, lhs: AutExpr, rhs: AutExpr,
                    mode: Mode = "aut") -> Check:
    return Check(
        name,
        claim,
        verify_relation(lhs, rhs, mode),
        {"lhs": format_expr(lhs), "rhs": format_expr(rhs), "mode": mode},
    )


# The named identities of the suite, each checked as the claim it prints.
_NAMED = (
    ("commutator-left-nielsen", "[L23^-1, L31^-1] = L21^-1"),
    ("commutator-right-nielsen", "[R23^-1, R31^-1] = R21^-1"),
    ("inversion-swaps-left-to-right", "E2 L21^-1 E2^-1 = R21"),
    ("inversion-swaps-right-to-left", "E2 R21 E2^-1 = L21^-1"),
    ("inversion-fixes-L31", "E2 L31 E2^-1 = L31"),
    ("inversion-fixes-R31", "E2 R31 E2^-1 = R31"),
)


def identity_suite(mode: Mode = "aut") -> list[Check]:
    """The full identity suite behind the ``verify-relations`` command.

    Every relation is checked on the two sides of the claim the report
    prints, parsed by _relation, and the maps phi of the inner-functorial
    checks are parsed from their texts.  With mode "out" the six named
    identities are also verified modulo inner automorphisms;
    ``nielsen_z4_check`` reports the vanishing of the commuting-family
    product modulo inner automorphisms in both modes.
    """
    checks = [_relation_check(n, c, *_relation(c)) for n, c in _NAMED]
    checks.extend(nielsen_z4_check())

    # Left and right Nielsen maps on the same index pair are conjugate
    # via the inversion of the moved generator.
    for i, j in permutations(range(1, RANK + 1), 2):
        claim = f"E{i} L{i}{j} E{i}^-1 = R{i}{j}^-1"
        checks.append(
            _relation_check(f"left-right-conjugate-{i}{j}", claim, *_relation(claim)))

    # Conjugating an inner automorphism: phi inner(g) phi^-1 = inner(phi(g)),
    # checked in the inverse-free form phi inner(g) = inner(phi(g)) phi.
    sample_words = [(1,), (1, -2), (2, 3, -1)]  # a1, a1 a2^-1, a2 a3 a1^-1
    for text in ("L12", "R31", "E2 L21"):
        phi = endo_of(_side(text))
        for g in sample_words:
            ok = equal(
                compose(phi, inner(g, 3)), compose(inner(apply(phi, g), 3), phi)
            )
            checks.append(
                Check(
                    f"inner-functorial-{text.replace(' ', '-')}-"
                    f"{format_word(g).replace(' ', '')}",
                    "phi inner(g) phi^-1 = inner(phi(g))",
                    ok,
                    {"phi": text, "g": format_word(g)},
                )
            )

    if mode == "out":
        for n, c in _NAMED:
            checks.append(_relation_check(f"{n}-mod-inner", c, *_relation(c), "out"))
    return checks


# ---------------------------------------------------------------------------
# Text grammar: tokens like L21, R13^-2, E2, P12^3, separated by whitespace.
# Single-digit indices, which covers rank 3.  An exponent's leading zeros
# are dropped, and one with more digits than MAX_WORD_LETTERS is refused
# before int() would convert it.
# ---------------------------------------------------------------------------

_EXPR_TOKEN = re.compile(r"([LRP])(\d)(\d)(?:\^(-?\d+))?\Z|E(\d)(?:\^(-?\d+))?\Z")


def parse_autexpr(text: str) -> AutExpr:
    factors = []
    # A long expression repeats a few tokens, so each is parsed once.
    parsed: dict[str, tuple[str, int, int, int]] = {}
    for m in re.finditer(r"\S+", text):
        tok = m.group(0)
        if tok == "1":
            continue
        factor = parsed.get(tok)
        if factor is None:
            mt = _EXPR_TOKEN.match(tok)
            if mt is None:
                raise ValueError(f"char {m.start()}: bad token {tok!r}")
            signed = mt.group(6 if mt.group(5) else 4) or "1"
            digits = signed.lstrip("-").lstrip("0") or "0"
            if len(digits) > _LETTER_DIGITS:
                raise ValueError(f"char {m.start()}: exponent of {len(digits)} digits "
                                 f"is over {MAX_WORD_LETTERS}")
            exp = -int(digits) if signed.startswith("-") else int(digits)
            try:
                if mt.group(5) is not None:
                    factor = _factor("E", int(mt.group(5)), 0, exp)
                else:
                    factor = _factor(mt.group(1), int(mt.group(2)), int(mt.group(3)), exp)
            except ValueError as exc:
                raise ValueError(f"char {m.start()}: {exc}") from None
            parsed[tok] = factor
        if factor[3] != 0:
            factors.append(factor)
    return tuple(factors)
