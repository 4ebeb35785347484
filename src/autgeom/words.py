"""Reduced words in free groups of finite rank.

A word is a plain tuple of nonzero ints: ``+i`` is the generator a_i
and ``-i`` its inverse, so inverting a word is
``tuple(map(neg, reversed(w)))``.  Every word this module returns is
freely reduced (no adjacent ``x, -x``).  Words enter only through
:func:`reduce`, :func:`gen` and :func:`parse_word`: all three refuse a
zero letter, and ``reduce`` and ``parse_word`` also refuse a letter out
of range for their rank.  Every other function takes reduced words and
returns one that is reduced by construction, without checking it again.
A word does not carry the rank of a free group, so one word serves in
every free group whose basis covers its letters; functions that need a
rank, such as :func:`ab_vector`, take it as an argument.

The operands of :func:`mul`, :func:`power` and :func:`substitute` are
reduced already, so letters can cancel only at the seam where two
reduced pieces meet.  ``substitute`` pops while the result's last letter
inverts the next letter of the image, then extends by the rest of the
image in one slice; ``mul`` counts the cancelling letters and joins two
slices; ``power`` splits w = u * core * u^-1 once, since every seam
between copies of w cancels exactly u^-1 * u.  Only :func:`reduce`,
whose input is raw, scans letter by letter.  :func:`parse_word` parses
each distinct token once, and ``automorphisms.compose`` calls
``substitute`` only on images that hold a letter the outer map moves.

:func:`format_word` renders a word of 64 letters or more whose letters
all fit in a signed byte other than -128 with no Python-level step per
letter: it packs one byte per letter, finds the run starts with one XOR
of the word's bytes as an integer against themselves shifted by one
byte, writes the delimiter byte 0x80 (that of -128) before each run and
splits there once.  Equal runs share a token, so a token is built once
per distinct run (most runs of a long image are single letters) before
one ``" ".join``.  A shorter word, or one with a wider letter, goes
through one loop over its runs.

Words are immutable and every operation is a pure function, so the whole
module is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import compress
from operator import ne, neg
from typing import Iterable, Sequence

__all__ = [
    "Word",
    "empty",
    "gen",
    "reduce",
    "mul",
    "inv",
    "conj",
    "power",
    "ab_vector",
    "substitute",
    "cyclic_reduce",
    "parse_word",
    "format_word",
    "MAX_WORD_LETTERS",
]

# parse_word expands exponents into letters, so it refuses text that
# spells out more letters than this before expanding any of them; power
# refuses a repeated core longer than this before building it, and
# automorphisms caps the images of its endomorphisms the same way.
MAX_WORD_LETTERS = 100_000
# An exponent with more significant digits than this is over the cap;
# the text grammars refuse it before int() would convert it.
_LETTER_DIGITS = len(str(MAX_WORD_LETTERS))


# A freely reduced word: nonzero letters, no adjacent ``x, -x``.
Word = tuple[int, ...]


def empty() -> Word:
    return ()


def gen(index: int, sign: int = 1) -> Word:
    """The one-letter word a_index, or its inverse for sign -1."""
    if sign not in (1, -1) or index < 1:
        raise ValueError(f"need index >= 1 and sign +-1, got a{index} with sign {sign}")
    return (sign * index,)


def reduce(rank: int, raw: Iterable[int]) -> Word:
    """Freely reduce a raw sequence of signed letters in a single stack pass.

    The rank must be positive, and every letter, including letters that
    cancel, nonzero with absolute value at most the rank.  Idempotent:
    reducing an already reduced sequence returns it unchanged.
    """
    raw = tuple(raw)
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    if raw:
        if 0 in raw:
            raise ValueError("letter 0 is not a generator")
        top = max(max(raw), -min(raw))
        if top > rank:
            raise ValueError(f"generator index {top} out of range for rank {rank}")
    stack: list[int] = []
    push, pop = stack.append, stack.pop
    for x in raw:
        if stack and stack[-1] == -x:
            pop()
        else:
            push(x)
    return tuple(stack)


def mul(u: Word, v: Word) -> Word:
    """Product u*v, reduced.  len(mul(u,v)) <= len(u)+len(v)."""
    k, n = 0, min(len(u), len(v))
    while k < n and u[-1 - k] == -v[k]:
        k += 1
    return u[: len(u) - k] + v[k:]


def inv(w: Word) -> Word:
    """Inverse word: reversed letters with negated signs."""
    return tuple(map(neg, reversed(w)))


def conj(w: Word, g: Word) -> Word:
    """Conjugate g * w * g^-1."""
    return mul(mul(g, w), inv(g))


def _cyclic_split(syms: tuple[int, ...]) -> int:
    """Length of the prefix u of a reduced word u * core * u^-1."""
    i, j = 0, len(syms) - 1
    while i < j and syms[i] == -syms[j]:
        i += 1
        j -= 1
    return i


def power(w: Word, k: int) -> Word:
    """k-th power of w (k may be negative or zero).

    With w = u * core * u^-1 and core cyclically reduced, w^k is
    u * core^k * u^-1 with no cancellation left.  Raises ValueError
    before building core^k when it would have more than
    MAX_WORD_LETTERS letters.
    """
    if k == 0:
        return empty()
    syms = w if k > 0 else inv(w)
    i = _cyclic_split(syms)
    core = syms[i : len(syms) - i]
    if len(core) * abs(k) > MAX_WORD_LETTERS:
        raise ValueError(f"power {k} is longer than {MAX_WORD_LETTERS} letters")
    return syms[:i] + core * abs(k) + syms[len(syms) - i :]


def ab_vector(w: Word, rank: int) -> tuple[int, ...]:
    """Image in Z^rank: entry i is the exponent sum of a_{i+1}."""
    counts = Counter(w)
    return tuple(counts[i] - counts[-i] for i in range(1, rank + 1))


def substitute(w: Word, images: Sequence[Word]) -> Word:
    """Homomorphic image of w under a_i -> images[i-1], reduced.

    Raises ValueError if w uses a generator that has no image.  Each
    image (or its inverse) is reduced, so the result cancels only at the
    seam with the next image.
    """
    used = set(w)
    top = max(map(abs, used), default=0)
    if top > len(images):
        raise ValueError(f"generator a{top} has no image among {len(images)}")
    # Images of the letters w uses: a_i -> images[i-1], a_i^-1 -> its inverse.
    table = {
        x: images[x - 1] if x > 0 else inv(images[-x - 1]) for x in used
    }
    stack: list[int] = []
    pop, extend = stack.pop, stack.extend
    for x in w:
        piece = table[x]
        if stack and piece and stack[-1] == -piece[0]:
            pop()
            k, n = 1, len(piece)
            while k < n and stack and stack[-1] == -piece[k]:
                pop()
                k += 1
            extend(piece[k:])
        else:
            extend(piece)
    return tuple(stack)


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split w = u * core * u^-1 with core cyclically reduced.

    Returns (core, u).  For a reduced word this strips matching
    first/last letters; the stripped prefix is the witness u.
    """
    i = _cyclic_split(w)
    return w[i : len(w) - i], w[:i]


_TOKEN = re.compile(r"([aA])(\d+)(?:\^(-?\d+))?\Z")


def parse_word(text: str, rank: int) -> Word:
    """Parse whitespace-separated tokens like ``a1 a2^-1 A3`` into a word.

    Uppercase ``A3`` is shorthand for ``a3^-1``; ``1`` denotes the empty
    word.  Indices must not exceed the rank, and the exponents' absolute
    values must not add up to more than MAX_WORD_LETTERS.  Raises
    ValueError with the character position of the first bad token, or
    of the one that crosses the cap.  Each distinct token is parsed once,
    into its letter and run length; every occurrence counts to the cap.
    """
    raw: list[int] = []
    letters = 0
    index_digits = len(str(rank))
    parsed: dict[str, tuple[int, int]] = {"1": (1, 0)}  # (letter, run length)
    for m in re.finditer(r"\S+", text):
        tok = m.group(0)
        run = parsed.get(tok)
        if run is None:
            mt = _TOKEN.match(tok)
            if mt is None:
                raise ValueError(f"char {m.start()}: bad token {tok!r}")
            # Leading zeros are dropped and a value is converted only if
            # it has no more digits than its cap, since CPython converts
            # at most 4,300; a longer one is over the cap, so the
            # stand-in 0 or MAX_WORD_LETTERS + 1 fails the same check.
            index = mt.group(2).lstrip("0") or "0"
            idx = int(index) if len(index) <= index_digits else 0
            if not 1 <= idx <= rank:
                raise ValueError(
                    f"char {m.start()}: generator a{index} out of range for rank {rank}"
                )
            exponent = (mt.group(3) or "1").lstrip("-").lstrip("0") or "0"
            k = int(exponent) if len(exponent) <= _LETTER_DIGITS else MAX_WORD_LETTERS + 1
            negative = (mt.group(1) == "A") != (mt.group(3) or "").startswith("-")
            run = parsed[tok] = (-idx if negative else idx, k)
        letters += run[1]
        if letters > MAX_WORD_LETTERS:
            raise ValueError(
                f"char {m.start()}: word longer than {MAX_WORD_LETTERS} letters"
            )
        raw.extend([run[0]] * run[1])
    return reduce(rank, raw)


# The shortest word format_word encodes as bytes.  Timed against the
# run loop (CPython 3.11, one 2-CPU machine), the byte path wins from
# about 32 letters on random reduced words over 3 generators, where most
# runs are single letters, and runs 0.8 times as long as the loop at 64;
# over 50 generators, and on three-run words a1^i a2 a1^-i, it wins only
# from about 192.  The benchmark's algebra words of 16 to 600 letters
# render within 2 % of the best at any threshold from 48 to 128.
_BYTES_FROM = 64
# Maps a nonzero byte to the run delimiter 0x80, the byte of letter -128.
_RUN_MARK = bytes(1) + b"\x80" * 255


def format_word(w: Word) -> str:
    """Render a word in the text grammar; parse_word(format_word(w)) == w.

    Maximal runs of one letter are compressed to ``a1^3`` style tokens;
    the empty word renders as ``1``.
    """
    runs = _byte_runs(w) if len(w) >= _BYTES_FROM else None
    if runs is None:
        n = len(w)
        # A run starts where a letter differs from the one before (or from 0).
        starts = list(compress(range(n), map(ne, w, (0, *w))))
        parts = []
        for start, end in zip(starts, [*starts[1:], n]):
            x, k = w[start], end - start
            count = k if x > 0 else -k
            parts.append(f"a{x}" if count == 1 else f"a{abs(x)}^{count}")
        return " ".join(parts) or "1"
    # Equal runs share one token, so tokens are built per distinct run.
    tokens = {}
    for run in set(runs):
        x, k = (run[0] ^ 128) - 128, len(run)  # the byte's signed value
        count = k if x > 0 else -k
        tokens[run] = f"a{x}" if count == 1 else f"a{abs(x)}^{count}"
    return " ".join(map(tokens.__getitem__, runs))


def _byte_runs(w: Word) -> list[bytes] | None:
    """The maximal runs of w, one signed byte per letter, or None if a
    letter lies outside -127..127."""
    import struct

    try:
        data = struct.pack(f"{len(w)}b", *w)
    except struct.error:
        return None
    if b"\x80" in data:  # letter -128: its byte is the delimiter
        return None
    # Byte i of d ^ (d >> 8) is nonzero where letter i differs from the
    # one before (or from 0): each run starts there.
    d = int.from_bytes(data, "big")
    marks = (d ^ (d >> 8)).to_bytes(len(data), "big").translate(_RUN_MARK)
    # Put each mark before its letter and drop the zero fillers, so the
    # delimiter precedes every run, the first one included.
    marked = bytearray(2 * len(data))
    marked[::2] = marks
    marked[1::2] = data
    return bytes(marked.translate(None, b"\0")).split(b"\x80")[1:]
