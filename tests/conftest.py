import random

import pytest

from autgeom.words import Word, gen, mul, reduce


@pytest.fixture
def rng():
    return random.Random(20110222)


def naive_reduce(rank, raw):
    """Independent reduction oracle: repeated full scans to a fixpoint."""
    letters = list(raw)
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            if letters[i] == -letters[i + 1]:
                del letters[i : i + 2]
                changed = True
                break
    return Word(rank, tuple(letters))


def random_raw(rng, rank, length):
    """A raw (unreduced) sequence of signed letters: +i is a_i, -i its inverse."""
    return [rng.randint(1, rank) * rng.choice((1, -1)) for _ in range(length)]


def random_word(rng, rank, max_len):
    return reduce(rank, random_raw(rng, rank, rng.randint(0, max_len)))


def random_a3_even_word(rng, max_len):
    """A random rank-3 word with even a3-exponent."""
    w = random_word(rng, 3, max_len)
    if (w.letters.count(3) + w.letters.count(-3)) % 2 == 1:
        w = mul(w, gen(3, 3, rng.choice((1, -1))))
    return w


def run_cli(argv):
    """Execute a CLI invocation in-process; returns (exit code, report)."""
    from autgeom.cli import run

    return run(argv)
