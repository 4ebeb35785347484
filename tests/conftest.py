import random
from fractions import Fraction

import pytest

from autgeom.automorphisms import endo_of, expr_power, nielsen_left, nielsen_right, parse_autexpr
from autgeom.latgeom import Vec3, vec3
from autgeom.words import gen, mul, reduce


@pytest.fixture
def rng():
    return random.Random(20110222)


def naive_reduce(raw):
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
    return tuple(letters)


def is_reduced(w):
    """A word is a tuple of nonzero ints with no adjacent x, -x."""
    return (
        type(w) is tuple
        and all(type(x) is int and x != 0 for x in w)
        and all(x != -y for x, y in zip(w, w[1:]))
    )


def random_raw(rng, rank, length):
    """A raw (unreduced) sequence of signed letters: +i is a_i, -i its inverse."""
    return [rng.randint(1, rank) * rng.choice((1, -1)) for _ in range(length)]


def random_word(rng, rank, max_len):
    return reduce(rank, random_raw(rng, rank, rng.randint(0, max_len)))


def random_a3_even_word(rng, max_len):
    """A random rank-3 word with even a3-exponent."""
    w = random_word(rng, 3, max_len)
    if (w.count(3) + w.count(-3)) % 2 == 1:
        w = mul(w, gen(3, rng.choice((1, -1))))
    return w


def run_cli(argv):
    """Execute a CLI invocation in-process; returns (exit code, report)."""
    from autgeom.cli import run

    return run(argv)


def swap(i, j):
    """The automorphism P_ij exchanging a_i and a_j."""
    return parse_autexpr(f"P{i}{j}")


def inversion(i):
    """The automorphism E_i inverting a_i."""
    return parse_autexpr(f"E{i}")


# Elementary automorphisms that preserve the even-a3 subgroup: Nielsen
# maps multiplying by a1 or a2, all inversions, and the a1<->a2 swap.
STABILIZING = [
    nielsen_left(1, 2), nielsen_left(2, 1), nielsen_left(3, 1), nielsen_left(3, 2),
    nielsen_right(1, 2), nielsen_right(2, 1), nielsen_right(3, 1), nielsen_right(3, 2),
    inversion(1), inversion(2), inversion(3), swap(1, 2),
]


def random_stabilizing_endo(rng, max_len=8):
    x = ()
    for _ in range(rng.randint(1, max_len)):
        x = x + expr_power(rng.choice(STABILIZING), rng.choice((-1, 1)))
    return endo_of(x)


def mat2_mul(a, b):
    return [
        [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
        [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
    ]


def constraint(tau, m, a):
    """The equidistance constraint |tau + m a|^2 - |tau|^2, in Fractions."""
    tv, av = [Fraction(x) for x in tau], [Fraction(x) for x in a]
    if len(tv) != len(av):
        raise ValueError("tau and a have different dimensions")
    return sum((t + m * x) ** 2 for t, x in zip(tv, av)) - sum(t * t for t in tv)


def fraction_equidistant_check(tau, p, q, a):
    """Whether |tau + p a| = |tau + q a| = |tau|: both constraints are 0."""
    return constraint(tau, p, a) == 0 == constraint(tau, q, a)


OCTO_CHECKS = ("equal-nonzero-norms", "sum-condition", "pair-orthogonality",
               "difference-orthogonality")


def octo_flags(checks):
    """The verdicts of octo_check's four conditions, in report order."""
    assert tuple(c.name for c in checks) == OCTO_CHECKS
    return tuple(c.passed for c in checks)


def rotation_from_quaternion(a, b, c, d):
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


def random_rotation(rng):
    while True:
        q = tuple(rng.randint(-3, 3) for _ in range(4))
        if any(q):
            return rotation_from_quaternion(*q)


FCC_GENS = (vec3(1, 1, 0), vec3(1, -1, 0), vec3(1, 0, 1), vec3(1, 0, -1))


def apply_matrix(m, v):
    coords = v.coords()
    out = [sum(Fraction(m[i][k]) * coords[k] for k in range(3)) for i in range(3)]
    return Vec3(out[0], out[1], out[2])
