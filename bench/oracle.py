"""Known answers for the benchmark, computed without autgeom.

Nothing here imports the package under test.  Every expected verdict
and payload fact comes from the request parameters through
independent, deliberately naive code: words are lists of signed ints
reduced with a stack, the 2x2 representation is a product of
hand-written generator matrices, lattice volumes are integer
determinants, and Voronoi f-vectors come from the lattice type.

``check(expect, code, text)`` compares one CLI outcome with the known
answer and returns ``None`` or a one-line description of the mismatch.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from fractions import Fraction
from itertools import combinations
from math import gcd

# ---------------------------------------------------------------------------
# Words: a letter is +i (a_i) or -i (a_i^-1); a word is a list of letters.
# ---------------------------------------------------------------------------


def reduce_word(letters):
    """Free reduction by one stack pass."""
    stack = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return stack


def invert(word):
    return [-x for x in reversed(word)]


def substitute(word, images):
    """Image of ``word`` under a_i -> images[i-1], reduced."""
    out = []
    for x in word:
        img = images[x - 1] if x > 0 else invert(images[-x - 1])
        for y in img:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return out


def format_word(word) -> str:
    """The documented text grammar: maximal runs as ``a1^3``, empty as ``1``."""
    if not word:
        return "1"
    parts = []
    i = 0
    while i < len(word):
        j = i
        while j + 1 < len(word) and word[j + 1] == word[i]:
            j += 1
        count = (j - i + 1) * (1 if word[i] > 0 else -1)
        name = f"a{abs(word[i])}"
        parts.append(name if count == 1 else f"{name}^{count}")
        i = j + 1
    return " ".join(parts)


def images_digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Automorphism expressions: tokens Lij, Rij, Ei, Pij with exponents; the
# product (f g)(x) = f(g(x)).
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"([LRP])(\d)(\d)(?:\^(-?\d+))?$|E(\d)(?:\^(-?\d+))?$")


def _elementary_images(kind, i, j, rank=3):
    images = [[t] for t in range(1, rank + 1)]
    if kind == "L":
        images[i - 1] = [j, i]
    elif kind == "R":
        images[i - 1] = [i, j]
    elif kind == "E":
        images[i - 1] = [-i]
    else:
        images[i - 1], images[j - 1] = [j], [i]
    return images


def _elementary_inverse_images(kind, i, j, rank=3):
    images = [[t] for t in range(1, rank + 1)]
    if kind == "L":
        images[i - 1] = [-j, i]
    elif kind == "R":
        images[i - 1] = [i, -j]
    else:  # inversions and transpositions are involutions
        return _elementary_images(kind, i, j, rank)
    return images


def parse_tokens(text):
    """[(kind, i, j, exponent)] for an expression in the token grammar."""
    out = []
    for tok in text.split():
        m = _TOKEN.match(tok)
        if m is None:
            raise ValueError(f"bad token {tok!r}")
        if m.group(5) is not None:
            out.append(("E", int(m.group(5)), None, int(m.group(6) or 1)))
        else:
            out.append((m.group(1), int(m.group(2)), int(m.group(3)),
                        int(m.group(4) or 1)))
    return out


def compose_images(outer, inner):
    """Images of outer after inner."""
    return [substitute(img, outer) for img in inner]


def expression_images(tokens, power=1, rank=3):
    """Generator images of (product of tokens)^power, by naive composition."""
    one = [[t] for t in range(1, rank + 1)]
    base = one
    for kind, i, j, exp in tokens:
        step = (_elementary_images if exp > 0 else _elementary_inverse_images)(
            kind, i, j, rank)
        for _ in range(abs(exp)):
            base = compose_images(base, step)
    if power < 0:
        raise ValueError("the benchmark only generates nonnegative powers")
    out = one
    for _ in range(power):
        out = compose_images(out, base)
    return out


def nu(word) -> int:
    return sum(1 if x == 3 else -1 if x == -3 else 0 for x in word) % 2


def stabilizes(images) -> bool:
    return nu(images[0]) == 0 and nu(images[1]) == 0 and nu(images[2]) == 1


# The representation on the (-1)-eigenplane of the index-two cover,
# written down by hand: tokens among a1, a2 act through their
# abelianization on Z^2; tokens that move or invert a3 (and preserve
# the even-a3 subgroup) act trivially on the eigenplane.
MU_GENERATORS = {
    "L21": [[1, 1], [0, 1]],
    "R21": [[1, 1], [0, 1]],
    "L12": [[1, 0], [1, 1]],
    "R12": [[1, 0], [1, 1]],
    "E1": [[-1, 0], [0, 1]],
    "E2": [[1, 0], [0, -1]],
    "P12": [[0, 1], [1, 0]],
}
MU_TRIVIAL = {"E3", "L31", "R31", "L32", "R32"}


def mat2_mul(a, b):
    return [
        [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
        [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
    ]


def mat2_pow(m, k):
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if k < 0:
        m = [[det * m[1][1], -det * m[0][1]], [-det * m[1][0], det * m[0][0]]]
        k = -k
    out = [[1, 0], [0, 1]]
    for _ in range(k):
        out = mat2_mul(out, m)
    return out


def mu_of(tokens, power=1):
    out = [[1, 0], [0, 1]]
    for kind, i, j, exp in tokens:
        name = f"E{i}" if kind == "E" else f"{kind}{i}{j}"
        if name in MU_TRIVIAL:
            continue
        out = mat2_mul(out, mat2_pow(MU_GENERATORS[name], exp))
    return mat2_pow(out, power)


# ---------------------------------------------------------------------------
# Integer lattice facts.
# ---------------------------------------------------------------------------


def det3(m) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def covolume(gens) -> Fraction:
    """Covolume of the lattice spanned by rational 3-vectors.

    Scaled to integers, the covolume is the gcd of all 3x3 minors of
    the generator matrix; that also covers a redundant fourth generator.
    """
    den = 1
    for v in gens:
        for c in v:
            den = den * c.denominator // gcd(den, c.denominator)
    rows = [[int(c * den) for c in v] for v in gens]
    g = 0
    for trio in combinations(rows, 3):
        g = gcd(g, abs(det3(trio)))
    return Fraction(g, den ** 3)


def selling_zeros(basis) -> int:
    """Number of vanishing Selling parameters of an integer 3-lattice.

    Selling's reduction makes every parameter -b_i.b_j of the superbase
    b0..b3 (b0 = -(b1+b2+b3)) nonnegative; none vanishing means the
    Voronoi cell is a truncated octahedron (24, 36, 14).
    """
    b = [list(v) for v in basis]
    b.insert(0, [-sum(v[k] for v in b) for k in range(3)])

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    while True:
        pair = next(((i, j) for i, j in combinations(range(4), 2)
                     if dot(b[i], b[j]) > 0), None)
        if pair is None:
            return sum(1 for i, j in combinations(range(4), 2)
                       if dot(b[i], b[j]) == 0)
        i, j = pair
        for k in range(4):
            if k not in pair:
                b[k] = [x + y for x, y in zip(b[k], b[i])]
        b[i] = [-x for x in b[i]]


F_VECTORS = {
    "fcc": (14, 24, 12),
    "cube": (8, 12, 6),
    "bcc": (24, 36, 14),
    "generic": (24, 36, 14),
    "hexagonal": (12, 18, 8),
}


def rotation(q):
    """Rational rotation matrix of an integer quaternion (a, b, c, d)."""
    a, b, c, d = q
    n = a * a + b * b + c * c + d * d
    rows = [
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
    ]
    return [[Fraction(x, n) for x in row] for row in rows]


def fraction_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Checking one outcome against its known answer.
# ---------------------------------------------------------------------------


def check(expect: dict, code, text: str | None) -> str | None:
    """``None`` if the outcome matches ``expect``, else what differs.

    ``code`` is the exit code, or ``None`` for an uncaught exception;
    ``text`` is the rendered JSON report (``None`` without a report).
    """
    if code is None:
        return "uncaught exception"
    if code != expect["exit"]:
        return f"exit {code}, expected {expect['exit']}"
    if code == 2 or text is None:
        return None
    report = json.loads(text)
    checks = {c["name"]: c for c in report["checks"]}
    payload = report["payload"]
    kind = expect["kind"]
    if "failing" in expect:
        failing = sorted(n for n, c in checks.items() if not c["passed"])
        if failing != expect["failing"]:
            return f"failing checks {failing}, expected {expect['failing']}"
    if kind in ("gpq", "inner-gpq"):
        got = checks[expect["check"]]["witness"]["t"]
        if got != expect["t"]:
            return f"t images {got}, expected {expect['t']}"
    elif kind == "lk-basis":
        if payload["words"] != expect["words"]:
            return "lk-basis words differ"
    elif kind == "gl-rep":
        if payload["mu"] != expect["mu"]:
            return f"mu {payload['mu']}, expected {expect['mu']}"
        images = checks["stabilizes"]["witness"]["images"]
        if images_digest(images[f"a{i}"] for i in (1, 2, 3)) != expect["images"]:
            return "generator images differ from the naive composition"
    elif kind == "sanov":
        if [payload["mu_L12_power"], payload["mu_L21_power"]] != expect["mats"]:
            return "sanov matrices differ"
    elif kind == "cell":
        cls = payload["classification"]
        if tuple(cls["f_vector"]) != tuple(expect["f_vector"]):
            return f"f-vector {cls['f_vector']}, expected {expect['f_vector']}"
        if payload["volume"] != expect["volume"] or payload["covolume"] != expect["volume"]:
            return f"volume {payload['volume']}, expected {expect['volume']}"
        for flag in ("is_rhombic_dodecahedron", "is_cube"):
            if flag in expect and cls[flag] != expect[flag]:
                return f"{flag} is {cls[flag]}"
        if expect.get("off"):
            path = payload["off_path"]
            if path != expect["off"] or not os.path.exists(path + ".json"):
                return "OFF export missing"
            with open(path, encoding="ascii") as fh:
                header = [fh.readline().strip(), fh.readline().split()]
            v, e, f = expect["f_vector"]
            if header != ["OFF", [str(v), str(f), str(e)]]:
                return f"OFF header {header}"
    elif kind == "lemma-pq":
        if payload["eliminant_coefficient"] != expect["eliminant"]:
            return "eliminant differs"
    elif kind == "induce":
        if payload["length_sq"] != expect["length_sq"]:
            return f"length_sq {payload['length_sq']}, expected {expect['length_sq']}"
    return None
