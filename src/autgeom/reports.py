"""Machine-readable check reports shared by the library and the CLI.

``Check`` and ``Report`` are named tuples: immutable, and compared and
hashed by value.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Any, NamedTuple

__all__ = [
    "Check",
    "Report",
    "fraction_str",
    "ratio_str",
    "parse_fraction",
    "MAX_LITERAL_SIZE",
]


class Check(NamedTuple):
    """One named verification with a human-readable claim and a verdict."""

    name: str
    claim: str
    passed: bool
    witness: Any = None


class Report(NamedTuple):
    """Aggregate result of one command: echo, checks, and extra payload.

    No field has a default: a default dict would be one object shared
    by every report.
    """

    command: str
    args: dict
    checks: tuple[Check, ...]
    payload: dict

    @property
    def passed(self) -> bool:
        """A report with no checks verified nothing, so it does not pass."""
        return bool(self.checks) and all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        """The report as plain data; each check's keys follow
        ``Check._fields``."""
        return {
            "command": self.command,
            "args": self.args,
            "checks": [{"name": name, "claim": claim, "passed": passed, "witness": witness}
                       for name, claim, passed, witness in self.checks],
            "passed": self.passed,
            "payload": self.payload,
        }


def ratio_str(num: int, den: int) -> str:
    """Exact decimal-free rendering of ``num / den`` for a positive
    ``den``, in lowest terms: ``3/4`` or ``-2``."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def fraction_str(x: Fraction | int) -> str:
    """A Fraction or int, rendered by ``ratio_str``."""
    return ratio_str(x.numerator, x.denominator)


# The most digits plus |exponent| in a rational literal, checked on the
# text because Fraction('1e1000000') builds the integer first.  A voronoi
# cell's numbers are of degree about four in its integer rows, whose
# denominator has at most 12 * 40 digits; so no report gets near the
# 4,300 digits CPython converts to a string (seeded searches: 1,560).
MAX_LITERAL_SIZE = 40
_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)\s*$")


def parse_fraction(text: str) -> Fraction:
    """Parse a rational literal of at most MAX_LITERAL_SIZE.

    The size cap is checked first.  A literal that is an optional sign
    and ASCII decimal digits, with whitespace around it, is then read by
    ``int``, and any other literal by ``Fraction``'s own parser, whose
    refusal is reported with the text as given.  The two readers agree
    on every literal the first one takes, so the cap, the values and
    the messages are as ``Fraction``'s parser alone gives them."""
    size = sum(map(str.isdigit, text))
    exponent = _EXPONENT.search(text) if size <= MAX_LITERAL_SIZE else None
    if exponent:
        size += abs(int(exponent[1].replace("_", "")))
    if size > MAX_LITERAL_SIZE:
        raise ValueError(f"rational literal too large: digits plus |exponent| "
                         f"come to {size}, over the cap of {MAX_LITERAL_SIZE}")
    literal = text.strip()
    digits = literal[1:] if literal[:1] in ("+", "-") else literal
    if digits.isascii() and digits.isdigit():
        return Fraction(int(literal))
    try:
        return Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}: {exc}") from None
