"""Exact currency values and their canonical string form.

All money that enters or leaves this package is a
:class:`fractions.Fraction`: exact, in lowest terms, with a positive
denominator. Inside, the pricers may count it in integer units of a
common denominator instead. Files and reports carry costs as strings,
either an integer literal ("7") or a fraction in lowest terms ("3/2");
this module owns the parsing and formatting of that encoding.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import FormatError

_COST_RE = re.compile(r"^(-?(?:0|[1-9][0-9]*))(?:/([1-9][0-9]*))?$")


def parse_cost(text: str) -> Fraction:
    """Parse a canonical cost string.

    Accepts an integer literal or "p/q" with q > 0 and gcd(|p|, q) = 1.
    Anything else (zero denominators, non-lowest terms, decimals,
    whitespace, leading zeros) raises FormatError.
    """
    if not isinstance(text, str):
        raise FormatError(f"cost must be a string, got {type(text).__name__}")
    m = _COST_RE.match(text)
    if m is None:
        raise FormatError(f"malformed cost string {text!r}")
    numerator = int(m.group(1))
    if m.group(2) is None:
        return Fraction(numerator)
    denominator = int(m.group(2))
    if math.gcd(abs(numerator), denominator) != 1:
        raise FormatError(f"cost string {text!r} is not in lowest terms")
    return Fraction(numerator, denominator)


def format_cost(value: Fraction) -> str:
    """Render a Fraction in the canonical string form parse_cost accepts."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def approx_suffix(value: Fraction) -> str:
    """Human-friendly rendering: exact string, plus "(~x.y)" when fractional."""
    text = format_cost(value)
    if value.denominator == 1:
        return text
    return f"{text} (~{float(value):g})"
