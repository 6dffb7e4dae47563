"""Parsing and formatting of exact rationals for file formats and the CLI.

Rationals travel as ``"p/q"`` strings (bare integers and decimal text
allowed, read exactly).  Python floats are rejected everywhere: a float has
already lost the value its text denoted.
"""

import re
from fractions import Fraction

# Largest decimal exponent read, the size of CPython's default int/str digit
# limit: Fraction builds 10**exponent in full, so "1e9999999" would take
# seconds and a larger exponent all time and memory.
MAX_DECIMAL_EXPONENT = 4300

_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\s*\Z")


def parse_rational(value) -> Fraction:
    """Accept int, Fraction, or a "p/q" / "n" / decimal string; reject floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ValueError(
            f"float {value!r} rejected; use a p/q or decimal string"
        )
    if isinstance(value, str):
        exponent = ("e" in value or "E" in value) and _EXPONENT.search(value)
        if exponent:
            digits = exponent.group(1).replace("_", "").lstrip("0")
            if (len(digits) > len(str(MAX_DECIMAL_EXPONENT))
                    or int(digits or 0) > MAX_DECIMAL_EXPONENT):
                raise ValueError(
                    f"decimal exponent in {value[:40]!r} exceeds "
                    f"MAX_DECIMAL_EXPONENT = {MAX_DECIMAL_EXPONENT}")
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise ValueError(f"not a rational: {value!r}")


def rational_reader():
    """`read` for one document: parse_rational(v), or v itself when that
    raises, for the constructor given v to refuse after its own earlier
    checks.  Only strings are memoised (True and 1 stay apart, unhashables
    go to parse_rational), so each distinct string is parsed once."""
    memo = {}

    def read(value):
        q = memo.get(value) if isinstance(value, str) else None
        if q is None:
            try:
                q = parse_rational(value)
            except ValueError:
                q = value
            if isinstance(value, str):
                memo[value] = q
        return q
    return read


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
