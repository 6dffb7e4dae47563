"""Parsing and formatting of exact rationals for file formats and the CLI.

Rationals travel as ``"p/q"`` strings (bare integers and decimal text
allowed, read exactly).  Python floats are rejected everywhere: a float has
already lost the value its text denoted.
"""

from fractions import Fraction


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
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise ValueError(f"not a rational: {value!r}")


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
