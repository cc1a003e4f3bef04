"""Integer-microsecond time base.

All time quantities (periods, pulse widths, phases, hyperperiods) are plain
ints counting 1 µs ticks, so LCMs, overlap decisions, and modular phase
arithmetic are exact. Values that do not land on the tick grid are rejected,
never rounded.
"""
from __future__ import annotations

from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .errors import NonRepresentableTimeError

TICKS_PER_SECOND = 10**6

# Documented tick range; hyperperiods beyond this raise instead of grinding.
MAX_TICK = 2**63 - 1


def as_fraction(value) -> Fraction:
    """Coerce an exact numeric input (int, str, Decimal, Fraction) to Fraction.

    Floats are refused: a literal like 0.65 is not the rational 65/100 once
    it has been through binary floating point.
    """
    if isinstance(value, (bool, float)):
        raise ValueError(
            f"refusing inexact {type(value).__name__} {value!r}; "
            "pass a str, int, Decimal, or Fraction"
        )
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    try:
        if isinstance(value, Decimal):
            return Fraction(value)
        return Fraction(Decimal(str(value)))
    except (InvalidOperation, ValueError) as exc:
        raise ValueError(f"cannot parse {value!r} as an exact number") from exc


def ticks_from_seconds(value) -> int:
    """Convert a duration in seconds to ticks, exactly or not at all."""
    try:
        frac = as_fraction(value) * TICKS_PER_SECOND
    except ValueError as exc:
        raise NonRepresentableTimeError(str(exc)) from exc
    if frac.denominator != 1:
        raise NonRepresentableTimeError(f"{value!r} s is not a whole number of 1 µs ticks")
    return frac.numerator


def seconds_str(ticks: int) -> str:
    """Render ticks as a canonical decimal seconds string (≤ 6 fractional digits)."""
    sign = "-" if ticks < 0 else ""
    whole, frac = divmod(abs(ticks), TICKS_PER_SECOND)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:06d}".rstrip("0")
