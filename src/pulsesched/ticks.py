"""Integer-microsecond time base.

All time quantities (periods, pulse widths, phases, hyperperiods) are plain
ints counting 1 µs ticks, so LCMs, overlap decisions, and modular phase
arithmetic are exact. Values that do not land on the tick grid are rejected,
never rounded.
"""
from __future__ import annotations

import re
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .errors import NonRepresentableTimeError

TICKS_PER_SECOND = 10**6

# Documented tick range; hyperperiods beyond this raise instead of grinding.
MAX_TICK = 2**63 - 1


# Largest decimal exponent a quantity may carry, and most digits its
# mantissa or either side of its "p/q" may have, checked on its text before a
# Fraction is built: Fraction("1e3000000") alone takes about 1 s, and Python
# refuses to print an int of more than 4300 digits. A value at both bounds
# still prints.
MAX_EXPONENT = 1000
MAX_DIGITS = 1000
_EXPONENT = re.compile(r"e[-+]?0*(\d+)", re.IGNORECASE)


def bounded_text(text: str) -> str:
    """`text` itself, unless its decimal exponent or digit count is out of bounds (ValueError)."""
    plain = text.replace("_", "")
    match = _EXPONENT.search(plain)
    if match and (len(match[1]) > len(str(MAX_EXPONENT)) or int(match[1]) > MAX_EXPONENT):
        raise ValueError(f"exponent of {text[:40]!r} lies beyond ±{MAX_EXPONENT}")
    if len(plain) > MAX_DIGITS:
        mantissa = plain[: match.start()] if match else plain
        if any(sum(map(str.isdigit, side)) > MAX_DIGITS for side in mantissa.split("/")):
            raise ValueError(f"{text[:40]!r}... has more than {MAX_DIGITS} digits")
    return text


def as_fraction(value) -> Fraction:
    """Coerce an exact numeric input (int, str, Decimal, Fraction) to Fraction.

    Floats are refused: a literal like 0.65 is not the rational 65/100 once
    it has been through binary floating point. The text of a str or Decimal
    must pass `bounded_text`, so no input grinds before it is refused.
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
    # a Decimal is checked in scientific form, whose digits are its own
    text = bounded_text(format(value, "e") if isinstance(value, Decimal) else str(value))
    try:
        return Fraction(value if isinstance(value, Decimal) else Decimal(text))
    except (InvalidOperation, ValueError, OverflowError) as exc:
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
