"""Integer-microsecond time base.

All time quantities (periods, pulse widths, phases, hyperperiods) are plain
ints counting 1 µs ticks, so LCMs, overlap decisions, and modular phase
arithmetic are exact. Values that do not land on the tick grid are rejected,
never rounded.
"""
from __future__ import annotations

import fractions
import re
from bisect import bisect_left, bisect_right
from decimal import Decimal
from fractions import Fraction
from itertools import repeat

from .errors import NonRepresentableTimeError

TICKS_PER_SECOND = 10**6

# Documented tick range; hyperperiods beyond this raise instead of grinding.
MAX_TICK = 2**63 - 1


# Largest decimal exponent a quantity may carry, and most digits its
# mantissa or either side of its "p/q" may have, checked on its text before a
# number is built: Fraction("1e3000000") alone takes about 1 s, and Python
# refuses to print an int of more than 4300 digits. A value at both bounds
# still prints.
MAX_EXPONENT = 1000
MAX_DIGITS = 1000
_EXPONENT = re.compile(r"e[-+]?0*(\d+)", re.IGNORECASE)

# Fraction's own pattern, so parse_ratio accepts exactly the text Fraction(text)
# accepts on every Python version: underscores came in 3.11, spaces around "/"
# in 3.12.
_QUANTITY = fractions._RATIONAL_FORMAT


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


def parse_ratio(text: str) -> tuple[int, int] | None:
    """The exact value of quantity text as integers (num, den), den > 0, not reduced.

    Reads what Fraction(text) reads: a sign, "_" between digits, surrounding
    whitespace, decimals, exponents and "p/q". Returns None for any other
    text and for a zero denominator. Text whose decimal exponent or digit
    count is out of bounds raises bounded_text's ValueError first, before
    any number is built.
    """
    match = _QUANTITY.match(text)
    # text without an exponent and within MAX_DIGITS characters is in bounds
    if match is None or match["exp"] or len(text) > MAX_DIGITS:
        bounded_text(text)
        if match is None:
            return None
    sign, num, den, decimal, exp = match.group("sign", "num", "denom", "decimal", "exp")
    try:
        num = int(num or "0")
        if den:
            den = int(den)
            if den == 0:
                return None
        else:
            den = 1
            if decimal:
                decimal = decimal.replace("_", "")
                den = 10 ** len(decimal)
                num = num * den + int(decimal)
            if exp:
                exp = int(exp)
                if exp >= 0:
                    num *= 10**exp
                else:
                    den *= 10**-exp
    except ValueError:
        # 3.11's pattern lets a run of "d" through as the fractional part
        return None
    return (-num if sign == "-" else num), den


def as_fraction(value) -> Fraction:
    """Coerce an exact numeric input (int, str, Decimal, Fraction) to Fraction.

    Floats are refused: a literal like 0.65 is not the rational 65/100 once
    it has been through binary floating point. A str is read by
    `parse_ratio`, except "p/q", and a Decimal by its scientific form, whose
    digits are its own; so no input grinds before it is refused.
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
    text = format(value, "e") if isinstance(value, Decimal) else str(value)
    ratio = parse_ratio(text)
    if ratio is None or "/" in text:
        raise ValueError(f"cannot parse {value!r} as an exact number")
    return Fraction(*ratio)


def ticks_from_seconds(value) -> int:
    """Convert a duration in seconds to ticks, exactly or not at all."""
    try:
        frac = as_fraction(value) * TICKS_PER_SECOND
    except ValueError as exc:
        raise NonRepresentableTimeError(str(exc)) from exc
    if frac.denominator != 1:
        # the value as written (a Fraction as p/q), whitespace collapsed onto one line
        try:
            written = " ".join(str(value).split()) + " s"
        except ValueError:  # by default str() prints no int of more than 4300 digits
            written = f"a {value.numerator.bit_length()}-bit / {value.denominator.bit_length()}-bit Fraction"
        raise NonRepresentableTimeError(f"{written} is not a whole number of 1 µs ticks")
    return frac.numerator


def seconds_str(ticks: int) -> str:
    """Render ticks as a canonical decimal seconds string (≤ 6 fractional digits)."""
    sign = "-" if ticks < 0 else ""
    whole, frac = divmod(abs(ticks), TICKS_PER_SECOND)
    return f"{sign}{whole}.{frac:06d}".rstrip("0").rstrip(".")


def seconds_strs(ticks: tuple[int, ...] | list[int]) -> list[str]:
    """list(map(seconds_str, ticks)) for sorted non-negative ticks, formatted in bulk.

    Each run of ticks within one whole second is formatted with that second's
    digits fixed in the format string and its offset as "%06d", then stripped
    of trailing zeros; only a run's first ticks can be the whole second itself.
    """
    texts: list[str] = []
    start, count = 0, len(ticks)
    while start < count:
        whole = ticks[start] // TICKS_PER_SECOND
        base = whole * TICKS_PER_SECOND
        stop = bisect_left(ticks, base + TICKS_PER_SECOND, start + 1)
        # below 1 s a tick is its own offset; the subtraction skipped there
        # wins paired simulate-sweep runs (BENCH_13.json)
        offsets = map(base.__rsub__, ticks[start:stop]) if base else ticks[start:stop]
        texts += map(str.rstrip, map(f"{whole}.%06d".__mod__, offsets), repeat("0"))
        if ticks[start] == base:
            end = bisect_right(ticks, base, start + 1, stop)
            texts[start:end] = [str(whole)] * (end - start)
        start = stop
    return texts
