"""Integer-microsecond time base.

All time quantities (periods, pulse widths, phases, hyperperiods) are plain
ints counting 1 µs ticks, so LCMs, overlap decisions, and modular phase
arithmetic are exact. Values that do not land on the tick grid are rejected,
never rounded.
"""
from __future__ import annotations

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
    """The exact value of quantity text as integers (num, den), den > 0.

    Plain "d", "d.d" and "d/d" are read directly, not reduced. Other text is
    read by Fraction(text) itself, as the running Python reads it (a sign, "_"
    between digits, whitespace, decimals, exponents, "p/q"), and comes back
    reduced. Returns None for text Fraction refuses and for a zero
    denominator. Text whose decimal exponent or digit count is out of bounds
    raises bounded_text's ValueError first, before any number is built.
    """
    if len(text) <= MAX_DIGITS:  # plain "d", "d.d" or "d/d" is read without Fraction:
        if text.isdecimal():  # isdecimal takes the Unicode Nd digits that Fraction's \d takes
            return int(text), 1
        head, dot, tail = text.partition(".")
        if dot and head.isdecimal() and tail.isdecimal():
            return int(head + tail), 10 ** len(tail)
        head, slash, tail = text.partition("/")
        if slash and head.isdecimal() and tail.isdecimal():
            den = int(tail)
            return (int(head), den) if den else None
    bounded_text(text)
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None
    return value.numerator, value.denominator


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

    Each run of ticks within one whole second, of at most 1024 so that the
    temporaries stay small, is one "%" call over a template of f"{whole}.%06d"
    lines, split once and stripped of trailing zeros; only a run's first ticks
    can be the whole second itself.
    """
    texts: list[str] = []
    start, count = 0, len(ticks)
    while start < count:
        whole = ticks[start] // TICKS_PER_SECOND
        base = whole * TICKS_PER_SECOND
        stop = bisect_left(ticks, base + TICKS_PER_SECOND, start + 1, min(count, start + 1024))
        # below 1 s a tick is its own offset, the subtraction skipped there wins
        # paired simulate-sweep runs (BENCH_13.json); a tuple grown from an
        # iterator is resized, which fills the free lists of small tuples
        offsets = tuple([*map(base.__rsub__, ticks[start:stop])] if base else ticks[start:stop])
        lines = (f"{whole}.%06d\n" * (stop - start) % offsets).splitlines()
        texts += map(str.rstrip, lines, repeat("0"))
        if ticks[start] == base:
            end = bisect_right(ticks, base, start + 1, stop)
            texts[start:end] = [str(whole)] * (end - start)
        start = stop
    return texts
