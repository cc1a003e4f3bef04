"""Exact coercion of numeric inputs and its size bound."""
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from pulsesched import (
    AdjustmentRequest,
    NonRepresentableTimeError,
    PulseSpec,
    files,
    prioritize_and_admit,
    ticks_from_seconds,
)
from pulsesched.ticks import MAX_DIGITS, MAX_EXPONENT, as_fraction

OVERSIZED = {
    "str": "1e999999999",
    "Decimal": Decimal("1e999999999"),
    "str-": "1e-999999999",
    "Decimal-": Decimal("1e-999999999"),
    "digits": "1" + "0" * MAX_DIGITS,
    "Decimal-digits": Decimal("1" + "0" * MAX_DIGITS),
}


@pytest.mark.parametrize("value", OVERSIZED.values(), ids=OVERSIZED.keys())
def test_oversized_input_refused_within_one_second(value):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        as_fraction(value)
    assert time.perf_counter() - start < 1.0


def test_library_entry_points_refuse_oversized_inputs_at_once():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exponent"):
        PulseSpec(1, "1e2000000", 10, 5)
    with pytest.raises(ValueError, match="exponent"):
        AdjustmentRequest("1e-999999999")
    with pytest.raises(ValueError, match="exponent"):
        prioritize_and_admit([PulseSpec(1, 1, 10, 5, voltage=1, soc=0)], "1e999999999")
    with pytest.raises(NonRepresentableTimeError, match="exponent"):
        ticks_from_seconds("1e999999999")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "value",
    [
        f"1e{MAX_EXPONENT}",
        f"1e-{MAX_EXPONENT}",
        "9" * MAX_DIGITS + f"e{MAX_EXPONENT}",
        Decimal("9" * MAX_DIGITS + f"e-{MAX_EXPONENT}"),
        Decimal("2.5E+3"),
        "0.65",
    ],
    ids=["str", "str-", "both-bounds", "Decimal-both-bounds", "Decimal", "plain"],
)
def test_values_inside_the_bound_parse_exactly(value):
    text = str(value)
    mantissa, _, exponent = text.lower().partition("e")
    expected = Fraction(mantissa) * Fraction(10) ** int(exponent or 0)
    assert as_fraction(value) == expected


@pytest.mark.parametrize("value", ["inf", Decimal("Infinity"), "nan", "1/3"])
def test_non_finite_or_non_decimal_text_is_a_value_error(value):
    with pytest.raises(ValueError, match="cannot parse"):
        as_fraction(value)


def test_scenario_bounds_are_the_tick_bounds():
    assert (files.MAX_EXPONENT, files.MAX_DIGITS) == (MAX_EXPONENT, MAX_DIGITS)
