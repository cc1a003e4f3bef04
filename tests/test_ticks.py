"""Exact coercion of numeric inputs, the quantity parser, and their size bound."""
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from pulsesched import (
    adjust_waveform,
    NonRepresentableTimeError,
    PulseSpec,
    prioritize_and_admit,
    ticks_from_seconds,
)
from pulsesched.ticks import (
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_TICK,
    TICKS_PER_SECOND,
    as_fraction,
    bounded_text,
    parse_ratio,
    seconds_str,
    seconds_strs,
)

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
        adjust_waveform(PulseSpec(1, 1, 10, 5), "1e-999999999")
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


SPACES = st.sampled_from(("", " ", "\t", "\n", "\xa0"))
SIGNS = st.sampled_from(("", "+", "-"))
# "/" with spaces around it, which Fraction reads from 3.12 on
SLASHES = st.sampled_from(("/", "/", " / ", "/ "))


@st.composite
def digits(draw, max_size: int = 6) -> str:
    """A digit run, at times with "_" between digits, at times at the digit bound."""
    near_bound = draw(st.integers(0, 5)) == 0
    sizes = st.sampled_from((MAX_DIGITS, MAX_DIGITS + 1)) if near_bound else st.integers(1, max_size)
    size = draw(sizes)
    run = draw(st.text("0123456789", min_size=size, max_size=size))
    cut = draw(st.integers(0, size))
    return run[:cut] + draw(st.sampled_from(("", "", "_", "__"))) + run[cut:] if cut else run


@st.composite
def exponents(draw) -> str:
    """"" or an exponent near ±MAX_EXPONENT or small, at times zero-padded or underscored."""
    if draw(st.booleans()):
        return ""
    value = draw(st.one_of(st.integers(0, 12), st.integers(MAX_EXPONENT - 2, MAX_EXPONENT + 2)))
    text = draw(st.sampled_from(("", "0", "000"))) + str(value)
    if draw(st.integers(0, 5)) == 0:
        text = text[:1] + "_" + text[1:]
    return draw(st.sampled_from("eE")) + draw(SIGNS) + text


@st.composite
def quantity_texts(draw) -> str:
    """Text in and around Fraction's grammar: decimals, exponents, "p/q", and noise."""
    kind = draw(st.sampled_from(("decimal", "ratio", "noise")))
    if kind == "noise":
        return draw(st.text("0123456789._eE+-/ d١x", max_size=8))
    if kind == "ratio":
        body = draw(digits()) + draw(SLASHES) + draw(digits())
    else:
        whole = draw(st.one_of(st.just(""), digits()))
        point = draw(st.sampled_from(("", ".")))
        body = whole + point + (draw(st.one_of(st.just(""), digits())) if point else "")
        body += draw(exponents())
    return draw(SPACES) + draw(SIGNS) + body + draw(SPACES)


def before(text):
    """How `text` read before parse_ratio: bounded_text's refusal, then Fraction's."""
    try:
        bounded_text(text)
    except ValueError as exc:
        return "bound", str(exc)
    try:
        return "value", Fraction(text)
    except (ValueError, ZeroDivisionError):
        return "refused", None


def now(text):
    try:
        ratio = parse_ratio(text)
    except ValueError as exc:
        return "bound", str(exc)
    if ratio is None:
        return "refused", None
    assert ratio[1] > 0
    return "value", Fraction(*ratio)


@seed(20612)
@settings(max_examples=600, deadline=None, database=None)
@given(quantity_texts())
@example(" 1 / 2 ")  # spaces around "/": read from 3.12 on, refused before
def test_parse_ratio_reads_what_fraction_reads(text):
    expected = before(text)
    assert now(text) == expected
    # as_fraction reads the same text, except that it refuses "p/q"
    try:
        got = "value", as_fraction(text)
    except ValueError as exc:
        got = "error", str(exc)
    if expected[0] == "bound":
        assert got == ("error", expected[1])
    elif expected[0] == "refused" or "/" in text:
        assert got == ("error", f"cannot parse {text!r} as an exact number")
    else:
        assert got == expected


# digit alphabets of the plain texts: ASCII, Nd digits of other scripts, and
# characters that isdigit() or int() take but Fraction's \d does not
PLAIN_ALPHABETS = ("0123456789", "0123456789٠٣٩०५९０９", "19²", "19_")


@st.composite
def plain_texts(draw) -> str:
    """Text at the edges of parse_ratio's plain path: "d", "d.d" and "d/d" and their near
    misses (".5", "5.", "5/", signs, spaces), some at or one past MAX_DIGITS characters."""
    alphabet = draw(st.sampled_from(PLAIN_ALPHABETS))
    sep = draw(st.sampled_from(("", ".", "/")))
    tail = draw(st.text(alphabet, max_size=3)) if sep else ""
    if draw(st.integers(0, 3)) == 0:  # the whole text at, or one past, the length bound
        size = draw(st.sampled_from((MAX_DIGITS, MAX_DIGITS + 1))) - len(sep) - len(tail)
    else:
        size = draw(st.integers(0, 4))
    head = draw(st.text(alphabet, min_size=size, max_size=size))
    return draw(st.sampled_from(("", "", "-", "+", " "))) + head + sep + tail


@seed(20616)
@settings(max_examples=400, deadline=None, database=None)
@given(plain_texts())
@example("0/0")
@example("1/0")
@example(".5")
@example("5.")
@example("²")
@example("1²/2")
@example("٣.٥")
@example("1" * MAX_DIGITS)
@example("1" * (MAX_DIGITS + 1))
@example("1" * (MAX_DIGITS // 2) + "." + "1" * (MAX_DIGITS // 2))
def test_plain_texts_read_what_fraction_reads(text):
    assert now(text) == before(text)


@pytest.mark.parametrize(
    "text, value",
    [
        (" -1_000.5e-3 ", Fraction(-10005, 10000)),
        ("+.5E+1", Fraction(5)),
        ("١٢", Fraction(12)),
        ("7/21", Fraction(1, 3)),
        ("1" + "0" * (MAX_DIGITS - 1) + f"e{MAX_EXPONENT}", Fraction(10) ** 1999),
    ],
    ids=["underscored", "point-first", "arabic-indic", "ratio", "both-bounds"],
)
def test_parse_ratio_values(text, value):
    if "_" in text and sys.version_info < (3, 11):
        pytest.skip("Fraction reads underscores from 3.11 on")
    assert Fraction(*parse_ratio(text)) == value == Fraction(text)


@pytest.mark.parametrize("text", ["", ".", "1/0", " 1/0 ", "1.2/3", "0x10", "1e", "inf", "1 2", "1.d"])
def test_parse_ratio_refusals_are_none(text):
    assert parse_ratio(text) is None


@pytest.mark.parametrize("text", ["_1", "1_", "1__0", "2E_0"])
def test_as_fraction_refuses_misplaced_underscores(text):
    # Decimal's parser drops them; Fraction's grammar, which as_fraction now reads, does not
    with pytest.raises(ValueError, match="cannot parse"):
        as_fraction(text)


HUGE = Fraction(1, 10**5000)


@pytest.mark.parametrize(
    "value, written",
    [
        (Fraction(1, 3), "1/3 s"),
        (Decimal("0.0000005"), "5E-7 s"),
        (" 0.0000005 ", "0.0000005 s"),
        ("\t0.0000005\n", "0.0000005 s"),
        # Python 3.11+ refuses to print an int of more than 4300 digits; 3.10 prints it
        (HUGE, "a 1-bit / 16610-bit Fraction" if hasattr(sys, "get_int_max_str_digits") else f"{HUGE} s"),
    ],
    ids=["Fraction", "Decimal", "spaces", "tab-newline", "beyond-str-digits"],
)
def test_off_grid_seconds_are_named_as_written(value, written):
    message = f"{written} is not a whole number of 1 µs ticks"
    with pytest.raises(NonRepresentableTimeError) as info:
        ticks_from_seconds(value)
    assert str(info.value) == message
    with pytest.raises(NonRepresentableTimeError) as info:
        PulseSpec.from_seconds(1, 1, "1", value)
    assert str(info.value) == message


S = TICKS_PER_SECOND


@st.composite
def sorted_ticks(draw) -> list[int]:
    """Sorted ticks up to MAX_TICK in runs, each run within one whole second.

    Runs sit on neighbouring seconds or far apart, start at 0 or near the top
    of the tick range, and at times hold the whole second itself, repeated,
    or its last ticks.
    """
    second = draw(st.sampled_from((0, 0, 1, 10**6, MAX_TICK // S - 2)))
    offsets = st.one_of(st.just(0), st.integers(S - 2, S - 1), st.integers(0, S - 1))
    ticks: list[int] = []
    for _ in range(draw(st.integers(0, 4))):
        run = draw(st.lists(offsets, max_size=40))
        ticks += (t for t in sorted(second * S + o for o in run) if t <= MAX_TICK)
        second += draw(st.sampled_from((1, 1, 2, 10**3, 10**9)))
    return ticks


@seed(20613)
@settings(max_examples=400, deadline=None, database=None)
@given(sorted_ticks())
@example([])
@example([0, S, 2 * S])
@example([0, 0, S, S, S + 1, 2 * S, 2 * S])
@example([S - 1, S, S + 1] + [3 * S + k for k in range(40)])
@example(list(range(S - 20, S + 20)))
@example([MAX_TICK - 1, MAX_TICK])
@example([S])
@example([123])
@example(list(range(5 * S, 5 * S + 10_000, 2)))  # a long run from a whole second
@example([S + 1 + 3 * k for k in range(5000)])
@example([k * S + k for k in range(1, 400)])  # one tick in each of many seconds
@example([k * 10**9 * S + 7 for k in range(50)])
@example([2**1000 * S, 2**1000 * S + 1, 2**1001 * S + 500_000])  # past 2**1000
def test_seconds_strs_is_seconds_str_in_bulk(ticks):
    assert seconds_strs(ticks) == list(map(seconds_str, ticks))
