"""Fuzz of the CLI's exit-code contract over generated scenario files.

Each example is a scenario of up to 5 loads with periods of at most 20
ticks. Most fields hold valid values; some are replaced by hostile ones
(booleans, nulls, negatives, NaN, malformed or zero-denominator "p/q"
strings, exponents and digit counts at and beyond their bounds), dropped,
or joined by unknown keys. Every subcommand must then exit with a
documented code and, on failure, print exactly one `error:` line.
"""
import contextlib
import gc
import io
import json
import re
import tempfile
from fractions import Fraction

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pulsesched.cli import main
from pulsesched.ticks import MAX_DIGITS, MAX_EXPONENT

PERIODS = (1, 2, 3, 4, 5, 6, 10, 12, 20)  # ticks
LOAD_KEYS = ("id", "amplitude_a", "frequency_hz", "duty_pct", "phase_s", "voltage_v", "soc_pct")
RAW = re.compile(r'"@raw:([^"]*)@"')


def raw(token: str) -> str:
    """A JSON number token that json.dumps cannot write, such as 1e5000."""
    return f"@raw:{token}@"


def quantity(value: Fraction):
    """`value` as a JSON number or as an exact string, in one of several spellings."""
    if value.denominator == 1:
        return st.sampled_from((int(value), str(value), f"{value}e0"))
    return st.just(f"{value.numerator}/{value.denominator}")


# valid quantities at the bounds of ticks.MAX_DIGITS and ticks.MAX_EXPONENT
EXTREME = st.sampled_from(
    (
        "9" * MAX_DIGITS + f"e{MAX_EXPONENT}",
        raw("9" * MAX_DIGITS + f"e{MAX_EXPONENT}"),
        "0." + "0" * (MAX_DIGITS - 2) + f"1e-{MAX_EXPONENT}",
        "9" * MAX_DIGITS + "/" + "7" * MAX_DIGITS,
        raw("9" * MAX_DIGITS),
    )
)
HOSTILE = st.one_of(
    EXTREME,
    st.sampled_from(
        (
            True,
            False,
            None,
            "NaN",
            "-inf",
            raw("NaN"),
            raw("-Infinity"),
            "",
            "abc",
            "1/0",
            "-3/4",
            "1//2",
            [],
            {},
            [1],
            {"a": 1},
            -2.5,
            "1e5000",
            raw("1e5000"),
            f"1e-{MAX_EXPONENT + 1}",
            "1" + "0" * MAX_DIGITS,
            raw("1" + "0" * MAX_DIGITS),
            raw("1" + "0" * 4000 + "e300"),
            "1/" + "3" * (MAX_DIGITS + 1),
        )
    ),
    st.text(max_size=6),
    st.integers(-3, 0),
)


@st.composite
def amount(draw, value: Fraction):
    """`value`, or in about one draw of eight a valid quantity at the bounds."""
    return draw(EXTREME if draw(st.integers(0, 7)) == 0 else quantity(value))


@st.composite
def valid_load(draw, k: int, powered: bool) -> dict:
    period = draw(st.sampled_from(PERIODS))
    on = draw(st.integers(1, period))
    load = {
        "id": draw(st.sampled_from((k + 1, f"L{k + 1}"))),
        "amplitude_a": draw(amount(Fraction(draw(st.integers(1, 40)), draw(st.sampled_from((1, 2, 3)))))),
        "frequency_hz": draw(quantity(Fraction(10**6, period))),
        "duty_pct": draw(quantity(Fraction(100 * on, period))),
        "phase_s": draw(quantity(Fraction(draw(st.integers(0, 3 * period)), 10**6))),
    }
    if powered:
        load["voltage_v"] = draw(amount(Fraction(draw(st.integers(1, 800)))))
        load["soc_pct"] = draw(quantity(Fraction(draw(st.integers(0, 100)))))
    return load


@st.composite
def scenarios(draw) -> str:
    """A valid scenario in half the examples; else one or two fields spoilt."""
    powered = draw(st.sampled_from((True, True, True, False)))
    n = draw(st.integers(1, 5))
    loads = [draw(valid_load(k, powered)) for k in range(n)]
    doc: dict = {"loads": loads}
    if powered:
        doc["power"] = {"p_max_w": draw(amount(Fraction(draw(st.integers(1, 5000)))))}
        if draw(st.booleans()):
            doc["power"]["mode"] = draw(st.sampled_from(("amplitude", "duty")))
    if draw(st.booleans()):
        doc["sim"] = {"emit_csv": draw(st.booleans()), "emit_svg": draw(st.booleans())}
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        load = loads[draw(st.integers(0, n - 1))]
        key = draw(st.sampled_from(LOAD_KEYS))
        spoil = draw(st.sampled_from(("value", "value", "value", "drop", "unknown", "power", "top")))
        if spoil == "value":
            load[key] = draw(HOSTILE)
        elif spoil == "drop":
            load.pop(key, None)
        elif spoil == "unknown":
            load["colour"] = "red"
        elif spoil == "power":
            doc["power"] = {"p_max_w": draw(HOSTILE), "mode": draw(st.sampled_from(("duty", "both", None)))}
        else:
            doc[draw(st.sampled_from(("loads", "sim", "extra")))] = draw(HOSTILE)
    return RAW.sub(lambda m: m[1], json.dumps(doc))


@seed(20267)
@settings(max_examples=200, deadline=None, database=None)
@given(scenarios())
def test_every_subcommand_keeps_the_exit_code_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/fuzz.json"
        with open(path, "w") as handle:
            handle.write(text)
        for command in ("simulate", "schedule", "plan-power"):
            err = io.StringIO()
            collecting = gc.isenabled()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, path, "--out", tmp])
            assert gc.isenabled() == collecting, command  # main leaves the collector as it found it
            assert code in (0, 2, 3, 4), (command, code)
            if code == 0:
                assert err.getvalue() == "", command
            else:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), (command, lines)


def test_the_contract_holds_with_the_collector_disabled_beforehand():
    """main pauses the collector and restores the state it found: here, disabled."""
    gc.disable()
    try:
        test_every_subcommand_keeps_the_exit_code_contract()
        assert not gc.isenabled()
    finally:
        gc.enable()
