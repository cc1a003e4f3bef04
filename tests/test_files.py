"""Scenario ingestion, canonical formatting, and report writers."""
import contextlib
import io
import itertools
import json
import os
import random
import re
import stat
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from xml.dom import minidom

import pytest
from helpers import oracle_svg_points, oracle_waveform_csv, reference_module
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from pulsesched import (
    NoAdmissibleError,
    PulseSpec,
    ScenarioError,
    StepProfile,
    aggregate_profile,
    Metrics,
    PowerPlan,
    cli,
    enforce_limit,
    load_sort_key,
    prioritize_and_admit,
    schedule_fleet,
    seconds_str,
    ticks,
)
from pulsesched.files import (
    amount_str,
    exact_str,
    load_scenario,
    metrics_json,
    plan_json,
    scenario_json,
    schedule_json,
    waveform_csv,
    waveform_svg,
    write_text_atomic,
)
from pulsesched.power import MODES
from pulsesched.ticks import MAX_DIGITS

import pulsesched

SCENARIOS = Path(pulsesched.__file__).parent / "scenarios"


def write_scenario(tmp_path, text, name="sc.json") -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


def amplitude_scenario(tmp_path, raw: str) -> Path:
    """One 1 Hz load whose amplitude is the JSON text `raw`."""
    load = f'{{"id": 1, "amplitude_a": {raw}, "frequency_hz": 1, "duty_pct": 50}}'
    return write_scenario(tmp_path, f'{{"loads": [{load}]}}')


class TestFormatting:
    def test_amount_rounds_half_even_to_three_decimals(self):
        assert amount_str(Fraction(25, 3)) == "8.333"
        assert amount_str(Fraction(10)) == "10"
        assert amount_str(Fraction(5, 6)) == "0.833"
        assert amount_str(Fraction(1, 8)) == "0.125"
        assert amount_str(Fraction(25, 10000)) == "0.002"  # 0.0025 rounds to even
        assert amount_str(Fraction(3, 2000)) == "0.002"  # 0.0015 rounds to even, up
        assert amount_str(Fraction(-1, 2000)) == "0"  # -0.0005 rounds to 0, unsigned
        assert amount_str(Fraction(-1, 400)) == "-0.002"
        assert amount_str(Fraction(-7, 2)) == "-3.5"

    def test_exact_str_prefers_decimals(self):
        assert exact_str(Fraction(13, 20)) == "0.65"
        assert exact_str(Fraction(10)) == "10"
        assert exact_str(Fraction(10, 3)) == "10/3"


class TestLoadScenario:
    def test_parses_numbers_and_strings_alike(self, tmp_path):
        path = write_scenario(
            tmp_path,
            '{"loads": [{"id": 1, "amplitude_a": "10", "frequency_hz": 1, '
            '"duty_pct": 50, "phase_s": 0.65}]}',
        )
        sc = load_scenario(path)
        assert sc.loads[0].phase == 650000
        assert sc.loads[0].amplitude == 10
        assert type(sc.loads[0].id) is int  # an integer token is an int id

    def test_rational_strings_ingest_exactly(self, tmp_path):
        path = write_scenario(
            tmp_path,
            '{"loads": [{"id": 1, "amplitude_a": 10, "frequency_hz": "10/3", "duty_pct": 50}]}',
        )
        sc = load_scenario(path)
        assert sc.loads[0].period == 300000

    def test_phase_beyond_period_reduced(self, tmp_path):
        path = write_scenario(
            tmp_path,
            '{"loads": [{"id": 1, "amplitude_a": 10, "frequency_hz": 5, '
            '"duty_pct": 50, "phase_s": 0.84}]}',
        )
        assert load_scenario(path).loads[0].phase == 40000

    def test_duplicate_id_anchored_error(self, tmp_path):
        path = write_scenario(
            tmp_path,
            '{"loads": [{"id": 1, "amplitude_a": 1, "frequency_hz": 1, "duty_pct": 50},'
            '{"id": 1, "amplitude_a": 1, "frequency_hz": 1, "duty_pct": 50}]}',
        )
        with pytest.raises(ScenarioError, match=r"loads\[1\]\.id"):
            load_scenario(path)

    def test_offgrid_frequency_rejected(self, tmp_path):
        path = write_scenario(
            tmp_path,
            '{"loads": [{"id": 1, "amplitude_a": 1, "frequency_hz": 3, "duty_pct": 50}]}',
        )
        with pytest.raises(ScenarioError, match="frequency_hz"):
            load_scenario(path)

    def test_offgrid_duty_rejected(self, tmp_path):
        path = write_scenario(
            tmp_path,
            '{"loads": [{"id": 1, "amplitude_a": 1, "frequency_hz": 1, "duty_pct": "1/3"}]}',
        )
        with pytest.raises(ScenarioError, match="duty_pct"):
            load_scenario(path)

    def test_duty_out_of_range_rejected(self, tmp_path):
        path = write_scenario(
            tmp_path,
            '{"loads": [{"id": 1, "amplitude_a": 1, "frequency_hz": 1, "duty_pct": 120}]}',
        )
        with pytest.raises(ScenarioError, match="duty_pct"):
            load_scenario(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_scenario(
            tmp_path,
            '{"loads": [{"id": 1, "amplitude_a": 1, "frequency_hz": 1, "duty_pct": 50, "oops": 1}]}',
        )
        with pytest.raises(ScenarioError, match="oops"):
            load_scenario(path)

    def test_syntax_error_carries_line_number(self, tmp_path):
        path = write_scenario(tmp_path, '{"loads": [\n  {"id" 1}\n]}')
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(path)

    def test_power_and_sim_blocks(self, tmp_path):
        path = write_scenario(
            tmp_path,
            '{"loads": [{"id": 1, "amplitude_a": 1, "frequency_hz": 1, "duty_pct": 50}],'
            ' "power": {"p_max_w": 900, "mode": "duty"}, "sim": {"emit_csv": true}}',
        )
        sc = load_scenario(path)
        assert sc.p_max_w == 900
        assert sc.power_mode == "duty"
        assert sc.emit_csv and not sc.emit_svg

    @pytest.mark.parametrize(
        "raw", ['"1e5000"', "1e5000", '"1E+1_001"', '"1e-5000"', "1.5e-1001", '"1e0000000000005000"']
    )
    def test_exponent_beyond_the_bound_rejected(self, tmp_path, raw):
        sc = amplitude_scenario(tmp_path, raw)
        with pytest.raises(ScenarioError, match=r"loads\[0\]\.amplitude_a: exponent"):
            load_scenario(sc)

    @pytest.mark.parametrize("raw", ['"1e999999999"', "1e999999999"])
    def test_huge_exponent_rejected_at_once(self, tmp_path, raw):
        sc = amplitude_scenario(tmp_path, raw)
        start = time.perf_counter()
        with pytest.raises(ScenarioError, match="exponent"):
            load_scenario(sc)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("raw", ['"1e1000"', "1e-1000", '"2.5E+3"'])
    def test_exponent_within_the_bound_parses_exactly(self, tmp_path, raw):
        sc = amplitude_scenario(tmp_path, raw)
        assert load_scenario(sc).loads[0].amplitude == Fraction(raw.strip('"'))

    @pytest.mark.parametrize(
        "raw",
        [
            '"1' + "0" * MAX_DIGITS + 'e300"',
            "1" + "0" * MAX_DIGITS + "e300",
            "1" + "0" * MAX_DIGITS,
            '"1/3' + "0" * MAX_DIGITS + '"',
            '"1_' + "0" * MAX_DIGITS + '/3"',
            '"0.' + "0" * MAX_DIGITS + '1"',
        ],
        ids=["string-e300", "number-e300", "integer", "denominator", "underscored", "fraction-digits"],
    )
    def test_digits_beyond_the_bound_rejected(self, tmp_path, raw):
        sc = amplitude_scenario(tmp_path, raw)
        with pytest.raises(ScenarioError, match=r"loads\[0\]\.amplitude_a: .*digits"):
            load_scenario(sc)

    @pytest.mark.parametrize(
        "raw",
        [
            '"' + "9" * MAX_DIGITS + 'e1000"',
            "9" * MAX_DIGITS,
            '"' + "9" * MAX_DIGITS + "/" + "7" * MAX_DIGITS + '"',
        ],
        ids=["string-e1000", "integer", "ratio"],
    )
    def test_digits_within_the_bound_parse_exactly(self, tmp_path, raw):
        sc = amplitude_scenario(tmp_path, raw)
        assert load_scenario(sc).loads[0].amplitude == Fraction(raw.strip('"'))

    def test_shipped_fixtures_parse(self):
        for name in (
            "scenario1_random.json",
            "scenario1_staggered.json",
            "scenario2_random.json",
            "scenario2_staggered.json",
            "power_demo.json",
        ):
            sc = load_scenario(SCENARIOS / name)
            assert len(sc.loads) >= 3


def scenario_with(load=None, **top) -> str:
    """A one-load scenario: `load` overrides the load's keys, `top` adds top-level blocks."""
    entry = {"id": 1, "amplitude_a": 2, "frequency_hz": 1, "duty_pct": 50, "phase_s": 0, **(load or {})}
    return json.dumps({"loads": [entry], **top})


REFUSALS = {
    "boolean quantity": (scenario_with({"amplitude_a": True}), "loads[0].amplitude_a: expected a number"),
    "unreadable path": (None, "missing.json: "),
    "top level not an object": ("[]", "sc.json: top level must be an object"),
    "load not an object": ('{"loads": [1]}', "loads[0]: must be an object"),
    "id neither int nor str": (scenario_with({"id": 1.5}), "loads[0].id: must be an integer"),
    "id spelled with an exponent": (
        scenario_with().replace('"id": 1,', '"id": 1e2,'), "loads[0].id: must be an integer"
    ),
    "id beyond the digit bound": (scenario_with({"id": 10**MAX_DIGITS}), "loads[0].id: "),
    "unparseable quantity": (
        scenario_with({"amplitude_a": "1.d"}), "loads[0].amplitude_a: cannot parse '1.d'"
    ),
    "array quantity": (scenario_with({"amplitude_a": [2]}), "loads[0].amplitude_a: expected a number"),
    "object duty": (scenario_with({"duty_pct": {"v": 50}}), "loads[0].duty_pct: expected a number"),
    "null voltage": (scenario_with({"voltage_v": None}), "loads[0].voltage_v: expected a number"),
    "frequency not positive": (scenario_with({"frequency_hz": 0}), "loads[0].frequency_hz: "),
    "phase off the tick grid": (scenario_with({"phase_s": "1/3"}), "loads[0].phase_s: "),
    "negative phase": (scenario_with({"phase_s": -1}), "loads[0].phase_s: must be non-negative"),
    "voltage not positive": (scenario_with({"voltage_v": 0}), "loads[0].voltage_v: must be positive"),
    "soc above 100": (scenario_with({"soc_pct": 101}), "loads[0].soc_pct: must lie in [0, 100]"),
    "malformed power block": (scenario_with(power=5), "power: must be an object"),
    "power without p_max_w": (scenario_with(power={}), "power.p_max_w: missing"),
    "unknown power mode": (scenario_with(power={"p_max_w": 10, "mode": "x"}), "power.mode: "),
    "malformed sim block": (scenario_with(sim=[]), "sim: must be an object"),
    "non-boolean sim flag": (scenario_with(sim={"emit_csv": 1}), "sim.emit_csv: must be a boolean"),
}


@pytest.mark.parametrize("text, where", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused_scenario_exits_2_naming_the_field_or_file(tmp_path, capsys, text, where):
    path = tmp_path / "missing.json" if text is None else write_scenario(tmp_path, text)
    assert cli.main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path.parent}") and err.count("\n") == 1
    assert where in err


class TestScenarioRoundTrip:
    def test_emitted_scenario_reingests_identically(self, tmp_path):
        specs = [
            PulseSpec(id=1, amplitude=Fraction(7, 3), period=300000, on_width=100000, phase=12345),
            PulseSpec(id=2, amplitude=10, period=1000000, on_width=650000, phase=0,
                      voltage=Fraction(399, 2), soc=Fraction(1, 3)),
        ]
        path = tmp_path / "emitted.json"
        path.write_text(scenario_json(specs, p_max_w=Fraction(1000), power_mode="amplitude"))
        sc = load_scenario(path)
        assert sc.loads == specs
        assert sc.p_max_w == 1000
        assert sc.power_mode == "amplitude"


S = ticks.TICKS_PER_SECOND


@st.composite
def step_profiles(draw):
    """Profiles at the writers' edges: thousands of breakpoints within one
    second or a few spread over many, one breakpoint, a first breakpoint past
    0 (the first stretch wraps from the last segment), and levels that are
    decimal or "p/q", negative, thinly spread over many amperes or past 2**1000.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    hyperperiod = draw(st.sampled_from((2, 7, S, 3 * S, 10**4 * S)))
    n = min(hyperperiod, draw(st.sampled_from((1, 2, 3, 5, 40, 5000))))
    if n == 1:
        bps = [0]
    else:
        second = rng.randrange(hyperperiod // S) * S if hyperperiod > S and draw(st.booleans()) else 0
        stop = min(hyperperiod, second + S) if second or draw(st.booleans()) else hyperperiod
        bps = sorted(rng.sample(range(second, stop), n))
        if draw(st.booleans()):
            bps[0] = 0
    den = draw(st.sampled_from((1, 10, S, 3, 7, 12)))
    low, high = draw(
        st.sampled_from(
            (
                (0, 2 * den),  # two amperes: at den 10**6, thousands of levels in one
                (0, 10**7 * den),  # thinly over many amperes
                (-50 * den, 50 * den),
                (2**1000 * den, 2**1010 * den),
            )
        )
    )
    size = max(3, n // draw(st.sampled_from((1, 4, 50))))
    pool = list({low, low + 1, low + 2, *(rng.randrange(low, high) for _ in range(size))})
    return StepProfile(hyperperiod, tuple(bps), _level_walk(rng, pool, n), den)


def _level_walk(rng, pool: list[int], n: int) -> tuple[int, ...]:
    """n levels drawn from a pool of at least 3, each unlike the one before it
    and the last unlike the first (a maximally merged profile)."""
    scaled: list[int] = []
    for k in range(n):
        banned = {scaled[-1], scaled[0]} if k == n - 1 and k else set(scaled[-1:])
        level = rng.choice(pool)
        while level in banned:
            level = rng.choice(pool)
        scaled.append(level)
    return tuple(scaled)


class TestWaveformExports:
    def test_csv_one_row_per_breakpoint(self):
        prof = aggregate_profile(
            [PulseSpec(id=1, amplitude=10, period=1000000, on_width=400000, phase=100000)]
        )
        text = waveform_csv(prof)
        lines = text.strip().splitlines()
        assert lines[0] == "t_s,i_total_a"
        assert len(lines) == 1 + len(prof.breakpoints)
        assert lines[1] == "0.1,10"

    def test_csv_integrates_exactly(self):
        specs = [
            PulseSpec(id=i, amplitude=10, period=1000000, on_width=w, phase=p)
            for i, (w, p) in enumerate([(500000, 650000), (800000, 830000), (300000, 930000)])
        ]
        prof = aggregate_profile(specs)
        rows = waveform_csv(prof).strip().splitlines()[1:]
        points = [(Fraction(t) , Fraction(level)) for t, level in (r.split(",") for r in rows)]
        total = Fraction(0)
        for k, (t, level) in enumerate(points):
            t_next = points[k + 1][0] if k + 1 < len(points) else points[0][0] + 1
            total += level * (t_next - t)
        expected = sum(Fraction(s.amplitude) * s.on_width for s in specs) / 10**6
        assert total == expected

    @pytest.mark.parametrize(
        "profile",
        [
            StepProfile(3 * 10**6, (0, 999_999, 10**6, 2_500_000), (-3, 5, 0, 12), 8),
            StepProfile(10, (0, 5), (1, 2), 3),
        ],
        ids=["negative-eighths", "thirds"],
    )
    def test_csv_rows_are_the_scalar_formatters(self, profile):
        rows = [
            f"{seconds_str(t)},{exact_str(Fraction(v, profile.denominator))}"
            for t, v in zip(profile.breakpoints, profile.scaled)
        ]
        assert waveform_csv(profile) == "t_s,i_total_a\n" + "\n".join(rows) + "\n"

    @seed(20624)
    @settings(max_examples=150, deadline=None, database=None)
    @given(step_profiles())
    @example(StepProfile(S, tuple(range(0, 21_000, 7)), tuple(range(3000)), S))  # 3000 levels under 1 A
    @example(  # a breakpoint every 3 s and a level every 0.7 A
        StepProfile(10**4 * S, tuple(range(0, 9000 * S, 3 * S + 1)), tuple(range(3, 2100 * S, 700_001)), S)
    )
    def test_writers_match_the_scalar_oracles(self, profile):
        assert waveform_csv(profile) == oracle_waveform_csv(profile)
        svg = waveform_svg(profile, "fleet")
        assert svg.split(' points="')[1].split('"')[0] == oracle_svg_points(profile)

    # the bounds sit 25 % above the peak-to-output ratios of writers that format
    # and join value by value: 8.7 (CSV) and 5.96 (SVG) on CPython 3.11
    @pytest.mark.parametrize(
        "writer, title, bound", [(waveform_csv, (), 10.9), (waveform_svg, ("fleet",), 7.45)], ids=["csv", "svg"]
    )
    def test_writer_peak_memory_is_bounded_by_its_output(self, writer, title, bound):
        rng = random.Random(24)
        bps = tuple(sorted(rng.sample(range(S), 10_000)))
        profile = StepProfile(S, bps, _level_walk(rng, rng.sample(range(5000), 1000), len(bps)), 10)
        tracemalloc.start()
        try:
            text = writer(profile, *title)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * len(text)

    def test_svg_is_a_single_polyline_step_chart(self):
        prof = aggregate_profile(
            [PulseSpec(id=1, amplitude=10, period=1000000, on_width=400000)]
        )
        svg = waveform_svg(prof, "demo")
        assert svg.count("<polyline") == 1
        assert svg.startswith("<svg")

    def test_svg_title_with_markup_characters_stays_well_formed(self):
        prof = aggregate_profile([PulseSpec(id=1, amplitude=10, period=1000, on_width=400)])
        doc = minidom.parseString(waveform_svg(prof, "a&b<c"))
        title = doc.getElementsByTagName("text")[0]
        assert title.firstChild.data == "a&b<c"


class TestAtomicWrite:
    def test_no_temp_residue(self, tmp_path):
        target = tmp_path / "x.json"
        write_text_atomic(target, "hello")
        write_text_atomic(target, "world")
        assert target.read_text() == "world"
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            write_text_atomic(tmp_path / "x.json", "lone surrogate \ud800")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("stage", ["create", "rename"])
    def test_os_error_names_the_target_not_the_temp_file(self, tmp_path, stage):
        target = tmp_path / "x.json"
        if stage == "create":
            target = tmp_path / "missing" / "x.json"
        else:
            target.mkdir()  # the temp file is written, and renaming it over a directory fails
        with pytest.raises(OSError) as info:
            write_text_atomic(target, "hello")
        assert info.value.filename == str(target)
        assert [p.name for p in tmp_path.iterdir()] == ([] if stage == "create" else ["x.json"])

    def test_writes_without_touching_the_umask(self, tmp_path, monkeypatch):
        # the umask is process-wide: setting it, even briefly, races other threads
        def refuse(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", refuse)
        write_text_atomic(tmp_path / "x.json", "hello")
        assert (tmp_path / "x.json").read_text() == "hello"
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_mode_follows_the_umask_like_a_plain_open(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            write_text_atomic(tmp_path / "x.json", "hello")
            with open(tmp_path / "plain.json", "w") as handle:
                handle.write("hello")
        finally:
            os.umask(old)
        mode = stat.S_IMODE((tmp_path / "x.json").stat().st_mode)
        assert mode == 0o666 & ~umask == stat.S_IMODE((tmp_path / "plain.json").stat().st_mode)


@pytest.mark.parametrize(
    "phase, written",
    [('"0.0000005"', "0.0000005"), ("0.0000005", "0.0000005"), ("5e-7", "5e-7"), ('" 1/3\\n"', "1/3")],
    ids=["string", "number", "exponent", "padded ratio"],
)
def test_offgrid_phase_names_the_value_as_written(tmp_path, capsys, phase, written):
    load = f'{{"id": 1, "amplitude_a": 1, "frequency_hz": 1, "duty_pct": 50, "phase_s": {phase}}}'
    path = write_scenario(tmp_path, f'{{"loads": [{load}]}}')
    assert cli.main(["simulate", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: loads[0].phase_s: {written} s is not a whole number of 1 µs ticks\n"
    )


ref_files = reference_module("files")
ref_power = reference_module("power")
ref_cli = reference_module("cli")
RAW = re.compile(r'"@raw:([^"]*)@"')
PERIODS = (1, 3, 7, 40, 1000, 2500, 62500, 10**6, 3 * 10**6)  # ticks


def decimal_text(value: Fraction) -> str | None:
    """`value` as a finite decimal string, or None when it has none."""
    for places in range(8):
        scaled = value * 10**places
        if scaled.denominator == 1:
            whole, frac = divmod(abs(scaled.numerator), 10**places)
            sign = "-" if value < 0 else ""
            return f"{sign}{whole}.{frac:0{places}d}" if places else f"{sign}{whole}"
    return None


@st.composite
def spelled(draw, value: Fraction):
    """`value` as a JSON number or string, in one of the spellings that Fraction reads."""
    text = decimal_text(value)
    spellings = [f'"{value.numerator}/{value.denominator}"', f'" {value} "']
    if text is not None:
        mantissa = text.replace(".", "").lstrip("0") or "0"
        places = len(text.partition(".")[2])
        spellings += [text, f'"{text}"', f"{mantissa}e-{places}", f'"{mantissa}E-{places}"']
        if "." not in text:
            spellings.append(f"{text}.0e0")
        if sys.version_info >= (3, 11):  # Fraction reads "_" between digits from 3.11 on
            grouped = f"{text[0]}_{text[1:]}" if len(text) > 1 and text[1].isdigit() else text
            spellings.append(f'"{grouped}"')
    spelling = draw(st.sampled_from(spellings))
    return f"@raw:{spelling}@" if not spelling.startswith('"') else spelling.strip('"')


@st.composite
def scenario_docs(draw) -> str:
    """A well-formed scenario with voltages, SOCs and a cap, its quantities spelled variously."""

    def ratio(low: int, high: int, dens: tuple[int, ...]):
        return spelled(Fraction(draw(st.integers(low, high)), draw(st.sampled_from(dens))))

    loads = []
    for k in range(draw(st.integers(1, 6))):
        period = draw(st.sampled_from(PERIODS))
        soc_den = draw(st.sampled_from((1, 3, 10)))
        load = {
            "id": draw(st.sampled_from((k, f"L{k}"))),
            "amplitude_a": draw(ratio(1, 500, (1, 3, 10, 8))),
            "frequency_hz": draw(spelled(Fraction(10**6, period))),
            "duty_pct": draw(spelled(Fraction(100 * draw(st.integers(1, period)), period))),
            "phase_s": draw(spelled(Fraction(draw(st.integers(0, 2 * period)), 10**6))),
            "voltage_v": draw(ratio(1, 800, (1, 2, 7))),
            "soc_pct": draw(spelled(Fraction(draw(st.integers(0, 100 * soc_den)), soc_den))),
        }
        loads.append(load)
    power = {"p_max_w": draw(ratio(1, 50_000, (1, 4, 9)))}
    if draw(st.booleans()):
        power["mode"] = "amplitude"
    return RAW.sub(lambda m: m[1], json.dumps({"loads": loads, "power": power}))


@seed(20615)
@settings(max_examples=120, deadline=None, database=None)
@given(scenario_docs())
def test_reports_match_the_reference_on_well_formed_scenarios(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sc.json"
        path.write_text(text)
        sc, ref = load_scenario(path), ref_files.load_scenario(path)
    assert [vars(s) for s in sc.loads] == [vars(s) for s in ref.loads]
    assert sc.explicit_phase == ref.explicit_phase
    assert (sc.p_max_w, sc.power_mode) == (ref.p_max_w, ref.power_mode)
    assert scenario_json(sc.loads, sc.p_max_w, sc.power_mode) == ref_files.scenario_json(
        ref.loads, ref.p_max_w, ref.power_mode
    )
    try:
        plan = prioritize_and_admit(sc.loads, sc.p_max_w)
    except NoAdmissibleError:
        plan = None
    if plan is not None:
        ref_plan = ref_power.prioritize_and_admit(ref.loads, ref.p_max_w)
        assert plan_json(plan) == ref_files.plan_json(ref_plan)
    plan = prioritize_and_admit(sc.loads, sc.p_max_w, derate=True)
    ref_plan = ref_power.prioritize_and_admit(ref.loads, ref.p_max_w, derate=True)
    if plan.p_sum_w > plan.p_max_w:
        plan, derated = enforce_limit(plan, sc.loads, "amplitude")
        ref_plan, ref_derated = ref_power.enforce_limit(ref_plan, ref.loads, "amplitude")
        assert scenario_json(derated, sc.p_max_w, "amplitude") == ref_files.scenario_json(
            ref_derated, ref.p_max_w, "amplitude"
        )
    assert plan_json(plan) == ref_files.plan_json(ref_plan)



def fleet_text(loads: list[dict], p_max_w: str) -> str:
    return json.dumps({"loads": loads, "power": {"p_max_w": p_max_w}})


class TestFieldCache:
    """load_scenario checks each field's value once per document, and keeps every refusal."""

    def test_duty_on_the_grid_of_one_period_only_is_refused_at_the_later_load(self, tmp_path):
        loads = [
            {"id": 1, "amplitude_a": 1, "frequency_hz": 1, "duty_pct": "0.0001"},  # 1 tick of 1 s
            {"id": 2, "amplitude_a": 1, "frequency_hz": 1, "duty_pct": "0.0001"},
            {"id": 3, "amplitude_a": 1, "frequency_hz": 2, "duty_pct": "0.0001"},  # half a tick
        ]
        path = write_scenario(tmp_path, json.dumps({"loads": loads}))
        with pytest.raises(ScenarioError, match=r"loads\[2\]\.duty_pct: 1/10000% of 0\.5 s"):
            load_scenario(path)

    def test_a_repeated_bad_text_is_named_at_its_first_load(self, tmp_path):
        loads = [
            {"id": k, "amplitude_a": "2" if k == 0 else "-1", "frequency_hz": 1, "duty_pct": 50}
            for k in range(4)
        ]
        path = write_scenario(tmp_path, json.dumps({"loads": loads}))
        with pytest.raises(ScenarioError, match=r"loads\[1\]\.amplitude_a: must be positive"):
            load_scenario(path)

    def test_a_number_and_its_string_share_one_entry(self, tmp_path, monkeypatch):
        parsed = []
        monkeypatch.setattr(pulsesched.files, "parse_ratio", lambda text: parsed.append(text) or (50, 1))
        text = '{"loads": [%s, %s]}' % (
            '{"id": "a", "amplitude_a": 50, "frequency_hz": "1", "duty_pct": "1"}',
            '{"id": "b", "amplitude_a": "50", "frequency_hz": "1", "duty_pct": "1"}',
        )
        a, b = load_scenario(write_scenario(tmp_path, text)).loads
        assert a.amplitude is b.amplitude == 50
        assert parsed.count("50") == 1

    def test_an_id_beyond_the_digit_bound_is_refused_at_its_load(self, tmp_path):
        loads = [{"id": k, "amplitude_a": 1, "frequency_hz": 1, "duty_pct": 50} for k in range(3)]
        loads[2]["id"] = 10**MAX_DIGITS
        path = write_scenario(tmp_path, json.dumps({"loads": loads}))
        with pytest.raises(ScenarioError, match=rf"loads\[2\]\.id: .* more than {MAX_DIGITS} digits"):
            load_scenario(path)


# One fault per load, each refused whatever the load's period is: the fault's
# change to the load (None: the load is not an object), and the message tail
# after "loads[k]"; "{id!r}" stands for the id the fault copies.
FAULTS = {
    "not an object": (None, ": must be an object"),
    "unknown key": ({"oops": 1}, ": unknown keys ['oops']"),
    "missing key": ("missing", ".{key}: missing"),
    "float id": ({"id": 1.5}, ".id: must be an integer or string"),
    "duplicate id": ("duplicate", ".id: duplicate id {id!r}"),
    "amplitude": ({"amplitude_a": "-1"}, ".amplitude_a: must be positive"),
    "frequency": ({"frequency_hz": 0}, ".frequency_hz: must be positive"),
    "duty": ({"duty_pct": 150}, ".duty_pct: must lie in (0, 100]"),
    "phase": ({"phase_s": -1}, ".phase_s: must be non-negative"),
    "voltage": ({"voltage_v": 0}, ".voltage_v: must be positive"),
    "soc": ({"soc_pct": 101}, ".soc_pct: must lie in [0, 100]"),
}


@st.composite
def faulty_fleets(draw) -> tuple[list, str]:
    """A fleet of 2-8 loads with one fault in each of 1-3 of them, and the message of the
    earliest fault: the first faulty load's, since each load has at most one."""
    n = draw(st.integers(2, 8))
    id_style = draw(st.sampled_from(("int", "str", "mixed")))
    loads = []
    for k in range(n):
        style = draw(st.sampled_from(("int", "str"))) if id_style == "mixed" else id_style
        load = {
            "id": k if style == "int" else f"L{k}",
            "amplitude_a": draw(st.sampled_from((2, "2", "1/3", 0.5))),
            "frequency_hz": draw(st.sampled_from((1, "2", 5, "10", 50))),
            "duty_pct": draw(st.sampled_from((10, "25", 50, "90", 100))),
        }
        for key, values in (
            ("phase_s", (0, "0.001", 0.25)),
            ("voltage_v", (48, "400")),
            ("soc_pct", (0, "50", 100, 12.5)),
        ):
            if draw(st.booleans()):
                load[key] = draw(st.sampled_from(values))
        loads.append(load)
    faulty = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3)))
    messages = []
    for k in faulty:
        kinds = [kind for kind in FAULTS if kind != "duplicate id" or k > 0]
        change, tail = FAULTS[draw(st.sampled_from(kinds))]
        if change is None:
            loads[k] = 1
        elif change == "missing":
            key = draw(st.sampled_from(("id", "amplitude_a", "frequency_hz", "duty_pct")))
            del loads[k][key]
            tail = tail.format(key=key)
        elif change == "duplicate":
            copied = loads[draw(st.integers(0, k - 1))]
            load_id = copied["id"] if isinstance(copied, dict) and "id" in copied else 0
            loads[k]["id"] = load_id
            tail = tail.format(id=load_id)
        else:
            loads[k].update(change)
        messages.append(f"loads[{k}]{tail}")
    return loads, messages[0]


@seed(20623)
@settings(max_examples=300, deadline=None, database=None)
@given(faulty_fleets())
def test_the_earliest_fault_by_load_and_field_is_the_one_refused(fleet):
    loads, message = fleet
    with tempfile.TemporaryDirectory() as tmp:
        path = write_scenario(Path(tmp), json.dumps({"loads": loads}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["simulate", str(path), "--out", str(Path(tmp) / "out")]) == 2
        assert out.getvalue() == ""
        assert err.getvalue() == f"error: {path}: {message}\n"


# two field faults at one load, the first in the order the fields are read
FIELD_PAIRS = list(
    itertools.combinations(["float id", "amplitude", "frequency", "duty", "phase", "voltage", "soc"], 2)
)


@pytest.mark.parametrize("first, second", FIELD_PAIRS, ids=[f"{a} + {b}" for a, b in FIELD_PAIRS])
def test_at_one_load_the_field_read_first_is_the_one_refused(tmp_path, first, second):
    loads = [{"id": k, "amplitude_a": 2, "frequency_hz": 1, "duty_pct": 50} for k in range(3)]
    for kind in (second, first):
        loads[1].update(FAULTS[kind][0])
    loads[2].update(FAULTS["amplitude"][0])  # a later load's fault in an earlier-ranked field
    path = write_scenario(tmp_path, json.dumps({"loads": loads}))
    with pytest.raises(ScenarioError) as info:
        load_scenario(path)
    assert str(info.value) == f"{path}: loads[1]{FAULTS[first][1]}"


# Report renderers against json.dumps(doc, indent=2, sort_keys=True) of the
# same dict, the way the reports were written before they were templated.

def dumped(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


LOAD_IDS = st.one_of(
    st.integers(-(10**MAX_DIGITS) + 1, 10**MAX_DIGITS - 1),
    st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f é€😀/'), st.characters())),
)
POSITIVE = st.fractions(min_value=Fraction(1, 10**4), max_value=10**6, max_denominator=10**4)


@st.composite
def report_specs(draw) -> PulseSpec:
    period = draw(st.sampled_from(PERIODS))
    return PulseSpec(
        id=draw(LOAD_IDS),
        amplitude=draw(POSITIVE),
        period=period,
        on_width=draw(st.integers(1, period)),
        phase=draw(st.integers(0, period - 1)),
        voltage=draw(st.none() | POSITIVE),
        soc=draw(st.none() | st.fractions(0, 1, max_denominator=1000)),
    )


def scenario_doc(loads: list[PulseSpec], p_max_w, mode) -> dict:
    rows = []
    for s in sorted(loads, key=lambda s: load_sort_key(s.id)):
        row = {
            "id": s.id,
            "amplitude_a": exact_str(s.amplitude),
            "frequency_hz": exact_str(s.frequency_hz),
            "duty_pct": exact_str(100 * s.duty),
            "phase_s": seconds_str(s.phase),
        }
        if s.voltage is not None:
            row["voltage_v"] = exact_str(s.voltage)
        if s.soc is not None:
            row["soc_pct"] = exact_str(100 * s.soc)
        rows.append(row)
    doc: dict = {"loads": rows}
    if p_max_w is not None:
        doc["power"] = {"p_max_w": exact_str(p_max_w)}
        if mode is not None:
            doc["power"]["mode"] = mode
    return doc


# tick periods scaled to 0.5-10 s: nested chains, one-period groups and
# singletons, each solved in a few search nodes
SCHEDULE_PERIODS = tuple(250_000 * k for k in (2, 3, 4, 6, 12, 40))


@st.composite
def schedule_specs(draw) -> list[PulseSpec]:
    specs = []
    for load_id in draw(st.lists(LOAD_IDS, min_size=1, max_size=6, unique=True)):
        period = draw(st.sampled_from(SCHEDULE_PERIODS))
        on_width = draw(st.integers(1, period))
        specs.append(PulseSpec(load_id, 1, period, on_width, draw(st.integers(0, period - 1))))
    return specs


def schedule_doc(fleet: list[PulseSpec], groups) -> dict:
    """The schedule report's rows: each load's group numbered from 1 in the order of
    `groups`, and its role from its entry in that group's placement."""
    rows = []
    for s in fleet:
        [(number, group)] = [(n, g) for n, g in enumerate(groups, 1) if s.id in g.member_ids]
        entry = group.assignment.placement[group.member_ids.index(s.id)]
        role = "bin" if entry is None else "item"
        rows.append({"id": s.id, "group": number, "role": role, "phase_s": seconds_str(s.phase)})
    return {"loads": rows}


class TestRenderersAgainstJsonDumps:
    @seed(20616)
    @settings(max_examples=150, deadline=None, database=None)
    @given(
        st.lists(report_specs(), max_size=5),
        st.none() | POSITIVE,
        st.none() | st.sampled_from(MODES) | st.text(),
    )
    def test_scenario_json(self, loads, p_max_w, mode):
        assert scenario_json(loads, p_max_w, mode) == dumped(scenario_doc(loads, p_max_w, mode))

    @seed(20616)
    @settings(max_examples=150, deadline=None, database=None)
    @given(schedule_specs())
    def test_schedule_json(self, specs):
        fleet, groups = schedule_fleet(specs)
        assert schedule_json(fleet, groups) == dumped(schedule_doc(fleet, groups))

    @seed(20616)
    @settings(max_examples=150, deadline=None, database=None)
    @given(
        st.lists(LOAD_IDS, max_size=5),
        st.lists(LOAD_IDS, max_size=5),
        st.none() | st.sampled_from(MODES) | st.text(),
        st.tuples(POSITIVE, POSITIVE, POSITIVE),
    )
    def test_plan_json(self, admitted, postponed, mode, amounts):
        scale, p_sum, p_max = amounts
        plan = PowerPlan(tuple(admitted), tuple(postponed), mode, scale, p_sum, p_max)
        doc = {
            "admitted": admitted,
            "postponed": postponed,
            "mode": mode,
            "scale": amount_str(scale),
            "p_sum_w": amount_str(p_sum),
            "p_max_w": amount_str(p_max),
        }
        assert plan_json(plan) == dumped(doc)

    @seed(20616)
    @settings(max_examples=100, deadline=None, database=None)
    @given(st.lists(st.fractions(-(10**6), 10**6, max_denominator=10**4), min_size=4, max_size=4))
    def test_metrics_json(self, values):
        metrics = Metrics(*values)
        doc = {
            "min_a": amount_str(metrics.min_a),
            "max_a": amount_str(metrics.max_a),
            "fluctuation_a": amount_str(metrics.fluctuation_a),
            "mean_a": amount_str(metrics.mean_a),
        }
        assert metrics_json(metrics) == dumped(doc)


def depot_fleet(rng: random.Random, n: int) -> tuple[list[dict], Fraction]:
    """n loads with voltage and SOC, written as the benchmark's depot fleets are, and half
    their summed mean power as the cap."""
    loads, total = [], Fraction(0)
    for i in range(n):
        freq = rng.choice((1, 2, 4, 5, 10, 20, 50, 100))
        duty = rng.randint(10, 90)
        amplitude = Fraction(rng.randint(5, 500), 10)
        voltage = rng.choice((48, 230, 400, 800))
        loads.append(
            {
                "id": i + 1,
                "amplitude_a": str(amplitude),
                "frequency_hz": str(freq),
                "duty_pct": str(duty),
                "phase_s": seconds_str(rng.randrange(0, 10**6 // freq, 1000)),
                "voltage_v": str(voltage),
                "soc_pct": str(Fraction(rng.randint(0, 1000), 10)),
            }
        )
        total += Fraction(duty, 100) * voltage * amplitude
    return loads, total / 2


def test_a_depot_fleets_plan_reports_equal_the_reference(tmp_path, capsys):
    loads, cap = depot_fleet(random.Random(20616), 1000)
    path = write_scenario(tmp_path, fleet_text(loads, str(cap)), name="depot.json")
    for mode in ([], ["--mode", "amplitude"]):
        new, ref = tmp_path / "new", tmp_path / "ref"
        for main, out in ((cli.main, new), (ref_cli.main, ref)):
            assert main(["plan-power", str(path), *mode, "--out", str(out)]) == 0
        reports = sorted(p.name for p in ref.iterdir())
        assert sorted(p.name for p in new.iterdir()) == reports
        assert ("depot.derated.json" in reports) == bool(mode)
        for name in reports:
            assert (new / name).read_bytes() == (ref / name).read_bytes(), name
        capsys.readouterr()


def test_reports_use_the_c_encoder_and_each_text_is_parsed_once(tmp_path, monkeypatch, capsys):
    """No report falls back to json's pure-Python encoder, which any indent selects, and the
    fallback read (bounded_text, then Fraction) runs once per distinct text that is not plain
    "d", "d.d" or "d/d"."""

    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder was called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    bounded, fallback = ticks.bounded_text, []
    monkeypatch.setattr(ticks, "bounded_text", lambda text: fallback.append(text) or bounded(text))
    rng = random.Random(20616)
    spellings = {  # each value in plain and other spellings
        "amplitude_a": ("12.5", "25/2", "1.25e1", " 12.5 ", "+3", "0.75", "75e-2"),
        "frequency_hz": ("10", "1e1", "20", "50"),
        "duty_pct": ("20", "4e1", "40", "60"),
        "phase_s": ("0", "0.001", "1e-3", "0.002"),
        "voltage_v": ("48", "2.3e2", "230"),
        "soc_pct": ("10", "55.5", "5.55e1", "100", "0"),
    }
    plans = [["plan-power"], ["plan-power", "--mode", "amplitude"], ["plan-power", "--mode", "duty"]]
    runs = {"fleet": (300, plans), "small": (10, [["schedule"]])}  # scenario size, runs made on it
    for stem, (n, argvs) in runs.items():
        loads = [{key: rng.choice(texts) for key, texts in spellings.items()} for _ in range(n)]
        total = sum(
            Fraction(s["duty_pct"]) * Fraction(s["voltage_v"]) * Fraction(s["amplitude_a"]) / 100
            for s in loads
        )
        loads = [{"id": i, **load} for i, load in enumerate(loads)]
        path = write_scenario(tmp_path, fleet_text(loads, str(total / 2)), name=f"{stem}.json")
        texts = {text for load in loads for key, text in load.items() if key != "id"}
        not_plain = sorted(t for t in texts if not re.fullmatch(r"\d+([./]\d+)?", t))
        for argv in argvs:
            fallback.clear()
            assert cli.main([*argv, str(path), "--out", str(tmp_path / "out")]) == 0
            assert sorted(fallback) == not_plain
        capsys.readouterr()
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "fleet.derated.json",
        "fleet.plan.json",
        "small.metrics_after.json",
        "small.metrics_before.json",
        "small.schedule.json",
        "small.scheduled.json",
    ]
