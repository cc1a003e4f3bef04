"""Scenario ingestion, canonical formatting, and report writers."""
import json
import os
import re
import stat
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from xml.dom import minidom

import pytest
from helpers import reference_module
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pulsesched import (
    NoAdmissibleError,
    PulseSpec,
    ScenarioError,
    StepProfile,
    aggregate_profile,
    cli,
    enforce_limit,
    prioritize_and_admit,
    seconds_str,
)
from pulsesched.files import (
    MAX_DIGITS,
    amount_str,
    exact_str,
    load_scenario,
    plan_json,
    scenario_json,
    waveform_csv,
    waveform_svg,
    write_text_atomic,
)

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

