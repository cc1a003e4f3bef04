"""Output checks for benchmark ops, computed from the generated inputs.

Nothing here uses the program's parser, sweep or solvers to decide what is
right; the only program call is the re-simulation of a schedule, which the
contract "re-simulating <stem>.scheduled.json reproduces the after-metrics
byte for byte" names explicitly. Each check returns a list of problems; an
empty list means the outputs passed.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import random
from bisect import bisect_right
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from fleets import TICKS_PER_SECOND, Case, mean_power

SAMPLED_TICKS = 50


@dataclass(frozen=True)
class Outcome:
    """What one CLI call returned: exit code (or exception name) and its text."""

    code: int | str
    stdout: str
    stderr: str


def run_cli(main, argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code = type(exc).__name__
    return Outcome(code, out.getvalue(), err.getvalue())


def digest_dir(outcome: Outcome, out_dir: Path) -> str:
    """sha256 over the exit code, stdout and every output file of one op."""
    h = hashlib.sha256(f"{outcome.code}\n{outcome.stdout}".encode())
    for path in sorted(out_dir.iterdir()):
        h.update(f"\n{path.name}\n".encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# -- exact references -------------------------------------------------------


def rounded(value: Fraction) -> Fraction:
    """The report rounding: half-even to 3 decimals."""
    return Fraction(round(value * 1000), 1000)


def exact_mean(loads) -> Fraction:
    return sum((s.amplitude * s.duty for s in loads), Fraction(0))


def level_at(loads, t: int) -> Fraction:
    """Aggregate current at tick t, straight from the pulse definition."""
    return sum((s.amplitude for s in loads if (t - s.phase) % s.period < s.on), Fraction(0))


def envelope(loads) -> tuple[Fraction, Fraction]:
    """(min, max) of the aggregate current over one hyperperiod, by edge sweep."""
    hyper = math.lcm(*(s.period for s in loads))
    deltas: dict[int, Fraction] = {}
    for s in loads:
        for k in range(hyper // s.period):
            rise = (s.phase + k * s.period) % hyper
            fall = (rise + s.on) % hyper
            deltas[rise] = deltas.get(rise, 0) + s.amplitude
            deltas[fall] = deltas.get(fall, 0) - s.amplitude
    level = level_at(loads, 0)
    lo = hi = level
    for t in sorted(deltas):
        if t:
            level += deltas[t]
            lo, hi = min(lo, level), max(hi, level)
    return lo, hi


def edge_count(loads) -> int:
    """Rising plus falling edges over one hyperperiod, always-on loads excluded."""
    hyper = math.lcm(*(s.period for s in loads))
    return sum(2 * hyper // s.period for s in loads if s.on < s.period)


def _ticks(seconds: str) -> int:
    value = Fraction(seconds) * TICKS_PER_SECOND
    if value.denominator != 1:
        raise ValueError(f"{seconds} s is off the tick grid")
    return value.numerator


def _metrics(path: Path) -> dict[str, Fraction]:
    return {k: Fraction(v) for k, v in json.loads(path.read_text()).items()}


def _check_metrics(where: str, got: dict, lo: Fraction, hi: Fraction, mean: Fraction) -> list[str]:
    want = {"min_a": lo, "max_a": hi, "fluctuation_a": hi - lo, "mean_a": mean}
    return [
        f"{where}: {key} is {got.get(key)}, expected {rounded(value)}"
        for key, value in want.items()
        if got.get(key) != rounded(value)
    ]


# -- per-command checks -----------------------------------------------------


def check_simulate(case: Case, out_dir: Path) -> list[str]:
    """Metrics against the exact mean and envelope; CSV levels at sampled ticks; SVG shape."""
    loads = case.loads
    stem = case.stem
    problems: list[str] = []
    csv_path = out_dir / f"{stem}.waveform.csv"
    lines = csv_path.read_text().splitlines()
    if not lines or lines[0] != "t_s,i_total_a" or len(lines) < 2:
        return [f"{csv_path.name}: missing header or rows"]
    breakpoints, levels = [], []
    for line in lines[1:]:
        t, level = line.split(",")
        breakpoints.append(_ticks(t))
        levels.append(Fraction(level))
    hyper = math.lcm(*(s.period for s in loads))
    if breakpoints != sorted(set(breakpoints)) or not 0 <= breakpoints[0] <= breakpoints[-1] < hyper:
        problems.append(f"{csv_path.name}: breakpoints are not increasing ticks in [0, {hyper})")
    if len(breakpoints) > max(1, edge_count(loads)):
        problems.append(f"{csv_path.name}: {len(breakpoints)} rows for {edge_count(loads)} edges")

    rng = random.Random(f"check:{stem}")
    ticks = [rng.randrange(hyper) for _ in range(SAMPLED_TICKS)]
    for t in ticks:
        csv_level = levels[bisect_right(breakpoints, t) - 1]  # -1 wraps to the last row
        if csv_level != level_at(loads, t):
            problems.append(f"{csv_path.name}: level at tick {t} is {csv_level}, expected {level_at(loads, t)}")
            break

    got = _metrics(out_dir / f"{stem}.metrics.json")
    problems += _check_metrics(f"{stem}.metrics.json", got, min(levels), max(levels), exact_mean(loads))

    svg = (out_dir / f"{stem}.waveform.svg").read_text()
    if not svg.startswith("<svg") or not svg.endswith("</svg>\n") or "<polyline" not in svg:
        problems.append(f"{stem}.waveform.svg: not a complete SVG with a polyline")
    return problems


@dataclass(frozen=True)
class ScheduleInfo:
    """Fluctuation before/after and bin count of one schedule op."""

    before: Fraction
    after: Fraction
    bins: int
    loads: int


def before_fluctuation(case: Case) -> Fraction:
    lo, hi = envelope(case.loads)
    return rounded(hi - lo)


def check_schedule(case: Case, out_dir: Path, check_dir: Path, main) -> tuple[list[str], ScheduleInfo]:
    """Timing fields, mean and before-envelope unchanged; re-simulation reproduces after-metrics."""
    stem = case.stem
    problems: list[str] = []
    scheduled_path = out_dir / f"{stem}.scheduled.json"
    rows = {row["id"]: row for row in json.loads(scheduled_path.read_text())["loads"]}
    if set(rows) != {s.id for s in case.loads}:
        problems.append(f"{scheduled_path.name}: load ids differ from the input")
        rows = {}
    for s in case.loads:
        row = rows.get(s.id)
        if row is None:
            continue
        period = Fraction(TICKS_PER_SECOND) / Fraction(row["frequency_hz"])
        on = period * Fraction(row["duty_pct"]) / 100
        phase = _ticks(row["phase_s"])
        if (Fraction(row["amplitude_a"]), period, on) != (s.amplitude, s.period, s.on):
            problems.append(f"{scheduled_path.name}: load {s.id} changed amplitude, period or width")
        if not 0 <= phase < s.period:
            problems.append(f"{scheduled_path.name}: load {s.id} phase {phase} outside its period")

    lo, hi = envelope(case.loads)
    mean = exact_mean(case.loads)
    before = _metrics(out_dir / f"{stem}.metrics_before.json")
    after = _metrics(out_dir / f"{stem}.metrics_after.json")
    problems += _check_metrics(f"{stem}.metrics_before.json", before, lo, hi, mean)
    if after.get("mean_a") != rounded(mean):
        problems.append(f"{stem}.metrics_after.json: mean changed to {after.get('mean_a')}")

    roles = json.loads((out_dir / f"{stem}.schedule.json").read_text())["loads"]
    if sorted(r["id"] for r in roles) != sorted(rows) or any(
        r["role"] not in ("bin", "item") or r["phase_s"] != rows[r["id"]]["phase_s"] for r in roles
    ):
        problems.append(f"{stem}.schedule.json: rows disagree with {scheduled_path.name}")

    outcome = run_cli(main, ["simulate", str(scheduled_path), "--out", str(check_dir)])
    replay = check_dir / f"{stem}.scheduled.metrics.json"
    if outcome.code != 0 or replay.read_bytes() != (out_dir / f"{stem}.metrics_after.json").read_bytes():
        problems.append(f"re-simulating {scheduled_path.name} does not reproduce the after-metrics")
    bins = sum(1 for r in roles if r["role"] == "bin")
    info = ScheduleInfo(before["fluctuation_a"], after["fluctuation_a"], bins, len(case.loads))
    return problems, info


def check_plan(case: Case, flags: tuple[str, ...], out_dir: Path) -> list[str]:
    """Admission is the SOC-ordered prefix under the cap; de-rating lands exactly on it."""
    stem = case.stem
    cap = case.p_max_w
    order = sorted(case.loads, key=lambda s: (s.soc_pct, s.id))
    plan = json.loads((out_dir / f"{stem}.plan.json").read_text())
    problems: list[str] = []
    total = sum(mean_power(s) for s in order)
    if not flags:
        admitted, drawn = [], Fraction(0)
        for s in order:
            if drawn + mean_power(s) > cap:
                break
            drawn += mean_power(s)
            admitted.append(s.id)
        want = {"admitted": admitted, "postponed": [s.id for s in order[len(admitted):]], "mode": None}
        if drawn > cap:
            problems.append(f"{stem}: admitted power {drawn} W exceeds the cap {cap} W")
        if Fraction(plan["p_sum_w"]) != rounded(drawn):
            problems.append(f"{stem}.plan.json: p_sum_w {plan['p_sum_w']}, expected {rounded(drawn)}")
    else:
        mode = flags[1]
        want = {"admitted": [s.id for s in order], "postponed": [], "mode": mode}
        if Fraction(plan["scale"]) != rounded(cap / total):
            problems.append(f"{stem}.plan.json: scale {plan['scale']}, expected {rounded(cap / total)}")
        derated = json.loads((out_dir / f"{stem}.derated.json").read_text())["loads"]
        drawn = Fraction(0)
        by_id = {s.id: s for s in case.loads}
        for row in derated:
            s = by_id[row["id"]]
            period = Fraction(TICKS_PER_SECOND) / Fraction(row["frequency_hz"])
            duty = Fraction(row["duty_pct"]) / 100
            amplitude = Fraction(row["amplitude_a"])
            drawn += duty * Fraction(row["voltage_v"]) * amplitude
            kept = (period, _ticks(row["phase_s"]), Fraction(row["soc_pct"]))
            if kept != (s.period, s.phase, s.soc_pct):
                problems.append(f"{stem}.derated.json: load {s.id} changed period, phase or SOC")
            if mode == "amplitude" and (duty, amplitude) != (s.duty, s.amplitude * cap / total):
                problems.append(f"{stem}.derated.json: load {s.id} is not amplitude-scaled by cap/total")
        if drawn != cap:
            problems.append(f"{stem}.derated.json: de-rated power {drawn} W is not exactly the cap {cap} W")
    for key, value in want.items():
        if plan.get(key) != value:
            problems.append(f"{stem}.plan.json: {key} differs from the SOC-ordered admission")
    return problems


# -- shipped scenarios ------------------------------------------------------

GOLDEN_FILE = Path(__file__).with_name("golden.json")
GOLDEN_RUNS = (
    ("simulate", "--csv", "--svg"),
    ("schedule",),
    ("plan-power",),
    ("plan-power", "--mode", "amplitude"),
    ("plan-power", "--mode", "duty"),
)


def golden_digests(main, scenario_dir: Path, work: Path) -> dict[str, str]:
    """Run every subcommand on every shipped scenario; digest each run's outputs."""
    digests = {}
    for scenario in sorted(scenario_dir.glob("*.json")):
        for command, *flags in GOLDEN_RUNS:
            key = " ".join([command, scenario.name, *flags])
            out_dir = work / key.replace(" ", "_")
            out_dir.mkdir(parents=True)
            outcome = run_cli(main, [command, str(scenario), "--out", str(out_dir), *flags])
            digests[key] = digest_dir(outcome, out_dir)
    return digests


if __name__ == "__main__":
    # Re-record the shipped-scenario digests, for a change that alters
    # shipped outputs on purpose: python3 perfbench/checks.py
    import sys
    import tempfile

    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    from pulsesched.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        found = golden_digests(cli_main, src / "pulsesched" / "scenarios", Path(tmp))
    GOLDEN_FILE.write_text(json.dumps(found, indent=2, sort_keys=True) + "\n")
