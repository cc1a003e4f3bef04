"""Self-tests of the benchmark: seeded generators, output checks, traced self times."""
import json
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from fleets import WORKLOADS  # noqa: E402
from spans import Tracer  # noqa: E402

from pulsesched.cli import main  # noqa: E402


def _run(case, flags, tmp_path, runner=main):
    scenario = tmp_path / f"{case.stem}.json"
    scenario.write_text(case.text())
    out_dir = tmp_path / "out"
    out_dir.mkdir(exist_ok=True)
    outcome = checks.run_cli(runner, [case.command, str(scenario), "--out", str(out_dir), *flags])
    return outcome, out_dir


def test_generators_are_deterministic_per_seed():
    for workload in WORKLOADS.values():
        first = [case.text() for case in workload.generate(7)]
        assert first == [case.text() for case in workload.generate(7)], workload.name
        assert first != [case.text() for case in workload.generate(8)], workload.name


def test_latency_figures_are_harrell_davis_quantiles():
    latencies = [float(k) for k in range(100, 0, -1)]
    rate, p50, tail, pct = run.latency_figures(latencies)
    assert rate == 100 / sum(latencies)
    # on the values 1..n the estimate lands on n q + 1/2
    assert abs(p50 - 50.5) < 1e-3
    assert pct == 90.0 and abs(tail - 90.5) < 1e-3
    # one slow op moves the median estimate only slightly
    assert abs(run.latency_figures(latencies[1:] + [1000.0])[1] - p50) < 0.01


def test_paired_op_records_both_times_and_keeps_the_program_outputs(tmp_path):
    import pulsesched_ref.cli

    case = WORKLOADS["schedule-mixed"].generate(1)[0]
    scenario = tmp_path / f"{case.stem}.json"
    scenario.write_text(case.text())
    op = run.Op(case, case.runs[0], scenario, tmp_path / "out", tmp_path / "ref")
    op.run(main)
    op.run_paired(main, pulsesched_ref.cli.main, ref_first=True)
    op.run_paired(main, pulsesched_ref.cli.main, ref_first=False)
    assert op.runs == 3 and len(op.untraced.ns) == len(op.untraced.ref_ns) == 2
    assert op.outcome.code == 0 and not op.repeats_differ
    assert 0 < op.untraced.ratio() < 10


def test_simulate_check_rejects_corrupted_csv_and_metrics(tmp_path):
    case = WORKLOADS["simulate-sweep"].generate(1)[0]
    outcome, out_dir = _run(case, case.runs[0], tmp_path)
    assert outcome.code == 0
    assert checks.check_simulate(case, out_dir) == []

    csv = out_dir / f"{case.stem}.waveform.csv"
    header, *rows = csv.read_text().splitlines()
    shifted = [f"{t},{Fraction(level) + 1}" for t, level in (row.split(",") for row in rows)]
    csv.write_text("\n".join([header, *shifted]) + "\n")
    assert any("level at tick" in p for p in checks.check_simulate(case, out_dir))

    _run(case, case.runs[0], tmp_path)
    metrics = out_dir / f"{case.stem}.metrics.json"
    doc = json.loads(metrics.read_text())
    doc["mean_a"] = str(Fraction(doc["mean_a"]) + Fraction(1, 1000))
    metrics.write_text(json.dumps(doc))
    assert any("mean_a" in p for p in checks.check_simulate(case, out_dir))


def test_schedule_check_rejects_changed_width(tmp_path):
    case = WORKLOADS["schedule-samefreq"].generate(1)[0]
    outcome, out_dir = _run(case, (), tmp_path)
    assert outcome.code == 0
    check_dir = tmp_path / "check"
    check_dir.mkdir()
    problems, info = checks.check_schedule(case, out_dir, check_dir, main)
    assert problems == [] and info.after <= info.before

    scheduled = out_dir / f"{case.stem}.scheduled.json"
    doc = json.loads(scheduled.read_text())
    doc["loads"][0]["duty_pct"] = "1"
    scheduled.write_text(json.dumps(doc))
    problems, _ = checks.check_schedule(case, out_dir, check_dir, main)
    assert any("width" in p for p in problems)
    assert any("re-simulating" in p for p in problems)


def test_plan_check_rejects_derated_power_off_the_cap(tmp_path):
    case = WORKLOADS["plan-power-fleet"].generate(1)[0]
    flags = ("--mode", "amplitude")
    outcome, out_dir = _run(case, flags, tmp_path)
    assert outcome.code == 0
    assert checks.check_plan(case, flags, out_dir) == []

    derated = out_dir / f"{case.stem}.derated.json"
    doc = json.loads(derated.read_text())
    doc["loads"][0]["amplitude_a"] = "1000"
    derated.write_text(json.dumps(doc))
    assert any("exactly the cap" in p for p in checks.check_plan(case, flags, out_dir))


def test_traced_self_times_sum_to_op_time(tmp_path):
    tracer = Tracer()
    cases = WORKLOADS["schedule-mixed"].generate(1)[:12]
    wall = 0
    with tracer.installed():
        for case in cases:
            start = perf_counter_ns()
            _run(case, (), tmp_path, partial(tracer.call, "cli", main))
            wall += perf_counter_ns() - start
    roots = [end - start for name, start, end, parent in tracer.spans if parent is None]
    assert len(roots) == len(cases)
    assert sum(tracer.self_times().values()) == sum(roots)
    # the root spans miss only the file writing and stdout capture around each call
    assert 0.5 * wall < sum(roots) <= wall
    assert all(value >= 0 for value in tracer.self_times().values())
    assert tracer.counts["multifreq.solve_multifreq.calls"] > 0
    # the wrappers are gone again
    import pulsesched.grouping

    assert pulsesched.grouping.solve_multifreq.__module__ == "pulsesched.multifreq"
    assert not hasattr(pulsesched.grouping.solve_multifreq, "func")
