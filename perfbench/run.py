"""pulsesched benchmark: one workload, one seed, a closed loop of CLI calls.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One client in one process: each op is an
in-process `pulsesched.cli.main([...])` call on a scenario file generated
from the seed, and the next op starts when the previous one returns. The
program is imported from `src/` next to this directory.

Times are seconds at reference speed. `pulsesched_ref/` is a frozen copy of
the program as it was when this benchmark was defined. Every timed op is
paired with the same call into that copy, right before or after it, so both
see the same machine. The run's speed factor rescales the copy's pass over
the pool to take REF_OP_S per op, and each op's time is the median ratio of
the program's time to the copy's times the copy's time so rescaled. On a
shared machine whose speed drifts, the ratio of the two holds steady; a
faster program still shows as faster, because nothing it changes reaches
the frozen copy. The text lines print wall-clock figures in brackets.

Set-up (import, fleet generation, file writing) is repeated SETUP_REPEATS
times, each paired with the same set-up around the frozen copy; `setup_s` is
the median ratio of the two times REF_SETUP_S. A warm-up pass
then runs every op once on the program alone, and peak resident memory is
read after it, so that it is the program's and not the copy's. The timed
loop runs the pool in paired rounds until `--seconds` (counted from the
warm-up) pass; the first round always completes. Every op of a pool repeats
identical work, so each op's latency is the median of its repeats. The
ops run in an order shuffled by the seed, so that a slow stretch of the
machine does not fall on neighbouring ops of a ladder:
- ops_per_s: pool size over the sum of the op latencies (one pass's rate);
- op_p50_s, op_tail_s: over the pool's ops, each at its latency; the tail
  is at the highest percentile with at least TAIL_OPS ops of the pool
  beyond it. Both are Harrell-Davis estimates, which weigh every op by how
  near its rank lies to the quantile;
- peak_rss_mib: peak resident memory of this process after the warm-up;
- ok_ratio: ops of the pool that returned 0 and passed every output check,
  over the pool. No op of a workload is expected to fail, so it reads 1;
  its complement, the failed ratio, reads 0 and is printed in the text
  lines only;
- fluct_ratio, bin_share: over the pool, summed fluctuation after
  scheduling over summed fluctuation before, and bin-type loads over loads.
  A failed op counts as after = before with every load a bin. Commands that
  do not schedule keep every load as given, so both read 1 there.

Output checks run after the loop on every op's outputs, and every repeat
of an op must reproduce its first outputs byte for byte. `--trace 1`
runs every op paired and then traced, pass after pass, and reports the
per-layer metrics instead, self times as seconds per pass over the pool.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. The run exits 2 without a result when the program's sources are
missing.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from fleets import WORKLOADS, Case  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 5
TAIL_OPS = 10
# wall-clock mean op latency of the frozen copy on each workload, and its
# median set-up, on the machine the baseline was measured on
REF_OP_S = {
    "simulate-sweep": 0.14,
    "schedule-samefreq": 0.028,
    "schedule-mixed": 0.015,
    "plan-power-fleet": 0.15,
}
REF_SETUP_S = {
    "simulate-sweep": 0.11,
    "schedule-samefreq": 0.3,
    "schedule-mixed": 0.25,
    "plan-power-fleet": 0.82,
}

END_TO_END = ("setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mib", "ok_ratio", "fluct_ratio", "bin_share")
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mib": "MiB"}

# per-layer metrics: span self times, call counts and counters
SELF_TIMES = (
    "waveform.aggregate_profile",
    "waveform.profile_metrics",
    "samefreq.solve_samefreq",
    "samefreq.realize_phases_samefreq",
    "multifreq.solve_multifreq",
    "multifreq.realize_phases_multifreq",
    "grouping.partition_by_frequency",
    "grouping.schedule_fleet",
    "files.load_scenario",
    "power.prioritize_and_admit",
    "power.enforce_limit",
    "files.waveform_csv",
    "files.waveform_svg",
    "files.json",
    "files.write_text_atomic",
    "cli",
)
CALLS = (
    "waveform.aggregate_profile",
    "samefreq.solve_samefreq",
    "multifreq.solve_multifreq",
    "multifreq.realize_phases_multifreq",
    "files.load_scenario",
)
COUNTS = (
    "waveform.edges",
    "waveform.breakpoints",
    "samefreq.bound_gap",
    "multifreq.bound_gap",
    "files.loads_parsed",
    "files.bytes_written",
)


@dataclass
class Timings:
    """Wall times of repeated identical work, each paired with the frozen copy's time for it."""

    ns: list[int] = field(default_factory=list)
    ref_ns: list[int] = field(default_factory=list)

    def ratio(self) -> float:
        """Median over the repeats of the program's time over the copy's."""
        return statistics.median(ns / ref for ns, ref in zip(self.ns, self.ref_ns))

    def wall_s(self) -> float:
        return statistics.median(self.ns) / 1e9

    def ref_s(self) -> float:
        return statistics.median(self.ref_ns) / 1e9


@dataclass
class Op:
    """One CLI call of the pool and what its repeats produced."""

    case: Case
    flags: tuple[str, ...]
    scenario: Path
    out_dir: Path
    ref_dir: Path
    untraced: Timings = field(default_factory=Timings)
    traced_ns: list[int] = field(default_factory=list)
    runs: int = 0
    outcome: checks.Outcome | None = None
    digest: str | None = None
    repeats_differ: bool = False

    def call(self, main, out_dir: Path) -> tuple[checks.Outcome, int]:
        """Call a CLI once into a fresh `out_dir`; return its outcome and wall time in ns."""
        if out_dir.exists():
            shutil.rmtree(out_dir)
        out_dir.mkdir(parents=True)
        argv = [self.case.command, str(self.scenario), "--out", str(out_dir), *self.flags]
        start = time.perf_counter_ns()
        outcome = checks.run_cli(main, argv)
        return outcome, time.perf_counter_ns() - start

    def run(self, main) -> int:
        """Call the program once, compare its outputs with the first call's; return the wall ns."""
        outcome, ns = self.call(main, self.out_dir)
        self.runs += 1
        digest = checks.digest_dir(outcome, self.out_dir)
        if self.digest is None:
            self.outcome, self.digest = outcome, digest
        elif digest != self.digest:
            self.repeats_differ = True
        return ns

    def run_paired(self, main, ref_main, ref_first: bool) -> None:
        """Call the program and the frozen copy on this op back to back; record both times."""
        if ref_first:
            ref_ns = self.call(ref_main, self.ref_dir)[1]
            ns = self.run(main)
        else:
            ns = self.run(main)
            ref_ns = self.call(ref_main, self.ref_dir)[1]
        self.untraced.ns.append(ns)
        self.untraced.ref_ns.append(ref_ns)


def _import_fresh(package: str):
    """Drop `package` from the module cache and import its CLI again."""
    for name in [m for m in sys.modules if m == package or m.startswith(f"{package}.")]:
        del sys.modules[name]
    return importlib.import_module(f"{package}.cli")


def _set_up_once(package: str, workload, seed: int, scenario_dir: Path):
    """Import `package`, generate the pool and write it; return the CLI module, cases and wall ns."""
    start = time.perf_counter_ns()
    cli = _import_fresh(package)
    cases = workload.generate(seed)
    scenario_dir.mkdir(parents=True)
    for case in cases:
        (scenario_dir / f"{case.stem}.json").write_text(case.text())
    return cli, cases, time.perf_counter_ns() - start


def set_up(workload, seed: int, work: Path):
    """Set up SETUP_REPEATS times, each paired with the same set-up around the frozen copy."""
    setups = Timings()
    for rep in range(SETUP_REPEATS):
        scenario_dir = work / f"scenarios{rep}"
        if rep % 2:
            ref_ns = _set_up_once("pulsesched_ref", workload, seed, work / f"ref_scenarios{rep}")[2]
            cli, cases, ns = _set_up_once("pulsesched", workload, seed, scenario_dir)
        else:
            cli, cases, ns = _set_up_once("pulsesched", workload, seed, scenario_dir)
            ref_ns = _set_up_once("pulsesched_ref", workload, seed, work / f"ref_scenarios{rep}")[2]
        setups.ns.append(ns)
        setups.ref_ns.append(ref_ns)
    ops = [
        Op(case, flags, scenario_dir / f"{case.stem}.json", work / "out" / name, work / "ref" / name)
        for case in cases
        for i, flags in enumerate(case.runs)
        for name in [f"{case.stem}.{i}"]
    ]
    return cli, ops, setups


def run_rounds(ops: list[Op], main, ref_main, deadline: float) -> int:
    """Run the pool in paired rounds until `deadline`; the first round always completes."""
    rounds = 0
    while not rounds or time.perf_counter() < deadline:
        for index, op in enumerate(ops):
            if rounds and time.perf_counter() >= deadline:
                return rounds
            op.run_paired(main, ref_main, ref_first=(rounds + index) % 2 == 1)
        rounds += 1
    return rounds


def traced_rounds(ops: list[Op], main, ref_main, deadline: float):
    """Run each op paired and then traced, pass after pass, until about `deadline`.

    The traced call follows the op's untraced and frozen-copy calls at
    once, so `trace.overhead` and the rescaling of self times compare calls
    that saw the same machine. Returns the tracer and, per pass, its span
    range and the counters at the end of the pass.
    """
    tracer = Tracer()
    traced_main = partial(tracer.call, "cli", main)
    passes = []
    start = time.perf_counter()
    # start another pass only if one more of the same length still fits
    while not passes or time.perf_counter() + (time.perf_counter() - start) / len(passes) <= deadline:
        first = len(tracer.spans)
        for index, op in enumerate(ops):
            op.run_paired(main, ref_main, ref_first=(len(passes) + index) % 2 == 1)
            with tracer.installed():
                op.traced_ns.append(op.run(traced_main))
        passes.append(((first, len(tracer.spans)), Counter(tracer.counts)))
    return tracer, passes


def speed_factor(ref_s: list[float], ref_op_s: float) -> float:
    """Wall-to-reference factor: the frozen copy's pass over the pool takes ref_op_s per op."""
    return ref_op_s * len(ref_s) / sum(ref_s)


def latency_figures(latencies: list[float]) -> tuple[float, float, float, float]:
    """(rate, p50, tail, tail percentile) over the pool's op latencies.

    Repeats of an op are the same sample measured again, so the tail sits at
    the highest percentile with at least TAIL_OPS distinct ops of the pool
    beyond it. A run fits only one to a few repeats of each op, so both
    quantiles are Harrell-Davis estimates, which average the ops around the
    quantile instead of resting on one or two of them.
    """
    latencies = sorted(latencies)
    q = max(0.5, 1 - TAIL_OPS / len(latencies))
    rate = len(latencies) / sum(latencies)
    return rate, harrell_davis(latencies, 0.5), harrell_davis(latencies, q), 100 * q


def harrell_davis(ordered: list[float], q: float, steps: int = 32) -> float:
    """Harrell-Davis estimate of the q-quantile of sorted values.

    The i-th smallest of n values weighs the probability that a
    Beta((n+1)q, (n+1)(1-q)) variable falls in ((i-1)/n, i/n]; the integral
    is taken by the midpoint rule with `steps` points per interval.
    """
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):
        xs = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)) for x in xs))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


@dataclass
class Verdict:
    """Output checks over the pool, each distinct op counted once."""

    ok: list[bool] = field(default_factory=list)
    unshifted: int = 0
    problems: list[str] = field(default_factory=list)
    fluct_before: Fraction = Fraction(0)
    fluct_after: Fraction = Fraction(0)
    bins: int = 0
    loads: int = 0


def check_ops(ops: list[Op], main, work: Path) -> Verdict:
    verdict = Verdict()
    for op in ops:
        case, outcome = op.case, op.outcome
        problems: list[str] = []
        info = None
        if op.repeats_differ:
            problems.append(f"{op.out_dir.name}: repeats produced different outputs")
        if outcome.code != 0:
            problems.append(f"{op.out_dir.name}: exit {outcome.code}: {outcome.stderr.strip()[:200]}")
        else:
            try:
                if case.command == "simulate":
                    problems += checks.check_simulate(case, op.out_dir)
                elif case.command == "schedule":
                    check_dir = work / "check" / op.out_dir.name
                    check_dir.mkdir(parents=True)
                    found, info = checks.check_schedule(case, op.out_dir, check_dir, main)
                    problems += found
                else:
                    problems += checks.check_plan(case, op.flags, op.out_dir)
            except Exception as exc:  # missing or malformed output fails the op, not the run
                problems.append(f"{op.out_dir.name}: unreadable output: {type(exc).__name__}: {exc}")
        verdict.ok.append(outcome.code == 0 and not problems)
        verdict.problems += problems
        if case.command == "schedule":
            verdict.unshifted += outcome.stdout.count(" left unshifted")
            if info is None or problems:
                before = checks.before_fluctuation(case)
                info = checks.ScheduleInfo(before, before, len(case.loads), len(case.loads))
            verdict.fluct_before += info.before
            verdict.fluct_after += info.after
            verdict.bins += info.bins
            verdict.loads += info.loads
    return verdict


def check_golden(main, work: Path) -> tuple[int, list[str]]:
    """Shipped scenarios through every subcommand, against the recorded digests."""
    want = json.loads(checks.GOLDEN_FILE.read_text())
    got = checks.golden_digests(main, SRC / "pulsesched" / "scenarios", work / "golden")
    keys = sorted(set(want) | set(got))
    return len(keys), [f"shipped scenario run '{key}' output differs" for key in keys if got.get(key) != want.get(key)]


def layer_metrics(tracer: Tracer, passes, ops: list[Op], ref_op_s: float) -> dict:
    """Per-layer figures: self times as the median over complete traced passes."""
    per_pass = []
    for index, ((first, last), _) in enumerate(passes):
        factor = speed_factor([op.untraced.ref_ns[index] / 1e9 for op in ops], ref_op_s)
        per_pass.append({name: ns / 1e9 * factor for name, ns in tracer.self_times(first, last).items()})
    counts = passes[0][1]
    self_s = {name: statistics.median(p.get(name, 0.0) for p in per_pass) for name in SELF_TIMES}
    metrics = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = (counts[f"{name}.calls"], "count")
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    for name in COUNTS:
        metrics[name] = (counts[name], "count")

    def ratio(part, whole):
        return counts[part] / counts[whole] if counts[whole] else 0.0

    edges = counts["waveform.edges"]
    metrics["waveform.us_per_edge"] = (1e6 * self_s["waveform.aggregate_profile"] / edges if edges else 0.0, "us")
    metrics["samefreq.bound_met_ratio"] = (ratio("samefreq.bound_met", "samefreq.solve_samefreq.calls"), "ratio")
    metrics["multifreq.bound_met_ratio"] = (ratio("multifreq.bound_met", "multifreq.solve_multifreq.calls"), "ratio")
    metrics["multifreq.realize_failed_ratio"] = (
        ratio("multifreq.realize_failed", "multifreq.realize_phases_multifreq.calls"),
        "ratio",
    )
    metrics["power.enforce_failed_ratio"] = (ratio("power.enforce_failed", "power.enforce_limit.calls"), "ratio")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pulsesched" / "cli.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    if work.exists():
        shutil.rmtree(work)
    try:
        return measure(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workload, work: Path) -> int:
    run_start = time.perf_counter()
    cli, ops, setups = set_up(workload, args.seed, work)
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported pulsesched from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    ref = sys.modules["pulsesched_ref.cli"]
    order = ops[:]
    random.Random(f"order:{args.seed}").shuffle(order)
    loop_start = time.perf_counter()
    deadline = loop_start + args.seconds
    for op in order:  # warm-up: the program alone, once per op
        op.run(cli.main)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        tracer, passes = traced_rounds(order, cli.main, ref.main, deadline)
        rounds = len(passes)
    else:
        rounds = run_rounds(order, cli.main, ref.main, deadline)
    loop_s = time.perf_counter() - loop_start
    ref_op_s, ref_setup_s = REF_OP_S[workload.name], REF_SETUP_S[workload.name]
    factor = speed_factor([op.untraced.ref_s() for op in ops], ref_op_s)
    setup_s = setups.ratio() * ref_setup_s
    wall_latencies = [op.untraced.wall_s() for op in ops]
    rate, p50, tail, tail_pct = latency_figures([op.untraced.ratio() * op.untraced.ref_s() * factor for op in ops])
    wall_rate, wall_p50, wall_tail, _ = latency_figures(wall_latencies)
    n = sum(len(op.untraced.ns) for op in ops)

    checks_start = time.perf_counter()
    verdict = check_ops(ops, cli.main, work)
    golden_runs, golden = check_golden(cli.main, work)
    checks_s = time.perf_counter() - checks_start
    runs = sum(op.runs for op in ops)
    failed_runs = sum(op.runs for op, ok in zip(ops, verdict.ok) if not ok)
    ok_ratio = sum(verdict.ok) / len(ops)
    correct = not verdict.problems and not golden

    digest = hashlib.sha256("".join(op.digest for op in ops).encode()).hexdigest()
    print(f"workload {workload.name}, seed {args.seed}: {workload.why}")
    print(f"  stresses: {workload.stresses}")
    print(f"  pool: {len(ops)} distinct ops, {rounds} paired rounds, N = {n} ops timed")
    print(f"  wall time: set-up {loop_start - run_start:.1f} s, warm-up and loop {loop_s:.1f} s, checks {checks_s:.1f} s")
    print(
        f"  frozen copy: {1000 * ref_op_s / factor:.2f} ms per op against {1000 * ref_op_s:.2f} ms "
        f"at reference speed; wall-clock figures in brackets"
    )
    ratios = statistics.quantiles([op.untraced.ratio() for op in ops], n=4)
    print(f"  program/frozen copy time per op: median {ratios[1]:.3f}, quartiles {ratios[0]:.3f}-{ratios[2]:.3f}")
    print(
        f"  setup_s {setup_s:.4f} s [{setups.wall_s():.4f}] (median of {SETUP_REPEATS} set-ups; "
        f"the copy's took {setups.ref_s():.4f} s against {ref_setup_s:.4f} s at reference speed)"
    )
    print(f"  ops_per_s {rate:.3f} 1/s [{wall_rate:.3f}] (pool of {len(ops)}, each op at its median latency)")
    print(f"  op_p50_s {p50:.5f} s [{wall_p50:.5f}] ({len(ops)} ops, N = {n} runs)")
    print(f"  op_tail_s {tail:.5f} s [{wall_tail:.5f}] at p{tail_pct:.2f} ({len(ops)} ops, N = {n} runs)")
    print(f"  peak_rss_mib {peak_rss_mib:.1f} MiB")
    print(f"  failed_ratio {1 - ok_ratio:.4f} (pool of {len(ops)})")
    if verdict.loads:
        print(f"  groups left unshifted: {verdict.unshifted} (in {len(ops)} schedule ops)")
    print(f"  output digest sha256:{digest}")
    print(f"  shipped scenarios: {golden_runs - len(golden)}/{golden_runs} runs match the recorded digests")
    for problem in (verdict.problems + golden)[:20]:
        print(f"  CHECK FAILED: {problem}")

    if args.trace:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"{args.workload}-s{args.seed}.spans.json")
        layers = layer_metrics(tracer, passes, ops, ref_op_s)
        overhead = statistics.median(
            sum(op.untraced.ns[i] for op in ops) / sum(op.traced_ns[i] for op in ops) for i in range(len(passes))
        )
        layers["trace.overhead"] = (overhead, "ratio")
        print(f"  traced passes: {len(passes)}, trace.overhead {overhead:.4f}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        if verdict.loads:
            fluct_ratio = float(verdict.fluct_after / verdict.fluct_before)
            bin_share = verdict.bins / verdict.loads
        else:
            fluct_ratio = bin_share = 1.0
        values = {
            "setup_s": setup_s,
            "ops_per_s": rate,
            "op_p50_s": p50,
            "op_tail_s": tail,
            "peak_rss_mib": peak_rss_mib,
            "ok_ratio": ok_ratio,
            "fluct_ratio": fluct_ratio,
            "bin_share": bin_share,
        }
        metrics = {name: {"value": values[name], "unit": UNITS.get(name, "ratio")} for name in END_TO_END}
    result = {"correct": correct, "attempted": runs + golden_runs, "failed": failed_runs + len(golden)}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
