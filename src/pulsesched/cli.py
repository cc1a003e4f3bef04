"""Batch front-end: simulate, schedule, or power-plan a scenario file.

A run reads the scenario, computes, creates `--out`, writes every report and
prints, in that order. `main` does all of that I/O. A `cmd_*` only computes:
it returns its stdout lines, its reports ({file suffix: text}, in write order)
and the profile its waveform files show (None: it has none). So a failed run
prints nothing on stdout, and one that fails to read or compute leaves no `--out`.
A run whose report write or waveform build fails, or that cannot print its
lines, removes the reports it wrote before that, so it leaves none of its own
reports (a report it had replaced is gone as well) and no other file in
`--out` is touched; then it removes the `--out` directories it created,
deepest first, each only if it is empty.

`main` pauses the cyclic garbage collector for the whole call, from parsing
the arguments to the last print. A run builds no reference cycles, only
some 10^4 acyclic containers on a large fleet (specs, Fractions, key
tuples), so the collector's passes over them find nothing to free. The
caller's collector state is restored whether `main` returns or raises
(argparse's SystemExit).

Exit codes: 0 success, 2 scenario validation failure (a quantity's decimal
exponent beyond ±ticks.MAX_EXPONENT, a mantissa or "p/q" side of more than
ticks.MAX_DIGITS digits, and JSON nested too deeply to parse included), 4
missing soc/voltage fields in plan-power, 3 any other scheduling error or
ValueError: an infeasible power plan, a duty de-rating whose scaled
on-widths fall off the tick grid, a hyperperiod beyond the tick range, a
waveform sweep above its edge budget, a common denominator of the loads'
amplitudes (in the sweep) or SOCs or mean powers (in admission) that passes
waveform.MAX_DENOMINATOR_BITS, a waveform CSV level or a de-rated
amplitude whose numerator or denominator passes sys.get_int_max_str_digits(),
and an OSError while creating `--out`, writing a report or printing, whose
line names the path or `stdout`, as does a stdout whose encoding cannot
encode the lines. Each failure prints one `error:` line to stderr.
`schedule` schedules every group, so its `--allow-partial` is accepted and
ignored.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys
from itertools import takewhile
from pathlib import Path

from . import files
from .errors import MissingSocError, MissingVoltageError, PulseSchedError, ScenarioError
from .files import Scenario, amount_str, load_scenario, write_text_atomic
from .grouping import schedule_fleet
from .power import MODES, enforce_limit, prioritize_and_admit
from .ticks import seconds_str
from .waveform import Metrics, aggregate_profile, profile_metrics

EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_MISSING_FIELDS = 4
# every other PulseSchedError, and any ValueError, exits EXIT_INFEASIBLE
EXIT_CODES = {
    ScenarioError: EXIT_VALIDATION,
    MissingSocError: EXIT_MISSING_FIELDS,
    MissingVoltageError: EXIT_MISSING_FIELDS,
}


def _metrics_line(label: str, m: Metrics) -> str:
    return (
        f"{label}: min {amount_str(m.min_a)} A, max {amount_str(m.max_a)} A, "
        f"fluctuation {amount_str(m.fluctuation_a)} A, mean {amount_str(m.mean_a)} A"
    )


def cmd_simulate(args, scenario: Scenario) -> tuple:
    for k, present in enumerate(scenario.explicit_phase):
        if not present:
            raise ScenarioError(f"{args.scenario}: loads[{k}].phase_s: required for simulation")
    profile = aggregate_profile(scenario.loads)
    metrics = profile_metrics(profile)
    lines = [
        f"loads: {len(scenario.loads)}, hyperperiod: {seconds_str(profile.hyperperiod)} s",
        _metrics_line("aggregate", metrics),
    ]
    return lines, {"metrics.json": files.metrics_json(metrics)}, profile


def cmd_schedule(args, scenario: Scenario) -> tuple:
    before = profile_metrics(aggregate_profile(scenario.loads))
    fleet, groups = schedule_fleet(scenario.loads)
    after_profile = aggregate_profile(fleet)
    after = profile_metrics(after_profile)
    lines = [
        f"groups: {len(groups)}, bin-type loads: {sum(g.assignment.bins_used for g in groups)}",
        _metrics_line("before", before),
        _metrics_line("after", after),
    ]
    reports = {
        "schedule.json": files.schedule_json(fleet, groups),
        "scheduled.json": files.scenario_json(fleet, scenario.p_max_w, scenario.power_mode),
        "metrics_before.json": files.metrics_json(before),
        "metrics_after.json": files.metrics_json(after),
    }
    return lines, reports, after_profile


def cmd_plan_power(args, scenario: Scenario) -> tuple:
    if scenario.p_max_w is None:
        raise ScenarioError(f"{args.scenario}: power.p_max_w: required for plan-power")
    mode = args.mode or scenario.power_mode
    # de-rating keeps every load charging and trims the excess proportionally;
    # without it admission stops at the cap, so only a de-rating plan exceeds it
    plan = prioritize_and_admit(scenario.loads, scenario.p_max_w, derate=mode is not None)
    reports = {}
    if plan.p_sum_w > plan.p_max_w:
        plan, derated = enforce_limit(plan, scenario.loads, mode)
        try:  # a de-rated amplitude's p/q, over the loads' common denominator, can pass the limit
            reports["derated.json"] = files.scenario_json(derated, scenario.p_max_w, mode)
        except ValueError as exc:  # str() of an int past the limit, the only ValueError there
            raise files.digit_limit_error("the de-rated scenario cannot print an amplitude") from exc
    reports["plan.json"] = files.plan_json(plan)
    lines = [
        f"admitted: {list(plan.admitted)}, postponed: {list(plan.postponed)}, "
        f"scale: {amount_str(plan.scale)}"
    ]
    if "derated.json" in reports:
        lines.append(f"de-rated ({mode}) scenario written to {Path(args.scenario).stem}.derated.json")
    return lines, reports, None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pulsesched",
        description="Stagger pulse charging currents to flatten aggregate demand.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func, waveform=True):
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        if waveform:
            p.add_argument("--csv", action="store_true", help="emit the waveform CSV")
            p.add_argument("--svg", action="store_true", help="emit the waveform SVG")
        p.set_defaults(func=func)

    p_sim = sub.add_parser("simulate", help="aggregate the loads as given and report metrics")
    common(p_sim, cmd_simulate)

    p_sched = sub.add_parser("schedule", help="group loads, stagger phases, report before/after")
    common(p_sched, cmd_schedule)
    p_sched.add_argument(
        "--allow-partial", action="store_true", help="accepted and ignored: every group is scheduled"
    )

    p_plan = sub.add_parser("plan-power", help="admit loads under the power cap by SOC")
    common(p_plan, cmd_plan_power, waveform=False)
    p_plan.add_argument("--mode", choices=MODES, help="enable de-rating")
    return parser


_PARSER = _build_parser()  # parse_args keeps no state between calls


def _discard_stdout() -> None:
    """Point stdout's file descriptor at the null device: what its buffer still holds cannot
    be written, and would fail again, with a traceback, when Python flushes it at exit."""
    with contextlib.suppress(OSError, ValueError):  # ValueError: stdout has no descriptor
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def main(argv=None) -> int:
    """Run one command line; the cyclic collector is paused for the run and left as found."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:  # argparse's SystemExit included
        if collecting:
            gc.enable()


def _run(argv) -> int:
    args = _PARSER.parse_args(argv)
    written: list[Path] = []  # this run's reports, removed again if a later step fails
    made: list[Path] = []  # the --out directories this run creates, deepest first
    printing = False  # an error from here on is stdout's, not a report's
    try:
        scenario = load_scenario(args.scenario)
        lines, reports, profile = args.func(args, scenario)
        out = Path(args.out)
        made += takewhile(lambda d: not d.exists(), (out, *out.parents))
        out.mkdir(parents=True, exist_ok=True)
        stem = Path(args.scenario).stem

        def write(suffix: str, text: str) -> None:
            path = out / f"{stem}.{suffix}"
            write_text_atomic(path, text)
            written.append(path)

        for suffix, text in reports.items():
            write(suffix, text)
        # each waveform text is built after the reports and written before the
        # next is built, so at most one is held at a time
        if profile is not None and (args.csv or scenario.emit_csv):
            write("waveform.csv", files.waveform_csv(profile))
        if profile is not None and (args.svg or scenario.emit_svg):
            # the locale may have decoded the file name's bytes to lone surrogates,
            # which UTF-8 cannot encode; the title reads those bytes as UTF-8
            title = os.fsencode(stem).decode("utf-8", "replace")
            write("waveform.svg", files.waveform_svg(profile, title))
        printing = True
        print("\n".join(lines), flush=True)
        return 0
    except (PulseSchedError, ValueError) as exc:
        message = f"cannot write stdout: {exc}" if printing else str(exc)  # print's UnicodeEncodeError
        code = next((code for cls, code in EXIT_CODES.items() if isinstance(exc, cls)), EXIT_INFEASIBLE)
    except OSError as exc:
        # creating --out, writing a report or printing: load_scenario maps its own read errors
        target = "stdout" if printing else repr(str(exc.filename or args.out))
        message = f"cannot write {target}: {exc.strerror or exc}"
        code = EXIT_INFEASIBLE
        if printing:
            _discard_stdout()
    for path in written:
        with contextlib.suppress(OSError):
            path.unlink()
    for directory in made:  # rmdir removes only an empty one
        with contextlib.suppress(OSError):
            directory.rmdir()
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
