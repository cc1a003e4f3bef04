"""Batch front-end: simulate, schedule, or power-plan a scenario file.

Exit codes: 0 success, 2 scenario validation failure (a quantity's decimal
exponent beyond ±files.MAX_EXPONENT, a mantissa or "p/q" side of more than
files.MAX_DIGITS digits, and JSON nested too deeply to parse included), 4
missing soc/voltage fields in plan-power, 3 any other scheduling error or
ValueError: an infeasible power plan, a duty de-rating whose scaled
on-widths fall off the tick grid, a hyperperiod beyond the tick range, a
waveform sweep above its edge budget, and an OSError while creating `--out`
or writing a report, whose line names the path. Each failure prints one
`error:` line to stderr. `schedule` schedules every group, so its
`--allow-partial` is accepted and ignored.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import files
from .errors import MissingSocError, MissingVoltageError, PulseSchedError, ScenarioError
from .files import Scenario, amount_str, load_scenario, write_text_atomic
from .grouping import GroupPlan, schedule_fleet
from .power import MODES, enforce_limit, prioritize_and_admit
from .ticks import seconds_str
from .waveform import Metrics, PulseSpec, aggregate_profile, profile_metrics

EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_MISSING_FIELDS = 4
# every other PulseSchedError, and any ValueError, exits EXIT_INFEASIBLE
EXIT_CODES = {
    ScenarioError: EXIT_VALIDATION,
    MissingSocError: EXIT_MISSING_FIELDS,
    MissingVoltageError: EXIT_MISSING_FIELDS,
}


def _print_metrics(label: str, m: Metrics) -> None:
    print(
        f"{label}: min {amount_str(m.min_a)} A, max {amount_str(m.max_a)} A, "
        f"fluctuation {amount_str(m.fluctuation_a)} A, mean {amount_str(m.mean_a)} A"
    )


def _emit_waveform(scenario: Scenario, args, profile, out: Path, stem: str) -> None:
    if args.csv or scenario.emit_csv:
        write_text_atomic(out / f"{stem}.waveform.csv", files.waveform_csv(profile))
    if args.svg or scenario.emit_svg:
        # the locale may have decoded the file name's bytes to lone surrogates,
        # which UTF-8 cannot encode; the title reads those bytes as UTF-8
        title = os.fsencode(stem).decode("utf-8", "replace")
        write_text_atomic(out / f"{stem}.waveform.svg", files.waveform_svg(profile, title))


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    for k, present in enumerate(scenario.explicit_phase):
        if not present:
            raise ScenarioError(
                f"{args.scenario}: loads[{k}].phase_s: required for simulation"
            )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.scenario).stem

    profile = aggregate_profile(scenario.loads)
    metrics = profile_metrics(profile)
    print(f"loads: {len(scenario.loads)}, hyperperiod: {seconds_str(profile.hyperperiod)} s")
    _print_metrics("aggregate", metrics)
    write_text_atomic(out / f"{stem}.metrics.json", files.metrics_json(metrics))
    _emit_waveform(scenario, args, profile, out, stem)
    return 0


def _schedule_rows(fleet: list[PulseSpec], plan: GroupPlan) -> list[dict]:
    place = {
        load_id: (group.index, "bin" if is_bin else "item")
        for group in plan.groups
        for load_id, is_bin in zip(group.member_ids, group.assignment.bin_flags)
    }
    return [
        {"id": s.id, "group": place[s.id][0], "role": place[s.id][1], "phase_s": seconds_str(s.phase)}
        for s in fleet
    ]


def cmd_schedule(args) -> int:
    scenario = load_scenario(args.scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.scenario).stem

    before = profile_metrics(aggregate_profile(scenario.loads))
    fleet, plan = schedule_fleet(scenario.loads)
    after_profile = aggregate_profile(fleet)
    after = profile_metrics(after_profile)

    bins_total = sum(g.assignment.bins_used for g in plan.groups)
    print(f"groups: {len(plan.groups)}, bin-type loads: {bins_total}")
    _print_metrics("before", before)
    _print_metrics("after", after)

    write_text_atomic(out / f"{stem}.schedule.json", files.schedule_json(_schedule_rows(fleet, plan)))
    write_text_atomic(
        out / f"{stem}.scheduled.json",
        files.scenario_json(fleet, scenario.p_max_w, scenario.power_mode),
    )
    write_text_atomic(out / f"{stem}.metrics_before.json", files.metrics_json(before))
    write_text_atomic(out / f"{stem}.metrics_after.json", files.metrics_json(after))
    _emit_waveform(scenario, args, after_profile, out, stem)
    return 0


def cmd_plan_power(args) -> int:
    scenario = load_scenario(args.scenario)
    if scenario.p_max_w is None:
        raise ScenarioError(f"{args.scenario}: power.p_max_w: required for plan-power")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.scenario).stem

    mode = args.mode or scenario.power_mode
    loads = scenario.loads
    derated = None
    if mode is not None:
        # de-rating keeps every load charging and trims the excess proportionally
        plan = prioritize_and_admit(loads, scenario.p_max_w, derate=True)
        if plan.p_sum_w > plan.p_max_w:
            plan, derated = enforce_limit(plan, loads, mode)
            write_text_atomic(
                out / f"{stem}.derated.json", files.scenario_json(derated, scenario.p_max_w, mode)
            )
    else:
        plan = prioritize_and_admit(loads, scenario.p_max_w)

    write_text_atomic(out / f"{stem}.plan.json", files.plan_json(plan))
    print(
        f"admitted: {list(plan.admitted)}, postponed: {list(plan.postponed)}, "
        f"scale: {amount_str(plan.scale)}"
    )
    if derated is not None:
        print(f"de-rated ({mode}) scenario written to {stem}.derated.json")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pulsesched",
        description="Stagger pulse charging currents to flatten aggregate demand.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--csv", action="store_true", help="emit the waveform CSV")
        p.add_argument("--svg", action="store_true", help="emit the waveform SVG")

    p_sim = sub.add_parser("simulate", help="aggregate the loads as given and report metrics")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sched = sub.add_parser("schedule", help="group loads, stagger phases, report before/after")
    common(p_sched)
    p_sched.add_argument(
        "--allow-partial",
        action="store_true",
        help="accepted and ignored: every group is scheduled",
    )
    p_sched.set_defaults(func=cmd_schedule)

    p_plan = sub.add_parser("plan-power", help="admit loads under the power cap by SOC")
    common(p_plan)
    p_plan.add_argument("--mode", choices=MODES, help="enable de-rating")
    p_plan.set_defaults(func=cmd_plan_power)
    return parser


_PARSER = _build_parser()  # parse_args keeps no state between calls


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (PulseSchedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        codes = (code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))
        return next(codes, EXIT_INFEASIBLE)
    except OSError as exc:
        # creating --out or writing a report: load_scenario maps its own read errors
        path = exc.filename or args.out
        print(f"error: cannot write {str(path)!r}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
