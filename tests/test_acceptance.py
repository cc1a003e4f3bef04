"""Acceptance criteria for the scheduler, one test per criterion.

Each criterion prints its own pass/fail line (run with -s to see them all)
and asserts its stated tolerance, which is exact equality for every
current/power value: the kernel works on integer ticks and rationals.
"""
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pulsesched
from helpers import (
    assert_bins_at_unit_level,
    oracle_min_bins_multifreq,
    oracle_min_bins_samefreq,
    random_mixed_fleet,
    random_multifreq_fleet,
    random_samefreq_fleet,
    samefreq_subset_feasible,
)
from pulsesched import (
    AdjustmentRequest,
    PulseSpec,
    adjust_waveform,
    aggregate_profile,
    enforce_limit,
    hyperperiod,
    mean_power,
    partition_by_frequency,
    prioritize_and_admit,
    profile_metrics,
    realize_phases_multifreq,
    schedule_fleet,
    solve_multifreq,
)
from pulsesched.adjust import total_mean_power
from pulsesched.cli import main
from pulsesched.files import load_scenario

SCENARIOS = Path(pulsesched.__file__).parent / "scenarios"


@contextmanager
def criterion(number: int, label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} [{label}]: FAIL")
        raise
    print(f"criterion {number} [{label}]: PASS ({time.perf_counter() - started:.2f}s)")


def simulate(name: str):
    loads = load_scenario(SCENARIOS / name).loads
    return loads, profile_metrics(aggregate_profile(loads))


def test_criterion_1_scenario1_baseline():
    with criterion(1, "scenario-1 baseline 20-100 A"):
        start = time.perf_counter()
        _, m = simulate("scenario1_random.json")
        elapsed = time.perf_counter() - start
        assert m.max_a == 100
        assert m.min_a == 20
        assert elapsed < 1.0


def test_criterion_2_scenario1_staggered():
    with criterion(2, "scenario-1 staggered 50-60 A"):
        start = time.perf_counter()
        _, m = simulate("scenario1_staggered.json")
        elapsed = time.perf_counter() - start
        assert m.max_a == 60
        assert m.min_a == 50
        assert elapsed < 1.0


def test_criterion_3_scenario2_baseline():
    with criterion(3, "scenario-2 baseline 10-90 A"):
        _, m = simulate("scenario2_random.json")
        assert m.max_a == 90
        assert m.min_a == 10


def test_criterion_4_scenario2_staggered():
    with criterion(4, "scenario-2 staggered 40-60 A"):
        _, m = simulate("scenario2_staggered.json")
        assert m.max_a == 60
        assert m.min_a == 40


def test_criterion_5_solver_optimality_scenario1():
    with criterion(5, "scenario-1 solver: 6 bins, <=10 A band"):
        start = time.perf_counter()
        loads, baseline = simulate("scenario1_random.json")

        assignment = solve_multifreq(loads)
        assert assignment.bins_used == 6

        # independent oracle: every one of the 2^10 bin subsets, each decided
        # by an exact packing search
        best = len(loads)
        for size in range(1, len(loads) + 1):
            for bins in combinations(range(len(loads)), size):
                if samefreq_subset_feasible(loads, bins):
                    best = min(best, size)
        assert best == assignment.bins_used == 6

        realized = realize_phases_multifreq(loads, assignment)
        assert_bins_at_unit_level(loads, assignment, realized)
        m = profile_metrics(aggregate_profile(realized))
        assert m.fluctuation_a <= 10
        assert baseline.fluctuation_a == 80
        assert m.fluctuation_a < baseline.fluctuation_a
        assert time.perf_counter() - start < 5.0


def test_criterion_6_solver_behavior_scenario2():
    with criterion(6, "scenario-2 grouping: 5 bins, constant 50 A"):
        loads = load_scenario(SCENARIOS / "scenario2_random.json").loads
        plan = partition_by_frequency(loads)
        by_id = {s.id: s for s in loads}
        freq_sets = [
            sorted((by_id[m].frequency_hz for m in g.member_ids), reverse=True)
            for g in plan.groups
        ]
        assert freq_sets == [[8, 8, 4, 4, 2, 2, 1, 1], [5, 5]]

        fleet, solved = schedule_fleet(loads)
        bins_total = sum(g.assignment.bins_used if g.assignment else 1 for g in solved.groups)
        assert bins_total == 5

        m = profile_metrics(aggregate_profile(fleet))
        assert m.fluctuation_a == 0
        assert m.min_a == m.max_a == 50

        # conservation: the mean is 50 A no matter the phases
        for name in ("scenario2_random.json", "scenario2_staggered.json"):
            _, sim = simulate(name)
            assert sim.mean_a == 50
        assert m.mean_a == 50


def test_criterion_7_property_suite():
    with criterion(7, "property suite (a)-(f)"):
        start = time.perf_counter()

        # (a) phase-translation invariance, 100 random fleets
        rng = random.Random(1001)
        for _ in range(100):
            specs = random_mixed_fleet(rng, rng.randrange(1, 6))
            offset = rng.randrange(1, 1000)
            shifted = [
                PulseSpec(s.id, s.amplitude, s.period, s.on_width, s.phase + offset)
                for s in specs
            ]
            assert profile_metrics(aggregate_profile(specs)) == profile_metrics(
                aggregate_profile(shifted)
            )

        # (b) time-weighted mean equals the duty-weighted amplitude sum, exactly
        rng = random.Random(1003)
        for _ in range(100):
            specs = random_mixed_fleet(rng, rng.randrange(1, 6))
            mean = profile_metrics(aggregate_profile(specs)).mean_a
            assert mean == sum((s.amplitude * s.duty for s in specs), Fraction(0))

        # (c) same-frequency solver matches brute force, 200 trials, n <= 8
        rng = random.Random(1005)
        for _ in range(200):
            specs = random_samefreq_fleet(rng, rng.randrange(1, 9))
            assert solve_multifreq(specs).bins_used == oracle_min_bins_samefreq(specs)

        # (d) multi-frequency solver matches brute force, 50 trials,
        #     n <= 6, hyperperiod <= 1 s
        rng = random.Random(1007)
        for _ in range(50):
            specs = random_multifreq_fleet(rng, rng.randrange(1, 7), base=125000)
            assert hyperperiod(specs) <= 10**6
            assert solve_multifreq(specs).bins_used == oracle_min_bins_multifreq(specs)

        # (e) waveform adjustment preserves mean power, exhaustive rational grid
        period = 55440  # highly divisible
        duties = [Fraction(n, d) for d in (1, 2, 3, 4, 5, 6, 7, 8) for n in range(1, d + 1)]
        for duty in duties:
            for voltage in (Fraction(2), Fraction(7, 2)):
                for amplitude in (Fraction(10), Fraction(13, 4)):
                    s = PulseSpec(id=1, amplitude=amplitude, period=period,
                                  on_width=period // 2, voltage=voltage)
                    out = adjust_waveform(s, AdjustmentRequest(duty))
                    assert mean_power(out) == mean_power(s)

        # (f) enforce_limit lands exactly on the cap and is idempotent
        rng = random.Random(1009)
        for _ in range(40):
            n = rng.randrange(1, 6)
            specs = [
                PulseSpec(id=i + 1, amplitude=rng.randrange(1, 20), period=1000,
                          on_width=rng.randrange(1, 1001), voltage=rng.randrange(1, 500),
                          soc=Fraction(rng.randrange(101), 100))
                for i in range(n)
            ]
            total = total_mean_power(specs)
            cap = total * Fraction(rng.randrange(1, 100), 100)
            plan = prioritize_and_admit(specs, cap, derate=True)
            once = enforce_limit(plan, specs, "amplitude")
            assert total_mean_power(once[1]) == cap
            assert enforce_limit(once[0], once[1], "amplitude") == once

        assert time.perf_counter() - start < 60.0


def test_criterion_8_cli_round_trip(tmp_path):
    with criterion(8, "cli round-trip byte-identical"):
        for fixture in ("scenario1_random", "scenario2_random"):
            out = tmp_path / fixture
            assert main(["schedule", str(SCENARIOS / f"{fixture}.json"), "--out", str(out)]) == 0
            assert main(["simulate", str(out / f"{fixture}.scheduled.json"), "--out", str(out)]) == 0
            reported = (out / f"{fixture}.metrics_after.json").read_bytes()
            resimulated = (out / f"{fixture}.scheduled.metrics.json").read_bytes()
            assert reported == resimulated
