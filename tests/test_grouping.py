"""Fleet partition by frequency divisibility and end-to-end scheduling."""
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pulsesched
import pytest
from helpers import assert_bins_at_unit_level, random_multifreq_fleet

from pulsesched import (
    EmptyInputError,
    PulseSpec,
    aggregate_profile,
    grouping,
    partition_by_frequency,
    profile_metrics,
    schedule_fleet,
)
from pulsesched.files import load_scenario

SCENARIOS = Path(pulsesched.__file__).parent / "scenarios"

SCENARIO2_FREQS = (8, 4, 5, 5, 1, 2, 4, 2, 8, 1)


def scenario2_specs(phases=("0.21", "0.30", "0.47", "0.23", "0.84", "0.19", "0.22", "0.17", "0.22", "0.43")):
    specs = []
    for i, (f, p) in enumerate(zip(SCENARIO2_FREQS, phases)):
        period = 10**6 // f
        phase = int(Fraction(p) * 10**6)
        specs.append(PulseSpec(id=i + 1, amplitude=10, period=period, on_width=period // 2, phase=phase))
    return specs


def spec(id, period, width=None, phase=0):
    width = width or period // 2
    return PulseSpec(id=id, amplitude=10, period=period, on_width=width, phase=phase)


# per-slot capacity fits one bin (the 15-tick load), but no one-bin
# placement leaves every item an offset under the lowest-offset rule; two
# bins realize
UNREALIZABLE = [
    spec(1, 45, 2), spec(2, 45, 3), spec(3, 15, 3), spec(4, 30, 3), spec(5, 30, 8), spec(6, 30, 6)
]


class TestPartition:
    def test_scenario2_splits_into_chain_and_five_hz_groups(self):
        plan = partition_by_frequency(scenario2_specs())
        assert len(plan.groups) == 2
        assert plan.groups[0].anchor_id == 1
        assert plan.groups[0].member_ids == (1, 2, 5, 6, 7, 8, 9, 10)
        assert plan.groups[1].anchor_id == 3
        assert plan.groups[1].member_ids == (3, 4)

    def test_equal_frequencies_form_one_group(self):
        plan = partition_by_frequency([spec(i, 1000) for i in range(1, 5)])
        assert len(plan.groups) == 1
        assert plan.groups[0].member_ids == (1, 2, 3, 4)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            partition_by_frequency([spec(1, 1000), spec(2, 2000), spec(1, 3000)])

    def test_coprime_frequencies_form_singletons(self):
        plan = partition_by_frequency([spec(1, 3000), spec(2, 7000)])
        assert [g.member_ids for g in plan.groups] == [(1,), (2,)]

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            partition_by_frequency([])

    def test_partition_is_disjoint_cover(self):
        rng = random.Random(307)
        for _ in range(30):
            specs = random_multifreq_fleet(rng, rng.randrange(1, 9))
            plan = partition_by_frequency(specs)
            seen = [i for g in plan.groups for i in g.member_ids]
            assert sorted(seen) == sorted(s.id for s in specs)
            assert len(seen) == len(set(seen))

    def test_anchor_has_minimal_period_in_group(self):
        rng = random.Random(311)
        for _ in range(30):
            specs = random_multifreq_fleet(rng, rng.randrange(1, 9))
            by_id = {s.id: s for s in specs}
            for g in partition_by_frequency(specs).groups:
                anchor_period = by_id[g.anchor_id].period
                assert all(by_id[m].period % anchor_period == 0 for m in g.member_ids)

    def test_permutation_invariance_up_to_tie_rule(self):
        rng = random.Random(313)
        for _ in range(20):
            specs = random_multifreq_fleet(rng, rng.randrange(2, 8))
            shuffled = specs[:]
            rng.shuffle(shuffled)
            a = partition_by_frequency(specs)
            b = partition_by_frequency(shuffled)
            assert [frozenset(g.member_ids) for g in a.groups] == [
                frozenset(g.member_ids) for g in b.groups
            ]


class TestScheduleFleet:
    def test_single_frequency_fleet_matches_samefreq_path(self):
        specs = [spec(i, 1000, width=w) for i, w in ((1, 500), (2, 500), (3, 300))]
        fleet, plan = schedule_fleet(specs)
        assert len(plan.groups) == 1
        assignment = plan.groups[0].assignment
        # load 1 sits in load 2's single off-interval, right behind its pulse
        assert assignment.placement == ((1, 1), None, None)
        assert assignment.bin_flags == (0, 1, 1)
        assert [s.phase for s in fleet] == [500, 0, 0]

    def test_scenario2_fleet_is_constant_fifty_amps(self):
        fleet, plan = schedule_fleet(scenario2_specs())
        m = profile_metrics(aggregate_profile(fleet))
        assert (m.min_a, m.max_a, m.fluctuation_a, m.mean_a) == (50, 50, 0, 50)
        bins_total = sum(g.assignment.bins_used if g.assignment else 1 for g in plan.groups)
        assert bins_total == 5

    def test_singleton_fleet_unchanged(self):
        specs = [spec(1, 1000, phase=123)]
        fleet, plan = schedule_fleet(specs)
        assert fleet == specs
        assert plan.groups[0].assignment.placement == (None,)

    def test_output_ordered_by_id(self):
        specs = [spec(3, 1000), spec(1, 2000), spec(2, 1000, phase=7)]
        fleet, _ = schedule_fleet(specs)
        assert [s.id for s in fleet] == [1, 2, 3]

    def test_group_unrealizable_on_fewest_bins_is_scheduled_on_more(self):
        # mixed ratios {2, 3} admit slot-feasible placements on one bin that
        # the offset rule cannot realize; the solver takes two bins
        fleet, plan = schedule_fleet(UNREALIZABLE)
        assignment = plan.groups[0].assignment
        assert assignment.placement == ((2, 1), (2, 2), None, (2, 1), (2, 2), None)
        assert assignment.bins_used == 2
        assert_bins_at_unit_level(UNREALIZABLE, assignment, fleet)

    def test_every_group_is_scheduled(self):
        conflicted = [
            *UNREALIZABLE,
            spec("p", 7777, width=3500, phase=100),
            spec("q", 7777, width=3500),
        ]
        fleet, plan = schedule_fleet(conflicted)
        assert [g.assignment.bins_used for g in plan.groups] == [2, 1]
        by_id = {s.id: s for s in fleet}
        # the indivisible-period pair still got staggered back to back
        assert (by_id["p"].phase - by_id["q"].phase) % 7777 == 3500
        assert fleet[:6] == schedule_fleet(UNREALIZABLE)[0]

    def test_wide_ratio_group_stays_small(self):
        # a 2-tick bin has 500,000 slots over the 1 s hyperperiod of its
        # three items; the search keeps only each bin's placed intervals
        specs = [PulseSpec(1, 1, 2, 1)] + [PulseSpec(i, 1, 10**6, 1) for i in (2, 3, 4)]
        tracemalloc.start()
        try:
            fleet, plan = schedule_fleet(specs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plan.groups[0].assignment.placement == (None, (0, 1), (0, 2), (0, 3))
        assert [s.phase for s in fleet] == [0, 1, 3, 5]
        assert peak < 5 * 2**20

    def test_mean_is_conserved_by_scheduling(self):
        rng = random.Random(317)
        for _ in range(15):
            specs = random_multifreq_fleet(rng, rng.randrange(1, 7))
            fleet, _ = schedule_fleet(specs)
            before = profile_metrics(aggregate_profile(specs)).mean_a
            after = profile_metrics(aggregate_profile(fleet)).mean_a
            assert before == after

    def test_group_members_never_overlap_after_scheduling(self):
        rng = random.Random(331)
        for _ in range(15):
            specs = random_multifreq_fleet(rng, rng.randrange(2, 7))
            fleet, plan = schedule_fleet(specs)
            by_id = {s.id: s for s in fleet}
            for g in plan.groups:
                if len(g.member_ids) == 1:
                    continue
                unit = [
                    PulseSpec(m, 1, by_id[m].period, by_id[m].on_width, by_id[m].phase)
                    for m in g.member_ids
                ]
                # each bin cluster has at most one member on at any instant,
                # so the group's unit level is bounded by its cluster count
                level = max(aggregate_profile(unit).levels)
                assignment = g.assignment
                assert level <= (assignment.bins_used if assignment else 1)


class TestSolverNames:
    """One-period groups go through the `samefreq` names, whose spans perfbench traces."""

    ROUTED = ("solve_samefreq", "realize_phases_samefreq", "solve_multifreq", "realize_phases_multifreq")

    def test_samefreq_names_are_the_one_solver(self):
        assert grouping.solve_samefreq is grouping.solve_multifreq
        assert grouping.realize_phases_samefreq is grouping.realize_phases_multifreq

    @pytest.mark.parametrize(
        "fleet, samefreq_calls, multifreq_calls",
        [
            # the 5 Hz pair has one period; the other eight loads nest
            (load_scenario(SCENARIOS / "scenario2_random.json").loads, 1, 1),
            (load_scenario(SCENARIOS / "scenario1_random.json").loads, 1, 0),
            ([spec(1, 2), spec(2, 3)], 0, 0),  # singleton groups are not solved
        ],
        ids=["scenario2", "scenario1", "singletons"],
    )
    def test_schedule_fleet_routes_one_period_groups_to_the_samefreq_names(
        self, monkeypatch, fleet, samefreq_calls, multifreq_calls
    ):
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in self.ROUTED:
            monkeypatch.setattr(grouping, name, counting(name, getattr(grouping, name)))
        schedule_fleet(list(fleet))
        assert [calls[name] for name in self.ROUTED] == [samefreq_calls] * 2 + [multifreq_calls] * 2
