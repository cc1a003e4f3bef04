"""Equal-period loads through the one solver: exact solve and checked realization."""
import random
from fractions import Fraction

import pytest
from helpers import (
    assert_bins_at_unit_level,
    oracle_min_bins_samefreq,
    random_samefreq_fleet,
    samefreq_subset_feasible,
)

from pulsesched import (
    AssignmentMultiFreq,
    EmptyInputError,
    InvalidAssignmentError,
    PulseSpec,
    aggregate_profile,
    multifreq,
    realize_phases_multifreq,
    solve_multifreq,
)

SCENARIO1_DUTIES = (50, 50, 80, 30, 60, 40, 50, 60, 50, 90)
SCENARIO1_RANDOM_PHASES = ("0.65", "0.63", "0.83", "0.93", "0.67", "0.75", "0.74", "0.39", "0.65", "0.17")


def scenario1_specs():
    return [
        PulseSpec.from_seconds(i + 1, 10, "1", Fraction(d, 100), phase_s=p)
        for i, (d, p) in enumerate(zip(SCENARIO1_DUTIES, SCENARIO1_RANDOM_PHASES))
    ]


def spec(id, period, width, phase=0, amp=10):
    return PulseSpec(id=id, amplitude=amp, period=period, on_width=width, phase=phase)


class TestSolve:
    def test_scenario1_fleet_needs_six_bins(self):
        specs = scenario1_specs()
        assignment = solve_multifreq(specs)
        assert assignment.bins_used == 6
        assert assignment.bins_used == oracle_min_bins_samefreq(specs)
        assert_bins_at_unit_level(specs, assignment, realize_phases_multifreq(specs, assignment))

    def test_two_half_duty_loads_share_one_bin(self):
        specs = [spec(1, 1000, 500), spec(2, 1000, 500)]
        assignment = solve_multifreq(specs)
        assert assignment.bins_used == 1 == oracle_min_bins_samefreq(specs)
        assert assignment.bin_flags == (0, 1)
        assert assignment.placement == ((1, 1), None)

    def test_single_load_is_its_own_bin(self):
        assignment = solve_multifreq([spec(1, 1000, 400)])
        assert assignment.bins_used == 1
        assert assignment.bin_flags == (1,)
        assert assignment.placement == (None,)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            solve_multifreq([])

    def test_deterministic_across_runs(self):
        specs = scenario1_specs()
        assert solve_multifreq(specs) == solve_multifreq(specs)

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(101)
        for _ in range(60):
            specs = random_samefreq_fleet(rng, rng.randrange(1, 8))
            assignment = solve_multifreq(specs)
            assert assignment.bins_used == oracle_min_bins_samefreq(specs)
            assert_bins_at_unit_level(specs, assignment, realize_phases_multifreq(specs, assignment))

    def test_lower_bound_property(self):
        rng = random.Random(103)
        for _ in range(40):
            specs = random_samefreq_fleet(rng, rng.randrange(1, 9))
            assignment = solve_multifreq(specs)
            total = sum(s.on_width for s in specs)
            assert assignment.bins_used >= -(-total // specs[0].period)
            assert assignment.bins_used >= multifreq._Packer(specs).lower

    def test_tie_breaking_is_lexicographic(self):
        from itertools import combinations, product

        rng = random.Random(113)
        for _ in range(30):
            specs = random_samefreq_fleet(rng, rng.randrange(2, 7))
            n = len(specs)
            a = solve_multifreq(specs)

            # smallest bin-flag vector among all optimal-size feasible subsets
            flag_vectors = []
            for bins in combinations(range(n), a.bins_used):
                if samefreq_subset_feasible(specs, bins):
                    flag_vectors.append(tuple(1 if i in bins else 0 for i in range(n)))
            assert a.bin_flags == min(flag_vectors)

            # smallest placement vector among all feasible mappings for it
            bins = [i for i, f in enumerate(a.bin_flags) if f]
            items = [i for i, f in enumerate(a.bin_flags) if not f]
            best = None
            for mapping in product(bins, repeat=len(items)):
                room = {b: specs[b].off_width for b in bins}
                for j, b in zip(items, mapping):
                    room[b] -= specs[j].on_width
                if all(r >= 0 for r in room.values()):
                    best = mapping if best is None else min(best, mapping)
            assert tuple(a.placement[j][0] for j in items) == best


class TestRealize:
    def test_complementary_pair_yields_constant(self):
        specs = [spec(1, 1000, 500, phase=0), spec(2, 1000, 500, phase=123)]
        assignment = solve_multifreq(specs)
        realized = realize_phases_multifreq(specs, assignment)
        prof = aggregate_profile(realized)
        assert prof.levels == (Fraction(10),)

    def test_back_to_back_placement_arithmetic(self):
        # bin on [0.1, 0.3); items of widths 0.3 then 0.2 land at 0.3 and 0.6
        specs = [
            spec("bin", 1000000, 200000, phase=100000),
            spec("w3", 1000000, 300000),
            spec("w2", 1000000, 200000),
        ]
        assignment = AssignmentMultiFreq(placement=(None, (0, 1), (0, 1)))
        realized = realize_phases_multifreq(specs, assignment)
        assert realized[1].phase == 300000
        assert realized[2].phase == 600000

    def test_empty_item_set_keeps_phases(self):
        specs = [spec(1, 1000, 400, phase=77)]
        realized = realize_phases_multifreq(specs, solve_multifreq(specs))
        assert realized == specs

    def test_bins_keep_input_phases(self):
        specs = scenario1_specs()
        assignment = solve_multifreq(specs)
        realized = realize_phases_multifreq(specs, assignment)
        for pos, flag in enumerate(assignment.bin_flags):
            if flag:
                assert realized[pos] == specs[pos]

    def test_capacity_violation_raises(self):
        specs = [spec(1, 1000, 600), spec(2, 1000, 500)]
        bad = AssignmentMultiFreq(placement=(None, (0, 1)))
        with pytest.raises(InvalidAssignmentError):
            realize_phases_multifreq(specs, bad)

    def test_group_members_never_overlap(self):
        rng = random.Random(107)
        for _ in range(30):
            specs = random_samefreq_fleet(rng, rng.randrange(2, 7))
            assignment = solve_multifreq(specs)
            realized = realize_phases_multifreq(specs, assignment)
            assert_bins_at_unit_level(specs, assignment, realized)


class TestVerify:
    """Realization is the one check of an assignment: it rejects what it cannot place."""

    def test_solver_output_is_clean(self):
        rng = random.Random(109)
        for _ in range(20):
            specs = random_samefreq_fleet(rng, rng.randrange(1, 7))
            assignment = solve_multifreq(specs)
            assert_bins_at_unit_level(specs, assignment, realize_phases_multifreq(specs, assignment))

    def test_item_wider_than_bin_off_interval(self):
        specs = [spec(1, 1000, 600), spec(2, 1000, 500)]
        bad = AssignmentMultiFreq(placement=(None, (0, 1)))
        # bin 0's single slot holds item 1, which finds no offset there
        with pytest.raises(InvalidAssignmentError, match="no free offset"):
            realize_phases_multifreq(specs, bad)

    def test_item_hosted_by_non_bin_flagged(self):
        specs = [spec(1, 1000, 500), spec(2, 1000, 400), spec(3, 1000, 300)]
        bad = AssignmentMultiFreq(placement=(None, (2, 1), (0, 1)))
        with pytest.raises(InvalidAssignmentError, match="not a bin"):
            realize_phases_multifreq(specs, bad)
