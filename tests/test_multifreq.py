"""Multi-frequency grouping model over the hyperperiod."""
import random
from dataclasses import replace
from itertools import combinations, product

import pytest
from helpers import (
    assert_bins_at_unit_level,
    lowest_offsets_realize,
    multifreq_subset_feasible,
    oracle_first_placement,
    oracle_min_bins_multifreq,
    oracle_min_bins_samefreq,
    random_multifreq_fleet,
    random_samefreq_fleet,
    reference_module,
    rule_order_placements,
)
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pulsesched import (
    AssignmentMultiFreq,
    EmptyInputError,
    InvalidAssignmentError,
    PulseSpec,
    check_groupability,
    hyperperiod,
    load_sort_key,
    multifreq,
    realize_phases_multifreq,
    solve_multifreq,
)

ref_samefreq = reference_module("samefreq")
ref_waveform = reference_module("waveform")


def spec(id, period, width, phase=0, amp=10):
    return PulseSpec(id=id, amplitude=amp, period=period, on_width=width, phase=phase)


def slots_of(specs, a, j):
    """Off-interval indices (1-based) that item j occupies in its bin over the hyperperiod."""
    b, cls = a.placement[j]
    ratio = specs[j].period // specs[b].period
    return tuple(range(cls, hyperperiod(specs) // specs[b].period + 1, ratio))


def bins_of(a):
    """Each item's bin, keyed by the item's position."""
    return {j: p[0] for j, p in enumerate(a.placement) if p is not None}


def narrow_pulses(n, seed):
    """n loads of period 1000 ticks with widths drawn from 50..500."""
    rng = random.Random(f"{n}:{seed}")
    return [spec(i + 1, 1000, rng.randint(50, 500), amp=1) for i in range(n)]


class TestGroupability:
    def test_double_period_item_fits(self):
        bin_ = PulseSpec.from_seconds("b", 10, "0.25", "0.05")
        item = PulseSpec.from_seconds("i", 10, "0.5", "0.1")
        assert check_groupability(bin_, item)

    def test_half_duty_item_at_double_period_does_not_fit(self):
        # widths from 8 Hz / 4 Hz at 50% duty: 0.125 s > 0.0625 s off-interval
        bin_ = PulseSpec.from_seconds("b", 10, "0.125", "0.0625")
        item = PulseSpec.from_seconds("i", 10, "0.25", "0.125")
        assert not check_groupability(bin_, item)

    def test_equal_specs_group_with_ratio_one(self):
        s = spec(1, 1000, 400)
        assert check_groupability(s, spec(2, 1000, 400))

    def test_shorter_item_period_never_groups(self):
        assert not check_groupability(spec("b", 1000, 100), spec("i", 500, 50))

    def test_non_multiple_period_never_groups(self):
        assert not check_groupability(spec("b", 1000, 100), spec("i", 1500, 50))


class TestWindowRule:
    def test_raw_window_enumeration_reduces_to_progressions(self):
        # item with ratio 2 over 4 off-intervals: cyclic windows of 2 must each
        # hold exactly one occupied slot; only the two alternating patterns work
        valid = []
        for z in product((0, 1), repeat=4):
            if all(z[n % 4] + z[(n + 1) % 4] == 1 for n in range(4)):
                valid.append(z)
        assert valid == [(0, 1, 0, 1), (1, 0, 1, 0)]


class TestSolve:
    def test_fast_bin_with_three_half_rate_items(self):
        # one bin at T, three items at 2T; the first item recurs in slots 1, 3
        # when the pattern is read over two displayed hyperperiods
        specs = [
            PulseSpec.from_seconds(1, 10, "0.25", "0.05"),
            PulseSpec.from_seconds(2, 10, "0.5", "0.1"),
            PulseSpec.from_seconds(3, 10, "0.5", "0.1"),
            PulseSpec.from_seconds(4, 10, "0.5", "0.1"),
        ]
        a = solve_multifreq(specs)
        assert a.bins_used == 1
        assert a.bin_flags == (1, 0, 0, 0)
        assert a.placement == (None, (0, 1), (0, 1), (0, 2))
        assert slots_of(specs, a, 1) == (1,)
        n_bin = hyperperiod(specs) // specs[0].period
        horizon = [k for k in range(1, 5) if ((k - 1) % n_bin) + 1 in slots_of(specs, a, 1)]
        assert horizon == [1, 3]
        assert_bins_at_unit_level(specs, a, realize_phases_multifreq(specs, a))

    def test_scenario2_chain_group_needs_four_bins(self):
        # frequencies 8,8,4,4,2,2,1,1 Hz at 50% duty: only equal-frequency
        # pairings are feasible, so four bins host four items
        freqs = ["8", "8", "4", "4", "2", "2", "1", "1"]
        specs = []
        for i, f in enumerate(freqs):
            period = 10**6 // int(f)
            specs.append(spec(i + 1, period, period // 2))
        a = solve_multifreq(specs)
        assert a.bins_used == 4
        assert a.bins_used == oracle_min_bins_multifreq(specs)
        assert_bins_at_unit_level(specs, a, realize_phases_multifreq(specs, a))

    def test_two_identical_loads_item_in_every_off_interval(self):
        specs = [spec(1, 1000, 500), spec(2, 1000, 500)]
        a = solve_multifreq(specs)
        assert a.bins_used == 1
        assert a.bin_flags == (0, 1)
        # ratio 1, class 1: every off-interval of the bin
        assert a.placement == ((1, 1), None)
        assert slots_of(specs, a, 0) == tuple(range(1, hyperperiod(specs) // 1000 + 1))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            solve_multifreq([])

    def test_bin_that_holds_an_item_is_not_interchangeable(self):
        # a and b look alike until the wider y takes a: x then finds no
        # offset in a, and the search may not skip b as a copy of a
        specs = [spec("x", 20, 3), spec("y", 10, 4), spec("a", 10, 5), spec("b", 10, 5)]
        a = solve_multifreq(specs)
        assert a.bin_flags == (0, 0, 1, 1)
        assert a.placement == ((3, 1), (2, 1), None, None) == oracle_placement(specs)

    @pytest.mark.parametrize(
        "specs, bins, most_calls",
        [
            # 14 loads of 40 % duty pair up on 7 bins; a search that tried
            # every one of the equal bins at each node would visit over
            # 10**6 nodes
            ([spec(i, 100, 40) for i in range(1, 15)], 7, 100_000),
            # narrow pulses: the first subset packs at the L2 bound (7, 6
            # and 9 bins), and the search's first placement in it is the answer
            (narrow_pulses(24, 1), 7, 1000),
            (narrow_pulses(24, 2), 6, 1000),
            (narrow_pulses(32, 2), 9, 1000),
        ],
        ids=["14-at-40pc", "narrow-24-seed-1", "narrow-24-seed-2", "narrow-32-seed-2"],
    )
    def test_equal_bins_are_tried_once_per_node(self, monkeypatch, specs, bins, most_calls):
        calls = 0
        moves = multifreq._moves

        def counted(*args):  # one call per search node
            nonlocal calls
            calls += 1
            assert calls <= most_calls, "the search tries equal bins more than once"
            return moves(*args)

        monkeypatch.setattr(multifreq, "_moves", counted)
        a = solve_multifreq(specs)
        assert a.bins_used == bins
        assert_bins_at_unit_level(specs, a, realize_phases_multifreq(specs, a))

    @pytest.mark.parametrize("slow_period", [None, 2_000_000], ids=["one-period", "with-a-2s-load"])
    def test_search_depth_is_no_recursion_depth(self, monkeypatch, slow_period):
        # 1200 one-tick pulses at 1 Hz fit one host: the search places 1199
        # items, one level each, past the interpreter's recursion limit; a
        # 2 s load first makes the host's slots hold intervals, not a room
        n = 1200
        specs = [spec(i, 1_000_000, 1) for i in range(1, n + 1)]
        if slow_period:
            specs[0] = spec(1, slow_period, 1)
        packers = []

        class Recorded(multifreq._Packer):
            def __init__(self, specs):
                super().__init__(specs)
                packers.append(self)

        monkeypatch.setattr(multifreq, "_Packer", Recorded)
        a = solve_multifreq(specs)
        assert a.placement == ((n - 1, 1),) * (n - 1) + (None,)
        assert not any(packers[0].placed), "the search leaves items placed after it returns"
        # one option list per period, not one per item
        for period in {s.period for s in specs}:
            lists = {id(packers[0].entries[j][1]) for j, s in enumerate(specs) if s.period == period}
            assert len(lists) == 1

    def test_items_forced_onto_one_host_are_refused_before_the_search(self, monkeypatch):
        # the three 4-tick loads of period 10 can host only each other, in an
        # off-width of 6: a subset that keeps one of them as a bin forces the
        # other two onto it, which the search alone finds only after placing
        # the wider 20-tick items in every way (1772 nodes in all)
        specs = [spec(i, 10, 4) for i in range(1, 4)]
        specs += [spec(i, 20, w) for i, w in enumerate((10, 9, 8, 7, 6, 5), 4)]
        calls = 0
        moves = multifreq._moves

        def counted(*args):  # one call per search node
            nonlocal calls
            calls += 1
            return moves(*args)

        monkeypatch.setattr(multifreq, "_moves", counted)
        a = solve_multifreq(specs)
        assert calls <= 100
        assert a.bins_used == 4
        assert_bins_at_unit_level(specs, a, realize_phases_multifreq(specs, a))

    def test_degenerates_to_samefreq_on_equal_periods(self):
        # equal periods are the ratio-1 case: one slot per bin, class 1 for all
        rng = random.Random(211)
        for _ in range(25):
            n = rng.randrange(1, 7)
            specs = [
                spec(i + 1, 60, rng.randrange(1, 61), phase=rng.randrange(60)) for i in range(n)
            ]
            multi = solve_multifreq(specs)
            # the frozen second solver, the one this model replaced
            frozen = ref_samefreq.solve_samefreq(
                [ref_waveform.PulseSpec(s.id, s.amplitude, s.period, s.on_width, s.phase) for s in specs]
            )
            assert multi.bin_flags == frozen.bin_flags
            assert multi.placement == oracle_placement(specs)
            assert_bins_at_unit_level(specs, multi, realize_phases_multifreq(specs, multi))
            assert multi.bins_used == oracle_min_bins_samefreq(specs)
            assert all(p is None or p[1] == 1 for p in multi.placement)
            assert all(slots_of(specs, multi, j) == (1,) for j in bins_of(multi))

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(223)
        for _ in range(25):
            specs = random_multifreq_fleet(rng, rng.randrange(1, 6))
            a = solve_multifreq(specs)
            assert a.bins_used == oracle_min_bins_multifreq(specs)
            assert_bins_at_unit_level(specs, a, realize_phases_multifreq(specs, a))

    def test_tie_breaking_prefers_items_early_then_small_bins_and_slots(self):
        import math
        from itertools import combinations, product

        from helpers import multifreq_subset_feasible

        rng = random.Random(233)
        trials = 0
        while trials < 20:
            specs = random_multifreq_fleet(rng, rng.randrange(2, 5))
            a = solve_multifreq(specs)
            if a.bins_used == len(specs):
                continue
            trials += 1
            n = len(specs)
            t_lcm = math.lcm(*(s.period for s in specs))

            # smallest flag vector among optimal-size feasible subsets
            vectors = [
                tuple(1 if i in bins else 0 for i in range(n))
                for bins in combinations(range(n), a.bins_used)
                if multifreq_subset_feasible(specs, bins, t_lcm)
            ]
            assert a.bin_flags == min(vectors)

            # smallest (bin, class) sequence over the items in the rule's
            # order (by descending width, ties by id) among complete
            # assignments within per-slot capacity
            bins = [i for i, f in enumerate(a.bin_flags) if f]
            items = sorted(
                (i for i, f in enumerate(a.bin_flags) if not f),
                key=lambda j: (-specs[j].on_width, load_sort_key(specs[j].id)),
            )
            best = None
            candidates = {
                j: [b for b in bins if specs[j].period % specs[b].period == 0
                    and specs[j].on_width <= specs[b].off_width]
                for j in items
            }
            for mapping in product(*(candidates[j] for j in items)):
                ratios = [specs[j].period // specs[b].period for j, b in zip(items, mapping)]
                for classes in product(*(range(1, r + 1) for r in ratios)):
                    loads = {b: [0] * (t_lcm // specs[b].period) for b in bins}
                    ok = True
                    for j, b, cls, r in zip(items, mapping, classes, ratios):
                        for k in range(cls - 1, len(loads[b]), r):
                            loads[b][k] += specs[j].on_width
                            if loads[b][k] > specs[b].off_width:
                                ok = False
                    if ok:
                        key = tuple(zip(mapping, classes))
                        best = key if best is None else min(best, key)
            assert tuple(a.placement[j] for j in items) == best
            assert_bins_at_unit_level(specs, a, realize_phases_multifreq(specs, a))

    def test_window_rule_held_by_solver_outputs(self):
        rng = random.Random(227)
        for _ in range(15):
            specs = random_multifreq_fleet(rng, rng.randrange(2, 6))
            a = solve_multifreq(specs)
            for j, b in bins_of(a).items():
                occupied = set(slots_of(specs, a, j))
                n_bin = hyperperiod(specs) // specs[b].period
                ratio = specs[j].period // specs[b].period
                for n in range(1, n_bin + 1):
                    window = sum(
                        1 for t in range(1, ratio + 1) if ((n + t - 1) % n_bin) + 1 in occupied
                    )
                    assert window == 1


def work_bound(specs):
    """ceil(sum of duties): the hyperperiods that the loads' work fills, rounded up."""
    t_lcm = hyperperiod(specs)
    return -(-sum(s.on_width * (t_lcm // s.period) for s in specs) // t_lcm)


class TestLowerBound:
    def test_a_small_width_above_alpha_zero_adds_a_bin(self):
        # no 7 shares a bin with another 7 or with the 4; alpha = 0 sees
        # only the three 7s and 25 of 30 ticks, alpha = 4 adds the 4's bin
        specs = [spec(i, 10, w) for i, w in enumerate((7, 7, 7, 4), 1)]
        assert work_bound(specs) == 3
        assert multifreq._Packer(specs).lower == 4 == oracle_min_bins_samefreq(specs)
        assert solve_multifreq(specs).bins_used == 4

    def test_loads_above_half_duty_take_a_bin_each(self):
        specs = [spec(i, 10, 6) for i in (1, 2, 3)]
        assert work_bound(specs) == 2
        assert multifreq._Packer(specs).lower == 3 == solve_multifreq(specs).bins_used

    def test_nested_periods_count_work_per_hyperperiod(self):
        # over 20 ticks the 10-tick load is on for 12, each 20-tick one for
        # 11: all three lie above half the hyperperiod
        specs = [spec(1, 10, 6), spec(2, 20, 11), spec(3, 20, 11)]
        assert work_bound(specs) == 2
        assert multifreq._Packer(specs).lower == 3 == oracle_min_bins_multifreq(specs)
        assert solve_multifreq(specs).bins_used == 3

    def test_counts_below_the_bound_are_not_enumerated(self, monkeypatch):
        # five loads above half duty need five bins, where their work and
        # the three short loads' fill only four periods
        specs = [spec(i, 100, 60) for i in range(1, 6)] + [spec(i, 100, 10) for i in range(6, 9)]
        lower = multifreq._Packer(specs).lower
        assert (work_bound(specs), lower) == (4, 5)
        sizes = []
        room_for = multifreq._Packer.room_for

        def counted(self, items):
            sizes.append(len(items))
            return room_for(self, items)

        monkeypatch.setattr(multifreq._Packer, "room_for", counted)
        assert solve_multifreq(specs).bins_used == 5
        assert sizes and max(sizes) <= len(specs) - lower


@seed(20266)
@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from(("samefreq", "multifreq")), st.integers(1, 7), st.randoms(use_true_random=False))
def test_bound_lies_between_the_work_bound_and_the_optimum(kind, n, rng):
    if kind == "samefreq":
        specs, oracle = random_samefreq_fleet(rng, n), oracle_min_bins_samefreq
    else:
        specs, oracle = random_multifreq_fleet(rng, n), oracle_min_bins_multifreq
    assert work_bound(specs) <= multifreq._Packer(specs).lower <= oracle(specs)


class TestRealize:
    def test_phase_formula_second_slot(self):
        # bin phase 0, on 0.05 s, T 0.25 s; an item pinned to slot 2 lands at 0.30 s
        specs = [
            PulseSpec.from_seconds(1, 10, "0.25", "0.05"),
            PulseSpec.from_seconds(2, 10, "0.5", "0.1"),
        ]
        a = AssignmentMultiFreq(placement=(None, (0, 2)))
        realized = realize_phases_multifreq(specs, a)
        assert realized[1].phase == 300000

    def test_phase_formula_first_slot(self):
        specs = [spec(1, 1000, 300, phase=40), spec(2, 2000, 500)]
        a = solve_multifreq(specs)
        realized = realize_phases_multifreq(specs, a)
        assert realized[1].phase == (40 + 300) % 2000

    def test_one_hz_pair_phases_differ_by_half_period(self):
        specs = [spec(5, 10**6, 500000, phase=930000), spec(10, 10**6, 500000, phase=430000)]
        a = solve_multifreq(specs)
        realized = realize_phases_multifreq(specs, a)
        assert abs(realized[0].phase - realized[1].phase) == 500000
        # bin keeps its phase; the item is re-anchored to the falling edge
        assert realized[1].phase == 430000
        assert realized[0].phase == 930000

    def test_realized_group_never_overlaps_on_chain_ratios(self):
        rng = random.Random(229)
        for _ in range(20):
            specs = random_multifreq_fleet(rng, rng.randrange(2, 6))
            a = solve_multifreq(specs)
            assert_bins_at_unit_level(specs, a, realize_phases_multifreq(specs, a))

    def test_mixed_ratio_first_slot_conflict_is_realized(self):
        # ratios {2, 3, 6} satisfy every slot capacity, but two items first
        # meet in a later slot: stacking by first slot alone would collide
        specs = [
            spec("b", 100, 10),
            spec("u", 200, 50),
            spec("t", 600, 40),
            spec("v", 300, 30),
        ]
        a = solve_multifreq(specs)
        assert a.bins_used == 1
        assert_bins_at_unit_level(specs, a, realize_phases_multifreq(specs, a))

    def test_items_sharing_only_a_later_slot_are_realized(self):
        # bin period P = 1000: A (2P, 200) and B (3P, 300) share slot 1, and
        # B meets C (2P, 500, second class) only in slot 4
        specs = [spec("bin", 1000, 100), spec("A", 2000, 200), spec("B", 3000, 300), spec("C", 2000, 500)]
        a = solve_multifreq(specs)
        assert a.bins_used == 1
        assert_bins_at_unit_level(specs, a, realize_phases_multifreq(specs, a))


class TestVerify:
    """Realization is the one check of an assignment: it rejects what it cannot place."""

    def test_slot_class_outside_ratio_flagged(self):
        specs = [spec(1, 1000, 100), spec(2, 2000, 200)]
        for cls in (0, 3, None):
            bad = AssignmentMultiFreq(placement=(None, (0, cls)))
            with pytest.raises(InvalidAssignmentError, match="slot class"):
                realize_phases_multifreq(specs, bad)

    def test_overfilled_slot_flagged(self):
        specs = [spec(1, 1000, 600), spec(2, 1000, 500)]
        bad = AssignmentMultiFreq(placement=(None, (0, 1)))
        with pytest.raises(InvalidAssignmentError, match="no free offset"):
            realize_phases_multifreq(specs, bad)

    def test_overfilled_shared_slot_of_mixed_ratios_flagged(self):
        # classes 1 (ratio 2) and 3 (ratio 4) meet in slots 3, 7, ...: 30 + 30
        # ticks in an off-width of 50; each item alone would fit
        specs = [spec("b", 100, 50), spec("x", 200, 30), spec("y", 400, 30)]
        bad = AssignmentMultiFreq(placement=(None, (0, 1), (0, 3)))
        with pytest.raises(InvalidAssignmentError, match="no free offset"):
            realize_phases_multifreq(specs, bad)
        # class 2 of y never meets class 1 of x, so the same loads realize
        good = AssignmentMultiFreq(placement=(None, (0, 1), (0, 2)))
        assert_bins_at_unit_level(specs, good, realize_phases_multifreq(specs, good))

    def test_non_multiple_period_flagged(self):
        specs = [spec(1, 1000, 100), spec(2, 1500, 100)]
        bad = AssignmentMultiFreq(placement=(None, (0, 1)))
        with pytest.raises(InvalidAssignmentError, match="no multiple"):
            realize_phases_multifreq(specs, bad)

    def test_host_out_of_range_flagged(self):
        specs = [spec(1, 1000, 100), spec(2, 1000, 100)]
        for host in (2, -1, None):
            bad = AssignmentMultiFreq(placement=(None, (host, 1)))
            with pytest.raises(InvalidAssignmentError, match="not a bin"):
                realize_phases_multifreq(specs, bad)

    def test_first_fault_in_the_rule_order_is_reported(self):
        # y, wider than z, finds no free offset before z's class is checked
        specs = [spec("b", 100, 50), spec("x", 100, 30), spec("y", 100, 30), spec("z", 100, 10)]
        bad = AssignmentMultiFreq(placement=(None, (0, 1), (0, 1), (0, 2)))
        with pytest.raises(InvalidAssignmentError, match="item 'y' finds no free offset"):
            realize_phases_multifreq(specs, bad)

    def test_placement_of_wrong_length_flagged(self):
        specs = [spec(1, 1000, 100), spec(2, 1000, 100)]
        for placement in ((None,), (None, (0, 1), None)):
            with pytest.raises(InvalidAssignmentError, match="entries"):
                realize_phases_multifreq(specs, AssignmentMultiFreq(placement=placement))

    @pytest.mark.parametrize("entry", [5, (1,), (1, 1, 1)], ids=["int", "1-tuple", "3-tuple"])
    def test_entry_that_is_no_pair_flagged(self, entry):
        specs = [spec(1, 1000, 100), spec(2, 1000, 100)]
        bad = AssignmentMultiFreq(placement=(None, entry))
        with pytest.raises(InvalidAssignmentError, match="item 2: placement is no"):
            realize_phases_multifreq(specs, bad)


def oracle_placement(specs):
    """The placement that `oracle_first_placement` finds, in the solver's format."""
    flags, bin_of, class_of = oracle_first_placement(specs)
    return tuple(None if flags[i] else (bin_of[i], class_of[i]) for i in range(len(specs)))


@st.composite
def nested_fleets(draw):
    """Up to 8 loads on one base period, at multiples from one nested set."""
    base = draw(st.sampled_from((6, 12, 20)))
    multiples = draw(st.sampled_from(((1,), (1, 2), (1, 2, 4), (1, 2, 3, 6))))
    specs = []
    for i in range(draw(st.integers(1, 8))):
        period = base * draw(st.sampled_from(multiples))
        specs.append(spec(i + 1, period, draw(st.integers(1, period)), amp=1))
    return specs


@seed(20260)
@settings(max_examples=150, deadline=None, database=None)
@given(nested_fleets())
def test_solver_matches_brute_force_lex_min(specs):
    a = solve_multifreq(specs)
    assert a.placement == oracle_placement(specs)
    assert_bins_at_unit_level(specs, a, realize_phases_multifreq(specs, a))


@st.composite
def one_host_fleets(draw):
    """Nested fleets in which 1-2 items of width base - 1 fit only the one load of width 1.

    Such an item's hosts have the base period and an off-width of at least
    base - 1; every other load is at least 2 ticks wide.
    """
    base = draw(st.sampled_from((6, 12, 20)))
    multiples = draw(st.sampled_from(((1, 2), (1, 2, 4), (1, 2, 3, 6))))
    loads = [(base, 1)] + [(base, base - 1)] * draw(st.integers(1, 2))
    for _ in range(draw(st.integers(0, 5))):
        period = base * draw(st.sampled_from(multiples))
        loads.append((period, draw(st.integers(2, period))))
    order = draw(st.permutations(range(len(loads))))
    return [spec(i + 1, *loads[k], amp=1) for i, k in enumerate(order)]


@seed(20300)
@settings(max_examples=150, deadline=None, database=None)
@given(nested_fleets())
def test_host_table_matches_the_pairwise_rule(specs):
    packer = multifreq._Packer(specs)
    for j, item in enumerate(specs):
        hosts = [b for b, host in enumerate(specs) if b != j and check_groupability(host, item)]
        assert packer.host_masks[j] == sum(1 << b for b in hosts)
        listed = [option[0] for option in packer.entries[j][1]]
        assert listed == sorted(listed)
        assert set(hosts) <= set(listed)


@seed(20301)
@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(nested_fleets(), one_host_fleets()))
def test_forced_host_refusals_are_exact(specs):
    # every subset that the host test alone lets through but room_for
    # refuses has no placement: the search on the host test's room fails
    packer = multifreq._Packer(specs)
    n = len(specs)
    for size in range(1, n):
        for items in combinations(range(n), size):
            bins = [b for b in range(n) if b not in items]
            if not all(any(check_groupability(specs[b], specs[j]) for b in bins) for j in items):
                continue
            if packer.room_for(items) is not None:
                continue
            room = [0 if j in items else s.off_width for j, s in enumerate(specs)]
            order = [j for j in packer.order if j in items]
            todo = [packer.entries[j] for j in order]
            assert not multifreq._search(room, packer.placed, todo, [None] * len(order))


@st.composite
def mixed_ratio_groups(draw):
    """Up to 7 loads on one base period at multiples from {1, 2, 3, 4, 6, 12}.

    Most pulses are short, so bins host several items of mixed ratios.
    """
    base = draw(st.sampled_from((5, 12, 20)))
    specs = []
    for i in range(draw(st.integers(2, 7))):
        period = base * draw(st.sampled_from((1, 2, 3, 4, 6, 12)))
        width = draw(st.integers(1, max(1, period // draw(st.sampled_from((1, 4, 8))))))
        specs.append(spec(i + 1, period, width, draw(st.integers(0, period - 1))))
    return specs


@seed(20264)
@settings(max_examples=150, deadline=None, database=None)
@given(mixed_ratio_groups())
def test_realization_fails_loudly_or_never_overlaps(specs):
    a = solve_multifreq(specs)
    assert_bins_at_unit_level(specs, a, realize_phases_multifreq(specs, a))


# (period, width) ticks at phase 0, with the rule's answer from
# `oracle_first_placement`. The first placement within per-slot capacity,
# in the rule's order, of the first bin-flag vector that packs fails the
# rule in A, B, C and U: in U and B a later placement of that vector
# realizes, A and C need a later vector. In V and W it realizes.
LEX_MIN_FIXTURES = {
    "U": (
        ((36, 3), (12, 2), (24, 5), (72, 3), (24, 3)),
        ((1, 1), None, (1, 1), (1, 3), (1, 2)),
    ),
    "A": (
        ((45, 2), (45, 3), (15, 3), (30, 3), (30, 8), (30, 6)),
        ((2, 2), (2, 1), None, (2, 2), (2, 1), None),
    ),
    "B": (
        ((14, 4), (28, 7), (56, 18), (14, 2), (28, 6), (28, 2), (28, 8)),
        ((3, 1), (3, 1), (6, 1), None, (3, 2), (6, 1), None),
    ),
    "C": (
        ((39, 12), (26, 3), (13, 4), (13, 1), (26, 6), (26, 5), (39, 4)),
        ((6, 1), (2, 2), None, (2, 1), (2, 1), (2, 2), None),
    ),
    "V": (
        ((36, 2), (6, 1), (18, 2), (12, 2), (12, 3)),
        ((1, 1), None, (1, 2), (1, 2), (1, 1)),
    ),
    "W": (
        ((4, 1), (8, 2), (8, 3), (8, 1), (4, 1), (4, 1), (8, 1), (8, 3)),
        ((5, 1), (7, 1), (7, 1), (5, 1), (5, 1), None, (5, 2), None),
    ),
}


@pytest.mark.parametrize("name", sorted(LEX_MIN_FIXTURES))
def test_solver_takes_the_lex_min_placement_that_realizes(name):
    loads, expected = LEX_MIN_FIXTURES[name]
    specs = [spec(i + 1, period, width, amp=1) for i, (period, width) in enumerate(loads)]
    a = solve_multifreq(specs)
    assert a.placement == expected
    assert_bins_at_unit_level(specs, a, realize_phases_multifreq(specs, a))
    assert a.placement == oracle_placement(specs)
    assert _capacity_first_fails_the_rule(specs) == (name not in ("V", "W"))


def _capacity_first_fails_the_rule(specs):
    """Whether the first packable subset's first placement within capacity leaves an item without an offset."""
    t_lcm = hyperperiod(specs)
    first = min(
        tuple(int(i in bins) for i in range(len(specs)))
        for bins in combinations(range(len(specs)), oracle_min_bins_multifreq(specs))
        if multifreq_subset_feasible(specs, bins, t_lcm)
    )
    return not lowest_offsets_realize(specs, *next(rule_order_placements(specs, first, t_lcm)), t_lcm)


def test_solver_matches_the_oracle_where_capacity_alone_misleads():
    # wide items at mixed ratios {1, 2, 3, 6} are where per-slot capacity
    # admits placements that the offset rule cannot realize
    rng = random.Random(20268)
    misled = 0
    for _ in range(1000):
        base = rng.randrange(12, 16)
        specs = []
        for i in range(rng.randrange(4, 7)):
            period = base * rng.choice((1, 2, 3, 6))
            width = rng.randrange(1, max(1, period * rng.choice((10, 20, 35)) // 100) + 1)
            specs.append(spec(i + 1, period, width, amp=1))
        assert solve_multifreq(specs).placement == oracle_placement(specs), specs
        misled += _capacity_first_fails_the_rule(specs)
    assert misled > 0


@pytest.mark.parametrize(
    "loads, placement",
    [
        (((24, 12), (12, 6), (12, 6)), ((2, 1), None, (1, 1))),  # hosted by an item
        (((18, 3), (12, 6)), ((1, 1), None)),  # 18 is no multiple of 12
        (((24, 3), (12, 6)), ((1, 3), None)),  # class 3 of ratio 2
        (((24, 12), (12, 6)), ((1, 1), None)),  # wider than the off-interval
    ],
    ids=["host", "period", "class", "offset"],
)
def test_rejected_placement_names_a_multiline_id_on_one_line(loads, placement):
    specs = [spec(("a\nb", "bin", "c")[i], *load) for i, load in enumerate(loads)]
    with pytest.raises(InvalidAssignmentError) as err:
        realize_phases_multifreq(specs, AssignmentMultiFreq(placement=placement))
    assert "\n" not in str(err.value) and "'a\\nb'" in str(err.value)


@st.composite
def structurally_valid_assignments(draw):
    """A mixed-ratio group and a placement that passes every structural check.

    Each item gets a random bin whose period divides its own and a random
    class in 1..R, with no regard to widths, so slots are often over-full.
    A load drawn as an item with no possible host becomes a bin.
    """
    specs = draw(mixed_ratio_groups())
    flags = draw(st.lists(st.booleans(), min_size=len(specs), max_size=len(specs)))
    bins = [i for i, f in enumerate(flags) if f] or [0]
    placement = []
    for j, item in enumerate(specs):
        hosts = [b for b in bins if b != j and item.period % specs[b].period == 0]
        if j in bins or not hosts:
            placement.append(None)
            continue
        b = draw(st.sampled_from(hosts))
        placement.append((b, draw(st.integers(1, item.period // specs[b].period))))
    return specs, AssignmentMultiFreq(placement=tuple(placement))


@seed(20266)
@settings(max_examples=200, deadline=None, database=None)
@given(structurally_valid_assignments())
def test_any_valid_placement_raises_or_realizes_at_unit_level(drawn):
    specs, a = drawn
    try:
        realized = realize_phases_multifreq(specs, a)
    except InvalidAssignmentError:
        return
    assert_bins_at_unit_level(specs, a, realized)


@st.composite
def equal_period_fleets(draw):
    """(id, period, width, phase) of up to 8 loads sharing one period."""
    period = draw(st.integers(1, 60))
    return [
        (i + 1, period, draw(st.integers(1, period)), draw(st.integers(0, period - 1)))
        for i in range(draw(st.integers(1, 8)))
    ]


@seed(20265)
@settings(max_examples=150, deadline=None, database=None)
@given(equal_period_fleets())
def test_equal_period_phases_match_the_frozen_samefreq_realizer(loads):
    specs = [spec(i, period, w, p) for i, period, w, p in loads]
    ref_specs = [ref_waveform.PulseSpec(i, 10, period, w, p) for i, period, w, p in loads]
    a = solve_multifreq(specs)
    frozen = ref_samefreq.solve_samefreq(ref_specs)
    assert a.bin_flags == frozen.bin_flags
    assert a.placement == oracle_placement(specs)
    realized = realize_phases_multifreq(specs, a)
    assert_bins_at_unit_level(specs, a, realized)
    # the frozen realizer stacks the same item->bin map to the same phases
    same_bins = replace(frozen, placement=bins_of(a))
    expected = ref_samefreq.realize_phases_samefreq(ref_specs, same_bins)
    assert [s.phase for s in realized] == [s.phase for s in expected]
