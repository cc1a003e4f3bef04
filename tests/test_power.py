"""SOC-ordered admission, de-rating to the cap, and backfill."""
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from helpers import reference_module
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pulsesched import (
    EmptyInputError,
    MissingSocError,
    MissingVoltageError,
    NoAdmissibleError,
    NotOverLimitError,
    PulseSpec,
    WorkBudgetError,
    backfill,
    enforce_limit,
    mean_power,
    prioritize_and_admit,
)
from pulsesched import power, waveform
from pulsesched.adjust import total_mean_power


def load(id, soc, power_w=400, duty=Fraction(1, 2)):
    # mean power = duty * voltage * amplitude; pick voltage so it lands on power_w
    width = int(1000 * duty)
    voltage = Fraction(power_w) / (duty * 10)
    return PulseSpec(
        id=id, amplitude=10, period=1000, on_width=width,
        voltage=voltage, soc=Fraction(soc, 100),
    )


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda specs: prioritize_and_admit(specs, 0), ValueError, "cap 0 must be positive"),
        (lambda specs: prioritize_and_admit(specs, -5), ValueError, "cap -5 must be positive"),
        (
            lambda specs: enforce_limit(prioritize_and_admit(specs, 100, derate=True), specs, "phase"),
            ValueError,
            "mode must be one of",
        ),
        (
            # load 2 is postponed at 500 W; backfill reads its voltage, which it lacks here
            lambda specs: backfill(
                prioritize_and_admit(specs, 500), [specs[0], replace(specs[1], voltage=None)], 1000
            ),
            MissingVoltageError,
            "load 2 carries no charging voltage",
        ),
    ],
    ids=["zero cap", "negative cap", "unknown mode", "backfill without voltage"],
)
def test_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call([load(1, 20), load(2, 50)])


class TestPrioritizeAndAdmit:
    def test_greedy_split_by_soc(self):
        plan = prioritize_and_admit([load(1, 20), load(2, 50), load(3, 80)], 900)
        assert plan.admitted == (1, 2)
        assert plan.postponed == (3,)
        assert plan.p_sum_w == 800
        assert plan.scale == 1

    def test_cap_above_total_admits_all(self):
        plan = prioritize_and_admit([load(1, 30), load(2, 10)], 10_000)
        assert plan.admitted == (2, 1)
        assert plan.postponed == ()

    def test_equal_socs_tie_break_by_id(self):
        plan = prioritize_and_admit([load(2, 50), load(1, 50), load(3, 50)], 850)
        assert plan.admitted == (1, 2)

    def test_no_admissible_without_derating(self):
        with pytest.raises(NoAdmissibleError):
            prioritize_and_admit([load(1, 20), load(2, 50)], 100)

    def test_derate_admits_everything(self):
        plan = prioritize_and_admit([load(1, 20), load(2, 50)], 100, derate=True)
        assert plan.admitted == (1, 2)
        assert plan.p_sum_w == 800

    @pytest.mark.parametrize("derate", [False, True], ids=["greedy", "derate"])
    def test_no_loads_rejected(self, derate):
        with pytest.raises(EmptyInputError):
            prioritize_and_admit([], 100, derate=derate)

    @pytest.mark.parametrize(
        "cap, derate", [(10_000, False), (900, False), (100, True), (10_000, True)],
        ids=["greedy all", "greedy prefix", "derate over", "derate under"],
    )
    def test_mean_power_once_per_load_at_most(self, monkeypatch, cap, derate):
        calls = []

        def counted(spec):
            calls.append(spec.id)
            return mean_power(spec)

        monkeypatch.setattr(power, "mean_power", counted)
        specs = [load(1, 20), load(2, 50), load(3, 80)]
        plan = prioritize_and_admit(specs, cap, derate=derate)
        assert len(calls) <= len(specs)
        assert plan.p_sum_w == 400 * len(plan.admitted)

    def test_missing_soc_rejected(self):
        s = PulseSpec(id=1, amplitude=10, period=1000, on_width=500, voltage=2)
        with pytest.raises(MissingSocError):
            prioritize_and_admit([s], 100)

    def test_missing_voltage_rejected(self):
        s = PulseSpec(id=1, amplitude=10, period=1000, on_width=500, soc=Fraction(1, 2))
        with pytest.raises(MissingVoltageError):
            prioritize_and_admit([s], 100)


class TestEnforceLimit:
    def test_amplitude_mode_hits_cap_exactly(self):
        specs = [load(1, 20), load(2, 50), load(3, 80)]  # 1200 W total
        plan = prioritize_and_admit(specs, 1000, derate=True)
        plan2, specs2 = enforce_limit(plan, specs, "amplitude")
        assert plan2.scale == Fraction(5, 6)
        assert all(s.amplitude == Fraction(10) * Fraction(5, 6) for s in specs2)
        assert total_mean_power(specs2) == 1000

    def test_duty_mode_scales_on_width(self):
        specs = [load(1, 20, duty=Fraction(3, 5))]
        plan = prioritize_and_admit(specs, 200, derate=True)
        plan2, specs2 = enforce_limit(plan, specs, "duty")
        assert specs2[0].duty == Fraction(3, 10)

    def test_under_limit_guard(self):
        specs = [load(1, 20)]
        plan = prioritize_and_admit(specs, 1000)
        with pytest.raises(NotOverLimitError):
            enforce_limit(plan, specs, "amplitude")

    def test_idempotent(self):
        specs = [load(1, 20), load(2, 50), load(3, 80)]
        plan = prioritize_and_admit(specs, 1000, derate=True)
        once = enforce_limit(plan, specs, "amplitude")
        twice = enforce_limit(once[0], once[1], "amplitude")
        assert once == twice

    def test_postponed_loads_untouched(self):
        specs = [load(1, 20), load(2, 90, power_w=10_000)]
        plan = prioritize_and_admit(specs, 500)
        assert plan.postponed == (2,)
        # over-limit state comes from a tighter cap recorded in the plan
        tight = replace(plan, p_max_w=Fraction(100))
        plan2, specs2 = enforce_limit(tight, specs, "amplitude")
        assert specs2[1] == specs[1]
        assert mean_power(specs2[0]) == 100


class TestBackfill:
    def test_fitting_load_is_admitted(self):
        specs = [load(1, 20), load(2, 50), load(3, 80)]
        plan = prioritize_and_admit(specs, 900)
        grown = backfill(plan, specs, 1300)
        assert grown.admitted == (1, 2, 3)
        assert grown.p_sum_w == 1200

    def test_stops_at_first_too_large_load(self):
        specs = [load(1, 20), load(2, 50), load(3, 60, power_w=500), load(4, 80)]
        plan = prioritize_and_admit(specs, 800)
        assert plan.postponed == (3, 4)
        grown = backfill(plan, specs, 1100)
        # headroom 300 < 500: stop even though load 4 (400 W) would fit
        assert grown.admitted == (1, 2)
        assert grown.postponed == (3, 4)

    def test_empty_postponed_is_identity(self):
        specs = [load(1, 20)]
        plan = prioritize_and_admit(specs, 1000)
        assert backfill(plan, specs, 1000) == plan


class TestInvariants:
    def test_admitted_power_never_exceeds_cap(self):
        rng = random.Random(401)
        for _ in range(40):
            n = rng.randrange(1, 7)
            specs = [load(i + 1, rng.randrange(101), power_w=rng.randrange(50, 900)) for i in range(n)]
            cap = rng.randrange(100, 2500)
            try:
                plan = prioritize_and_admit(specs, cap)
            except NoAdmissibleError:
                continue
            plan = backfill(plan, specs, cap)
            admitted = [s for s in specs if s.id in set(plan.admitted)]
            assert total_mean_power(admitted) <= cap
            assert plan.p_sum_w * plan.scale <= plan.p_max_w

    def test_admission_is_soc_monotone(self):
        rng = random.Random(409)
        for _ in range(40):
            n = rng.randrange(1, 7)
            specs = [load(i + 1, rng.randrange(101), power_w=rng.randrange(50, 900)) for i in range(n)]
            try:
                plan = prioritize_and_admit(specs, rng.randrange(100, 2500))
            except NoAdmissibleError:
                continue
            by_id = {s.id: s for s in specs}
            if plan.admitted and plan.postponed:
                worst_in = max(by_id[i].soc for i in plan.admitted)
                best_out = min(by_id[i].soc for i in plan.postponed)
                assert worst_in <= best_out


ref_power = reference_module("power")
ref_waveform = reference_module("waveform")


@st.composite
def powered_fleets(draw) -> list[PulseSpec]:
    """1-8 loads with rational amplitudes, voltages and SOCs, and unique ids of both kinds."""
    n = draw(st.integers(1, 8))
    id_values = st.one_of(st.integers(-3, 20), st.sampled_from("abcde"))
    ids = draw(st.lists(id_values, min_size=n, max_size=n, unique=True))
    fleet = []
    for load_id in ids:
        period = draw(st.sampled_from((4, 10, 12, 1000, 7919)))
        fleet.append(
            PulseSpec(
                id=load_id,
                amplitude=Fraction(draw(st.integers(1, 400)), draw(st.sampled_from((1, 2, 3, 10, 7)))),
                period=period,
                on_width=draw(st.integers(1, period)),
                voltage=Fraction(draw(st.integers(1, 800)), draw(st.sampled_from((1, 2, 9)))),
                soc=Fraction(draw(st.integers(0, 12)), draw(st.sampled_from((12, 4, 10, 1)))) % 1,
            )
        )
    return fleet


def reference_copy(fleet: list[PulseSpec]) -> list:
    """The fleet as PulseSpecs of the frozen reference copy of the package."""
    return [
        ref_waveform.PulseSpec(s.id, s.amplitude, s.period, s.on_width, s.phase, s.voltage, s.soc)
        for s in fleet
    ]


def drawn(plan, fleet: list[PulseSpec]) -> Fraction:
    admitted = set(plan.admitted)
    return total_mean_power([s for s in fleet if s.id in admitted])


CAPS = st.fractions(min_value=Fraction(1, 3), max_value=Fraction(3_000_000), max_denominator=7)


@seed(20613)
@settings(max_examples=100, deadline=None, database=None)
@given(powered_fleets(), CAPS, CAPS)
def test_plan_sum_is_the_admitted_mean_power(fleet, cap, grown_cap):
    for derate in (False, True):
        try:
            plan = prioritize_and_admit(fleet, cap, derate=derate)
        except NoAdmissibleError:
            continue
        assert plan.p_sum_w * plan.scale == drawn(plan, fleet)
        grown = backfill(plan, fleet, grown_cap)
        assert grown.p_sum_w * grown.scale == drawn(grown, fleet)


@seed(20614)
@settings(max_examples=100, deadline=None, database=None)
@given(powered_fleets(), CAPS, CAPS)
def test_admission_backfill_and_derating_match_the_reference(fleet, cap, grown_cap):
    ref_fleet = reference_copy(fleet)

    def both(call, ref_call):
        try:
            got = call()
        except NoAdmissibleError as exc:
            with pytest.raises(ref_power.NoAdmissibleError, match=f"^{re.escape(str(exc))}$"):
                ref_call()
            return None, None
        expected = ref_call()
        assert vars(got) == vars(expected)
        return got, expected

    plan, ref_plan = both(
        lambda: prioritize_and_admit(fleet, cap), lambda: ref_power.prioritize_and_admit(ref_fleet, cap)
    )
    if plan is not None:
        # grown_cap, and a cap that the first postponed load fills exactly
        waiting = [s for s in fleet if s.id in plan.postponed[:1]]
        for grown in (grown_cap, plan.p_sum_w + total_mean_power(waiting)):
            both(
                lambda: backfill(plan, fleet, grown),
                lambda: ref_power.backfill(ref_plan, ref_fleet, grown),
            )
    plan = prioritize_and_admit(fleet, cap, derate=True)
    ref_plan = ref_power.prioritize_and_admit(ref_fleet, cap, derate=True)
    assert vars(plan) == vars(ref_plan)
    if plan.p_sum_w > cap:
        plan, derated = enforce_limit(plan, fleet, "amplitude")
        ref_plan, ref_derated = ref_power.enforce_limit(ref_plan, ref_fleet, "amplitude")
        assert vars(plan) == vars(ref_plan)
        assert [vars(s) for s in derated] == [vars(s) for s in ref_derated]
        assert drawn(plan, derated) == cap


class TestDenominatorBudget:
    """Admission's common denominators stay within waveform.MAX_DENOMINATOR_BITS or raise
    WorkBudgetError; a fleet at the bound is planned as before."""

    @staticmethod
    def fleet(field: str, bits: int) -> list[PulseSpec]:
        """Two loads whose `field` denominators, 3 and a power of two, have an lcm of `bits` bits."""
        small, big = Fraction(1, 3), Fraction(1, 2 ** (bits - 2))  # lcm 3 * 2**(bits - 2)
        fields = {"amplitude": 1, "soc": Fraction(1, 2)}
        return [
            PulseSpec(id=k, period=1, on_width=1, voltage=1, **{**fields, field: value})
            for k, value in enumerate((small, big))
        ]

    @pytest.mark.parametrize("field", ["soc", "amplitude"])
    @pytest.mark.parametrize("derate", [False, True])
    def test_at_the_bound_the_plan_is_made(self, field, derate):
        specs = self.fleet(field, waveform.MAX_DENOMINATOR_BITS)
        cap = 10**6  # above the total, so the plan admits both loads and de-rates nothing
        plan = prioritize_and_admit(specs, cap, derate=derate)
        assert plan.admitted == ((1, 0) if field == "soc" else (0, 1))
        assert plan.p_sum_w == total_mean_power(specs)

    @pytest.mark.parametrize("field, what", [("soc", "SOCs"), ("amplitude", "mean powers")])
    @pytest.mark.parametrize("derate", [False, True])
    def test_one_bit_past_it_raises_a_work_budget_error(self, field, what, derate):
        specs = self.fleet(field, waveform.MAX_DENOMINATOR_BITS + 1)
        message = f"common denominator of the loads' {what} passes {waveform.MAX_DENOMINATOR_BITS} bits"
        with pytest.raises(WorkBudgetError, match=re.escape(message)):
            prioritize_and_admit(specs, 10**6, derate=derate)

    def test_backfill_shares_the_budget(self):
        specs = [*self.fleet("amplitude", waveform.MAX_DENOMINATOR_BITS + 1), load(9, 0, power_w=400)]
        plan = prioritize_and_admit([specs[2]], 400)
        plan = replace(plan, postponed=(0, 1))
        with pytest.raises(WorkBudgetError):
            backfill(plan, specs, 10**6)

    def test_total_mean_power_shares_the_budget(self):
        bits = waveform.MAX_DENOMINATOR_BITS
        small, big = self.fleet("amplitude", bits)  # always on at 1 V: mean power = amplitude
        assert total_mean_power([small, big]) == small.amplitude + big.amplitude
        message = f"common denominator of the loads' mean powers passes {bits} bits"
        with pytest.raises(WorkBudgetError, match=re.escape(message)):
            total_mean_power(self.fleet("amplitude", bits + 1))
