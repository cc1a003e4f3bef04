"""Pulse-train representation, aggregation sweep, and envelope metrics."""
import random
from fractions import Fraction

import pytest
from helpers import dense_metrics, level_at_tick, random_mixed_fleet, reference_module
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pulsesched import (
    EmptyInputError,
    MissingVoltageError,
    NonRepresentableTimeError,
    PulseSpec,
    StepProfile,
    TickOverflowError,
    WorkBudgetError,
    aggregate_profile,
    hyperperiod,
    mean_power,
    profile_metrics,
    waveform,
)
from pulsesched.files import metrics_json, waveform_csv, waveform_svg

S = 10**6  # ticks per second


def spec(id, amp, period, width, phase=0, **kw):
    return PulseSpec(id=id, amplitude=amp, period=period, on_width=width, phase=phase, **kw)


class TestPulseSpec:
    def test_phase_reduced_modulo_period(self):
        s = spec(1, 10, 1000, 400, phase=2300)
        assert s.phase == 300

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            spec(1, 10, 1000, 0)

    def test_rejects_width_beyond_period(self):
        with pytest.raises(ValueError):
            spec(1, 10, 1000, 1001)

    def test_rejects_nonpositive_amplitude(self):
        with pytest.raises(ValueError):
            spec(1, 0, 1000, 500)

    def test_rejects_float_amplitude(self):
        with pytest.raises(ValueError):
            spec(1, 0.65, 1000, 500)

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"period": 1000.0}, "integer ticks"),
            ({"phase": 0.5}, "phase must be integer ticks"),
            ({"period": 0}, "period must be positive"),
            ({"period": -1000}, "period must be positive"),
            ({"soc": Fraction(-1, 100)}, "soc must lie in"),
            ({"soc": Fraction(101, 100)}, "soc must lie in"),
            ({"voltage": 0}, "voltage must be positive"),
        ],
        ids=[
            "float period", "float phase", "zero period", "negative period",
            "soc below 0", "soc above 1", "zero voltage",
        ],
    )
    def test_rejects_out_of_range_fields(self, kw, message):
        fields = {"id": 1, "amplitude": 10, "period": 1000, "on_width": 1, **kw}
        with pytest.raises(ValueError, match=message):
            PulseSpec(**fields)

    def test_from_seconds_rejects_offgrid_values(self):
        with pytest.raises(NonRepresentableTimeError):
            PulseSpec.from_seconds(1, 10, "0.0000001", "0.00000005")

    def test_duty_100_percent_is_legal(self):
        s = spec(1, 10, 1000, 1000)
        assert s.always_on and s.off_width == 0


class TestDutyRatio:
    def test_half_period(self):
        assert PulseSpec.from_seconds(1, 10, "1", "0.5").duty == Fraction(1, 2)

    def test_ninety_percent_duty(self):
        assert PulseSpec.from_seconds(10, 10, "1", "0.9").duty == Fraction(9, 10)

    def test_always_on_limit(self):
        assert spec(1, 10, 777, 777).duty == 1


class TestMeanPower:
    def test_direct_product(self):
        assert mean_power(spec(1, 10, 1000, 500, voltage=2)) == 10

    def test_identity(self):
        assert mean_power(spec(1, 1, 10, 10, voltage=1)) == 1

    def test_90_percent_duty(self):
        assert mean_power(PulseSpec.from_seconds(1, 10, "1", "0.9", voltage=10)) == 90

    def test_missing_voltage(self):
        with pytest.raises(MissingVoltageError):
            mean_power(spec(1, 10, 1000, 500))


class TestHyperperiod:
    def test_scenario2_period_set(self):
        periods = ["1", "0.5", "0.25", "0.2", "0.125"]
        specs = [PulseSpec.from_seconds(i, 10, p, "0.1") for i, p in enumerate(periods)]
        assert hyperperiod(specs) == S

    def test_single_load(self):
        assert hyperperiod([spec(1, 10, 12345, 10)]) == 12345

    def test_lcm_arithmetic(self):
        specs = [PulseSpec.from_seconds(1, 10, "0.3", "0.1"), PulseSpec.from_seconds(2, 10, "0.2", "0.1")]
        assert hyperperiod(specs) == 600000

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            hyperperiod([])


class TestAggregateProfile:
    def test_complementary_pulses_become_constant(self):
        a = spec("a", 10, 1000, 500, phase=0)
        b = spec("b", 10, 1000, 500, phase=500)
        prof = aggregate_profile([a, b])
        assert prof.breakpoints == (0,)
        assert prof.levels == (Fraction(10),)

    def test_single_spec_two_segments(self):
        prof = aggregate_profile([spec(1, 10, 1000, 400, phase=100)])
        assert len(prof.levels) == 2
        assert set(prof.levels) == {Fraction(0), Fraction(10)}

    def test_back_to_back_edges_do_not_overlap(self):
        # fall of a at 500 coincides with rise of b: no spike, no gap
        a = spec("a", 10, 1000, 500, phase=0)
        b = spec("b", 10, 1000, 300, phase=500)
        prof = aggregate_profile([a, b])
        assert max(prof.levels) == 10

    def test_always_on_load_is_a_constant_floor(self):
        a = spec("a", 7, 1000, 1000)
        b = spec("b", 10, 1000, 400, phase=0)
        prof = aggregate_profile([a, b])
        assert min(prof.levels) == 7 and max(prof.levels) == 17

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            aggregate_profile([])

    def test_hyperperiod_overflow(self):
        a = spec("a", 1, 2**62, 5)
        b = spec("b", 1, 3, 1)
        with pytest.raises(TickOverflowError):
            aggregate_profile([a, b])

    def test_profile_is_maximally_merged(self):
        rng = random.Random(7)
        for _ in range(40):
            specs = random_mixed_fleet(rng, rng.randrange(1, 6))
            prof = aggregate_profile(specs)
            n = len(prof.levels)
            if n > 1:
                assert all(prof.levels[k] != prof.levels[(k + 1) % n] for k in range(n))


class TestStepProfile:
    def test_levels_are_scaled_over_one_denominator(self):
        prof = StepProfile(1000, (0, 400), (7, 10), 4)
        assert prof.levels == (Fraction(7, 4), Fraction(5, 2))
        assert prof.level_at(399) == Fraction(7, 4)
        assert prof.level_at(1400) == Fraction(5, 2)

    def test_sweep_uses_the_lcm_of_the_amplitude_denominators(self):
        a = spec("a", Fraction(1, 3), 1000, 400)
        b = spec("b", Fraction(1, 4), 1000, 1000)
        prof = aggregate_profile([a, b])
        assert prof.denominator == 12
        assert prof.scaled == (7, 3)
        assert prof.levels == (Fraction(7, 12), Fraction(1, 4))

    @seed(20616)
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 6))
    def test_the_sweeps_fields_pass_the_public_checks(self, rng, n):
        # aggregate_profile builds its profile unchecked; the constructor's checks accept it
        prof = aggregate_profile(random_mixed_fleet(rng, n))
        assert StepProfile(prof.hyperperiod, prof.breakpoints, prof.scaled, prof.denominator) == prof

    @pytest.mark.parametrize(
        "args",
        [
            (0, (0,), (1,), 1),  # hyperperiod not positive
            (1000, (0,), (1,), 0),  # denominator not positive
            (1000, (), (), 1),  # no breakpoint
            (1000, (0, 500), (1,), 1),  # one level short
            (1000, (0,), (Fraction(42),), 1),  # level not an integer
            (1000, (0, 1000), (1, 2), 1),  # breakpoint outside [0, hyperperiod)
            (1000, (500, 500), (1, 2), 1),  # breakpoints not strictly increasing
            (1000, (0, 500, 700), (1, 2, 2), 1),  # adjacent levels equal
            (1000, (0, 300, 600), (1, 2, 1), 1),  # last level wraps onto an equal first
            (1000, (500,), (1,), 1),  # constant profile off breakpoint 0
        ],
    )
    def test_rejects_malformed_profiles(self, args):
        with pytest.raises(ValueError):
            StepProfile(*args)


class TestWorkBudget:
    def test_coprime_sweep_above_the_budget_is_refused(self):
        # 2 x 10000001 edges from the 2-tick load alone, refused before any is visited
        fleet = [spec("fast", 1, 2, 1), spec("slow", 1, 10_000_001, 1)]
        with pytest.raises(WorkBudgetError):
            aggregate_profile(fleet)

    def test_budget_counts_edges_of_gated_loads_only(self, monkeypatch):
        # hyperperiod 12: 2 x 3 + 2 x 2 = 10 edges; the always-on load adds none
        fleet = [spec("a", 1, 4, 2), spec("b", 1, 6, 3), spec("c", 1, 12, 12)]
        monkeypatch.setattr(waveform, "MAX_EDGES", 10)
        assert aggregate_profile(fleet).hyperperiod == 12
        monkeypatch.setattr(waveform, "MAX_EDGES", 9)
        with pytest.raises(WorkBudgetError):
            aggregate_profile(fleet)


class TestProfileMetrics:
    def test_constant_profile(self):
        m = profile_metrics(StepProfile(1000, (0,), (126,), 3))
        assert m.min_a == m.max_a == m.mean_a == 42
        assert m.fluctuation_a == 0

    def test_duration_weighted_mean(self):
        prof = aggregate_profile([spec(1, 10, 1000, 250, phase=300)])
        m = profile_metrics(prof)
        assert m.mean_a == Fraction(10, 4)
        assert (m.min_a, m.max_a) == (0, 10)


class TestInvariants:
    def test_phase_translation_invariance(self):
        rng = random.Random(11)
        for _ in range(30):
            specs = random_mixed_fleet(rng, rng.randrange(2, 6))
            offset = rng.randrange(1, 500)
            shifted = [
                PulseSpec(s.id, s.amplitude, s.period, s.on_width, s.phase + offset)
                for s in specs
            ]
            assert profile_metrics(aggregate_profile(specs)) == profile_metrics(
                aggregate_profile(shifted)
            )

    def test_conservation_of_mean(self):
        rng = random.Random(13)
        for _ in range(30):
            specs = random_mixed_fleet(rng, rng.randrange(1, 6))
            m = profile_metrics(aggregate_profile(specs))
            assert m.mean_a == sum((s.amplitude * s.duty for s in specs), Fraction(0))

    def test_dense_sampling_oracle(self):
        rng = random.Random(17)
        for _ in range(25):
            specs = random_mixed_fleet(rng, rng.randrange(1, 5))
            prof = aggregate_profile(specs)
            for t in range(prof.hyperperiod):
                assert prof.level_at(t) == level_at_tick(specs, t)

    def test_dense_metrics_agree(self):
        rng = random.Random(19)
        for _ in range(10):
            specs = random_mixed_fleet(rng, rng.randrange(1, 5))
            lo, hi, mean = dense_metrics(specs)
            m = profile_metrics(aggregate_profile(specs))
            assert (m.min_a, m.max_a, m.mean_a) == (lo, hi, mean)

    def test_periodicity(self):
        rng = random.Random(23)
        specs = random_mixed_fleet(rng, 4)
        prof = aggregate_profile(specs)
        for t in range(0, prof.hyperperiod, 7):
            assert prof.level_at(t) == prof.level_at(t + prof.hyperperiod)


ref_waveform = reference_module("waveform")
ref_files = reference_module("files")


@st.composite
def fleets_on_mixed_denominators(draw):
    """Small fleets whose amplitudes need a common denominator; some loads always on.

    Units of 25 ms and up give hyperperiods of seconds to minutes, and phases
    on the unit grid put edges on whole seconds, so rows cross and land on
    them, many to a second or few.
    """
    unit = draw(st.sampled_from((1, 7, 1000, 25_000, 250_000, S)))
    loads = []
    for i in range(draw(st.integers(1, 6))):
        period = draw(st.sampled_from((1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30)))
        width = draw(st.integers(1, period))
        amplitude = Fraction(draw(st.integers(1, 5000)), draw(st.sampled_from((1, 3, 7, 10, 12, 1000))))
        phase = draw(st.one_of(st.integers(0, period - 1).map(unit.__mul__), st.integers(0, unit * period - 1)))
        loads.append((i + 1, amplitude, unit * period, unit * width, phase))
    return loads


class TestIntegerKernel:
    @seed(20263)
    @settings(max_examples=200, deadline=None, database=None)
    @given(fleets_on_mixed_denominators())
    def test_outputs_match_the_frozen_fraction_kernel(self, loads):
        specs = [spec(*load) for load in loads]
        prof = aggregate_profile(specs)
        ref_prof = ref_waveform.aggregate_profile([ref_waveform.PulseSpec(*load) for load in loads])
        assert waveform_csv(prof) == ref_files.waveform_csv(ref_prof)
        assert waveform_svg(prof, "fleet") == ref_files.waveform_svg(ref_prof, "fleet")
        m, ref_m = profile_metrics(prof), ref_waveform.profile_metrics(ref_prof)
        assert (m.min_a, m.max_a, m.fluctuation_a, m.mean_a) == (
            ref_m.min_a, ref_m.max_a, ref_m.fluctuation_a, ref_m.mean_a
        )
        assert metrics_json(m) == ref_files.metrics_json(ref_m)
        # first and last tick of every segment, and the wrap-around
        for b in prof.breakpoints:
            for t in (b, b - 1 if b else prof.hyperperiod - 1):
                assert prof.level_at(t) == level_at_tick(specs, t)
