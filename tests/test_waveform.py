"""Pulse-train representation, aggregation sweep, and envelope metrics."""
import random
from fractions import Fraction

import pytest
from helpers import dense_metrics, level_at_tick, random_mixed_fleet

from pulsesched import (
    EmptyInputError,
    MissingVoltageError,
    NonRepresentableTimeError,
    PulseSpec,
    StepProfile,
    TickOverflowError,
    aggregate_profile,
    hyperperiod,
    mean_power,
    profile_metrics,
)

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


class TestProfileMetrics:
    def test_constant_profile(self):
        m = profile_metrics(StepProfile(1000, (0,), (Fraction(42),)))
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
