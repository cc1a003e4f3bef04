"""Duty/amplitude trades and proportional de-rating."""
from fractions import Fraction

import pytest

from pulsesched import (
    MissingVoltageError,
    NonRepresentableDutyError,
    NotOverLimitError,
    PulseSpec,
    ZeroDutyError,
    adjust_waveform,
    mean_power,
    scale_amplitudes_to_limit,
    scale_duties_to_limit,
)
from pulsesched.adjust import total_mean_power


def spec(amp=10, period=1000, width=500, voltage=None):
    return PulseSpec(id=1, amplitude=amp, period=period, on_width=width, voltage=voltage)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: adjust_waveform(spec(), Fraction(3, 2)), ValueError, "exceeds 1"),
        (lambda: scale_amplitudes_to_limit([spec(voltage=3)], 0, 10), ValueError, "must be positive"),
        (lambda: scale_duties_to_limit([spec(voltage=3)], -1, 10), ValueError, "must be positive"),
        (lambda: scale_amplitudes_to_limit([spec()], 1, 10), MissingVoltageError, "no charging voltage"),
    ],
    ids=["duty above 1", "zero cap", "negative cap", "missing voltage"],
)
def test_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestAdjustWaveform:
    def test_halving_duty_doubles_amplitude(self):
        out = adjust_waveform(spec(voltage=3), Fraction(1, 4))
        assert out.amplitude == 20
        assert out.on_width == 250
        assert mean_power(out) == mean_power(spec(voltage=3))

    def test_identity(self):
        s = spec(voltage=5)
        out = adjust_waveform(s, Fraction(1, 2), new_voltage=5)
        assert out == s

    def test_voltage_substitution(self):
        s = PulseSpec(id=1, amplitude=10, period=1000, on_width=600, voltage=5)
        out = adjust_waveform(s, Fraction(1, 2), new_voltage=6)
        assert out.amplitude == 10
        assert out.voltage == 6
        assert mean_power(out) == mean_power(s)

    def test_period_and_phase_unchanged(self):
        s = PulseSpec(id=1, amplitude=4, period=1200, on_width=600, phase=77, voltage=2)
        out = adjust_waveform(s, Fraction(1, 3))
        assert (out.period, out.phase) == (1200, 77)

    def test_works_without_voltage(self):
        out = adjust_waveform(spec(), Fraction(1, 4))
        assert out.amplitude == 20

    def test_new_voltage_requires_old(self):
        with pytest.raises(MissingVoltageError):
            adjust_waveform(spec(), Fraction(1, 4), new_voltage=3)

    def test_nonintegral_width_rejected(self):
        with pytest.raises(NonRepresentableDutyError):
            adjust_waveform(spec(period=1000), Fraction(1, 3))

    def test_zero_duty_rejected(self):
        with pytest.raises(ZeroDutyError):
            adjust_waveform(spec(), Fraction(0))

    def test_preserves_power_on_rational_grid(self):
        # exhaustive over a grid of duties x voltages x amplitudes
        period = 720720  # many divisors
        for num, den in [(1, 2), (1, 3), (2, 3), (1, 4), (5, 6), (1, 7), (9, 10), (1, 1)]:
            s = PulseSpec(id=1, amplitude=Fraction(7, 3), period=period,
                          on_width=period // 2, voltage=Fraction(11, 4))
            out = adjust_waveform(s, Fraction(num, den))
            assert mean_power(out) == mean_power(s)


class TestScaleAmplitudes:
    def test_ratio_five_sixths(self):
        specs = [spec(amp=12, voltage=100, width=1000)]  # always on: P = 1200 W
        out = scale_amplitudes_to_limit(specs, 1000, 1200)
        assert out[0].amplitude == 10

    def test_sum_hits_cap_exactly(self):
        specs = [spec(amp=4, voltage=100, width=1000) for _ in range(3)]
        out = scale_amplitudes_to_limit(specs, 600, total_mean_power(specs))
        assert total_mean_power(out) == 600

    def test_near_limit_continuity(self):
        s = spec(amp=10, voltage=100, width=1000)
        out = scale_amplitudes_to_limit([s], 1000, Fraction(1000001, 1000))
        assert out[0].amplitude == 10 * Fraction(1000000, 1000001)

    def test_not_over_limit_guard(self):
        with pytest.raises(NotOverLimitError):
            scale_amplitudes_to_limit([spec(voltage=2)], 100, 100)

    def test_composition_of_ratios(self):
        s = spec(amp=9, voltage=10, width=1000)
        once = scale_amplitudes_to_limit([s], 1, 3)  # ratio 1/3
        twice = scale_amplitudes_to_limit(once, 1, 2)  # ratio 1/2
        direct = scale_amplitudes_to_limit([s], 1, 6)  # ratio 1/6
        assert twice == direct


class TestScaleDuties:
    def test_direct_substitution(self):
        out = scale_duties_to_limit([spec(voltage=2, width=500)], 800, 1000)
        assert out[0].duty == Fraction(2, 5)

    def test_ratio_one_rejected(self):
        with pytest.raises(NotOverLimitError):
            scale_duties_to_limit([spec(voltage=2)], 1000, 1000)

    def test_five_ninths(self):
        out = scale_duties_to_limit([spec(voltage=2, width=900)], 500, 900)
        assert out[0].duty == Fraction(1, 2)

    def test_offgrid_width_rejected(self):
        with pytest.raises(NonRepresentableDutyError):
            scale_duties_to_limit([spec(voltage=2, width=501)], 500, 900)

    def test_amplitude_unchanged(self):
        out = scale_duties_to_limit([spec(amp=7, voltage=2, width=900)], 300, 900)
        assert out[0].amplitude == 7
