"""Power-preserving waveform adjustment and proportional de-rating.

A pulse's mean power is duty × voltage × amplitude, so duty and amplitude
can be traded against each other without changing the energy delivered per
period. De-rating toward a power cap multiplies either every amplitude or
every duty by cap/total. All arithmetic is exact rationals, so the
preservation identities are testable as equalities.
"""
from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .errors import (
    MissingVoltageError,
    NonRepresentableDutyError,
    NotOverLimitError,
    ZeroDutyError,
)
from .ticks import as_fraction
from .waveform import PulseSpec, _mean_powers, _require_voltages


def adjust_waveform(spec: PulseSpec, target_duty, new_voltage=None) -> PulseSpec:
    """Retarget the duty ratio, rescaling amplitude so mean power is unchanged.

    Both values are exact inputs, as `as_fraction` takes them. The period and
    phase stay fixed. With voltages U and U' the new amplitude is
    (D·U·I)/(D'·U'); when neither side carries a voltage the ratio is 1.
    """
    d_new = as_fraction(target_duty)
    if new_voltage is not None:
        new_voltage = as_fraction(new_voltage)
    if d_new <= 0:
        raise ZeroDutyError(f"target duty {d_new} must be positive")
    if d_new > 1:
        raise ValueError(f"target duty {d_new} exceeds 1")
    width = d_new * spec.period
    if width.denominator != 1:
        raise NonRepresentableDutyError(
            f"duty {d_new} of period {spec.period} ticks is not an integral on-width"
        )
    if new_voltage is not None:
        if spec.voltage is None:
            raise MissingVoltageError(
                f"load {spec.id!r} has no voltage to adjust from"
            )
        voltage_ratio = spec.voltage / new_voltage
    else:
        voltage_ratio = Fraction(1)
        new_voltage = spec.voltage
    amplitude = spec.amplitude * spec.duty / d_new * voltage_ratio
    return replace(spec, on_width=width.numerator, amplitude=amplitude, voltage=new_voltage)


def _derating_ratio(specs: list[PulseSpec], p_max, p_sum) -> Fraction:
    """cap/total, once the total is over a positive cap and every load has a voltage."""
    p_max = as_fraction(p_max)
    p_sum = as_fraction(p_sum)
    if p_max <= 0:
        raise ValueError(f"power cap {p_max} must be positive")
    if p_sum <= p_max:
        raise NotOverLimitError(f"total power {p_sum} W does not exceed the cap {p_max} W")
    _require_voltages(specs)
    return p_max / p_sum


def scale_amplitudes_to_limit(specs: list[PulseSpec], p_max, p_sum) -> list[PulseSpec]:
    """Multiply every amplitude by cap/total; duties, phases, periods unchanged."""
    ratio = _derating_ratio(specs, p_max, p_sum)
    scaled: dict[tuple[int, int], Fraction] = {}  # each distinct amplitude multiplied once
    out = []
    for s in specs:
        amp = s.amplitude
        key = amp.numerator, amp.denominator
        new = scaled.get(key)
        if new is None:
            new = scaled[key] = amp * ratio
        # a positive ratio keeps every amplitude positive: the specs stay valid
        out.append(PulseSpec._checked(s.id, new, s.period, s.on_width, s.phase, s.voltage, s.soc))
    return out


def scale_duties_to_limit(specs: list[PulseSpec], p_max, p_sum) -> list[PulseSpec]:
    """Multiply every duty by cap/total; fails if any on-width leaves the tick grid."""
    ratio = _derating_ratio(specs, p_max, p_sum)
    out = []
    for s in specs:
        width = ratio * s.on_width
        if width.denominator != 1 or width.numerator < 1:
            raise NonRepresentableDutyError(
                f"load {s.id!r}: scaled on-width {width} ticks is not a whole tick >= 1"
            )
        out.append(replace(s, on_width=width.numerator))
    return out


def total_mean_power(specs: list[PulseSpec]) -> Fraction:
    """Sum of per-load mean powers, added as integers over one denominator."""
    powers, den = _mean_powers(specs)
    return Fraction(sum(powers), den)
