"""SOC-ordered admission under a total power cap, with optional de-rating.

Loads are charged lowest state-of-charge first. Without de-rating, admission
is a greedy prefix of the SOC order that keeps the summed mean power at or
under the cap; the rest is postponed. With de-rating, every load is admitted
and the excess is removed proportionally (amplitudes or duties) so the total
lands exactly on the cap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .adjust import scale_amplitudes_to_limit, scale_duties_to_limit
from .errors import (
    EmptyInputError,
    MissingSocError,
    MissingVoltageError,
    NoAdmissibleError,
    NotOverLimitError,
    WorkBudgetError,
)
from .ticks import MAX_DIGITS, as_fraction
from .waveform import LoadId, PulseSpec, load_sort_key, mean_power

MODES = ("amplitude", "duty")

# Work budget of admission's common denominators (of the SOCs, and of the mean
# powers), in bits: those of a number of 10 * MAX_DIGITS decimal digits. Each
# is the lcm of the loads' distinct denominators, which can grow with their
# product: 1000 distinct 1000-digit denominators took 23 s in one lcm.
MAX_DENOMINATOR_BITS = (10 ** (10 * MAX_DIGITS)).bit_length()


@dataclass(frozen=True)
class PowerPlan:
    """Admission split plus any proportional de-rating already applied.

    `p_sum_w` is the admitted mean-power sum before scaling; `scale` is the
    cumulative cap/total ratio applied to the admitted loads (1 if none), so
    the power actually drawn is p_sum_w * scale.
    """

    admitted: tuple[LoadId, ...]
    postponed: tuple[LoadId, ...]
    mode: str | None
    scale: Fraction
    p_sum_w: Fraction
    p_max_w: Fraction


def _common_denominator(dens, what: str) -> int:
    """The lcm of `dens`, one distinct denominator at a time, within MAX_DENOMINATOR_BITS."""
    den = 1
    for d in set(dens):
        den = math.lcm(den, d)
        if den.bit_length() > MAX_DENOMINATOR_BITS:  # every later step keeps it there
            raise WorkBudgetError(
                f"a common denominator of the loads' {what} passes {MAX_DENOMINATOR_BITS} bits"
            )
    return den


def _soc_order(specs: list[PulseSpec]) -> list[PulseSpec]:
    """The loads by ascending SOC, ties by id; SOCs compare as integers over one denominator."""
    for s in specs:
        if s.voltage is None:
            raise MissingVoltageError(f"load {s.id!r} carries no charging voltage")
        if s.soc is None:
            raise MissingSocError(f"load {s.id!r} carries no state of charge")
    den = _common_denominator([s.soc.denominator for s in specs], "SOCs")
    return sorted(
        specs, key=lambda s: (s.soc.numerator * (den // s.soc.denominator), load_sort_key(s.id))
    )


def _mean_powers(specs: list[PulseSpec]) -> tuple[list[int], int]:
    """Each load's mean power, duty × voltage × amplitude, as an integer over one denominator."""
    for s in specs:
        if s.voltage is None:
            raise MissingVoltageError(f"load {s.id!r} carries no charging voltage")
    dens = [s.period * s.voltage.denominator * s.amplitude.denominator for s in specs]
    den = _common_denominator(dens, "mean powers")
    powers = [
        s.on_width * s.voltage.numerator * s.amplitude.numerator * (den // d)
        for s, d in zip(specs, dens)
    ]
    return powers, den


def _fitting_prefix(powers: list[int], den: int, cap: Fraction) -> tuple[int, int]:
    """The length and sum of the longest prefix of `powers` whose sum over `den` fits `cap`."""
    limit = cap.numerator * den  # total / den <= cap  <=>  total * cap.denominator <= limit
    total = count = 0
    for p in powers:
        if (total + p) * cap.denominator > limit:
            break
        total += p
        count += 1
    return count, total


def prioritize_and_admit(specs: list[PulseSpec], p_max, derate: bool = False) -> PowerPlan:
    """Admit loads in ascending-SOC order while the summed mean power fits the cap.

    With `derate` every load is admitted (the caller runs enforce_limit);
    otherwise admission stops at the first load that would exceed the cap,
    and an empty admission raises NoAdmissible. No loads raise EmptyInput.
    """
    p_max = as_fraction(p_max)
    if p_max <= 0:
        raise ValueError(f"power cap {p_max} must be positive")
    if not specs:
        raise EmptyInputError("nothing to admit")
    ordered = _soc_order(specs)
    powers, den = _mean_powers(ordered)
    count, p_sum = (len(powers), sum(powers)) if derate else _fitting_prefix(powers, den, p_max)
    if not count:
        s = ordered[0]
        raise NoAdmissibleError(
            f"lowest-SOC load {s.id!r} needs {mean_power(s)} W "
            f"but the cap is {p_max} W and de-rating is disabled"
        )
    return PowerPlan(
        admitted=tuple(s.id for s in ordered[:count]),
        postponed=tuple(s.id for s in ordered[count:]),
        mode=None,
        scale=Fraction(1),
        p_sum_w=Fraction(p_sum, den),
        p_max_w=p_max,
    )


def enforce_limit(
    plan: PowerPlan, specs: list[PulseSpec], mode: str
) -> tuple[PowerPlan, list[PulseSpec]]:
    """De-rate the admitted loads so the summed mean power equals the cap.

    The target ratio is cap over the recorded pre-scale sum; only the residual
    relative to the already-applied scale is applied, so re-running on an
    enforced plan is a no-op.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if plan.p_sum_w <= plan.p_max_w:
        raise NotOverLimitError(
            f"admitted power {plan.p_sum_w} W does not exceed the cap {plan.p_max_w} W"
        )
    target = plan.p_max_w / plan.p_sum_w
    if target == plan.scale:
        return plan, list(specs)

    admitted_ids = set(plan.admitted)
    admitted = [s for s in specs if s.id in admitted_ids]
    current = plan.p_sum_w * plan.scale  # the admitted loads' drawn power
    if mode == "amplitude":
        scaled = scale_amplitudes_to_limit(admitted, plan.p_max_w, current)
    else:
        scaled = scale_duties_to_limit(admitted, plan.p_max_w, current)
    by_id = {s.id: s for s in scaled}
    out = [by_id.get(s.id, s) for s in specs]
    return replace(plan, mode=mode, scale=target), out


def backfill(plan: PowerPlan, specs: list[PulseSpec], p_max) -> PowerPlan:
    """Move postponed loads (ascending SOC) into admission while they fit the cap.

    Stops at the first load that would push the drawn power past the cap;
    a no-op when nothing fits or nothing is postponed.
    """
    p_max = as_fraction(p_max)
    by_id = {s.id: s for s in specs}
    room = p_max - plan.p_sum_w * plan.scale  # what the cap leaves over the drawn power
    powers, den = _mean_powers([by_id[load_id] for load_id in plan.postponed])
    count, moved = _fitting_prefix(powers, den, room)  # the newcomers, and their sum over den
    if not count:
        return plan
    # newcomers are unscaled; fold them into the pre-scale sum so that
    # p_sum_w * scale keeps matching the drawn power
    new_sum = plan.p_sum_w + Fraction(moved, den) / plan.scale
    return replace(
        plan,
        admitted=(*plan.admitted, *plan.postponed[:count]),
        postponed=tuple(plan.postponed[count:]),
        p_sum_w=new_sum,
    )
