"""SOC-ordered admission under a total power cap, with optional de-rating.

Loads are charged lowest state-of-charge first. Without de-rating, admission
is a greedy prefix of the SOC order that keeps the summed mean power at or
under the cap; the rest is postponed. With de-rating, every load is admitted
and the excess is removed proportionally (amplitudes or duties) so the total
lands exactly on the cap.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .adjust import scale_amplitudes_to_limit, scale_duties_to_limit, total_mean_power
from .errors import (
    EmptyInputError,
    MissingSocError,
    MissingVoltageError,
    NoAdmissibleError,
    NotOverLimitError,
)
from .ticks import as_fraction
from .waveform import LoadId, PulseSpec, load_sort_key, mean_power

MODES = ("amplitude", "duty")


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


def _soc_order(specs: list[PulseSpec]) -> list[PulseSpec]:
    for s in specs:
        if s.voltage is None:
            raise MissingVoltageError(f"load {s.id!r} carries no charging voltage")
        if s.soc is None:
            raise MissingSocError(f"load {s.id!r} carries no state of charge")
    return sorted(specs, key=lambda s: (s.soc, load_sort_key(s.id)))


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
    p_sum, admitted = Fraction(0), []  # the admitted mean powers' sum and ids
    for s in ordered:
        total = p_sum + mean_power(s)
        if not derate and total > p_max:
            if not admitted:
                raise NoAdmissibleError(
                    f"lowest-SOC load {s.id!r} needs {total} W "
                    f"but the cap is {p_max} W and de-rating is disabled"
                )
            break
        p_sum = total
        admitted.append(s.id)
    return PowerPlan(
        admitted=tuple(admitted),
        postponed=tuple(s.id for s in ordered[len(admitted):]),
        mode=None,
        scale=Fraction(1),
        p_sum_w=p_sum,
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
    current = total_mean_power(admitted)
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
    drawn = plan.p_sum_w * plan.scale
    admitted = list(plan.admitted)
    postponed = list(plan.postponed)
    moved_power = Fraction(0)
    while postponed:
        nxt = by_id[postponed[0]]
        p = mean_power(nxt)
        if drawn + p > p_max:
            break
        drawn += p
        moved_power += p
        admitted.append(postponed.pop(0))
    if moved_power == 0:
        return plan
    # newcomers are unscaled; fold them into the pre-scale sum so that
    # p_sum_w * scale keeps matching the drawn power
    new_sum = plan.p_sum_w + moved_power / plan.scale
    return replace(
        plan, admitted=tuple(admitted), postponed=tuple(postponed), p_sum_w=new_sum
    )
