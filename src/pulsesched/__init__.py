"""Scheduling of periodic pulse charging currents to flatten aggregate demand.

The kernel is exact: time lives on an integer microsecond tick grid and
currents/powers are rational numbers, so overlap decisions, hyperperiod
arithmetic, and the power-preservation identities hold as equalities.
"""

from .adjust import (
    AdjustmentRequest,
    adjust_waveform,
    scale_amplitudes_to_limit,
    scale_duties_to_limit,
    total_mean_power,
)
from .errors import (
    EmptyInputError,
    InvalidAssignmentError,
    MissingSocError,
    MissingVoltageError,
    NoAdmissibleError,
    NonRepresentableDutyError,
    NonRepresentableTimeError,
    NotOverLimitError,
    PulseSchedError,
    ScenarioError,
    TickOverflowError,
    WorkBudgetError,
    ZeroDutyError,
)
from .grouping import Group, GroupPlan, partition_by_frequency, schedule_fleet
from .multifreq import (
    AssignmentMultiFreq,
    check_groupability,
    realize_phases_multifreq,
    solve_multifreq,
)
from .power import PowerPlan, backfill, enforce_limit, prioritize_and_admit
from .ticks import MAX_TICK, TICKS_PER_SECOND, seconds_str, ticks_from_seconds
from .waveform import (
    Metrics,
    PulseSpec,
    StepProfile,
    aggregate_profile,
    hyperperiod,
    load_sort_key,
    mean_power,
    profile_metrics,
)

__version__ = "0.1.0"

__all__ = [
    "AdjustmentRequest",
    "AssignmentMultiFreq",
    "EmptyInputError",
    "Group",
    "GroupPlan",
    "InvalidAssignmentError",
    "MAX_TICK",
    "Metrics",
    "MissingSocError",
    "MissingVoltageError",
    "NoAdmissibleError",
    "NonRepresentableDutyError",
    "NonRepresentableTimeError",
    "NotOverLimitError",
    "PowerPlan",
    "PulseSchedError",
    "PulseSpec",
    "ScenarioError",
    "StepProfile",
    "TICKS_PER_SECOND",
    "TickOverflowError",
    "WorkBudgetError",
    "ZeroDutyError",
    "adjust_waveform",
    "aggregate_profile",
    "backfill",
    "check_groupability",
    "enforce_limit",
    "hyperperiod",
    "load_sort_key",
    "mean_power",
    "partition_by_frequency",
    "prioritize_and_admit",
    "profile_metrics",
    "realize_phases_multifreq",
    "scale_amplitudes_to_limit",
    "scale_duties_to_limit",
    "schedule_fleet",
    "seconds_str",
    "solve_multifreq",
    "ticks_from_seconds",
    "total_mean_power",
]
