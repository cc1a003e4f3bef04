"""Exception types shared across the package."""


class PulseSchedError(Exception):
    """Base class for all scheduling errors."""


class EmptyInputError(PulseSchedError):
    """An operation that needs at least one load received none."""


class TickOverflowError(PulseSchedError):
    """A derived time quantity (usually the hyperperiod) exceeds the tick range."""


class WorkBudgetError(PulseSchedError):
    """An operation would do more work than its declared budget allows."""


class NonRepresentableTimeError(PulseSchedError):
    """A time quantity does not land exactly on the 1 µs tick grid."""


class NonRepresentableDutyError(PulseSchedError):
    """A requested duty ratio does not yield an integral on-width in ticks."""


class ZeroDutyError(PulseSchedError):
    """A duty ratio of zero (or less) was requested."""


class MissingVoltageError(PulseSchedError):
    """An operation needs a charging voltage the pulse spec does not carry."""


class MissingSocError(PulseSchedError):
    """An operation needs a state of charge the pulse spec does not carry."""


class MixedFrequencyError(PulseSchedError):
    """A same-period entry point of the solver received loads with differing periods."""


class NotOverLimitError(PulseSchedError):
    """A de-rating operation was invoked while already at or under the cap."""


class InvalidAssignmentError(PulseSchedError):
    """An assignment fails validation against its loads.

    Realization raises it for a malformed placement or for an item the
    lowest-offset rule leaves without an offset. It checks the items in
    the rule's order, so when a placement has several faults the first
    item in that order with a fault is the one reported. The solver
    searches with that rule, so its placements never raise it.
    """


class NoAdmissibleError(PulseSchedError):
    """Even the lowest-SOC load exceeds the power cap and de-rating is off."""


class ScenarioError(PulseSchedError):
    """A scenario file failed validation; message is anchored to file and field."""
