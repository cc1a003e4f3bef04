"""Exact rectangular pulse trains and their aggregate current.

A load's charging current is a periodic rectangular pulse: amplitude for
`on_width` ticks starting at `phase`, zero for the rest of each `period`.
The sum of several such trains is an exact piecewise-constant step profile
over one hyperperiod, built by an event sweep over rising/falling edges.
On-intervals are half-open [rise, rise + on_width), so a falling edge that
coincides with another load's rising edge is not an overlap.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, repeat
from typing import Union

from .errors import EmptyInputError, MissingVoltageError, TickOverflowError, WorkBudgetError
from .ticks import MAX_DIGITS, MAX_TICK, TICKS_PER_SECOND, as_fraction, ticks_from_seconds

LoadId = Union[int, str]

# Work budget of one event sweep, in edges (rising plus falling) visited. It
# bounds time, not memory: a 2,000,020-edge sweep grew the process by 218 MiB.
MAX_EDGES = 10**7

# Work budget of a common denominator of the loads' amplitudes, SOCs or mean
# powers, in bits: those of a number of 10 * MAX_DIGITS decimal digits. Each is
# the lcm of the loads' distinct denominators, which can grow with their
# product: 1000 distinct 1000-digit denominators took 23 s in one lcm.
MAX_DENOMINATOR_BITS = (10 ** (10 * MAX_DIGITS)).bit_length()


def load_sort_key(load_id: LoadId) -> tuple:
    """Deterministic cross-type ordering for load ids (ints before strings)."""
    if isinstance(load_id, int):
        return (0, load_id, "")
    return (1, 0, str(load_id))


@dataclass(frozen=True)
class PulseSpec:
    """One load's pulse-train: amplitude for on_width ticks out of every period.

    `phase` is the offset of the first rising edge and is reduced modulo the
    period on construction. `voltage` and `soc` are optional and only needed
    by power-oriented operations.
    """

    id: LoadId
    amplitude: Fraction
    period: int
    on_width: int
    phase: int = 0
    voltage: Fraction | None = None
    soc: Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "amplitude", as_fraction(self.amplitude))
        if self.voltage is not None:
            object.__setattr__(self, "voltage", as_fraction(self.voltage))
        if self.soc is not None:
            object.__setattr__(self, "soc", as_fraction(self.soc))
        if not isinstance(self.period, int) or not isinstance(self.on_width, int):
            raise ValueError(f"load {self.id!r}: period and on_width must be integer ticks")
        if not isinstance(self.phase, int):
            raise ValueError(f"load {self.id!r}: phase must be integer ticks")
        if self.period <= 0:
            raise ValueError(f"load {self.id!r}: period must be positive")
        if not 0 < self.on_width <= self.period:
            raise ValueError(f"load {self.id!r}: need 0 < on_width <= period")
        if self.amplitude <= 0:
            raise ValueError(f"load {self.id!r}: amplitude must be positive")
        if self.soc is not None and not 0 <= self.soc <= 1:
            raise ValueError(f"load {self.id!r}: soc must lie in [0, 1]")
        if self.voltage is not None and self.voltage <= 0:
            raise ValueError(f"load {self.id!r}: voltage must be positive")
        object.__setattr__(self, "phase", self.phase % self.period)

    @classmethod
    def _checked(cls, id, amplitude, period, on_width, phase, voltage, soc) -> "PulseSpec":
        """A spec from all seven fields, which already pass the checks above
        (Fraction quantities, phase reduced modulo the period): no check runs again."""
        spec = object.__new__(cls)
        # a dict of its own: on CPython 3.11 an instance dict that shares the class's
        # keys, as storing into spec.__dict__ makes, is twice as slow to read from
        fields = {
            "id": id, "amplitude": amplitude, "period": period, "on_width": on_width,
            "phase": phase, "voltage": voltage, "soc": soc,
        }
        object.__setattr__(spec, "__dict__", fields)
        return spec

    @classmethod
    def from_seconds(
        cls,
        id: LoadId,
        amplitude,
        period_s,
        on_width_s,
        phase_s="0",
        voltage=None,
        soc=None,
    ) -> "PulseSpec":
        """Build a spec from exact second-valued strings/Fractions/Decimals."""
        return cls(
            id=id,
            amplitude=amplitude,
            period=ticks_from_seconds(period_s),
            on_width=ticks_from_seconds(on_width_s),
            phase=ticks_from_seconds(phase_s),
            voltage=voltage,
            soc=soc,
        )

    @property
    def off_width(self) -> int:
        return self.period - self.on_width

    @property
    def duty(self) -> Fraction:
        return Fraction(self.on_width, self.period)

    @property
    def frequency_hz(self) -> Fraction:
        return Fraction(TICKS_PER_SECOND, self.period)

    @property
    def always_on(self) -> bool:
        return self.on_width == self.period

    def active_at(self, t: int) -> bool:
        """True iff the pulse is on at tick t (half-open on-interval)."""
        return (t - self.phase) % self.period < self.on_width


@dataclass(frozen=True)
class StepProfile:
    """Piecewise-constant current over one hyperperiod, maximally merged.

    Levels are stored scaled to one common integer denominator: segment k
    carries scaled[k] / denominator on the half-open span
    [breakpoints[k], breakpoints[k+1]), cyclically: the last segment wraps
    through hyperperiod back to the first breakpoint. A constant profile is
    a single breakpoint at 0.
    """

    hyperperiod: int
    breakpoints: tuple[int, ...]
    scaled: tuple[int, ...]
    denominator: int

    def __post_init__(self):
        if self.hyperperiod <= 0:
            raise ValueError("hyperperiod must be positive")
        if not isinstance(self.denominator, int) or self.denominator <= 0:
            raise ValueError("denominator must be a positive integer")
        bps, scaled = self.breakpoints, self.scaled
        if not bps or len(bps) != len(scaled):
            raise ValueError("need one level per breakpoint, at least one")
        if not all(map(isinstance, scaled, repeat(int))):
            raise ValueError("scaled levels must be integers")
        if not all(map(isinstance, bps, repeat(int))) or bps[0] < 0 or bps[-1] >= self.hyperperiod:
            raise ValueError("breakpoints must be integer ticks in [0, hyperperiod)")
        if not all(map(operator.lt, bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if len(scaled) > 1:
            if scaled[-1] == scaled[0] or any(map(operator.eq, scaled, scaled[1:])):
                raise ValueError("adjacent segment levels must differ (maximal merge)")
        elif bps != (0,):
            raise ValueError("a constant profile is represented by breakpoint 0")

    @classmethod
    def _checked(cls, hyperperiod: int, breakpoints: tuple, scaled: tuple, denominator: int):
        """A profile from fields that already pass the checks above, as the sweep
        derives them: no check runs again."""
        profile = object.__new__(cls)
        profile.__dict__.update(
            hyperperiod=hyperperiod, breakpoints=breakpoints, scaled=scaled, denominator=denominator
        )
        return profile

    @property
    def levels(self) -> tuple[Fraction, ...]:
        """Segment levels in amperes, built on demand from the scaled integers."""
        return tuple(Fraction(v, self.denominator) for v in self.scaled)

    def level_at(self, t: int) -> Fraction:
        """Current level at tick t (periodic continuation for any t ≥ 0)."""
        t %= self.hyperperiod
        # bisect lands on -1 before the first breakpoint: the cyclic last segment
        return Fraction(self.scaled[bisect_right(self.breakpoints, t) - 1], self.denominator)


@dataclass(frozen=True)
class Metrics:
    """Envelope of a step profile: min, max, fluctuation, time-weighted mean."""

    min_a: Fraction
    max_a: Fraction
    fluctuation_a: Fraction
    mean_a: Fraction


def _require_voltages(specs) -> None:
    """MissingVoltageError for the first load in `specs` without a charging voltage."""
    for s in specs:
        if s.voltage is None:
            raise MissingVoltageError(f"load {s.id!r} carries no charging voltage")


def mean_power(spec: PulseSpec) -> Fraction:
    """Mean charging power over one period: duty × voltage × current."""
    _require_voltages((spec,))
    return spec.duty * spec.voltage * spec.amplitude


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


def _mean_powers(specs: list[PulseSpec]) -> tuple[list[int], int]:
    """Each load's mean power, duty × voltage × amplitude, as an integer over one denominator."""
    _require_voltages(specs)
    dens = [s.period * s.voltage.denominator * s.amplitude.denominator for s in specs]
    den = _common_denominator(dens, "mean powers")
    powers = [
        s.on_width * s.voltage.numerator * s.amplitude.numerator * (den // d)
        for s, d in zip(specs, dens)
    ]
    return powers, den


def hyperperiod(specs: list[PulseSpec]) -> int:
    """Least common multiple of all periods, in ticks."""
    if not specs:
        raise EmptyInputError("hyperperiod of no loads")
    return math.lcm(*(s.period for s in specs))


def aggregate_profile(specs: list[PulseSpec]) -> StepProfile:
    """Exact sum of all pulse trains over one hyperperiod.

    Scales every amplitude to an integer over the LCM of their
    denominators, collects every rising/falling edge as a signed integer
    delta, sweeps them in time order, and merges segments whose deltas
    cancel (a fall coinciding with a rise produces no breakpoint). The
    edge count is checked against MAX_EDGES, and the LCM against
    MAX_DENOMINATOR_BITS, before anything is allocated.
    """
    if not specs:
        raise EmptyInputError("aggregate of no loads")
    t_lcm = hyperperiod(specs)
    if t_lcm > MAX_TICK:
        raise TickOverflowError(f"hyperperiod {t_lcm} exceeds the tick range {MAX_TICK}")
    edges = sum(2 * (t_lcm // s.period) for s in specs if not s.always_on)
    if edges > MAX_EDGES:
        raise WorkBudgetError(
            f"a sweep over hyperperiod {t_lcm} visits {edges} edges, above the budget of {MAX_EDGES}"
        )

    den = _common_denominator([s.amplitude.denominator for s in specs], "amplitudes")
    deltas: dict[int, int] = {}
    get = deltas.get
    for s in specs:
        if s.always_on:  # a constant floor: no edges, but on at every tick
            continue
        amp = s.amplitude.numerator * (den // s.amplitude.denominator)
        # the falls of one load are its rises shifted by on_width, modulo t_lcm
        for t in range(s.phase, t_lcm, s.period):
            deltas[t] = get(t, 0) + amp
        for t in range((s.phase + s.on_width) % s.period, t_lcm, s.period):
            deltas[t] = get(t, 0) - amp

    # ticks whose deltas cancel to 0 are no breakpoints
    times = sorted(compress(deltas, deltas.values()))
    first = times[0] if times else 0
    level = sum(
        s.amplitude.numerator * (den // s.amplitude.denominator) for s in specs if s.active_at(first)
    )
    if not times:
        # every rise cancels a fall: a constant profile
        return StepProfile._checked(t_lcm, (0,), (level,), den)
    scaled = tuple(accumulate(map(deltas.__getitem__, times[1:]), initial=level))
    return StepProfile._checked(t_lcm, tuple(times), scaled, den)


def profile_metrics(profile: StepProfile) -> Metrics:
    """Min/max over segment levels and the duration-weighted mean."""
    bps, scaled, den = profile.breakpoints, profile.scaled, profile.denominator
    lo = min(scaled)
    hi = max(scaled)
    ends = bps[1:] + (bps[0] + profile.hyperperiod,)  # the last segment wraps
    total = sum(map(operator.mul, map(operator.sub, ends, bps), scaled))
    return Metrics(
        Fraction(lo, den),
        Fraction(hi, den),
        Fraction(hi - lo, den),
        Fraction(total, den * profile.hyperperiod),
    )
