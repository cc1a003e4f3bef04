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
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .errors import EmptyInputError, MissingVoltageError, TickOverflowError
from .ticks import MAX_TICK, TICKS_PER_SECOND, as_fraction, ticks_from_seconds

LoadId = Union[int, str]


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

    levels[k] holds on the half-open span [breakpoints[k], breakpoints[k+1]),
    cyclically: the last segment wraps through hyperperiod back to the first
    breakpoint. A constant profile is a single breakpoint at 0.
    """

    hyperperiod: int
    breakpoints: tuple[int, ...]
    levels: tuple[Fraction, ...]

    def __post_init__(self):
        if self.hyperperiod <= 0:
            raise ValueError("hyperperiod must be positive")
        if not self.breakpoints or len(self.breakpoints) != len(self.levels):
            raise ValueError("need one level per breakpoint, at least one")
        object.__setattr__(self, "levels", tuple(as_fraction(v) for v in self.levels))
        prev = -1
        for b in self.breakpoints:
            if not isinstance(b, int) or not 0 <= b < self.hyperperiod:
                raise ValueError("breakpoints must be integer ticks in [0, hyperperiod)")
            if b <= prev:
                raise ValueError("breakpoints must be strictly increasing")
            prev = b
        n = len(self.levels)
        if n > 1:
            for k in range(n):
                if self.levels[k] == self.levels[(k + 1) % n]:
                    raise ValueError("adjacent segment levels must differ (maximal merge)")
        elif self.breakpoints != (0,):
            raise ValueError("a constant profile is represented by breakpoint 0")

    def level_at(self, t: int) -> Fraction:
        """Current level at tick t (periodic continuation for any t ≥ 0)."""
        t %= self.hyperperiod
        # bisect lands on -1 before the first breakpoint: the cyclic last segment
        return self.levels[bisect_right(self.breakpoints, t) - 1]

    def segments(self) -> Iterator[tuple[int, int, Fraction]]:
        """Yield (start, duration, level) per segment; the last one wraps."""
        n = len(self.breakpoints)
        for k in range(n):
            start = self.breakpoints[k]
            end = self.breakpoints[(k + 1) % n] if k + 1 < n else self.breakpoints[0] + self.hyperperiod
            yield start, end - start, self.levels[k]


@dataclass(frozen=True)
class Metrics:
    """Envelope of a step profile: min, max, fluctuation, time-weighted mean."""

    min_a: Fraction
    max_a: Fraction
    fluctuation_a: Fraction
    mean_a: Fraction


def mean_power(spec: PulseSpec) -> Fraction:
    """Mean charging power over one period: duty × voltage × current."""
    if spec.voltage is None:
        raise MissingVoltageError(f"load {spec.id!r} carries no charging voltage")
    return spec.duty * spec.voltage * spec.amplitude


def hyperperiod(specs: list[PulseSpec]) -> int:
    """Least common multiple of all periods, in ticks."""
    if not specs:
        raise EmptyInputError("hyperperiod of no loads")
    return math.lcm(*(s.period for s in specs))


def aggregate_profile(specs: list[PulseSpec]) -> StepProfile:
    """Exact sum of all pulse trains over one hyperperiod.

    Collects every rising/falling edge as a signed amplitude delta, sweeps
    them in time order, and merges segments whose deltas cancel (a fall
    coinciding with a rise produces no breakpoint).
    """
    if not specs:
        raise EmptyInputError("aggregate of no loads")
    t_lcm = hyperperiod(specs)
    if t_lcm > MAX_TICK:
        raise TickOverflowError(f"hyperperiod {t_lcm} exceeds the tick range {MAX_TICK}")

    base = Fraction(0)  # always-on loads contribute a constant floor
    deltas: dict[int, Fraction] = {}
    gated: list[PulseSpec] = []
    for s in specs:
        if s.always_on:
            base += s.amplitude
            continue
        gated.append(s)
        for k in range(t_lcm // s.period):
            rise = s.phase + k * s.period
            fall = rise + s.on_width
            if fall >= t_lcm:
                fall -= t_lcm
            deltas[rise] = deltas.get(rise, Fraction(0)) + s.amplitude
            deltas[fall] = deltas.get(fall, Fraction(0)) - s.amplitude

    times = sorted(t for t, d in deltas.items() if d != 0)
    if not times:
        # every rise cancels a fall: the gated loads add a constant level too
        level = base + sum((s.amplitude for s in gated if s.active_at(0)), Fraction(0))
        return StepProfile(t_lcm, (0,), (level,))

    first = times[0]
    level = base + sum((s.amplitude for s in gated if s.active_at(first)), Fraction(0))
    levels = [level]
    for t in times[1:]:
        level += deltas[t]
        levels.append(level)
    return StepProfile(t_lcm, tuple(times), tuple(levels))


def profile_metrics(profile: StepProfile) -> Metrics:
    """Min/max over segment levels and the duration-weighted mean."""
    lo = min(profile.levels)
    hi = max(profile.levels)
    total = sum((dur * lvl for _, dur, lvl in profile.segments()), Fraction(0))
    return Metrics(lo, hi, hi - lo, total / profile.hyperperiod)
