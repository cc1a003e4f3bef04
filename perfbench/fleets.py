"""Seeded scenario generators, one per benchmark workload.

Every generator takes the run seed and returns the same cases, byte for
byte, for the same seed. A case is one scenario file plus the CLI runs made
on it; the program sees only the file. The generators know each load in
exact integer ticks, so the output checks in `checks.py` can recompute
invariants without the program's parser.

Pools are stratified: the cost-setting property of each workload (edge
count, fleet size, load count) follows a fixed ladder and the seed draws
everything else. Seed-to-seed changes in throughput then come from the
inputs' shape, not from one unlucky draw of a huge fleet.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

TICKS_PER_SECOND = 10**6


@dataclass(frozen=True)
class Load:
    """One generated load in exact units: ticks, amperes, volts, SOC in %."""

    id: int
    amplitude: Fraction
    period: int
    on: int
    phase: int
    voltage: Fraction | None = None
    soc_pct: Fraction | None = None

    @property
    def duty(self) -> Fraction:
        return Fraction(self.on, self.period)


@dataclass(frozen=True)
class Case:
    """One scenario file and the CLI runs (argument tails) made on it."""

    stem: str
    command: str
    loads: tuple[Load, ...]
    runs: tuple[tuple[str, ...], ...]
    p_max_w: Fraction | None = None

    def text(self) -> str:
        return scenario_text(self.loads, self.p_max_w)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stresses: str
    generate: object = field(repr=False)


def seconds_text(ticks: int) -> str:
    whole, frac = divmod(ticks, TICKS_PER_SECOND)
    return f"{whole}.{frac:06d}".rstrip("0").rstrip(".")


def _exact(value: Fraction) -> str:
    return str(value) if value.denominator != 1 else str(value.numerator)


def scenario_text(loads, p_max_w: Fraction | None = None) -> str:
    rows = []
    for s in loads:
        row = {
            "id": s.id,
            "amplitude_a": _exact(s.amplitude),
            "frequency_hz": _exact(Fraction(TICKS_PER_SECOND, s.period)),
            "duty_pct": _exact(100 * s.duty),
            "phase_s": seconds_text(s.phase),
        }
        if s.voltage is not None:
            row["voltage_v"] = _exact(s.voltage)
        if s.soc_pct is not None:
            row["soc_pct"] = _exact(s.soc_pct)
        rows.append(json.dumps(row, sort_keys=True))
    doc = '{\n  "loads": [\n    ' + ",\n    ".join(rows) + "\n  ]"
    if p_max_w is not None:
        doc += ',\n  "power": {"p_max_w": "' + _exact(p_max_w) + '"}'
    return doc + "\n}\n"


def _stratified(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of k equal strata of [lo, hi), shuffled."""
    width = (hi - lo) / k
    values = [lo + width * (i + rng.random()) for i in range(k)]
    rng.shuffle(values)
    return values


def _amplitude(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(5, 500), 10)  # 0.5 A to 50 A in 0.1 A steps


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small) | {n // d for d in small})


# simulate-sweep: pulses per hyperperiod must divide 10^6 ticks, and periods
# stay at least 50 ticks long
_SWEEP_COUNTS = [m for m in _divisors(TICKS_PER_SECOND) if TICKS_PER_SECOND // m >= 50]
SWEEP_POOL = 32
SWEEP_EDGES = (1_000, 10_000)


def _closest_count(target: float, prime: int | None = None) -> int:
    """The allowed pulse count nearest to target; `prime` keeps powers of it only."""
    counts = [m for m in _SWEEP_COUNTS if prime is None or m == prime ** round(math.log(m, prime))]
    return min(counts, key=lambda m: (abs(math.log(m / max(target, 1))), m))


def simulate_sweep(seed: int) -> list[Case]:
    """Fleets of 8-24 loads whose periods divide one second.

    Target edge counts follow a log ladder from 10^3 to 10^4 across the
    pool; the seed picks how each fleet splits its edges across loads, the
    widths, phases and amplitudes.
    """
    rng = random.Random(f"simulate-sweep:{seed}")
    lo, hi = SWEEP_EDGES
    cases = []
    for k in range(SWEEP_POOL):
        target = lo * (hi / lo) ** (k / (SWEEP_POOL - 1))
        n = rng.randint(8, 24)
        counts = []
        for i in range(n - 2):
            share = (target / 2 - sum(counts)) / (n - i)
            # a power of two and a power of five make the hyperperiod one second
            counts.append(_closest_count(share * rng.uniform(0.5, 1.5), {0: 2, 1: 5}.get(i)))
        rest = target / 2 - sum(counts)
        counts += min(
            ((a, b) for a in _SWEEP_COUNTS for b in _SWEEP_COUNTS if a <= b),
            key=lambda ab: (abs(sum(ab) - rest), ab[1] - ab[0]),
        )
        loads = []
        for i, count in enumerate(counts):
            period = TICKS_PER_SECOND // count
            on = max(1, min(period - 1, round(period * rng.uniform(0.1, 0.9))))
            loads.append(Load(i + 1, _amplitude(rng), period, on, rng.randrange(period)))
        cases.append(Case(f"sweep{k:02d}", "simulate", tuple(loads), (("--csv", "--svg"),)))
    return cases


SAMEFREQ_SIZES = (10, 11, 12, 13, 14)
SAMEFREQ_PER_SIZE = 40
_SAMEFREQ_PERIODS = (1_000_000, 500_000, 200_000, 100_000, 20_000)


def schedule_samefreq(seed: int) -> list[Case]:
    """Equal-period fleets, n = 10-14, four in five widths above 40 %.

    Widths are stratified per fleet (one draw per duty stratum), so the
    pool's fleets share a shape: a loose ceil(sum duty) bound and a subset
    search of similar depth at each size.
    """
    rng = random.Random(f"schedule-samefreq:{seed}")
    cases = []
    for k in range(SAMEFREQ_PER_SIZE * len(SAMEFREQ_SIZES)):
        n = SAMEFREQ_SIZES[k % len(SAMEFREQ_SIZES)]
        period = rng.choice(_SAMEFREQ_PERIODS)
        n_low = round(n / 5)
        duties = _stratified(rng, n - n_low, 0.41, 0.91) + _stratified(rng, n_low, 0.05, 0.41)
        rng.shuffle(duties)
        loads = tuple(
            Load(i + 1, _amplitude(rng), period, max(1, round(period * d)), rng.randrange(period))
            for i, d in enumerate(duties)
        )
        cases.append(Case(f"same{k:03d}", "schedule", loads, ((),)))
    return cases


MIXED_SIZES = (8, 9, 10)
MIXED_PER_SIZE = 70
MIXED_SHORT = 3
_MIXED_BASES = (100_000, 125_000, 200_000, 250_000)
_MIXED_MULTIPLES = (1, 2, 4, 8)


def schedule_mixed(seed: int) -> list[Case]:
    """Fleets of 8-10 loads with periods base x {1, 2, 4, 8}.

    One fleet in three also carries 2 or 3 loads (in turn) on a second base
    3/2 times the first, with multiples {1, 2}, so it splits into several
    groups and mixes period ratios of 2 and 3. Each fleet has MIXED_SHORT short pulses (duty
    5-20 %), which stack as items in shared slots, and the rest at 20-60 %.
    Larger fleets make the hyperperiod search heavy-tailed: with 11-13
    loads, or duties spread evenly over 5-50 %, a few fleets per pool cost
    50 times the median, and throughput and tail moved by 17-75 % from seed
    to seed.

    The runs pass --allow-partial: a group that the known realization defect
    stops is left unshifted and the op completes, so the defect shows as
    fluctuation and bin-type loads kept, not as an op that fails.
    """
    rng = random.Random(f"schedule-mixed:{seed}")
    cases = []
    for k in range(MIXED_PER_SIZE * len(MIXED_SIZES)):
        n = MIXED_SIZES[k % len(MIXED_SIZES)]
        base = rng.choice(_MIXED_BASES)
        n_second = 2 + k // 3 % 2 if k % 3 == 2 else 0  # 2 and 3 in turn
        periods = [base * _MIXED_MULTIPLES[i % 4] for i in range(n - n_second)]
        periods += [base * 3 // 2 * (1 + i % 2) for i in range(n_second)]
        rng.shuffle(periods)
        duties = _stratified(rng, MIXED_SHORT, 0.05, 0.2) + _stratified(rng, n - MIXED_SHORT, 0.2, 0.6)
        rng.shuffle(duties)
        loads = []
        for i, (period, d) in enumerate(zip(periods, duties)):
            on = max(1000, round(period * d / 1000) * 1000)  # whole milliseconds
            loads.append(Load(i + 1, _amplitude(rng), period, on, rng.randrange(period)))
        cases.append(Case(f"mixed{k:03d}", "schedule", tuple(loads), (("--allow-partial",),)))
    return cases


PLAN_POOL = 16
PLAN_SIZES = (900, 1100)
_PLAN_FREQS = (1, 2, 4, 5, 10, 20, 50, 100)
_PLAN_VOLTAGES = (48, 230, 400, 800)


def plan_power_fleet(seed: int) -> list[Case]:
    """Depot-scale fleets of 900-1100 loads with voltage and SOC.

    The cap is 40-70 % of the fleet's summed mean power, so admission stops
    part-way and de-rating has work to do. Each fleet runs with no mode and
    with --mode amplitude. --mode duty is left out: it raises
    NonRepresentableDutyError on every such fleet, because a cap/total ratio
    times an on-width is off the tick grid, and no op of a workload may fail.
    """
    rng = random.Random(f"plan-power-fleet:{seed}")
    lo, hi = PLAN_SIZES
    cases = []
    for k in range(PLAN_POOL):
        n = lo + (hi - lo) * k // (PLAN_POOL - 1)
        loads = []
        for i in range(n):
            period = TICKS_PER_SECOND // rng.choice(_PLAN_FREQS)
            on = period * rng.randint(10, 90) // 100
            loads.append(
                Load(
                    i + 1,
                    _amplitude(rng),
                    period,
                    on,
                    rng.randrange(0, period, 1000),
                    voltage=Fraction(rng.choice(_PLAN_VOLTAGES)),
                    soc_pct=Fraction(rng.randint(0, 1000), 10),
                )
            )
        total = sum(mean_power(s) for s in loads)
        cap = Fraction(math.floor(total * Fraction(rng.randint(40, 70), 100)))
        cases.append(
            Case(
                f"depot{k:02d}",
                "plan-power",
                tuple(loads),
                ((), ("--mode", "amplitude")),
                p_max_w=cap,
            )
        )
    return cases


def mean_power(s: Load) -> Fraction:
    return s.duty * s.voltage * s.amplitude


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simulate-sweep",
            "simulate --csv --svg on 8-24 loads with 10^3 to 10^4 edges: the event sweep, "
            "metrics and CSV/SVG writers, with no solver work",
            "waveform sweep, profile metrics, CSV/SVG writers; bypasses grouping, solvers, power",
            simulate_sweep,
        ),
        Workload(
            "schedule-samefreq",
            "schedule on equal-period fleets of 10-14, widths mostly above 40 %: the exact "
            "subset search under a loose bound, with a sweep of only 2n edges",
            "samefreq subset enumeration and packing; bypasses multifreq and large sweeps",
            schedule_samefreq,
        ),
        Workload(
            "schedule-mixed",
            "schedule --allow-partial on 8-10 loads with nested periods: the hyperperiod solver "
            "and realization sweeps; the known realization defect leaves groups unshifted",
            "multifreq solve and realize, unit-amplitude sweeps, grouping; bypasses power",
            schedule_mixed,
        ),
        Workload(
            "plan-power-fleet",
            "plan-power on about 10^3 loads, with no mode and in amplitude mode: parsing, SOC "
            "admission, de-rating and JSON writing at size",
            "scenario parser, power admission and enforcement, JSON renderers; bypasses sweep",
            plan_power_fleet,
        ),
    )
}
