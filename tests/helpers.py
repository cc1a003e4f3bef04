"""Independent oracles and random fleet generators for the test suite.

Everything here recomputes results from first principles (dense sampling,
exhaustive subset enumeration) without touching the library's sweep or
search internals, so agreement is meaningful.
"""
from __future__ import annotations

import importlib
import math
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from pulsesched import PulseSpec

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def reference_module(name: str):
    """A module of `pulsesched_ref`, the frozen copy of the package in perfbench/.

    Used read-only as an oracle for outputs that must stay byte-identical.
    """
    if str(REFERENCE_DIR) not in sys.path:
        sys.path.append(str(REFERENCE_DIR))
    return importlib.import_module(f"pulsesched_ref.{name}")


def level_at_tick(specs: list[PulseSpec], t: int) -> Fraction:
    """Aggregate current at tick t, straight from the pulse definition."""
    total = Fraction(0)
    for s in specs:
        if (t - s.phase) % s.period < s.on_width:
            total += s.amplitude
    return total


def assert_bins_at_unit_level(specs: list[PulseSpec], assignment, realized: list[PulseSpec]) -> None:
    """Each bin with its items, at unit amplitude, never reaches level 2.

    The level is checked at every rising edge of the bin's members over one
    hyperperiod, straight from the pulse definition: a sum of pulses is
    highest where one of them starts.
    """
    t_lcm = math.lcm(*(s.period for s in specs))
    hosted: dict[int, list[int]] = {}
    for j, place in enumerate(assignment.placement):
        if place is not None:
            hosted.setdefault(place[0], []).append(j)
    for b, js in hosted.items():
        unit = [replace(realized[i], amplitude=1) for i in (b, *js)]
        starts = {(s.phase + k * s.period) % t_lcm for s in unit for k in range(t_lcm // s.period)}
        assert max(level_at_tick(unit, t) for t in starts) == 1


def dense_metrics(specs: list[PulseSpec]) -> tuple[Fraction, Fraction, Fraction]:
    """(min, max, mean) by sampling every tick of one hyperperiod."""
    t_lcm = math.lcm(*(s.period for s in specs))
    levels = [level_at_tick(specs, t) for t in range(t_lcm)]
    return min(levels), max(levels), sum(levels) / t_lcm


def samefreq_subset_feasible(specs: list[PulseSpec], bins: tuple[int, ...]) -> bool:
    """Exact packing decision for one bin subset, by plain input-order search."""
    items = [j for j in range(len(specs)) if j not in set(bins)]
    room = {b: specs[b].off_width for b in bins}
    # sound necessary conditions, checked before the search
    if sum(specs[j].on_width for j in items) > sum(room.values()):
        return False
    if items and max(specs[j].on_width for j in items) > max(room.values()):
        return False

    def assign(pos: int) -> bool:
        if pos == len(items):
            return True
        w = specs[items[pos]].on_width
        for b in bins:
            if room[b] >= w:
                room[b] -= w
                if assign(pos + 1):
                    room[b] += w
                    return True
                room[b] += w
        return False

    return assign(0)


def oracle_min_bins_samefreq(specs: list[PulseSpec]) -> int:
    """Minimum bin count over all 2^n bin subsets, each decided exactly."""
    n = len(specs)
    best = n
    for size in range(1, n + 1):
        if size >= best:
            break
        for bins in combinations(range(n), size):
            if samefreq_subset_feasible(specs, bins):
                best = size
                break
    return best


def multifreq_subset_feasible(specs: list[PulseSpec], bins: tuple[int, ...], t_lcm: int) -> bool:
    """Exact slot-packing decision: items pick a host bin and a slot class."""
    bin_set = set(bins)
    items = [j for j in range(len(specs)) if j not in bin_set]
    loads = {b: [0] * (t_lcm // specs[b].period) for b in bins}

    def assign(pos: int) -> bool:
        if pos == len(items):
            return True
        j = items[pos]
        w = specs[j].on_width
        for b in bins:
            if specs[j].period % specs[b].period != 0 or w > specs[b].off_width:
                continue
            ratio = specs[j].period // specs[b].period
            slots = loads[b]
            for cls in range(1, ratio + 1):
                hit = range(cls - 1, len(slots), ratio)
                if all(slots[k] + w <= specs[b].off_width for k in hit):
                    for k in hit:
                        slots[k] += w
                    if assign(pos + 1):
                        for k in hit:
                            slots[k] -= w
                        return True
                    for k in hit:
                        slots[k] -= w
        return False

    return assign(0)


def oracle_min_bins_multifreq(specs: list[PulseSpec]) -> int:
    n = len(specs)
    t_lcm = math.lcm(*(s.period for s in specs))
    best = n
    for size in range(1, n + 1):
        if size >= best:
            break
        for bins in combinations(range(n), size):
            if multifreq_subset_feasible(specs, bins, t_lcm):
                best = size
                break
    return best


def _classes_fit(
    specs: list[PulseSpec], bin_of: dict[int, int], t_lcm: int, fixed: dict[int, int] | None = None
) -> bool:
    """Whether the mapped items can each take one slot class without overfilling a slot.

    Items in `fixed` keep their given class (1-based).
    """
    fixed = fixed or {}
    items = sorted(bin_of)
    loads = {b: [0] * (t_lcm // specs[b].period) for b in bin_of.values()}

    def assign(pos: int) -> bool:
        if pos == len(items):
            return True
        j = items[pos]
        b = bin_of[j]
        w = specs[j].on_width
        ratio = specs[j].period // specs[b].period
        slots = loads[b]
        for cls in (fixed[j] - 1,) if j in fixed else range(ratio):
            hit = range(cls, len(slots), ratio)
            if all(slots[k] + w <= specs[b].off_width for k in hit):
                for k in hit:
                    slots[k] += w
                ok = assign(pos + 1)
                for k in hit:
                    slots[k] -= w
                if ok:
                    return True
        return False

    return assign(0)


def oracle_lex_min_bins(
    specs: list[PulseSpec],
) -> tuple[tuple[int, ...], dict[int, int], dict[int, int]]:
    """Smallest optimal bin-flag vector, then item->bin vector, then item->class vector.

    The flags are the minimum over every feasible subset of the minimum
    size; the item->bin vector is the first complete mapping, in input
    order with bins ascending, for which slot classes exist; each item in
    input order then takes the smallest class (1-based) that leaves classes
    for the items after it.
    """
    n = len(specs)
    t_lcm = math.lcm(*(s.period for s in specs))
    for size in range(1, n + 1):
        vectors = [
            tuple(1 if i in bins else 0 for i in range(n))
            for bins in combinations(range(n), size)
            if multifreq_subset_feasible(specs, bins, t_lcm)
        ]
        if vectors:
            break
    flags = min(vectors)
    bins = [i for i in range(n) if flags[i]]
    items = [i for i in range(n) if not flags[i]]
    bin_of: dict[int, int] = {}

    def choose(pos: int) -> bool:
        if pos == len(items):
            return True
        j = items[pos]
        for b in bins:
            if specs[j].period % specs[b].period == 0:
                bin_of[j] = b
                if _classes_fit(specs, bin_of, t_lcm) and choose(pos + 1):
                    return True
                del bin_of[j]
        return False

    assert choose(0)
    class_of: dict[int, int] = {}
    for j in items:
        ratio = specs[j].period // specs[bin_of[j]].period
        class_of[j] = next(
            c for c in range(1, ratio + 1) if _classes_fit(specs, bin_of, t_lcm, {**class_of, j: c})
        )
    return flags, bin_of, class_of


def random_samefreq_fleet(rng, n: int, period: int = 60) -> list[PulseSpec]:
    return [
        PulseSpec(
            id=i + 1,
            amplitude=rng.randrange(1, 12),
            period=period,
            on_width=rng.randrange(1, period + 1),
            phase=rng.randrange(period),
        )
        for i in range(n)
    ]


def random_multifreq_fleet(rng, n: int, base: int = 12) -> list[PulseSpec]:
    specs = []
    for i in range(n):
        period = base * rng.choice((1, 2, 4))
        specs.append(
            PulseSpec(
                id=i + 1,
                amplitude=rng.randrange(1, 12),
                period=period,
                on_width=rng.randrange(1, period + 1),
                phase=rng.randrange(period),
            )
        )
    return specs


def random_mixed_fleet(rng, n: int) -> list[PulseSpec]:
    """Arbitrary small-tick fleet for simulator properties (no groupability bias)."""
    specs = []
    for i in range(n):
        period = rng.choice((4, 6, 8, 10, 12, 20))
        specs.append(
            PulseSpec(
                id=i + 1,
                amplitude=Fraction(rng.randrange(1, 30), rng.choice((1, 2, 4))),
                period=period,
                on_width=rng.randrange(1, period + 1),
                phase=rng.randrange(period),
            )
        )
    return specs
