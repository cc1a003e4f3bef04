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

from pulsesched import PulseSpec, StepProfile, load_sort_key
from pulsesched.files import exact_str
from pulsesched.ticks import seconds_str

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


def lowest_offsets_realize(
    specs: list[PulseSpec], bin_of: dict[int, int], class_of: dict[int, int], t_lcm: int
) -> bool:
    """Whether every item finds an offset by the lowest-offset rule, on a tick grid.

    Bin by bin, items by descending width with ties by id each take the
    lowest offset whose ticks are free in every slot of their class; the
    occupied ticks of each slot are kept as a set, with no slot-sharing
    arithmetic.
    """
    for b in sorted(set(bin_of.values())):
        busy = [set() for _ in range(t_lcm // specs[b].period)]
        js = [j for j in bin_of if bin_of[j] == b]
        js.sort(key=lambda j: (-specs[j].on_width, load_sort_key(specs[j].id)))
        for j in js:
            w = specs[j].on_width
            ratio = specs[j].period // specs[b].period
            hit = [busy[k] for k in range(class_of[j] - 1, len(busy), ratio)]
            free = (
                o
                for o in range(specs[b].off_width - w + 1)
                if not any(t in slot for slot in hit for t in range(o, o + w))
            )
            offset = next(free, None)
            if offset is None:
                return False
            for slot in hit:
                slot.update(range(offset, offset + w))
    return True


def oracle_first_placement(
    specs: list[PulseSpec],
) -> tuple[tuple[int, ...], dict[int, int], dict[int, int]]:
    """The first placement that the lowest-offset rule realizes, by brute force.

    Bin-flag vectors are tried by size, then in lex order. Within one
    vector, the items' (bin, class) pairs (class 1-based) are tried in lex
    order over the items in the rule's order: by descending width, ties by
    id. The first placement that passes `lowest_offsets_realize` wins.
    Per-slot capacity, which every placement that realizes keeps, prunes
    the enumeration; the all-bins vector has no items and always realizes.
    """
    n = len(specs)
    t_lcm = math.lcm(*(s.period for s in specs))
    for size in range(1, n + 1):
        vectors = sorted(
            tuple(1 if i in bins else 0 for i in range(n))
            for bins in combinations(range(n), size)
            if multifreq_subset_feasible(specs, bins, t_lcm)
        )
        for flags in vectors:
            for bin_of, class_of in rule_order_placements(specs, flags, t_lcm):
                if lowest_offsets_realize(specs, bin_of, class_of, t_lcm):
                    return flags, bin_of, class_of
    raise AssertionError("the all-bins vector always realizes")


def rule_order_placements(specs: list[PulseSpec], flags: tuple[int, ...], t_lcm: int):
    """(item->bin, item->class) maps of a flag vector within every slot's capacity.

    They come in lex order of the (bin, class) sequence over the items by
    descending width, ties by id.
    """
    bins = [i for i, f in enumerate(flags) if f]
    items = sorted(
        (i for i, f in enumerate(flags) if not f),
        key=lambda j: (-specs[j].on_width, load_sort_key(specs[j].id)),
    )
    loads = {b: [0] * (t_lcm // specs[b].period) for b in bins}
    bin_of: dict[int, int] = {}
    class_of: dict[int, int] = {}

    def choose(pos: int):
        if pos == len(items):
            yield dict(bin_of), dict(class_of)
            return
        j = items[pos]
        w = specs[j].on_width
        for b in bins:
            if specs[j].period % specs[b].period:
                continue
            ratio = specs[j].period // specs[b].period
            slots = loads[b]
            for cls in range(1, ratio + 1):
                hit = range(cls - 1, len(slots), ratio)
                if all(slots[k] + w <= specs[b].off_width for k in hit):
                    for k in hit:
                        slots[k] += w
                    bin_of[j], class_of[j] = b, cls
                    yield from choose(pos + 1)
                    for k in hit:
                        slots[k] -= w

    yield from choose(0)


def oracle_waveform_csv(profile: StepProfile) -> str:
    """The waveform CSV row by row, from the scalar formatters alone."""
    rows = (
        f"{seconds_str(t)},{exact_str(Fraction(v, profile.denominator))}\n"
        for t, v in zip(profile.breakpoints, profile.scaled)
    )
    return "t_s,i_total_a\n" + "".join(rows)


def oracle_svg_points(profile: StepProfile) -> str:
    """The SVG polyline's points corner by corner, each coordinate by "%.2f".

    The chart spans x 60-820 and y 330-40 (bottom to top) over one hyperperiod
    and 1.1 times the top level, at least 1 A; a level past 2**1000 is drawn
    over a power of two, which changes no rounding, so float() cannot
    overflow. The stretch before the first breakpoint belongs to the last
    segment.
    """
    levels = [Fraction(v, profile.denominator) for v in profile.scaled]
    top = max(max(levels), Fraction(1))
    shift = max(0, top.numerator.bit_length() - top.denominator.bit_length() - 1000)
    scale_x = 760.0 / profile.hyperperiod
    scale_y = 290.0 / float(top * Fraction(11, 10) / 2**shift)
    corners = []
    ticks = [*profile.breakpoints, profile.hyperperiod]
    if ticks[0] > 0:
        ticks, levels = [0, *ticks], [levels[-1], *levels]
    for k, level in enumerate(levels):
        y = 320.0 - float(level / 2**shift) * scale_y
        for t in ticks[k : k + 2]:
            corners.append("%.2f,%.2f" % (60.0 + t * scale_x, y))
    return " ".join(corners)


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
