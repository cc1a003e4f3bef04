"""Grouping of equal-period pulse trains by exact bin packing.

Each load is either bin-type (keeps its phase, its off-interval hosts other
pulses) or item-type (its single pulse per period is shifted into exactly one
bin's off-interval). The objective is the minimum number of bin-type loads; a
load's off-interval can host a set of items iff their on-widths sum to at
most its off-width.

The solver enumerates bin subsets in ascending size starting from the
admissible lower bound ceil(sum of duties), in an order that makes the first
feasible subset the lexicographically smallest bin-flag vector; packing
feasibility per subset is decided by first-fit-decreasing as a quick accept
with a full backtracking search as the exact fallback.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

from .errors import EmptyInputError, InvalidAssignmentError, MixedFrequencyError
from .waveform import PulseSpec, load_sort_key


@dataclass(frozen=True)
class Violation:
    """One failed constraint: its semantic kind plus the load indices involved."""

    kind: str               # "capacity" | "assignment" | "slot-capacity" | "slot-window"
    indices: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class AssignmentSameFreq:
    """Solver output: per-load bin flags and each item's hosting bin.

    `placement` maps item position -> bin position (positions index the
    solver's input list). bins_used equals the number of set bin flags.
    """

    bin_flags: tuple[int, ...]
    placement: dict[int, int]
    bins_used: int


def _ffd_packs(widths: list[int], caps: list[int]) -> bool:
    """First-fit decreasing; success proves packability, failure proves nothing."""
    remaining = sorted(caps, reverse=True)
    for w in widths:
        for b, cap in enumerate(remaining):
            if cap >= w:
                remaining[b] = cap - w
                break
        else:
            return False
    return True


def _exact_packs(widths: list[int], caps: list[int]) -> bool:
    """Complete backtracking search; widths must be sorted descending."""
    suffix = [0] * (len(widths) + 1)
    for i in range(len(widths) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + widths[i]
    remaining = list(caps)

    def place(i: int) -> bool:
        if i == len(widths):
            return True
        if sum(remaining) < suffix[i]:
            return False
        w = widths[i]
        tried = set()  # bins with equal remaining capacity are interchangeable
        for b, cap in enumerate(remaining):
            if cap >= w and cap not in tried:
                tried.add(cap)
                remaining[b] = cap - w
                if place(i + 1):
                    remaining[b] = cap
                    return True
                remaining[b] = cap
        return False

    return place(0)


def _packable(widths: list[int], caps: list[int]) -> bool:
    desc = sorted(widths, reverse=True)
    if sum(desc) > sum(caps):
        return False
    if desc and (not caps or desc[0] > max(caps)):
        return False
    return _ffd_packs(desc, caps) or _exact_packs(desc, caps)


def solve_samefreq(specs: list[PulseSpec]) -> AssignmentSameFreq:
    """Minimize the number of bin-type loads over equal-period pulse trains.

    Deterministic: among optimal solutions, the bin-flag vector is
    lexicographically smallest over the input order, then the item->bin
    placement vector is lexicographically smallest.
    """
    if not specs:
        raise EmptyInputError("nothing to schedule")
    if len({s.period for s in specs}) > 1:
        raise MixedFrequencyError("loads must share one period")
    n = len(specs)
    period = specs[0].period
    widths = [s.on_width for s in specs]
    caps = [s.off_width for s in specs]

    lower = -(-sum(widths) // period)  # ceil of total duty
    for count in range(max(1, lower), n + 1):
        # item-position combinations in lexicographic order enumerate the
        # bin-flag vectors in lexicographic order for this bin count
        for items in combinations(range(n), n - count):
            bins = sorted(set(range(n)) - set(items))
            if items and max(widths[j] for j in items) > max(caps[b] for b in bins):
                continue
            if not _packable([widths[j] for j in items], [caps[b] for b in bins]):
                continue
            placement = _lex_min_placement(list(items), bins, widths, caps)
            flags = tuple(0 if i in set(items) else 1 for i in range(n))
            return AssignmentSameFreq(bin_flags=flags, placement=placement, bins_used=count)
    raise AssertionError("unreachable: the all-bins assignment is always feasible")


def _lex_min_placement(
    items: list[int], bins: list[int], widths: list[int], caps: list[int]
) -> dict[int, int]:
    """Greedy item-by-item placement, committing only when the rest still packs."""
    remaining = {b: caps[b] for b in bins}
    placement: dict[int, int] = {}
    for pos, j in enumerate(items):
        rest = [widths[k] for k in items[pos + 1 :]]
        for b in bins:
            if remaining[b] < widths[j]:
                continue
            remaining[b] -= widths[j]
            if _packable(rest, list(remaining.values())):
                placement[j] = b
                break
            remaining[b] += widths[j]
        else:
            raise AssertionError("unreachable: subset was verified packable")
    return placement


def verify_samefreq(specs: list[PulseSpec], assignment: AssignmentSameFreq) -> list[Violation]:
    """Empty iff the assignment satisfies the capacity and single-assignment rules."""
    violations: list[Violation] = []
    n = len(specs)
    flags = assignment.bin_flags
    placement = assignment.placement

    if len(flags) != n or any(f not in (0, 1) for f in flags):
        return [Violation("assignment", (), f"bin flags must be {n} zero/one entries")]
    if assignment.bins_used != sum(flags):
        violations.append(
            Violation("assignment", (), "bins_used does not equal the number of set flags")
        )
    for j in range(n):
        if flags[j] == 1 and j in placement:
            violations.append(
                Violation("assignment", (j,), f"bin-type load at position {j} is also placed as an item")
            )
        if flags[j] == 0 and j not in placement:
            violations.append(
                Violation("assignment", (j,), f"item at position {j} has no hosting bin")
            )

    per_bin: dict[int, list[int]] = {}
    for j, b in sorted(placement.items()):
        if not 0 <= j < n or not isinstance(b, int) or not 0 <= b < n:
            violations.append(Violation("assignment", (j,), f"placement {j}->{b} is out of range"))
            continue
        if flags[b] != 1:
            violations.append(
                Violation("capacity", (b, j), f"item {j} placed into non-bin position {b} (zero capacity)")
            )
            continue
        per_bin.setdefault(b, []).append(j)
    for b, js in sorted(per_bin.items()):
        load = sum(specs[j].on_width for j in js)
        if load > specs[b].off_width:
            violations.append(
                Violation(
                    "capacity",
                    (b, *sorted(js)),
                    f"items {sorted(js)} need {load} ticks but bin {b} offers {specs[b].off_width}",
                )
            )
    return violations


def realize_phases_samefreq(
    specs: list[PulseSpec], assignment: AssignmentSameFreq
) -> list[PulseSpec]:
    """Shift each item behind its bin's falling edge, back to back.

    Bin-type loads keep their input phases. Within one bin, items are placed
    in order of descending on-width (ties by ascending id) starting at the
    bin's falling edge, so the result is overlap-free by construction.
    """
    if len({s.period for s in specs}) > 1:
        raise InvalidAssignmentError("loads must share one period")
    problems = verify_samefreq(specs, assignment)
    if problems:
        raise InvalidAssignmentError("; ".join(v.message for v in problems))

    out = list(specs)
    hosted: dict[int, list[int]] = {}
    for j, b in assignment.placement.items():
        hosted.setdefault(b, []).append(j)
    for b, js in hosted.items():
        js.sort(key=lambda j: (-specs[j].on_width, load_sort_key(specs[j].id)))
        cursor = specs[b].phase + specs[b].on_width
        for j in js:
            out[j] = replace(specs[j], phase=cursor % specs[j].period)
            cursor += specs[j].on_width
    return out
