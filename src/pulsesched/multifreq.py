"""Grouping of pulse trains with nested periods over their hyperperiod.

Each load is either bin-type (keeps its phase; its off-intervals host other
pulses) or item-type (its pulses are shifted into a bin's off-intervals). A
load can host another iff the item's period is an integer multiple of the
bin's and the item's pulse fits the bin's off-interval. Within one
hyperperiod a bin has one off-interval ("slot") per own period, indexed
k = 1..N from its first falling edge; an item with period ratio R occupies
exactly one slot out of every R consecutive ones, cyclically, so its slot
set is the progression c, c+R, ... for one slot class c in [1, R]. Capacity
applies per slot: the widths of items sharing a slot must fit the bin's
off-width. Loads that share one period are the case R = 1: each bin has one
slot, and its off-interval holds a set of items iff their widths fit.

The solver minimizes the number of bin-type loads. It enumerates bin
subsets in ascending size from the admissible lower bound ceil(sum of
duties), in an order that makes the first feasible subset the
lexicographically smallest bin-flag vector; per subset a host check comes
first, first-fit-decreasing is the quick accept and a complete backtracking
search the exact fallback. Among the optima it then picks the smallest bin
per item in input order, then the smallest slot class per item.

Realization gives each item one offset in its bin's off-interval, kept in
every slot it occupies. When a bin mixes ratios, per-slot capacity alone
does not guarantee that its first fit finds such offsets.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate, combinations
from math import gcd

from .errors import EmptyInputError, InvalidAssignmentError, MixedFrequencyError
from .waveform import PulseSpec, hyperperiod, load_sort_key
from .waveform import aggregate_profile  # noqa: F401  bound for perfbench/spans.py's tracer


@dataclass(frozen=True)
class Violation:
    """One failed constraint: its semantic kind plus the load indices involved."""

    kind: str               # "assignment" | "slot-capacity"
    indices: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class AssignmentMultiFreq:
    """Solver output: bin flags plus each item's hosting bin and slot class.

    Positions index the solver's input list. An item with period ratio R to
    its bin occupies the bin's off-intervals c, c+R, ... over the
    hyperperiod, where c = slot_class[item] lies in 1..R.
    """

    bin_flags: tuple[int, ...]
    bin_of_item: dict[int, int]
    slot_class: dict[int, int]

    @property
    def bins_used(self) -> int:
        return sum(self.bin_flags)

    def ratios(self, specs: list[PulseSpec]) -> dict[int, int]:
        """Each item's period over its bin's period."""
        return {j: specs[j].period // specs[b].period for j, b in self.bin_of_item.items()}

    def off_counts(self, specs: list[PulseSpec]) -> tuple[int, ...]:
        """Each load's number of own off-intervals in the hyperperiod."""
        t_lcm = hyperperiod(specs)
        return tuple(t_lcm // s.period for s in specs)

    def slot_map(self, specs: list[PulseSpec]) -> dict[int, tuple[int, ...]]:
        """Each item's occupied off-interval indices of its bin (1-based, increasing)."""
        counts, ratios, items = self.off_counts(specs), self.ratios(specs), self.bin_of_item.items()
        return {j: tuple(range(self.slot_class[j], counts[b] + 1, ratios[j])) for j, b in items}


def check_groupability(bin_spec: PulseSpec, item_spec: PulseSpec) -> bool:
    """True iff the item's period is an integer multiple of the bin's and fits."""
    return item_spec.period % bin_spec.period == 0 and item_spec.on_width <= bin_spec.off_width


class _Packer:
    """Free slot capacities of one group and the exact packing test.

    The slots of all loads share one flat list: load i owns the entries from
    base[i] to base[i + 1]. A load that is not a bin of the current subset
    has zero free capacity, so no item fits it. An option is one host of an
    item: (bin, its first slot, its end, the slots of each class).
    """

    def __init__(self, specs: list[PulseSpec]):
        t_lcm = hyperperiod(specs)
        counts = [t_lcm // s.period for s in specs]
        self.base = base = list(accumulate(counts, initial=0))
        self.full = [s.off_width for s, c in zip(specs, counts) for _ in range(c)]
        # per item: (width, options by bin, options widest off-interval first)
        self.entries = []
        for j, item in enumerate(specs):
            options = [
                (b, base[b], base[b + 1], [range(base[b] + c, base[b + 1], r) for c in range(r)])
                for b, host in enumerate(specs)
                if b != j and check_groupability(host, item)
                for r in (item.period // host.period,)
            ]
            widest = sorted(options, key=lambda o: (-specs[o[0]].off_width, o[0]))
            self.entries.append((item.on_width, options, widest))
        self.host_masks = [sum(1 << o[0] for o in entry[1]) for entry in self.entries]
        self.by_width = sorted(range(len(specs)), key=lambda j: (-specs[j].on_width, j))
        # the bins' free capacity covers the items' work (width times pulse
        # count) iff the total work fits count hyperperiods, and a placement
        # uses exactly its work: from this bound on, no subset or search node
        # needs a total-work check
        work = sum(s.on_width * c for s, c in zip(specs, counts))
        self.lower = max(1, -(-work // t_lcm))

    def free_for(self, items: tuple[int, ...]) -> list[int] | None:
        """Free capacities with `items` as the non-bins; None if one has no host."""
        mask = sum(1 << j for j in items)
        for j in items:
            if not self.host_masks[j] & ~mask:
                return None
        free = self.full[:]
        base = self.base
        for j in items:
            free[base[j] : base[j + 1]] = [0] * (base[j + 1] - base[j])
        return free

    def packs(self, free: list[int], pending: dict[int, tuple], pinned: dict[int, tuple]) -> bool:
        """Whether every pending item can be placed into `free`, which is left as it was.

        `pending` maps each item to its (width, options, first-fit options);
        a pinned item has its bin's option only, and that bin is never
        treated as interchangeable with another.
        """
        todo = [pending[j] for j in self.by_width if j in pending]
        pinned_bins = frozenset(option[0] for option in pinned.values())
        return _first_fit(free[:], todo) or _search(free, todo, 0, pinned_bins)

    def lex_min(self, items: tuple[int, ...], free: list[int]) -> tuple[dict, dict]:
        """Smallest bin per item in input order, then smallest slot class.

        Each choice is kept only if the remaining items still pack. An item
        whose bin leaves it a single slot class has its load committed at
        once; the others stay pinned to their bin until the class pass.
        """
        pending = {j: self.entries[j] for j in items}
        pinned: dict[int, tuple] = {}
        bin_of: dict[int, int] = {}
        slot_class: dict[int, int] = {}
        for j in items:
            w = pending.pop(j)[0]
            for option in self.entries[j][1]:
                b, _, _, classes = option
                if len(classes) == 1:
                    if self._commit(free, classes[0], w, pending, pinned):
                        slot_class[j] = 1
                        break
                else:
                    pending[j] = (w, [option], [option])
                    pinned[j] = option
                    if self.packs(free, pending, pinned):
                        break
                    del pending[j], pinned[j]
            else:
                raise AssertionError("unreachable: subset was verified packable")
            bin_of[j] = b
        for j, (_, _, _, classes) in list(pinned.items()):
            w = pending.pop(j)[0]
            del pinned[j]
            for c, slots in enumerate(classes, 1):
                if self._commit(free, slots, w, pending, pinned):
                    slot_class[j] = c
                    break
            else:
                raise AssertionError("unreachable: placement was verified packable")
        return bin_of, {j: slot_class[j] for j in items}

    def _commit(self, free: list[int], slots: range, w: int, pending: dict, pinned: dict) -> bool:
        """Take w from every slot in `slots` if it fits and the pending items still pack."""
        if any(free[k] < w for k in slots):
            return False
        for k in slots:
            free[k] -= w
        if self.packs(free, pending, pinned):
            return True
        for k in slots:
            free[k] += w
        return False


def _first_fit(free: list[int], todo: list) -> bool:
    """First fit in decreasing width; success proves packability, failure proves nothing."""
    for w, _, options in todo:
        for _, first, stop, classes in options:
            if stop - first == 1:
                if free[first] >= w:
                    free[first] -= w
                    break
                continue
            for slots in classes:
                if all(free[k] >= w for k in slots):
                    for k in slots:
                        free[k] -= w
                    break
            else:
                continue
            break
        else:
            return False
    return True


def _search(free: list[int], todo: list, pos: int, pinned_bins: frozenset) -> bool:
    """Complete backtracking over (bin, slot class) for todo[pos:].

    Bins with equal free-slot vectors (and so equal periods) are
    interchangeable unless an item is pinned to one of them, so only the
    first of them is tried at each node. Single-slot bins host only items
    of ratio 1, which are never pinned.
    """
    if pos == len(todo):
        return True
    w, options, _ = todo[pos]
    tried = set()
    for b, first, stop, classes in options:
        if stop - first == 1:  # a single slot: its free capacity is the key
            cap = free[first]
            if cap < w or cap in tried:
                continue
            tried.add(cap)
            free[first] = cap - w
            done = _search(free, todo, pos + 1, pinned_bins)
            free[first] = cap
            if done:
                return True
            continue
        if b not in pinned_bins:
            key = tuple(free[first:stop])
            if key in tried:
                continue
            tried.add(key)
        for slots in classes:
            if any(free[k] < w for k in slots):
                continue
            for k in slots:
                free[k] -= w
            done = _search(free, todo, pos + 1, pinned_bins)
            for k in slots:
                free[k] += w
            if done:
                return True
    return False


def solve_multifreq(specs: list[PulseSpec]) -> AssignmentMultiFreq:
    """Minimize bin-type loads subject to per-slot capacity over the hyperperiod.

    Deterministic: among optimal solutions, the bin-flag vector is
    lexicographically smallest over the input order, then the item->bin
    vector, then the item->slot-class vector.
    """
    if not specs:
        raise EmptyInputError("nothing to schedule")
    n = len(specs)
    packer = _Packer(specs)
    for count in range(packer.lower, n + 1):
        # item-position combinations in lexicographic order enumerate the
        # bin-flag vectors in lexicographic order for this bin count
        for items in combinations(range(n), n - count):
            free = packer.free_for(items)
            if free is None:
                continue
            if not packer.packs(free, {j: packer.entries[j] for j in items}, {}):
                continue
            bin_of, slot_class = packer.lex_min(items, free)
            flags = tuple(0 if i in bin_of else 1 for i in range(n))
            return AssignmentMultiFreq(bin_flags=flags, bin_of_item=bin_of, slot_class=slot_class)
    raise AssertionError("unreachable: the all-bins assignment is always feasible")


def verify_multifreq(specs: list[PulseSpec], assignment: AssignmentMultiFreq) -> list[Violation]:
    """Empty iff every item sits in one slot class of a hosting bin and no slot overflows."""
    violations: list[Violation] = []
    n = len(specs)
    flags = assignment.bin_flags
    if len(flags) != n or any(f not in (0, 1) for f in flags):
        return [Violation("assignment", (), f"bin flags must be {n} zero/one entries")]

    placement = assignment.bin_of_item
    for j in range(n):
        if flags[j] == 1 and j in placement:
            violations.append(Violation("assignment", (j,), f"bin-type load {j} is also placed as an item"))
        if flags[j] == 0 and j not in placement:
            violations.append(Violation("assignment", (j,), f"item at position {j} has no hosting bin"))

    t_lcm = hyperperiod(specs)
    slot_items: dict[tuple[int, int], list[int]] = {}
    for j, b in sorted(placement.items()):
        if not 0 <= j < n or not isinstance(b, int) or not 0 <= b < n or flags[b] != 1:
            violations.append(Violation("assignment", (j,), f"placement {j}->{b} does not name a bin"))
            continue
        if specs[j].period % specs[b].period != 0:
            violations.append(
                Violation("assignment", (b, j), f"period of item {j} is not a multiple of bin {b}'s")
            )
            continue
        ratio = specs[j].period // specs[b].period
        cls = assignment.slot_class.get(j)
        if not isinstance(cls, int) or not 1 <= cls <= ratio:
            violations.append(
                Violation("assignment", (b, j), f"slot class of item {j} must lie in 1..{ratio}")
            )
            continue
        for k in range(cls, t_lcm // specs[b].period + 1, ratio):
            slot_items.setdefault((b, k), []).append(j)

    for (b, k), js in sorted(slot_items.items()):
        load = sum(specs[j].on_width for j in js)
        if load > specs[b].off_width:
            violations.append(
                Violation(
                    "slot-capacity",
                    (b, k, *sorted(js)),
                    f"slot {k} of bin {b} holds {load} ticks but offers {specs[b].off_width}",
                )
            )
    return violations


def realize_phases_multifreq(
    specs: list[PulseSpec], assignment: AssignmentMultiFreq
) -> list[PulseSpec]:
    """Anchor each item behind its bin's falling edge at one offset for all its slots.

    Bin-type loads keep their input phases. Items with ratios r_i, r_j and
    slot classes c_i, c_j share a slot iff gcd(r_i, r_j) divides c_i - c_j
    (CRT; the bin's slot count is a multiple of lcm(r_i, r_j)). By descending
    on-width, ties by id, each item takes the lowest offset that clears every
    placed item it shares a slot with, so a realized bin never overlaps; one
    that finds none in the off-interval raises InvalidAssignmentError.
    """
    problems = verify_multifreq(specs, assignment)
    if problems:
        raise InvalidAssignmentError("; ".join(v.message for v in problems))

    out = list(specs)
    hosted: dict[int, list[int]] = {}
    for j, b in assignment.bin_of_item.items():
        hosted.setdefault(b, []).append(j)
    for b, js in sorted(hosted.items()):
        js.sort(key=lambda j: (-specs[j].on_width, load_sort_key(specs[j].id)))
        bin_spec = specs[b]
        placed: list[tuple[int, int, int, int]] = []  # (ratio, class, start, end) per placed item
        for j in js:
            ratio = specs[j].period // bin_spec.period
            cls = assignment.slot_class[j]
            width = specs[j].on_width
            offset = 0
            shared = sorted((s, e) for r, c, s, e in placed if (cls - c) % gcd(ratio, r) == 0)
            for start, end in shared:
                if offset + width <= start:
                    break
                offset = max(offset, end)
            if offset + width > bin_spec.off_width:
                raise InvalidAssignmentError(
                    f"item {specs[j].id} finds no free offset in bin {bin_spec.id}'s off-interval"
                )
            phase = bin_spec.phase + bin_spec.on_width + (cls - 1) * bin_spec.period + offset
            out[j] = replace(specs[j], phase=phase % specs[j].period)
            placed.append((ratio, cls, offset, offset + width))
    return out


def _one_period(specs: list[PulseSpec]) -> list[PulseSpec]:
    if len({s.period for s in specs}) > 1:
        raise MixedFrequencyError("loads must share one period")
    return specs


def solve_samefreq(specs: list[PulseSpec]) -> AssignmentMultiFreq:
    """solve_multifreq for loads that share one period."""
    return solve_multifreq(_one_period(specs))


def verify_samefreq(specs: list[PulseSpec], assignment: AssignmentMultiFreq) -> list[Violation]:
    """verify_multifreq for loads that share one period."""
    return verify_multifreq(_one_period(specs), assignment)


def realize_phases_samefreq(
    specs: list[PulseSpec], assignment: AssignmentMultiFreq
) -> list[PulseSpec]:
    """realize_phases_multifreq for loads that share one period."""
    return realize_phases_multifreq(_one_period(specs), assignment)
