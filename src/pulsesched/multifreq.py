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

An assignment stores one placement per load: None for a bin, else the
item's host bin and slot class. One offset rule realizes a placement: by
descending width, each item takes the lowest offset in its bin's
off-interval that clears every item it shares a slot with, in every slot it
occupies. When a bin mixes ratios, per-slot capacity alone does not
guarantee such offsets.

The solver minimizes the number of bin-type loads. It enumerates bin
subsets in ascending size from the admissible lower bound ceil(sum of
duties), in lexicographic order of the bin-flag vector. Per subset a host
check comes first, then one complete backtracking search whose first
descent is first fit: items bound to one bin first, then by descending
width, each trying its hosts by bin index. For a subset that packs it picks
the smallest bin per item in input order, then the smallest slot class,
and returns that placement if the offset rule realizes it, else moves on;
the all-bins subset has no items, so its answer always realizes.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate, combinations
from math import gcd

from .errors import EmptyInputError, InvalidAssignmentError, MixedFrequencyError
from .waveform import PulseSpec, hyperperiod, load_sort_key
from .waveform import aggregate_profile  # noqa: F401  bound for perfbench/spans.py's tracer


@dataclass(frozen=True)
class AssignmentMultiFreq:
    """Solver output: one placement per load, indexed like the solver's input.

    placement[i] is None when load i is a bin, else (b, c): load i is an
    item hosted by bin b in slot class c. An item with period ratio R to
    its bin occupies the bin's off-intervals c, c+R, ... over the
    hyperperiod, where c lies in 1..R.
    """

    placement: tuple[tuple[int, int] | None, ...]

    @property
    def bin_flags(self) -> tuple[int, ...]:
        return tuple(int(p is None) for p in self.placement)

    @property
    def bins_used(self) -> int:
        return self.placement.count(None)


def check_groupability(bin_spec: PulseSpec, item_spec: PulseSpec) -> bool:
    """True iff the item's period is an integer multiple of the bin's and fits."""
    return item_spec.period % bin_spec.period == 0 and item_spec.on_width <= bin_spec.off_width


class _Packer:
    """Free slot capacities of one group and the exact packing test.

    The slots of all loads share one flat list: load i owns the entries from
    base[i] to base[i + 1]. A load that is not a bin of the current subset
    has zero free capacity, so no item fits it. An option is one host of an
    item: (bin, its first slot, its end, the slots of each class); each
    item's options are listed by bin index.
    """

    def __init__(self, specs: list[PulseSpec]):
        t_lcm = hyperperiod(specs)
        counts = [t_lcm // s.period for s in specs]
        self.base = base = list(accumulate(counts, initial=0))
        self.full = [s.off_width for s, c in zip(specs, counts) for _ in range(c)]
        self.entries = []  # per item: (width, options)
        for j, item in enumerate(specs):
            options = [
                (b, base[b], base[b + 1], [range(base[b] + c, base[b + 1], r) for c in range(r)])
                for b, host in enumerate(specs)
                if b != j and check_groupability(host, item)
                for r in (item.period // host.period,)
            ]
            self.entries.append((item.on_width, options))
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

    def packs(self, free: list[int], pending: dict[int, tuple]) -> bool:
        """Whether every pending item can be placed into `free`, which is left as it was.

        `pending` maps each item to its (width, options); an item pinned to
        one bin has that bin's option only. Items with one option are
        searched first, the others by descending width, so no item with a
        restricted choice follows the node where `_search` merges equal bins.
        """
        todo = [pending[j] for j in self.by_width if j in pending]
        todo.sort(key=lambda entry: len(entry[1]) > 1)
        return _search(free, todo, 0)

    def lex_min(self, items: tuple[int, ...], free: list[int]) -> dict[int, tuple[int, int]]:
        """Each item's (bin, slot class): smallest bin in input order, then smallest class.

        Pass 1 pins each item to its smallest bin that still lets every item
        pack; pass 2 commits each item's smallest slot class that does.
        """
        pending = {j: self.entries[j] for j in items}
        for j in items:
            w, options = pending[j]
            for option in options:
                pending[j] = (w, [option])
                if self.packs(free, pending):
                    break
            else:
                raise AssertionError("unreachable: subset was verified packable")
        placed: dict[int, tuple[int, int]] = {}
        for j in items:
            w, [(b, _, _, classes)] = pending.pop(j)
            for c, slots in enumerate(classes, 1):
                if self._commit(free, slots, w, pending):
                    placed[j] = (b, c)
                    break
            else:
                raise AssertionError("unreachable: placement was verified packable")
        return placed

    def _commit(self, free: list[int], slots: range, w: int, pending: dict) -> bool:
        """Take w from every slot in `slots` if it fits and the pending items still pack."""
        if any(free[k] < w for k in slots):
            return False
        for k in slots:
            free[k] -= w
        if self.packs(free, pending):
            return True
        for k in slots:
            free[k] += w
        return False


def _search(free: list[int], todo: list, pos: int) -> bool:
    """Complete backtracking over (bin, slot class) for todo[pos:], in option order.

    Its first descent is first fit in the order of `todo`. Bins with equal
    free-slot vectors have equal periods and host every later item that
    still fits either of them, so only the first of them is tried at each
    node: `packs` puts every item bound to one bin before any item that
    could choose.
    """
    if pos == len(todo):
        return True
    w, options = todo[pos]
    tried = set()
    for _, first, stop, classes in options:
        if stop - first == 1:  # a single slot: its free capacity is the key
            cap = free[first]
            if cap < w or cap in tried:
                continue
            tried.add(cap)
            free[first] = cap - w
            done = _search(free, todo, pos + 1)
            free[first] = cap
            if done:
                return True
            continue
        key = tuple(free[first:stop])
        if key in tried:
            continue
        tried.add(key)
        for slots in classes:
            if any(free[k] < w for k in slots):
                continue
            for k in slots:
                free[k] -= w
            done = _search(free, todo, pos + 1)
            for k in slots:
                free[k] += w
            if done:
                return True
    return False


def solve_multifreq(specs: list[PulseSpec]) -> AssignmentMultiFreq:
    """Minimize bin-type loads over the placements that realize.

    Deterministic: the bin-flag vector is the smallest bin count, then the
    lexicographically smallest over the input order, whose packable subset
    gives a placement that realizes; that placement is the lexicographically
    smallest item->bin vector, then item->slot-class vector, of the subset.
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
            if not packer.packs(free, {j: packer.entries[j] for j in items}):
                continue
            placed = packer.lex_min(items, free)
            placement = tuple(placed.get(i) for i in range(n))
            try:
                _offsets(specs, placement)
            except InvalidAssignmentError:
                continue
            return AssignmentMultiFreq(placement=placement)
    raise AssertionError("unreachable: the all-bins assignment always realizes")


def _offsets(specs: list[PulseSpec], placement: tuple) -> dict[int, int]:
    """Each item's offset behind its bin's falling edge, for a structurally valid placement.

    Items with ratios r_i, r_j and classes c_i, c_j share a slot iff
    gcd(r_i, r_j) divides c_i - c_j (CRT). Bin by bin, by descending width
    with ties by id, each item takes the lowest offset that clears every
    placed item it shares a slot with; one that finds none in the
    off-interval raises InvalidAssignmentError naming the item and its bin.
    """
    items = [j for j, place in enumerate(placement) if place is not None]
    items.sort(key=lambda j: (placement[j][0], -specs[j].on_width, load_sort_key(specs[j].id)))
    placed: dict[int, list[tuple[int, int, int, int]]] = {}  # per bin: (ratio, class, start, end)
    offsets: dict[int, int] = {}
    for j in items:
        b, cls = placement[j]
        ratio, width = specs[j].period // specs[b].period, specs[j].on_width
        others = placed.setdefault(b, [])
        offset = 0
        for start, end in sorted((s, e) for r, c, s, e in others if (cls - c) % gcd(ratio, r) == 0):
            if offset + width <= start:
                break
            offset = max(offset, end)
        if offset + width > specs[b].off_width:
            raise InvalidAssignmentError(
                f"item {specs[j].id!r} finds no free offset in bin {specs[b].id!r}'s off-interval"
            )
        offsets[j] = offset
        others.append((ratio, cls, offset, offset + width))
    return offsets


def realize_phases_multifreq(
    specs: list[PulseSpec], assignment: AssignmentMultiFreq
) -> list[PulseSpec]:
    """Anchor each item behind its bin's falling edge at one offset for all its slots.

    Bin-type loads keep their input phases. A placement without one entry
    per load, a host that is not a bin, periods that do not nest or a slot
    class outside 1..R raise InvalidAssignmentError, as does an item that
    the lowest-offset rule leaves without an offset. The solver's
    placements always realize.
    """
    n = len(specs)
    placement = assignment.placement
    if len(placement) != n:
        raise InvalidAssignmentError(f"placement has {len(placement)} entries for {n} loads")
    for j, place in enumerate(placement):
        if place is None:
            continue
        b, cls = place
        if b not in range(n) or placement[b] is not None:
            raise InvalidAssignmentError(f"item {specs[j].id!r} is hosted by position {b}, not a bin")
        ratio, rest = divmod(specs[j].period, specs[b].period)
        if rest:
            raise InvalidAssignmentError(f"item {specs[j].id!r}: period is no multiple of its host's")
        if cls not in range(1, ratio + 1):
            raise InvalidAssignmentError(f"slot class of item {specs[j].id!r} must lie in 1..{ratio}")

    out = list(specs)
    for j, offset in _offsets(specs, placement).items():
        b, cls = placement[j]
        bin_spec = specs[b]
        phase = bin_spec.phase + bin_spec.on_width + (cls - 1) * bin_spec.period + offset
        out[j] = replace(specs[j], phase=phase % specs[j].period)
    return out


def _one_period(specs: list[PulseSpec]) -> list[PulseSpec]:
    if len({s.period for s in specs}) > 1:
        raise MixedFrequencyError("loads must share one period")
    return specs


def solve_samefreq(specs: list[PulseSpec]) -> AssignmentMultiFreq:
    """solve_multifreq for loads that share one period."""
    return solve_multifreq(_one_period(specs))


def realize_phases_samefreq(
    specs: list[PulseSpec], assignment: AssignmentMultiFreq
) -> list[PulseSpec]:
    """realize_phases_multifreq for loads that share one period."""
    return realize_phases_multifreq(_one_period(specs), assignment)
