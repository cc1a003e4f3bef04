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
descending width, ties by id, each item takes the lowest offset in its
bin's off-interval that clears every item it shares a slot with, in every
slot it occupies; realization is one pass in that order that checks and
places each item. When a bin mixes ratios, per-slot capacity alone does
not guarantee such offsets, so the solver searches with the rule itself,
in its order and with its fit test.

The solver minimizes the number of bin-type loads over the placements
that the rule realizes. It enumerates bin subsets in ascending size, in
lexicographic order of the bin-flag vector, from Martello and Toth's L2
over each load's work in one hyperperiod H (width times pulse count)
with capacity H: a group's pulses are disjoint, so its work fits H. A
load that no other load can host is a bin in every subset. A subset is
refused if an item has no host among its bins, or if the items with one
host each pass that host's off-time over H: exact, as such an item lies
in its host's off-intervals, where a bin's items never overlap. Then one
complete backtracking search places the items in the rule's order, each
at the rule's offset, trying hosts by bin index, then slot classes in
ascending order. Items of one period share one list of hosts, all loads
whose period divides theirs; a host too narrow for the item is skipped
by its room. The search is a loop over one generator per placed item,
not a recursion, so a group of any size fits the interpreter's stack.
The first subset that realizes takes the first placement that the search
finds in the rule's order; the all-bins subset has no items, so some
subset always realizes.
"""
from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate, combinations
from math import gcd
from operator import or_

from .errors import EmptyInputError, InvalidAssignmentError
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
    """The placement search of one group.

    Items are placed in the offset rule's own order: by descending width,
    ties by id. An option is one host of an item, (bin, stacks, ratio,
    classes). Items of one period share one option list: every load whose
    period divides theirs, by bin index, the item itself and hosts too
    narrow for it included, since the search skips a host whose room is
    below the width. A bin whose period is the hyperperiod hosts only
    ratio-1 items, which stack in its one slot, so an integer room is its
    whole state; any other bin keeps the (ratio, class, start, end)
    intervals of the items placed in it. A load that is not a bin of the
    current subset has room 0, so no item fits it.
    """

    def __init__(self, specs: list[PulseSpec]):
        t_lcm = hyperperiod(specs)
        self.off = [s.off_width for s in specs]
        # per load in one hyperperiod: its work (width times pulse count) and its off-time
        self.work = [s.on_width * (t_lcm // s.period) for s in specs]
        self.off_work = [s.off_width * (t_lcm // s.period) for s in specs]
        tables = {}  # per distinct period: its _host_table
        self.entries = []  # per item: (width, options)
        self.host_masks = []  # per item: the loads that can host it, by one bisection
        for j, item in enumerate(specs):
            if item.period not in tables:
                tables[item.period] = _host_table(specs, item.period, t_lcm)
            options, widths, masks = tables[item.period]
            self.entries.append((item.on_width, options))
            self.host_masks.append(masks[bisect_left(widths, item.on_width)] & ~(1 << j))
        self.order = _rule_order(specs, range(len(specs)))
        self.placed: list[list[tuple[int, int, int, int]]] = [[] for _ in specs]
        # a group that realizes has disjoint pulses, so its work fits one
        # hyperperiod: bin packing's bounds apply
        self.lower = _l2_bound(self.work, t_lcm)

    def room_for(self, items: tuple[int, ...]) -> list[int] | None:
        """Each load's room with `items` as the non-bins; None if the subset cannot pack.

        It cannot if an item has no host among the bins, or if the items
        with one host each pass its off-time in one hyperperiod.
        """
        mask = sum(1 << j for j in items)
        forced = {}  # per host: the work of the items that have no other
        for j in items:
            hosts = self.host_masks[j] & ~mask
            if not hosts:
                return None
            if not hosts & (hosts - 1):
                b = hosts.bit_length() - 1
                forced[b] = work = forced.get(b, 0) + self.work[j]
                if work > self.off_work[b]:
                    return None
        room = self.off[:]
        for j in items:
            room[j] = 0
        return room

    def place(self, items: tuple[int, ...]) -> dict[int, tuple[int, int]] | None:
        """Each item's (bin, slot class) in the search's first solution; None if there is none."""
        room = self.room_for(items)
        if room is None:
            return None
        members = set(items)
        order = [j for j in self.order if j in members]
        chosen = [None] * len(order)
        if not _search(room, self.placed, [self.entries[j] for j in order], chosen):
            return None
        return dict(zip(order, chosen))


def _host_table(specs: list[PulseSpec], period: int, t_lcm: int) -> tuple[list, list[int], list[int]]:
    """For the loads whose period divides `period`: their options by bin index,
    their off-widths ascending, and per rank the mask of those ranked there or above."""
    hosts = [b for b, host in enumerate(specs) if period % host.period == 0]
    ratios = [period // specs[b].period for b in hosts]
    options = [(b, specs[b].period == t_lcm, r, range(1, r + 1)) for b, r in zip(hosts, ratios)]
    hosts.sort(key=lambda b: specs[b].off_width, reverse=True)
    masks = list(accumulate((1 << b for b in hosts), or_, initial=0))[::-1]
    return options, [specs[b].off_width for b in reversed(hosts)], masks


def _l2_bound(sizes: list[int], cap: int) -> int:
    """Martello and Toth's L2 (1990): a lower bound on the bins of capacity `cap` for `sizes`."""
    big = [w for w in sizes if 2 * w > cap]  # one bin each
    small = [w for w in sizes if 2 * w <= cap]
    best = 1
    for alpha in {0, *small}:  # sizes in [alpha, cap/2] fit only beside big ones <= cap - alpha
        rest = sum(w for w in small if w >= alpha) - sum(cap - w for w in big if w <= cap - alpha)
        best = max(best, len(big) + -(-max(0, rest) // cap))
    return best


def _search(room: list[int], placed: list[list], todo: list, chosen: list) -> bool:
    """Complete backtracking over (bin, slot class) for `todo`, in option order.

    A loop over one `_moves` generator per placed item, so the depth is no
    recursion depth. On success chosen holds the first solution, and the
    generators are closed last first, which takes every item out of `room`
    and `placed` again; on failure each generator has undone its last option.
    """
    levels = []
    while len(levels) < len(todo):
        levels.append(_moves(room, placed, todo[len(levels)], chosen, len(levels)))
        while not next(levels[-1], False):  # exhausted: back up to the previous item
            levels.pop()
            if not levels:
                return False
    for level in reversed(levels):
        level.close()
    return True


def _moves(room: list[int], placed: list[list], entry: tuple, chosen: list, pos: int):
    """One search node: apply each option of item `entry` in turn, yield, and undo it.

    Each item takes the lowest offset of the chosen class; an option whose
    offset leaves the off-interval is skipped. Bins with equal keys host
    every later item alike, as none is wider, so only the first of them is
    tried at each node: a stacking bin's key is its room, another bin's is
    its ratio, off-width and intervals.
    """
    w, options = entry
    tried = set()
    for b, stacks, ratio, classes in options:
        cap = room[b]
        if cap < w:
            continue
        others = placed[b]
        key = cap if stacks else (ratio, cap, tuple(others))
        if key in tried:
            continue
        tried.add(key)
        if stacks:
            room[b] = cap - w
            chosen[pos] = (b, 1)
            try:
                yield True
            finally:
                room[b] = cap
            continue
        for c in classes:
            offset = _lowest(others, ratio, c, w, cap)
            if offset is None:
                continue
            others.append((ratio, c, offset, offset + w))
            chosen[pos] = (b, c)
            try:
                yield True
            finally:
                others.pop()


def _rule_order(specs: list[PulseSpec], loads: Iterable[int]) -> list[int]:
    """`loads` in the offset rule's order: by descending width, ties by id."""
    return sorted(loads, key=lambda j: (-specs[j].on_width, load_sort_key(specs[j].id)))


def _lowest(
    others: list[tuple[int, int, int, int]], ratio: int, cls: int, width: int, off: int
) -> int | None:
    """The lowest offset of a pulse that clears every interval in `others` it shares a slot with.

    Items with ratios r_i, r_j and classes c_i, c_j share a slot iff
    gcd(r_i, r_j) divides c_i - c_j (CRT). None when that offset would
    leave the pulse past the off-width `off`.
    """
    offset = 0
    for start, end in sorted((s, e) for r, c, s, e in others if (cls - c) % gcd(ratio, r) == 0):
        if offset + width <= start:
            break
        offset = max(offset, end)
    return offset if offset + width <= off else None


def solve_multifreq(specs: list[PulseSpec]) -> AssignmentMultiFreq:
    """Minimize bin-type loads over the placements that realize.

    Deterministic: among the placements that the offset rule realizes it
    takes the fewest bins, then the lexicographically smallest bin-flag
    vector over the input order, then the first placement that the search
    finds in the rule's order: the lexicographically smallest (bin, slot
    class) sequence over the items by descending width, ties by id.
    """
    if not specs:
        raise EmptyInputError("nothing to schedule")
    n = len(specs)
    packer = _Packer(specs)
    # a load that no other load can host is a bin in every subset
    movable = [j for j in range(n) if packer.host_masks[j]]
    for count in range(packer.lower, n + 1):
        # item-position combinations in lexicographic order enumerate the
        # bin-flag vectors in lexicographic order for this bin count
        for items in combinations(movable, n - count):
            found = packer.place(items)
            if found is not None:
                return AssignmentMultiFreq(placement=tuple(found.get(i) for i in range(n)))
    raise AssertionError("unreachable: the all-bins subset has no items")


def realize_phases_multifreq(
    specs: list[PulseSpec], assignment: AssignmentMultiFreq
) -> list[PulseSpec]:
    """Anchor each item behind its bin's falling edge at one offset for all its slots.

    Bin-type loads keep their input phases. One pass takes the items in
    the offset rule's order and, for each, checks its host and slot class,
    then gives it the rule's offset. A placement without one entry per
    load, an entry that is neither None nor a (bin, class) pair, a host
    that is not a bin, periods that do not nest, a slot class outside
    1..R or an item that finds no free offset raise InvalidAssignmentError;
    when a placement has several faults, the first item in the rule's
    order with a fault is the one reported. The solver's placements
    always realize.
    """
    n = len(specs)
    placement = assignment.placement
    if len(placement) != n:
        raise InvalidAssignmentError(f"placement has {len(placement)} entries for {n} loads")
    out = list(specs)
    placed: dict[int, list[tuple[int, int, int, int]]] = {}  # per bin: (ratio, class, start, end)
    for j in _rule_order(specs, (j for j, place in enumerate(placement) if place is not None)):
        if not (isinstance(placement[j], tuple) and len(placement[j]) == 2):
            raise InvalidAssignmentError(f"item {specs[j].id!r}: placement is no (bin, class) pair")
        b, cls = placement[j]
        if b not in range(n) or placement[b] is not None:
            raise InvalidAssignmentError(f"item {specs[j].id!r} is hosted by position {b}, not a bin")
        bin_spec, width = specs[b], specs[j].on_width
        ratio, rest = divmod(specs[j].period, bin_spec.period)
        if rest:
            raise InvalidAssignmentError(f"item {specs[j].id!r}: period is no multiple of its host's")
        if cls not in range(1, ratio + 1):
            raise InvalidAssignmentError(f"slot class of item {specs[j].id!r} must lie in 1..{ratio}")
        others = placed.setdefault(b, [])
        offset = _lowest(others, ratio, cls, width, bin_spec.off_width)
        if offset is None:
            raise InvalidAssignmentError(
                f"item {specs[j].id!r} finds no free offset in bin {bin_spec.id!r}'s off-interval"
            )
        others.append((ratio, cls, offset, offset + width))
        phase = bin_spec.phase + bin_spec.on_width + (cls - 1) * bin_spec.period + offset
        s = specs[j]  # a valid spec, and the phase is reduced: no check runs again
        out[j] = PulseSpec._checked(
            s.id, s.amplitude, s.period, s.on_width, phase % s.period, s.voltage, s.soc
        )
    return out

