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
with capacity H: a group's pulses are disjoint, so its work fits H. Per
subset a host check comes first, then one complete backtracking search
that places the items in the rule's order, each at the rule's offset,
trying hosts by bin index. For the first subset that realizes it pins
each item in input order to its smallest bin, then to its smallest slot
class, that still lets every item take an offset; the all-bins subset
has no items, so some subset always realizes.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace
from itertools import combinations
from math import gcd

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
    classes), and each item's options are listed by bin index. A bin whose
    period is the hyperperiod hosts only ratio-1 items, which stack in its
    one slot, so an integer room is its whole state; any other bin keeps
    the (ratio, class, start, end) intervals of the items placed in it. A
    load that is not a bin of the current subset has room 0, so no item
    fits it.
    """

    def __init__(self, specs: list[PulseSpec]):
        t_lcm = hyperperiod(specs)
        self.off = [s.off_width for s in specs]
        self.entries = []  # per item: (width, options)
        for j, item in enumerate(specs):
            options = [
                (b, host.period == t_lcm, r, range(1, r + 1))
                for b, host in enumerate(specs)
                if b != j and check_groupability(host, item)
                for r in (item.period // host.period,)
            ]
            self.entries.append((item.on_width, options))
        self.host_masks = [sum(1 << o[0] for o in entry[1]) for entry in self.entries]
        self.order = _rule_order(specs, range(len(specs)))
        self.placed: list[list[tuple[int, int, int, int]]] = [[] for _ in specs]
        # a group that realizes has disjoint pulses, so its work (width times
        # pulse count) fits one hyperperiod: bin packing's bounds apply
        self.lower = _l2_bound([s.on_width * (t_lcm // s.period) for s in specs], t_lcm)

    def room_for(self, items: tuple[int, ...]) -> list[int] | None:
        """Each load's room with `items` as the non-bins; None if one has no host."""
        mask = sum(1 << j for j in items)
        for j in items:
            if not self.host_masks[j] & ~mask:
                return None
        room = self.off[:]
        for j in items:
            room[j] = 0
        return room

    def packs(self, room: list[int], pending: dict[int, tuple]) -> bool:
        """Whether the rule gives every pending item an offset; `room` is left as it was.

        `pending` maps each item to its (width, options); an item pinned to
        one bin, or to one class of it, has that option only.
        """
        todo = [pending[j] for j in self.order if j in pending]
        pinned = {options[0][0] for _, options in todo if len(options) == 1}
        return _search(room, self.placed, pinned, todo, 0)

    def lex_min(self, items: tuple[int, ...], room: list[int]) -> dict[int, tuple[int, int]]:
        """Each item's (bin, slot class): smallest bin in input order, then smallest class.

        Pass 1 pins each item to its smallest bin that still lets every item
        take an offset, pass 2 to its smallest class that does.
        """
        pending = {j: self.entries[j] for j in items}
        for by_class in (False, True):
            for j in items:
                w, options = pending[j]
                if by_class:
                    [(b, stacks, r, classes)] = options
                    if len(classes) == 1:  # pass 1 placed it in its only class
                        continue
                    options = ((b, stacks, r, range(c, c + 1)) for c in classes)
                for option in options:
                    if room[option[0]] < w:
                        continue
                    pending[j] = (w, [option])
                    if self.packs(room, pending):
                        break
                else:
                    raise AssertionError("unreachable: subset was verified packable")
        return {j: (b, classes[0]) for j, (_, [(b, _, _, classes)]) in pending.items()}


def _l2_bound(sizes: list[int], cap: int) -> int:
    """Martello and Toth's L2 (1990): a lower bound on the bins of capacity `cap` for `sizes`."""
    big = [w for w in sizes if 2 * w > cap]  # one bin each
    small = [w for w in sizes if 2 * w <= cap]
    best = 1
    for alpha in {0, *small}:  # sizes in [alpha, cap/2] fit only beside big ones <= cap - alpha
        rest = sum(w for w in small if w >= alpha) - sum(cap - w for w in big if w <= cap - alpha)
        best = max(best, len(big) + -(-max(0, rest) // cap))
    return best


def _search(room: list[int], placed: list[list], pinned: set[int], todo: list, pos: int) -> bool:
    """Complete backtracking over (bin, slot class) for todo[pos:], in option order.

    Each item takes the lowest offset of the chosen class; an option whose
    offset leaves the off-interval is skipped. Bins with equal keys host
    every later item alike, so only the first of them is tried at each
    node: a stacking bin's key is its room, another bin's is its ratio,
    off-width and intervals, and a bin that some item is pinned to has a
    key of its own.
    """
    if pos == len(todo):
        return True
    w, options = todo[pos]
    tried = set()
    for b, stacks, ratio, classes in options:
        cap = room[b]
        if cap < w:
            continue
        others = placed[b]
        key = (b,) if b in pinned else cap if stacks else (ratio, cap, tuple(others))
        if key in tried:
            continue
        tried.add(key)
        if stacks:
            room[b] = cap - w
            done = _search(room, placed, pinned, todo, pos + 1)
            room[b] = cap
            if done:
                return True
            continue
        for c in classes:
            offset = _lowest(others, ratio, c, w, cap)
            if offset is None:
                continue
            others.append((ratio, c, offset, offset + w))
            done = _search(room, placed, pinned, todo, pos + 1)
            others.pop()
            if done:
                return True
    return False


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
    vector over the input order, then the lexicographically smallest
    item->bin vector, then item->slot-class vector.
    """
    if not specs:
        raise EmptyInputError("nothing to schedule")
    n = len(specs)
    packer = _Packer(specs)
    for count in range(packer.lower, n + 1):
        # item-position combinations in lexicographic order enumerate the
        # bin-flag vectors in lexicographic order for this bin count
        for items in combinations(range(n), n - count):
            room = packer.room_for(items)
            if room is not None and packer.packs(room, {j: packer.entries[j] for j in items}):
                placed = packer.lex_min(items, room)
                return AssignmentMultiFreq(placement=tuple(placed.get(i) for i in range(n)))
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
        out[j] = replace(specs[j], phase=phase % specs[j].period)
    return out

