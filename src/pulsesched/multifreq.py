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
lexicographically smallest bin-flag vector. Per subset a host check comes
first, then one complete backtracking search whose first descent is first
fit: items bound to one bin first, then by descending width, each trying
its hosts by bin index. Among the optima it then picks the smallest bin per
item in input order, then the smallest slot class per item.

An assignment stores one placement per load: None for a bin, else the
item's host bin and slot class. Realization is the one check after the
solver: it gives each item one offset in its bin's off-interval, kept in
every slot it occupies, so a realized bin proves every slot within
capacity. When a bin mixes ratios, per-slot capacity alone does not
guarantee that its first fit finds such offsets.
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
            if not packer.packs(free, {j: packer.entries[j] for j in items}):
                continue
            placed = packer.lex_min(items, free)
            return AssignmentMultiFreq(placement=tuple(placed.get(i) for i in range(n)))
    raise AssertionError("unreachable: the all-bins assignment is always feasible")


def realize_phases_multifreq(
    specs: list[PulseSpec], assignment: AssignmentMultiFreq
) -> list[PulseSpec]:
    """Anchor each item behind its bin's falling edge at one offset for all its slots.

    Bin-type loads keep their input phases. A placement without one entry
    per load, a host that is not a bin, periods that do not nest or a slot
    class outside 1..R raise InvalidAssignmentError. Items with ratios r_i,
    r_j and classes c_i, c_j share a slot iff gcd(r_i, r_j) divides
    c_i - c_j (CRT). By descending on-width, ties by id, each item takes
    the lowest offset that clears every placed item it shares a slot with;
    one that finds none in the off-interval (as in an over-full slot)
    raises InvalidAssignmentError.
    """
    n = len(specs)
    placement = assignment.placement
    if len(placement) != n:
        raise InvalidAssignmentError(f"placement has {len(placement)} entries for {n} loads")
    hosted: dict[int, list[tuple[int, int, int]]] = {}  # (item, ratio, class) per bin
    for j, place in enumerate(placement):
        if place is None:
            continue
        b, cls = place
        if b not in range(n) or placement[b] is not None:
            raise InvalidAssignmentError(f"item {specs[j].id} is hosted by position {b}, not a bin")
        ratio, rest = divmod(specs[j].period, specs[b].period)
        if rest:
            raise InvalidAssignmentError(f"item {specs[j].id}: period is no multiple of its host's")
        if cls not in range(1, ratio + 1):
            raise InvalidAssignmentError(f"slot class of item {specs[j].id} must lie in 1..{ratio}")
        hosted.setdefault(b, []).append((j, ratio, cls))

    out = list(specs)
    for b, js in sorted(hosted.items()):
        js.sort(key=lambda t: (-specs[t[0]].on_width, load_sort_key(specs[t[0]].id)))
        bin_spec = specs[b]
        placed: list[tuple[int, int, int, int]] = []  # (ratio, class, start, end) per placed item
        for j, ratio, cls in js:
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


def realize_phases_samefreq(
    specs: list[PulseSpec], assignment: AssignmentMultiFreq
) -> list[PulseSpec]:
    """realize_phases_multifreq for loads that share one period."""
    return realize_phases_multifreq(_one_period(specs), assignment)
