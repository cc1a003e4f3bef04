"""Grouping of mixed-period pulse trains over their hyperperiod.

A load can host another iff the slower period is an integer multiple of the
faster one and the item's pulse fits the bin's off-interval. Within one
hyperperiod a bin has one off-interval ("slot") per own period, indexed
k = 1..N from its first falling edge; an item with period ratio R occupies
exactly one slot out of every R consecutive ones, cyclically, so its
feasible slot sets are precisely the arithmetic progressions k0, k0+R, ...
with k0 in [1, R]. Capacity applies per slot: the widths of items sharing a
slot must fit the bin's off-width.

The solver minimizes the number of bin-type loads with the same determinism
rules as the same-frequency case, then picks the smallest slot indices among
the optima.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations

from .errors import EmptyInputError, InvalidAssignmentError
from .samefreq import Violation
from .waveform import PulseSpec, aggregate_profile, hyperperiod, load_sort_key


@dataclass(frozen=True)
class AssignmentMultiFreq:
    """Solver output over one hyperperiod.

    Positions index the solver's input list. `slot_map` lists each item's
    occupied off-interval indices of its bin (1-based, strictly increasing);
    `ratios` holds the item-period over bin-period ratio; `off_counts` the
    per-load number of own off-intervals in the hyperperiod.
    """

    bin_flags: tuple[int, ...]
    bin_of_item: dict[int, int]
    slot_map: dict[int, tuple[int, ...]]
    ratios: dict[int, int]
    off_counts: tuple[int, ...]
    bins_used: int


def check_groupability(bin_spec: PulseSpec, item_spec: PulseSpec) -> bool:
    """True iff the item's period is an integer multiple of the bin's and fits."""
    if item_spec.period % bin_spec.period != 0:
        return False
    return item_spec.on_width <= bin_spec.off_width


class _SlotState:
    """Per-bin slot load tracking for the packing searches."""

    def __init__(self, specs: list[PulseSpec], bins: list[int], t_lcm: int):
        self.caps = {b: specs[b].off_width for b in bins}
        self.counts = {b: t_lcm // specs[b].period for b in bins}
        self.loads = {b: [0] * self.counts[b] for b in bins}

    def fits(self, b: int, cls: int, step: int, width: int) -> bool:
        cap = self.caps[b]
        loads = self.loads[b]
        return all(loads[k] + width <= cap for k in range(cls - 1, self.counts[b], step))

    def add(self, b: int, cls: int, step: int, width: int) -> None:
        loads = self.loads[b]
        for k in range(cls - 1, self.counts[b], step):
            loads[k] += width

    def remove(self, b: int, cls: int, step: int, width: int) -> None:
        loads = self.loads[b]
        for k in range(cls - 1, self.counts[b], step):
            loads[k] -= width


def _search(
    specs: list[PulseSpec],
    order: list[int],
    bin_choices: dict[int, list[int]],
    class_choices: dict[int, int | None],
    state: _SlotState,
    found: dict[int, tuple[int, int]] | None = None,
) -> dict[int, tuple[int, int]] | None:
    """Backtracking search assigning (bin, slot class) to every item in `order`.

    `class_choices[j]` pins an item's class; None leaves it free. Returns the
    chosen (bin, class) per item or None when no completion exists.
    """
    if found is None:
        found = {}
    if not order:
        return found
    j, rest = order[0], order[1:]
    width = specs[j].on_width
    for b in bin_choices[j]:
        ratio = specs[j].period // specs[b].period
        classes = [class_choices[j]] if class_choices[j] is not None else range(1, ratio + 1)
        for cls in classes:
            if cls > ratio or not state.fits(b, cls, ratio, width):
                continue
            state.add(b, cls, ratio, width)
            found[j] = (b, cls)
            if _search(specs, rest, bin_choices, class_choices, state, found) is not None:
                return found
            del found[j]
            state.remove(b, cls, ratio, width)
    return None


def solve_multifreq(specs: list[PulseSpec]) -> AssignmentMultiFreq:
    """Minimize bin-type loads subject to per-slot capacity over the hyperperiod."""
    if not specs:
        raise EmptyInputError("nothing to schedule")
    n = len(specs)
    t_lcm = hyperperiod(specs)
    off_counts = tuple(t_lcm // s.period for s in specs)
    compat = {
        j: [i for i in range(n) if i != j and check_groupability(specs[i], specs[j])]
        for j in range(n)
    }
    total_duty = sum((s.duty for s in specs), Fraction(0))
    lower = -(-total_duty.numerator // total_duty.denominator)

    for count in range(max(1, lower), n + 1):
        for items in combinations(range(n), n - count):
            bin_set = set(range(n)) - set(items)
            choices = {j: [b for b in compat[j] if b in bin_set] for j in items}
            if any(not choices[j] for j in items):
                continue
            order = sorted(items, key=lambda j: (-specs[j].on_width, j))
            state = _SlotState(specs, sorted(bin_set), t_lcm)
            free = {j: None for j in items}
            if _search(specs, order, choices, free, state) is None:
                continue
            placement = _lex_min_bins(specs, list(items), choices, sorted(bin_set), t_lcm)
            classes = _lex_min_classes(specs, list(items), placement, sorted(bin_set), t_lcm)
            slot_map = {}
            ratios = {}
            for j in items:
                b = placement[j]
                ratio = specs[j].period // specs[b].period
                ratios[j] = ratio
                n_bin = t_lcm // specs[b].period
                slot_map[j] = tuple(range(classes[j], n_bin + 1, ratio))
            flags = tuple(0 if i in set(items) else 1 for i in range(n))
            return AssignmentMultiFreq(
                bin_flags=flags,
                bin_of_item=placement,
                slot_map=slot_map,
                ratios=ratios,
                off_counts=off_counts,
                bins_used=count,
            )
    raise AssertionError("unreachable: the all-bins assignment is always feasible")


def _lex_min_bins(
    specs: list[PulseSpec],
    items: list[int],
    choices: dict[int, list[int]],
    bins: list[int],
    t_lcm: int,
) -> dict[int, int]:
    """Smallest bin index per item in input order, keeping the rest completable."""
    fixed: dict[int, int] = {}
    for pos, j in enumerate(items):
        rest = items[pos + 1 :]
        for b in choices[j]:
            trial = {**{k: [fixed[k]] for k in fixed}, j: [b], **{k: choices[k] for k in rest}}
            order = sorted(items, key=lambda k: (-specs[k].on_width, k))
            state = _SlotState(specs, bins, t_lcm)
            if _search(specs, order, trial, {k: None for k in items}, state) is not None:
                fixed[j] = b
                break
        else:
            raise AssertionError("unreachable: subset was verified packable")
    return fixed


def _lex_min_classes(
    specs: list[PulseSpec],
    items: list[int],
    placement: dict[int, int],
    bins: list[int],
    t_lcm: int,
) -> dict[int, int]:
    """Smallest slot class per item in input order, keeping the rest completable."""
    bin_choice = {j: [placement[j]] for j in items}
    fixed: dict[int, int] = {}
    for j in items:
        ratio = specs[j].period // specs[placement[j]].period
        for cls in range(1, ratio + 1):
            trial = {**fixed, j: cls, **{k: None for k in items if k not in fixed and k != j}}
            order = sorted(items, key=lambda k: (-specs[k].on_width, k))
            state = _SlotState(specs, bins, t_lcm)
            if _search(specs, order, bin_choice, trial, state) is not None:
                fixed[j] = cls
                break
        else:
            raise AssertionError("unreachable: placement was verified packable")
    return fixed


def verify_multifreq(specs: list[PulseSpec], assignment: AssignmentMultiFreq) -> list[Violation]:
    """Empty iff slot capacities, slot windows, and single assignment all hold."""
    violations: list[Violation] = []
    n = len(specs)
    flags = assignment.bin_flags
    if len(flags) != n or any(f not in (0, 1) for f in flags):
        return [Violation("assignment", (), f"bin flags must be {n} zero/one entries")]
    t_lcm = hyperperiod(specs)
    expected_counts = tuple(t_lcm // s.period for s in specs)
    if assignment.off_counts != expected_counts:
        violations.append(Violation("assignment", (), "off_counts do not match the hyperperiod"))
    if assignment.bins_used != sum(flags):
        violations.append(Violation("assignment", (), "bins_used does not equal the number of set flags"))

    placement = assignment.bin_of_item
    for j in range(n):
        if flags[j] == 1 and j in placement:
            violations.append(Violation("assignment", (j,), f"bin-type load {j} is also placed as an item"))
        if flags[j] == 0 and j not in placement:
            violations.append(Violation("assignment", (j,), f"item at position {j} has no hosting bin"))

    slot_items: dict[int, dict[int, list[int]]] = {}
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
        if assignment.ratios.get(j) != ratio:
            violations.append(Violation("assignment", (b, j), f"stored ratio for item {j} is wrong"))
        n_bin = t_lcm // specs[b].period
        slots = assignment.slot_map.get(j, ())
        if any(not 1 <= k <= n_bin for k in slots):
            violations.append(Violation("assignment", (b, j), f"slots of item {j} fall outside 1..{n_bin}"))
            continue
        occupied = set(slots)
        for start in range(1, n_bin + 1):
            window = sum(1 for t in range(1, ratio + 1) if ((start + t - 1) % n_bin) + 1 in occupied)
            if window != 1:
                violations.append(
                    Violation(
                        "slot-window",
                        (b, j, start),
                        f"item {j} occupies {window} slots in the {ratio}-slot window after {start}",
                    )
                )
        slot_items.setdefault(b, {})
        for k in occupied:
            slot_items[b].setdefault(k, []).append(j)

    for b in sorted(slot_items):
        for k in sorted(slot_items[b]):
            js = slot_items[b][k]
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
    """Anchor each item behind its bin's falling edge in its first occupied slot.

    Items landing in the same first slot stack back to back in order of
    descending on-width (ties by ascending id). The whole realized group is
    then swept over the hyperperiod; any residual overlap (possible for mixed
    ratios whose shared slots differ from their first slots) is rejected.
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
        placed: list[tuple[int, set[int]]] = []
        for j in js:
            first = assignment.slot_map[j][0]
            offset = sum(specs[p].on_width for p, slots in placed if first in slots)
            phase = bin_spec.phase + bin_spec.on_width + (first - 1) * bin_spec.period + offset
            out[j] = replace(specs[j], phase=phase % specs[j].period)
            placed.append((j, set(assignment.slot_map[j])))

        group = [replace(out[i], amplitude=1) for i in (b, *js)]
        worst = max(aggregate_profile(group).levels)
        if worst > 1:
            raise InvalidAssignmentError(
                f"realized phases for bin {b} overlap (group level reaches {worst})"
            )
    return out
