"""Partition a mixed-frequency fleet into schedulable groups and solve each.

Groups are formed greedily: the highest-frequency unassigned load anchors a
group and pulls in every unassigned load whose period is an integer multiple
of the anchor's (equivalently, whose frequency divides the anchor's). Every
group of two or more loads is solved by the hyperperiod model, through its
same-period entry points when the group has one period; singletons pass
through untouched.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import EmptyInputError, InfeasibleError, InvalidAssignmentError
from .multifreq import (
    AssignmentMultiFreq,
    realize_phases_multifreq,
    realize_phases_samefreq,
    solve_multifreq,
    solve_samefreq,
)
from .waveform import LoadId, PulseSpec, load_sort_key


@dataclass(frozen=True)
class Group:
    """One schedulable group: 1-based creation index, anchor, members in input order."""

    index: int
    anchor_id: LoadId
    member_ids: tuple[LoadId, ...]
    assignment: AssignmentMultiFreq | None = None


@dataclass(frozen=True)
class GroupPlan:
    groups: tuple[Group, ...]


def partition_by_frequency(specs: list[PulseSpec]) -> GroupPlan:
    """Greedy partition anchored at the highest remaining frequency.

    Ties on frequency break by ascending id. Every load lands in exactly one
    group; within a group every period is an integer multiple of the anchor's.
    """
    if not specs:
        raise EmptyInputError("nothing to partition")
    ids = [s.id for s in specs]
    if len(set(ids)) != len(ids):
        raise ValueError("load ids must be unique")
    remaining = list(range(len(specs)))
    groups: list[Group] = []
    while remaining:
        anchor = min(remaining, key=lambda i: (specs[i].period, load_sort_key(specs[i].id)))
        members = [i for i in remaining if specs[i].period % specs[anchor].period == 0]
        groups.append(
            Group(
                index=len(groups) + 1,
                anchor_id=specs[anchor].id,
                member_ids=tuple(specs[i].id for i in members),
            )
        )
        taken = set(members)
        remaining = [i for i in remaining if i not in taken]
    return GroupPlan(groups=tuple(groups))


def schedule_fleet(
    specs: list[PulseSpec], allow_partial: bool = False
) -> tuple[list[PulseSpec], GroupPlan]:
    """Partition, solve, and realize the whole fleet.

    Returns the realized specs sorted by load id plus the solved plan. A group
    whose solve or phase realization fails is left unshifted; without
    allow_partial the failures are re-raised tagged with their group indices
    after the other groups finished.
    """
    plan = partition_by_frequency(specs)
    by_id = {s.id: s for s in specs}
    realized: dict[LoadId, PulseSpec] = dict(by_id)
    solved: list[Group] = []
    failures: list[tuple[int, Exception]] = []

    for group in plan.groups:
        members = [by_id[i] for i in group.member_ids]
        if len(members) == 1:
            solved.append(group)
            continue
        try:
            if len({m.period for m in members}) == 1:
                assignment = solve_samefreq(members)
                placed = realize_phases_samefreq(members, assignment)
            else:
                assignment = solve_multifreq(members)
                placed = realize_phases_multifreq(members, assignment)
        except (InfeasibleError, InvalidAssignmentError) as exc:
            failures.append((group.index, exc))
            solved.append(group)
            continue
        for spec in placed:
            realized[spec.id] = spec
        solved.append(replace(group, assignment=assignment))

    fleet = sorted(realized.values(), key=lambda s: load_sort_key(s.id))
    solved_plan = GroupPlan(groups=tuple(solved))
    if failures and not allow_partial:
        indices = tuple(i for i, _ in failures)
        raise InfeasibleError(
            f"groups {indices} could not be scheduled: "
            + "; ".join(str(e) for _, e in failures),
            groups=indices,
        )
    return fleet, solved_plan
