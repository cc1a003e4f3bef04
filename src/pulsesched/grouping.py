"""Partition a mixed-frequency fleet into schedulable groups and solve each.

Groups are formed greedily: the highest-frequency unassigned load anchors a
group and pulls in every unassigned load whose period is an integer multiple
of the anchor's (equivalently, whose frequency divides the anchor's). Every
group is solved by the one hyperperiod solver, whose solution always
realizes; a one-period group, a singleton included, goes through it under
the names that the benchmark's tracer wraps. A singleton comes back as its
own bin with its phase. A group is numbered by its position in the
returned tuple, plus one.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import EmptyInputError
from .multifreq import AssignmentMultiFreq, realize_phases_multifreq, solve_multifreq
from .waveform import LoadId, PulseSpec, load_sort_key

# perfbench/spans.py wraps these two names here for its samefreq.* spans;
# they go, with the one-period fork below, when the benchmark stops wrapping them
solve_samefreq = solve_multifreq
realize_phases_samefreq = realize_phases_multifreq


@dataclass(frozen=True)
class Group:
    """One schedulable group, numbered by its position among the groups plus one: anchor,
    members in input order, and the assignment once `schedule_fleet` solves it (else None)."""

    anchor_id: LoadId
    member_ids: tuple[LoadId, ...]
    assignment: AssignmentMultiFreq | None = None


def partition_by_frequency(specs: list[PulseSpec]) -> tuple[Group, ...]:
    """Greedy partition anchored at the highest remaining frequency, in creation order.

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
        groups.append(Group(specs[anchor].id, tuple(specs[i].id for i in members)))
        taken = set(members)
        remaining = [i for i in remaining if i not in taken]
    return tuple(groups)


def schedule_fleet(specs: list[PulseSpec]) -> tuple[list[PulseSpec], tuple[Group, ...]]:
    """Partition, solve, and realize the whole fleet.

    Returns the realized specs sorted by load id plus the groups, in partition
    order, each with its assignment; a singleton's is AssignmentMultiFreq((None,)).
    """
    by_id = {s.id: s for s in specs}
    fleet: list[PulseSpec] = []
    solved: list[Group] = []

    for group in partition_by_frequency(specs):
        members = [by_id[i] for i in group.member_ids]
        if len({m.period for m in members}) == 1:
            assignment = solve_samefreq(members)
            members = realize_phases_samefreq(members, assignment)
        else:
            assignment = solve_multifreq(members)
            members = realize_phases_multifreq(members, assignment)
        fleet += members
        solved.append(replace(group, assignment=assignment))

    fleet.sort(key=lambda s: load_sort_key(s.id))
    return fleet, tuple(solved)
