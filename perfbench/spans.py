"""Span tracing from outside the program, for the per-layer metrics.

The tracer replaces a module attribute (a public function, where its caller
looks it up) with a wrapper that records a span and updates counters, and
puts the original back afterwards. Spans are kept in memory as
[name, start_ns, end_ns, parent] and written out at the end of the run. A
span's self time is its duration minus the durations of its direct
children. The wrapper's counting after a call falls into the parent's self
time; the traced run's throughput against the untraced run
(`trace.overhead`) says how much tracing costs.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter_ns


def _sweep(counts, args, result, exc):
    if exc is None:
        specs = args[0]
        hyper = math.lcm(*(s.period for s in specs))
        counts["waveform.edges"] += sum(2 * hyper // s.period for s in specs if not s.always_on)
        counts["waveform.breakpoints"] += len(result.breakpoints)


def _bound_gap(layer):
    """Bins used minus the solvers' starting bound max(1, ceil(sum of duties))."""

    def count(counts, args, result, exc):
        if exc is None:
            duty = sum((Fraction(s.on_width, s.period) for s in args[0]), Fraction(0))
            gap = result.bins_used - max(1, math.ceil(duty))
            counts[f"{layer}.bound_gap"] += gap
            counts[f"{layer}.bound_met"] += gap == 0

    return count


def _failure(key):
    def count(counts, args, result, exc):
        counts[key] += exc is not None

    return count


def _loads(counts, args, result, exc):
    if exc is None:
        counts["files.loads_parsed"] += len(result.loads)


def _bytes(counts, args, result, exc):
    if exc is None:
        counts["files.bytes_written"] += len(args[1].encode())


# (module, attribute, span name, counter): the public functions on the
# CLI's path, wrapped where their caller looks them up
TARGETS = (
    ("pulsesched.cli", "load_scenario", "files.load_scenario", _loads),
    ("pulsesched.cli", "aggregate_profile", "waveform.aggregate_profile", _sweep),
    ("pulsesched.multifreq", "aggregate_profile", "waveform.aggregate_profile", _sweep),
    ("pulsesched.cli", "profile_metrics", "waveform.profile_metrics", None),
    ("pulsesched.cli", "schedule_fleet", "grouping.schedule_fleet", None),
    ("pulsesched.grouping", "partition_by_frequency", "grouping.partition_by_frequency", None),
    ("pulsesched.grouping", "solve_samefreq", "samefreq.solve_samefreq", _bound_gap("samefreq")),
    ("pulsesched.grouping", "realize_phases_samefreq", "samefreq.realize_phases_samefreq", None),
    ("pulsesched.grouping", "solve_multifreq", "multifreq.solve_multifreq", _bound_gap("multifreq")),
    (
        "pulsesched.grouping",
        "realize_phases_multifreq",
        "multifreq.realize_phases_multifreq",
        _failure("multifreq.realize_failed"),
    ),
    ("pulsesched.cli", "prioritize_and_admit", "power.prioritize_and_admit", None),
    ("pulsesched.cli", "enforce_limit", "power.enforce_limit", _failure("power.enforce_failed")),
    ("pulsesched.cli", "write_text_atomic", "files.write_text_atomic", _bytes),
    ("pulsesched.files", "waveform_csv", "files.waveform_csv", None),
    ("pulsesched.files", "waveform_svg", "files.waveform_svg", None),
    ("pulsesched.files", "metrics_json", "files.json", None),
    ("pulsesched.files", "scenario_json", "files.json", None),
    ("pulsesched.files", "schedule_json", "files.json", None),
    ("pulsesched.files", "plan_json", "files.json", None),
)


class Tracer:
    """In-memory spans and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, count=None, **kwargs):
        """Run fn inside a span named `name`, then let `count` see the result."""
        index = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1] if self._stack else None])
        self._stack.append(index)
        self.counts[f"{name}.calls"] += 1
        result = exc = None
        self.spans[index][1] = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except Exception as raised:
            exc = raised
            raise
        finally:
            self.spans[index][2] = perf_counter_ns()
            self._stack.pop()
            if count is not None:
                count(self.counts, args, result, exc)
        return result

    @contextmanager
    def installed(self):
        """Swap every target for its traced wrapper; restore on exit."""
        saved = []
        try:
            for module_name, attr, name, count in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                traced = functools.partial(self.call, name, original, count=count)
                setattr(module, attr, functools.update_wrapper(traced, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self, first: int = 0, last: int | None = None) -> Counter:
        """Self time in ns per span name, over spans[first:last] (whole ops)."""
        last = len(self.spans) if last is None else last
        children = Counter()
        for name, start, end, parent in self.spans[first:last]:
            if parent is not None:
                children[parent] += end - start
        out = Counter()
        for index in range(first, last):
            name, start, end, _ = self.spans[index]
            out[name] += end - start - children[index]
        return out

    def dump(self, path) -> None:
        doc = {"fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans}
        path.write_text(json.dumps(doc))
