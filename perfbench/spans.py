"""In-memory span recorder for the traced run.

The program itself carries no tracing.  A traced sweep rebinds the public
layer functions *at the module globals where the survey code looks them up*
(``repro.survey.batch.build_strategy``, ``repro.survey.runner.embed``,
``repro.graphs.base.digit_weights``, ...) to wrappers that record a span
``(name, start, end, parent)`` per call, plus the counts the per-layer
metrics need.  :meth:`Recorder.installed` undoes every rebinding on exit, so
untraced sweeps in the same process run the original functions.

A layer's self time is its spans' duration minus the part covered by their
child spans (:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (span name, rebinding sites).  A site is ``"module:attribute"``; every
#: site is a module global the survey path reads at call time.
SPAN_SITES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    (
        "core.construct",
        (
            "repro.survey.batch:build_strategy",
            "repro.survey.runner:build_strategy",
            "repro.survey.runner:embed",
            "repro.optimize.search:build_strategy",
        ),
    ),
    (
        "graphs.resolve",
        ("repro.survey.batch:make_graph", "repro.survey.scenarios:make_graph"),
    ),
    (
        "analysis.measure",
        (
            "repro.survey.batch:stack_host_index_arrays",
            "repro.survey.batch:stacked_dilation_summary",
            "repro.survey.batch:stacked_congestion",
            "repro.survey.runner:evaluate_embedding",
        ),
    ),
    (
        "analysis.fault_repair",
        (
            "repro.survey.runner:repair_embedding",
            "repro.survey.runner:fault_dilation_summary",
        ),
    ),
    (
        "netsim.traffic",
        (
            "repro.survey.batch:traffic_rank_arrays",
            "repro.survey.batch:traffic_pattern",
            "repro.survey.runner:traffic_pattern",
        ),
    ),
    (
        "netsim.simulate",
        (
            "repro.survey.batch:simulate_endpoint_phases",
            "repro.survey.runner:simulate_phase",
        ),
    ),
    # run_survey imports optimize_embedding from the package at call time.
    ("optimize.search", ("repro.optimize:optimize_embedding",)),
    ("survey.shard", ("repro.survey.runner:evaluate_shard",)),
)

#: Call-count-only sites: digit_weights runs ~5 times per scenario, too
#: often for a span each, and its time is part of its caller's span.
DIGIT_WEIGHTS_SITES: Tuple[str, ...] = (
    "repro.numbering.arrays:digit_weights",
    "repro.numbering:digit_weights",
    "repro.numbering.batch:digit_weights",
    "repro.graphs.base:digit_weights",
    "repro.netsim.kernels:digit_weights",
    "repro.netsim.traffic:digit_weights",
)


class Recorder:
    """Spans and counters of one traced sweep (single-threaded)."""

    def __init__(self, trace_id: str = ""):
        self.trace_id = trace_id
        self.spans: List[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.shapes: set = set()
        self._stack: List[int] = []

    def wrap(
        self, name: str, function: Callable, after: Optional[Callable] = None
    ) -> Callable:
        """``function`` recording one span per call; ``after(args, result)``
        updates counters once the call returned."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                after(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _counting_digit_weights(self, function: Callable) -> Callable:
        counts, shapes = self.counts, self.shapes

        @functools.wraps(function)
        def counted(shape):
            counts["digit_weights"] += 1
            shapes.add(tuple(shape))
            return function(shape)

        return counted

    def _simulated(self, args, result) -> None:
        phases = result if isinstance(result, list) else [result]
        self.counts["simulate_calls"] += 1
        self.counts["phases"] += len(phases)
        self.counts["messages"] += sum(
            phase.statistics.num_messages for phase in phases
        )

    def _searched(self, args, result) -> None:
        self.counts["searches"] += 1
        self.counts["search_steps"] += result.steps
        self.counts["improved"] += int(result.improved)

    def _stacked(self, args, result) -> None:
        self.counts["stacked_calls"] += 1
        self.counts["stacked_rows"] += int(args[3].shape[0])  # images rows

    def _after(self, site: str) -> Optional[Callable]:
        """The counter update of a site, if it has one."""
        attribute = site.split(":")[1]
        if attribute in ("simulate_endpoint_phases", "simulate_phase"):
            return self._simulated
        if attribute == "optimize_embedding":
            return self._searched
        if attribute == "stacked_dilation_summary":
            return self._stacked
        return None

    @contextlib.contextmanager
    def installed(self):
        """Rebind every site to a recording wrapper; restore on exit."""
        saved: List[Tuple[object, str, object]] = []

        def rebind(site: str, make: Callable[[Callable], Callable]) -> None:
            module_name, attribute = site.split(":")
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            saved.append((module, attribute, original))
            setattr(module, attribute, make(original))

        try:
            for name, sites in SPAN_SITES:
                for site in sites:
                    after = self._after(site)
                    rebind(site, lambda fn, n=name, a=after: self.wrap(n, fn, a))
            for site in DIGIT_WEIGHTS_SITES:
                rebind(site, self._counting_digit_weights)
            yield self
        finally:
            for module, attribute, original in reversed(saved):
                setattr(module, attribute, original)

    def write_jsonl(self, path: Path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                span = {
                    "trace": self.trace_id,
                    "id": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                }
                handle.write(json.dumps(span) + "\n")


def self_times(spans: Sequence[list]) -> Dict[str, float]:
    """Per span name: total duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: Dict[str, float] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
    return totals


def total_times(spans: Sequence[list]) -> Dict[str, float]:
    """Per span name: total duration, children included."""
    totals: Dict[str, float] = {}
    for name, start, end, parent in spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def span_counts(spans: Sequence[list]) -> Counter:
    """Calls per span name (failed calls included)."""
    return Counter(name for name, start, end, parent in spans)


def root_time(spans: Sequence[list]) -> float:
    """Wall time covered by spans without a parent."""
    return sum(end - start for name, start, end, parent in spans if parent < 0)
