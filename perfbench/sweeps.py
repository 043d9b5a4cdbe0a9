"""The two survey workloads: timed sweeps, traced sweeps, correctness.

One *sweep* is what ``repro survey`` does for a user: ``run_survey`` over
the seeded scenario list on one worker, then the merged records written
through ``repro.survey.store.write_records``.  A run repeats the sweep over
the same list until its time is spent and reports medians over sweeps.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

from repro.api import run_survey
from repro.runtime import use_context
from repro.survey import Scenario, SurveyOptions, read_records, write_records

# The per-scenario reference path lives only in the runner module.
from repro.survey.runner import evaluate_scenario  # noqa: TID251

from spans import Recorder, root_time, self_times, span_counts, total_times

#: One worker, the engine's default shard size: the configuration a
#: ``repro survey --workers 1`` user gets.
OPTIONS = SurveyOptions(workers=1)

#: Fewest sweeps a run makes, whatever its time budget.
MIN_SWEEPS = 3

#: Scenarios re-evaluated per run by the per-scenario reference path.
CHECK_SAMPLE = {"survey-exhaustive": 400, "survey-pipeline": 12}

#: Child layers of a shard, the candidates for "largest child span".
SHARD_CHILDREN = (
    "core.construct_s",
    "graphs.resolve_s",
    "analysis.measure_s",
    "analysis.fault_repair_s",
    "netsim.traffic_s",
    "netsim.simulate_s",
    "optimize.search_s",
)


@dataclass
class SweepRun:
    """What the timed sweeps of one run measured."""

    records: int = 0  # records per sweep
    failed: int = 0  # error/failed records per sweep
    seconds: List[float] = field(default_factory=list)  # wall time per sweep
    peak_rss_mb: float = 0.0
    last_records: list = field(default_factory=list)


def _sweep(scenarios: Sequence[Scenario], output: Path):
    report = run_survey(scenarios, OPTIONS)
    write_records(report.records, output)
    return report.records


def failed_count(records) -> int:
    return sum(1 for record in records if record.status in ("error", "failed"))


def timed_sweeps(
    scenarios: Sequence[Scenario], output: Path, seconds: float
) -> SweepRun:
    """Untraced sweeps until ``seconds`` are spent (at least :data:`MIN_SWEEPS`),
    after one unmeasured warm-up sweep."""
    run = SweepRun()
    _sweep(scenarios, output)
    deadline = time.perf_counter() + seconds
    while len(run.seconds) < MIN_SWEEPS or time.perf_counter() < deadline:
        run.last_records = []  # the previous sweep's records are garbage now
        gc.collect()
        started = time.perf_counter()
        run.last_records = _sweep(scenarios, output)
        run.seconds.append(time.perf_counter() - started)
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.records = len(run.last_records)
    run.failed = failed_count(run.last_records)
    return run


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(recorder: Recorder, output: Path) -> Dict[str, float]:
    """Per-layer metrics of one traced sweep."""
    own = self_times(recorder.spans)
    calls = span_counts(recorder.spans)
    counts = recorder.counts
    return {
        "core.construct_s": own.get("core.construct", 0.0),
        "core.construct_calls": calls["core.construct"],
        "numbering.digit_weights_calls": counts["digit_weights"],
        "numbering.digit_weights_unique_ratio": _ratio(
            len(recorder.shapes), counts["digit_weights"]
        ),
        "graphs.resolve_s": own.get("graphs.resolve", 0.0),
        "graphs.make_graph_calls": calls["graphs.resolve"],
        "analysis.measure_s": own.get("analysis.measure", 0.0),
        "analysis.stacked_calls": counts["stacked_calls"],
        "analysis.rows_per_stacked_call": _ratio(
            counts["stacked_rows"], counts["stacked_calls"]
        ),
        "analysis.fault_repair_s": own.get("analysis.fault_repair", 0.0),
        "netsim.traffic_s": own.get("netsim.traffic", 0.0),
        "netsim.simulate_s": own.get("netsim.simulate", 0.0),
        "netsim.phases_per_call": _ratio(counts["phases"], counts["simulate_calls"]),
        "netsim.messages": counts["messages"],
        "optimize.search_s": own.get("optimize.search", 0.0),
        "optimize.steps": counts["search_steps"],
        "optimize.improved_ratio": _ratio(counts["improved"], counts["searches"]),
        "survey.shard_s": total_times(recorder.spans).get("survey.shard", 0.0),
        "survey.assemble_self_s": own.get("survey.shard", 0.0),
        "survey.store_write_s": own.get("survey.store_write", 0.0),
        "survey.store_bytes": output.stat().st_size,
    }


def traced_sweeps(
    scenarios: Sequence[Scenario], output: Path, spans_path: Path, seconds: float
):
    """Alternate untraced and traced sweeps for ``seconds``, after one
    unmeasured warm-up sweep.

    Returns the per-layer metrics (medians over traced sweeps for times, the
    last traced sweep for counts), the tracing overhead and the span
    coverage, plus details for the result document.  The spans of the last
    traced sweep are written to ``spans_path``.
    """
    untraced: List[float] = []
    traced: List[float] = []
    per_sweep: List[Dict[str, float]] = []
    coverage: List[float] = []
    _sweep(scenarios, output)  # warm-up, unmeasured
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_SWEEPS or time.perf_counter() < deadline:
        gc.collect()
        started = time.perf_counter()
        _sweep(scenarios, output)
        untraced.append(time.perf_counter() - started)
        recorder = Recorder(trace_id=f"sweep-{len(traced)}")
        gc.collect()
        started = time.perf_counter()
        with recorder.installed():
            with recorder.span("survey.run"):
                report = run_survey(scenarios, OPTIONS)
            with recorder.span("survey.store_write"):
                write_records(report.records, output)
        wall = time.perf_counter() - started
        traced.append(wall)
        coverage.append(root_time(recorder.spans) / wall)
        per_sweep.append(_layer_metrics(recorder, output))
    recorder.write_jsonl(spans_path)
    metrics = dict(per_sweep[-1])
    for name in metrics:
        if name.endswith("_s"):
            metrics[name] = statistics.median(sweep[name] for sweep in per_sweep)
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / statistics.median(untraced)
    metrics["trace.coverage"] = statistics.median(coverage)
    metrics["error_rate"] = failed_count(report.records) / len(report.records)
    shard = metrics["survey.shard_s"]
    details = {
        "traced_sweeps": len(traced),
        "untraced_sweeps": len(untraced),
        "largest_shard_child": max(SHARD_CHILDREN, key=metrics.get),
        "shard_share": {name: _ratio(metrics[name], shard) for name in SHARD_CHILDREN},
    }
    return metrics, details


def _strip(record) -> Dict[str, object]:
    data = record.as_dict()
    data.pop("elapsed_seconds", None)
    return data


def check_records(
    workload: str, seed: int, scenarios: Sequence[Scenario], records, output: Path
) -> List[str]:
    """Mismatches of a sweep's output; an empty list means correct.

    The records must match the scenarios one for one, the written file must
    read back as the same records, and a seeded subsample must equal the
    per-scenario reference path (``use_context(batch=False)``).
    """
    ids = [record.scenario_id for record in records]
    if ids != [scenario.scenario_id for scenario in scenarios]:
        return ["records do not match the scenario list one for one"]
    problems: List[str] = []
    stripped = [_strip(record) for record in records]
    if [_strip(record) for record in read_records(output)] != stripped:
        problems.append(f"{output.name} does not read back as the sweep's records")
    rng = random.Random(f"{workload}:check:{seed}")
    count = min(CHECK_SAMPLE[workload], len(scenarios))
    with use_context(batch=False):
        for index in sorted(rng.sample(range(len(scenarios)), count)):
            expected = _strip(evaluate_scenario(scenarios[index], OPTIONS))
            if stripped[index] != expected:
                problems.append(
                    f"record {ids[index]} differs from the per-scenario reference"
                )
    return problems
