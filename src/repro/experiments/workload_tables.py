"""Experiment WORKLOADS: the PR-6 workload axes as pinned tables.

Three tables cover the axes the embedding surveys opened beyond the paper's
same-size, pristine-host, neighbour-exchange setting:

* :func:`expansion_rows` — unequal-size pairs routed through the
  dispatcher's ``subshape`` strategy (guest strictly smaller than host);
* :func:`fault_rows` — degraded hosts: seeded node/link knockouts, repair
  around the dead images and the dilation measured over surviving routes,
  paper construction vs the re-mapping baselines;
* :func:`hotspot_rows` — the randomized/adversarial traffic generators
  (random-permutation, hotspot, bursty) simulated per strategy, plus one
  heterogeneous-link column.

All three are derived from the survey engine's per-scenario evaluator, so
the golden fixtures (``tests/golden/tab_expansion.json`` etc.) pin the same
records the ``expansion`` and ``faults`` suites produce — one source of
truth for both the CLI sweeps and the regression tests.
"""

from __future__ import annotations

from typing import List

from ..graphs.base import Torus
from ..netsim import (
    CostModel,
    HostNetwork,
    LinkWeightSpec,
    simulate_phase,
    traffic_pattern,
)
from ..runtime.registry import build_strategy
from ..survey.runner import SurveyOptions, evaluate_scenario
from ..survey.scenarios import scenarios_for_suite
from .registry import ExperimentResult, register

__all__ = ["expansion_rows", "fault_rows", "hotspot_rows"]

#: Traffic generators of the randomized/adversarial family.
WORKLOAD_TRAFFIC = ("random-permutation", "hotspot", "bursty")

#: Strategies compared under the adversarial workloads.
WORKLOAD_STRATEGIES = ("paper", "lexicographic", "random")


def expansion_rows() -> List[dict]:
    """One row per expansion-suite pair: the injective sub-embedding costs."""
    rows = []
    for scenario in scenarios_for_suite("expansion"):
        record = evaluate_scenario(scenario, SurveyOptions(workers=1))
        rows.append(
            {
                "guest": record.guest,
                "host": record.host,
                "status": record.status,
                "strategy": record.strategy,
                "guest size": record.guest_size,
                "host size": record.nodes,
                "dilation": record.dilation,
                "avg dilation": (
                    round(record.average_dilation, 4)
                    if record.average_dilation is not None
                    else None
                ),
            }
        )
    return rows


def fault_rows() -> List[dict]:
    """One row per faults-suite scenario: degraded dilation per strategy."""
    rows = []
    for scenario in scenarios_for_suite("faults"):
        record = evaluate_scenario(scenario, SurveyOptions(workers=1))
        rows.append(
            {
                "guest": record.guest,
                "host": record.host,
                "faults": record.faults,
                "strategy": record.strategy,
                "dilation": record.dilation,
                "avg dilation": (
                    round(record.average_dilation, 4)
                    if record.average_dilation is not None
                    else None
                ),
                "makespan": record.makespan,
            }
        )
    return rows


def hotspot_rows() -> List[dict]:
    """Adversarial traffic on one mapping pair, homogeneous and weighted links.

    The scenario is the task-mapping pair ``Torus((4, 6)) -> Mesh((3, 8))``
    (an expansion mapping with two spare columns is deliberately avoided:
    same-size keeps every strategy comparable).  Each traffic generator runs
    per strategy on uniform links and once more under ``dimension:0.5``
    weights, pinning the per-hop weighted pricing end to end.
    """
    guest, host = Torus((4, 6)), Torus((4, 6))
    rows = []
    for weights in (None, LinkWeightSpec("dimension", 0.5, 0)):
        network = HostNetwork(host, CostModel(), link_weights=weights)
        for traffic_name in WORKLOAD_TRAFFIC:
            traffic = traffic_pattern(traffic_name, guest)
            for strategy in WORKLOAD_STRATEGIES:
                embedding = build_strategy(strategy, guest, host)
                result = simulate_phase(network, embedding, traffic)
                rows.append(
                    {
                        "traffic": traffic.name,
                        "links": weights.token if weights else "uniform",
                        "strategy": strategy,
                        "messages": result.statistics.num_messages,
                        "max hops": result.statistics.max_hops,
                        "makespan": round(result.makespan, 4),
                    }
                )
    return rows


@register("WORKLOADS", "Expansion, fault-tolerance and adversarial workloads")
def experiment_workloads() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="WORKLOADS",
        title="Expansion, fault-tolerance and adversarial workloads",
        rows=expansion_rows() + fault_rows() + hotspot_rows(),
    )
    result.notes.append(
        "expansion pairs embed a strictly smaller guest injectively; fault "
        "rows measure dilation over surviving links after repair; hotspot "
        "rows simulate the randomized workloads under uniform and weighted links"
    )
    return result
