"""Seeded inputs of the three workloads.

Everything the program receives is built here from the workload seed: the
``Scenario`` lists handed to ``run_survey`` and the request payloads sent to
the daemon.  The same seed always yields the same inputs, so a result can be
rechecked on any seed, including one never used while a change was written.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.graphs.faults import FaultSpec
from repro.survey.scenarios import (
    SIMULATION_STRATEGIES,
    SIMULATION_TRAFFIC,
    Scenario,
    all_pairs,
    scenarios_for_suite,
)

#: Node budget of the exhaustive space the survey-exhaustive sample is drawn
#: from (31,812 same-size pairs).
EXHAUSTIVE_MAX_NODES = 64

#: Scenarios per survey-exhaustive sweep: an eighth of the exhaustive space,
#: so one sweep takes one to two seconds and a run holds about thirty, enough
#: that its slowest sweep usually meets the host's slow speed (README.md,
#: "Run scheme and noise").
EXHAUSTIVE_SAMPLE = 4000

#: The survey-pipeline pair classes: (guest kind, guest sides, host kind,
#: host sides).  A dimension-raising, a same-dimension and a
#: dimension-lowering pair; the paper's dispatcher covers every ordering of
#: the host's sides (increasing, same-shape or permute-dimensions, and
#: lowering-simple constructions), so every strategy applies, as in the
#: simulation suite.  Every side is between 4 and 32 like the suite's
#: table-scale pairs: a side of 256 or 512 stretches routes so far that one
#: all-to-all phase needs gigabytes.
PIPELINE_CLASSES = (
    ("torus", (32, 32), "mesh", (4, 4, 8, 8)),
    ("torus", (8, 8, 16), "mesh", (8, 8, 16)),
    ("torus", (4, 4, 8, 8), "torus", (4, 8, 32)),
)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def exhaustive_sample(seed: int) -> List[Scenario]:
    """A seeded sample of the exhaustive same-size space, in suite order.

    The suite order is split into :data:`EXHAUSTIVE_SAMPLE` equal blocks and
    the seed picks one scenario from each, so every seed draws the same mix
    of node counts, dimensions and kinds, and its sweeps cost the same work;
    only the pairs within each block differ.
    """
    space = all_pairs(EXHAUSTIVE_MAX_NODES)
    rng = _rng("survey-exhaustive", seed)
    blocks = range(EXHAUSTIVE_SAMPLE + 1)
    bounds = [len(space) * block // EXHAUSTIVE_SAMPLE for block in blocks]
    return [space[rng.randrange(low, high)] for low, high in zip(bounds, bounds[1:])]


def _permuted(rng: random.Random, sides) -> tuple:
    sides = list(sides)
    rng.shuffle(sides)
    return tuple(sides)


def _connected_fault_token(rng: random.Random, scenario: Scenario) -> str:
    """The scenario's fault counts with a seed that keeps its host connected."""
    prefix = scenario.faults[: scenario.faults.index("s") + 1]
    host = scenario.host_graph()
    while True:
        token = f"{prefix}{rng.randrange(1, 10_000)}"
        faults = FaultSpec.from_token(token).apply(host)
        alive = faults.surviving_ranks()
        if len(faults.bfs_distances(alive[0])) == len(alive):
            return token


def pipeline_scenarios(seed: int) -> List[Scenario]:
    """Seeded 1024-node simulation pairs, re-seeded fault scenarios, optima.

    The seed picks one pair from each of :data:`PIPELINE_CLASSES` by
    ordering the host's sides.  The guest, and so every traffic pattern, is
    the same for every seed, and the hosts have the same diameter, so every
    seed routes the same messages over the same kind of network while the
    embeddings and their routes differ.  Each pair is crossed with the
    simulation suite's strategies and traffic patterns.  The degraded-host
    scenarios are the ``faults`` suite with the seed part of every fault
    token drawn from the workload seed, redrawn until the knockout leaves the
    host connected (a disconnected host has no dilation and its record is an
    error by design); the ``optima`` search pairs run under their fixed suite
    options.
    """
    rng = _rng("survey-pipeline", seed)
    pairs = [
        (guest_kind, guest_shape, host_kind, _permuted(rng, host_sides))
        for guest_kind, guest_shape, host_kind, host_sides in PIPELINE_CLASSES
    ]
    scenarios = [
        Scenario(*pair, strategy=strategy, traffic=traffic)
        for pair in pairs
        for strategy in SIMULATION_STRATEGIES
        for traffic in SIMULATION_TRAFFIC
    ]
    for scenario in scenarios_for_suite("faults"):
        scenarios.append(
            Scenario(
                scenario.guest_kind,
                scenario.guest_shape,
                scenario.host_kind,
                scenario.host_shape,
                strategy=scenario.strategy,
                traffic=scenario.traffic,
                faults=_connected_fault_token(rng, scenario),
            )
        )
    scenarios.extend(scenarios_for_suite("optima"))
    return scenarios


#: The daemon's fixed request pool: embed signatures from the exhaustive
#: space (two with congestion) and simulation phases on small pairs.
REQUEST_POOL: List[Dict[str, object]] = [
    {"op": "embed", "guest": "torus:4,6", "host": "mesh:2,2,2,3"},
    {"op": "embed", "guest": "mesh:24", "host": "torus:2,3,4"},
    {"op": "embed", "guest": "torus:3,4", "host": "mesh:3,4"},
    {"op": "embed", "guest": "mesh:3,3,6", "host": "mesh:6,9"},
    {"op": "embed", "guest": "torus:8,8", "host": "mesh:4,4,4"},
    {"op": "embed", "guest": "torus:4,4,4", "host": "torus:8,8"},
    {"op": "embed", "guest": "mesh:2,3,4", "host": "mesh:4,3,2"},
    {"op": "embed", "guest": "torus:6,6", "host": "mesh:2,2,3,3"},
    {
        "op": "embed",
        "guest": "torus:4,6",
        "host": "mesh:2,2,2,3",
        "congestion": True,
    },
    {
        "op": "embed",
        "guest": "torus:8,8",
        "host": "mesh:4,4,4",
        "congestion": True,
    },
    {
        "op": "simulate",
        "guest": "torus:4,4",
        "host": "mesh:2,2,2,2",
        "traffic": "transpose",
    },
    {
        "op": "simulate",
        "guest": "torus:4,6",
        "host": "mesh:2,2,2,3",
        "traffic": "neighbor-exchange",
    },
    {
        "op": "simulate",
        "guest": "torus:8,8",
        "host": "mesh:4,4,4",
        "strategy": "lexicographic",
        "traffic": "all-to-all-groups",
    },
    {
        "op": "simulate",
        "guest": "mesh:4,6",
        "host": "torus:24",
        "strategy": "bfs",
        "traffic": "hotspot",
    },
]


def request_mix(seed: int, count: int) -> List[Dict[str, object]]:
    """``count`` requests drawn from :data:`REQUEST_POOL` by the seed."""
    rng = _rng("serve-keepalive", seed)
    return [dict(rng.choice(REQUEST_POOL)) for _ in range(count)]
