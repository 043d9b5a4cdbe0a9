"""Dimension-ordered (e-cube) routing of messages, with a fault fallback.

Every message follows the dimension-ordered shortest path between its source
and destination processors (:func:`repro.graphs.paths.dimension_order_path`),
the standard deterministic, deadlock-free routing discipline on meshes and
toruses.  The number of links on the route equals the graph distance, so the
embedding's dilation is exactly the maximum route length of neighbour-exchange
traffic.

On a degraded host (``faults`` given), a message keeps its dimension-ordered
route while that route survives; a route cut by a dead link or node falls
back to the deterministic shortest BFS detour over the surviving links
(:meth:`~repro.graphs.faults.Faults.shortest_detour`) — the standard
"fault-tolerant e-cube with table fallback" discipline.

:func:`route_message` builds one message's node-tuple route at a time.  The
simulator routes whole phases with the batched kernels of
:mod:`repro.netsim.kernels`; this module is their independent oracle.
"""

from __future__ import annotations

from typing import List, Optional

from ..exceptions import SimulationError
from ..graphs.faults import Faults
from ..graphs.paths import dimension_order_path
from ..types import Node
from .network import DirectedLink, HostNetwork

__all__ = ["route_message"]


def _detour_links(network: HostNetwork, faults: Faults, source: Node, destination: Node):
    """The BFS-detour route as node-tuple links."""
    topology = network.topology
    ranks = faults.shortest_detour(
        topology.node_index(source), topology.node_index(destination)
    )
    if ranks is None:
        raise SimulationError(
            f"no surviving route from {source!r} to {destination!r}; "
            "the faults disconnect the endpoints"
        )
    nodes = [topology.index_node(rank) for rank in ranks]
    return [(nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1)]


def route_message(
    network: HostNetwork,
    source: Node,
    destination: Node,
    *,
    faults: Optional[Faults] = None,
) -> List[DirectedLink]:
    """The ordered list of directed links a message traverses.

    An empty list means source and destination are the same processor (the
    message needs no network resources).

    With ``faults``, a dimension-ordered route that only uses surviving
    links is kept unchanged; a cut route is replaced by the BFS detour.  A
    dead endpoint raises :class:`~repro.exceptions.SimulationError`.
    """
    network.validate_processor(source)
    network.validate_processor(destination)
    topology = network.topology
    if faults is not None:
        if not faults.node_alive(topology.node_index(source)) or not faults.node_alive(
            topology.node_index(destination)
        ):
            raise SimulationError(
                f"a message endpoint ({source!r} or {destination!r}) is a dead node"
            )
    path = dimension_order_path(topology, source, destination)
    links = [(path[i], path[i + 1]) for i in range(len(path) - 1)]
    if faults is None:
        return links
    for u, v in links:
        if not faults.link_alive(topology.node_index(u), topology.node_index(v)):
            return _detour_links(network, faults, source, destination)
    return links
