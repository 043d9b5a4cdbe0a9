"""Explicit shortest paths in toruses and meshes.

Shortest paths are produced by *dimension-ordered routing*: correct the
coordinate of dimension 1 first, then dimension 2, and so on.  In a mesh the
correction always moves monotonically towards the target coordinate; in a
torus it moves in whichever direction is shorter around the ring of that
dimension (ties broken towards increasing coordinates).  The resulting path
length equals the analytic distance of Lemmas 5 and 6, which the test suite
verifies, and the same routing discipline is reused by the network simulator
(:mod:`repro.netsim.routing`).
"""

from __future__ import annotations

from typing import List, Sequence

from ..exceptions import InvalidShapeError
from ..types import Node
from .base import CartesianGraph

__all__ = ["dimension_order_path", "shortest_path"]


def _ring_step_direction(source: int, target: int, length: int, wrap: bool) -> int:
    """Direction (+1/-1) of one step from ``source`` towards ``target``.

    For meshes (``wrap=False``) the direction is simply the sign of the
    difference.  For toruses the shorter way around is chosen; on a tie the
    increasing direction is used so that routing is deterministic.
    """
    if source == target:
        return 0
    if not wrap:
        return 1 if target > source else -1
    forward = (target - source) % length
    backward = (source - target) % length
    if forward <= backward:
        return +1
    return -1


def dimension_order_path(
    graph: CartesianGraph,
    source: Sequence[int],
    target: Sequence[int],
) -> List[Node]:
    """A shortest path from ``source`` to ``target`` using dimension-ordered routing.

    The returned list starts with ``source`` and ends with ``target``; its
    length minus one equals ``graph.distance(source, target)``.
    """
    source = tuple(source)
    target = tuple(target)
    if not (graph.contains(source) and graph.contains(target)):
        raise InvalidShapeError("path endpoints must be nodes of the graph")
    path: List[Node] = [source]
    current = list(source)
    for dim, length in enumerate(graph.shape):
        while current[dim] != target[dim]:
            direction = _ring_step_direction(
                current[dim], target[dim], length, graph.is_torus
            )
            if graph.is_torus:
                current[dim] = (current[dim] + direction) % length
            else:
                current[dim] = current[dim] + direction
            path.append(tuple(current))
    return path


def shortest_path(
    graph: CartesianGraph, source: Sequence[int], target: Sequence[int]
) -> List[Node]:
    """Alias of :func:`dimension_order_path` (the canonical shortest path)."""
    return dimension_order_path(graph, source, target)
