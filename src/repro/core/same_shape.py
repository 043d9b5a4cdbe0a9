"""Embeddings between a torus and a mesh of the same shape (Lemma 36).

Given two graphs of the same shape ``L = (l_1, ..., l_d)``:

* if the guest is a mesh, or both graphs are toruses, or both are
  hypercubes, the identity map is an embedding with dilation 1;
* if the guest is a torus and the host is a mesh (and they are not
  hypercubes) the identity fails (wrap-around edges stretch across the whole
  mesh); the paper's ``T_L`` — applying ``t_{l_i}`` to every coordinate —
  achieves the optimal dilation 2.

``T_L`` works because ``t_l`` (Definition 14) is a cyclic sequence of
``0..l-1`` with spread 2: torus neighbours in any dimension differ by 1
modulo ``l``, so their ``t``-relabelled coordinates differ by at most 2.

``T_L`` and the permutations of :func:`permuted_construction` act on each
coordinate alone, so the array backend expands one host-rank table per
guest dimension (:func:`repro.numbering.batch.coordinate_tables`); the loop
backend is the retained per-node reference.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..exceptions import ShapeMismatchError
from ..graphs.base import CartesianGraph
from ..numbering.batch import coordinate_tables, placed_weights
from ..types import Node
from ..utils.listops import apply_permutation
from .basic import t_value
from .embedding import Construction, Embedding

__all__ = [
    "t_vector_value",
    "same_shape_embedding",
    "same_shape_construction",
    "permuted_construction",
    "torus_in_mesh_same_shape",
]


def t_vector_value(shape: Sequence[int], node: Sequence[int]) -> Node:
    """``T_L((x_1, ..., x_d)) = (t_{l_1}(x_1), ..., t_{l_d}(x_d))`` (Definition 35)."""
    if len(shape) != len(node):
        raise ValueError("shape and node must have the same dimension")
    return tuple(t_value(length, coordinate) for length, coordinate in zip(shape, node))


def _coordinate_construction(
    guest: CartesianGraph,
    host: CartesianGraph,
    permutation: Optional[Sequence[int]],
    relabel: bool,
) -> Construction:
    """``π``, or ``π ∘ T_L`` when ``relabel``: every coordinate moves alone.

    ``permutation=None`` is the same-shape case (``π`` the identity).
    """
    shape = guest.shape
    same_shape = permutation is None
    permutation = tuple(range(len(shape))) if same_shape else tuple(permutation)
    notes = {} if same_shape else {"permutation": permutation}
    if relabel:
        # Dilation 2 is exact unless a length is 2; then it is only a bound.
        notes["dilation_is_upper_bound"] = min(shape) <= 2
        strategy = "same-shape:T_L" if same_shape else "permute-dimensions∘T_L"
        predicted = 2
    else:
        strategy = "identity" if same_shape else "permute-dimensions"
        predicted = 1

    def tables():
        weights = placed_weights(permutation, host.shape)
        return coordinate_tables(shape, weights, relabel=relabel)

    def node_map(node: Node) -> Node:
        if relabel:
            node = t_vector_value(shape, node)
        return apply_permutation(permutation, node)

    return Construction(strategy, predicted, notes, tables, node_map)


def _needs_relabel(guest: CartesianGraph, host: CartesianGraph) -> bool:
    """Lemma 36: only a non-hypercube torus guest in a mesh host needs ``T``."""
    return guest.is_torus and host.is_mesh and not guest.is_hypercube


def same_shape_construction(
    guest: CartesianGraph, host: CartesianGraph
) -> Construction:
    """Lemma 36 for two graphs of one shape: identity, or ``T_L`` when needed."""
    return _coordinate_construction(guest, host, None, _needs_relabel(guest, host))


def permuted_construction(
    guest: CartesianGraph, host: CartesianGraph, permutation: Sequence[int]
) -> Construction:
    """Shapes that are permutations of each other: ``π``, or ``π ∘ T_L`` when needed.

    ``permutation`` satisfies ``apply_permutation(permutation, guest.shape)
    == host.shape``.
    """
    relabel = _needs_relabel(guest, host)
    return _coordinate_construction(guest, host, permutation, relabel)


def torus_in_mesh_same_shape(guest: CartesianGraph, host: CartesianGraph) -> Embedding:
    """The ``T_L`` embedding of an ``L``-torus in an ``L``-mesh (dilation 2)."""
    if guest.shape != host.shape:
        raise ShapeMismatchError(
            f"same-shape embedding requires equal shapes, got {guest.shape} and {host.shape}"
        )
    return _coordinate_construction(guest, host, None, True).build(guest, host)


def same_shape_embedding(guest: CartesianGraph, host: CartesianGraph) -> Embedding:
    """The optimal same-shape embedding of Lemma 36.

    Identity (dilation 1) except for a non-hypercube torus guest in a mesh
    host, which uses ``T_L`` (dilation 2).
    """
    if guest.shape != host.shape:
        raise ShapeMismatchError(
            f"same-shape embedding requires equal shapes, got {guest.shape} and {host.shape}"
        )
    return same_shape_construction(guest, host).build(guest, host)
