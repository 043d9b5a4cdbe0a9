"""Shape-keyed construction plans: the *plan* half of :func:`repro.core.dispatch.embed`.

Which of the paper's constructions covers a pair of graphs, and with which
expansion factor, reduction or permutation, depends on the two shapes
alone; the graph kinds (torus or mesh) only pick a variant of it — ``f``,
``g`` or ``h``, with or without ``T``.  :func:`plan_for` therefore runs the
decision procedure and the factor searches once per ``(guest shape, host
shape)`` and memoizes the result in a bounded process-wide table:

* the strategy *family* (what :func:`~repro.core.dispatch.strategy_for`
  reports) and the *route* it found — the permutation, expansion factor or
  reduction factor — or, for an unsupported pair, the error message;
* per kind variant, filled on first use: the strategy label, predicted
  dilation and notes, plus the variant's per-guest-dimension host-rank
  tables packed into one read-only ``int64`` array.

The *apply* step expands those tables with
:func:`~repro.numbering.batch.outer_sum`: every same-size construction
except the square chains is a product map, so the host rank of guest node
``x`` is ``Σ_k table_k[x_k]``.  A plan holds ``Σ guest sides`` integers per
variant and never an ``n``-node array, except for a 1-dimensional guest,
whose single table has ``n`` entries.  The subshape and square-chain
families are not separable: their plans record only the family, and they
run their builders.  The loop backend follows the same route through the
per-node reference maps.
"""

from __future__ import annotations

import functools
import math

from ..exceptions import ShapeMismatchError, UnsupportedEmbeddingError
from ..graphs.base import CartesianGraph
from ..runtime.context import use_array_path
from ..types import Shape
from ..utils.listops import find_permutation
from .basic import line_construction, ring_construction
from .embedding import Construction, Embedding
from .expansion import find_expansion_factor, find_unit_dilation_torus_factor
from .increasing import increasing_construction, wants_unit_torus_factor
from .lowering import lowering_general_construction, lowering_simple_construction
from .reduction import find_general_reduction, find_simple_reduction
from .same_shape import permuted_construction, same_shape_construction
from .square import embed_square
from .subshape import embed_subshape, find_subshape, subshape_inner_shape

__all__ = ["ConstructionPlan", "plan_for", "PLAN_CACHE_SIZE"]

#: Distinct ``(guest shape, host shape)`` pairs the :func:`plan_for` memo
#: holds (least recently used evicted).  The same-size space up to 64 nodes
#: has about 8,000 shape pairs.
PLAN_CACHE_SIZE = 8192

#: Families whose constructions are not separable: they run their builders.
_BUILDER_FAMILIES = frozenset({"subshape", "square-increasing", "square-lowering"})


class ConstructionPlan:
    """The shape-only part of an ``embed`` call; see the module docstring.

    ``variants`` has one slot per ``(guest is torus, host is torus)``
    combination, each ``None`` until first applied, then a
    ``(strategy, predicted_dilation, notes, packed_tables)`` tuple.  Filling
    a slot is idempotent (the variant is a pure function of the shapes and
    kinds), so two threads applying the same plan at once are harmless.
    """

    __slots__ = ("family", "route", "message", "variants")

    def __init__(self, family: str, route: object = None, *, message: str = ""):
        self.family = family
        self.route = route
        self.message = message
        self.variants = [None, None, None, None]

    def construction(self, guest: CartesianGraph, host: CartesianGraph) -> Construction:
        """The separable construction of this plan's family for the two kinds."""
        family, route = self.family, self.route
        if family == "same-shape":
            return same_shape_construction(guest, host)
        if family == "permute-dimensions":
            return permuted_construction(guest, host, route)
        if family == "basic":
            return (line_construction if guest.is_mesh else ring_construction)(host)
        if family == "increasing":
            factor, unit_torus_factor = route, False
            if wants_unit_torus_factor(guest, host):
                unit = find_unit_dilation_torus_factor(guest.shape, host.shape)
                if unit is not None:
                    factor, unit_torus_factor = unit, True
            return increasing_construction(guest, host, factor, unit_torus_factor)
        if family == "lowering-simple":
            return lowering_simple_construction(guest, host, route)
        if family == "lowering-general":
            return lowering_general_construction(guest, host, route)
        raise ValueError(f"family {family!r} has no separable construction")

    def build(self, guest: CartesianGraph, host: CartesianGraph) -> Embedding:
        """Apply the plan to a guest/host pair of its shapes."""
        family = self.family
        if family == "unsupported":
            raise UnsupportedEmbeddingError(self.message)
        if family in _BUILDER_FAMILIES:
            if family == "subshape":
                return embed_subshape(guest, host)
            return embed_square(guest, host)
        if not use_array_path():
            return self.construction(guest, host).build(guest, host)
        slot = 2 * guest.is_torus + host.is_torus
        variant = self.variants[slot]
        if variant is None:
            construction = self.construction(guest, host)
            packed = construction.tables()
            packed.setflags(write=False)
            variant = (
                construction.strategy,
                construction.predicted_dilation,
                construction.notes,
                packed,
            )
            self.variants[slot] = variant
        strategy, predicted, notes, packed = variant
        return Embedding.from_tables(
            guest,
            host,
            packed,
            strategy=strategy,
            predicted_dilation=predicted,
            notes=notes,
        )


def _unsupported(message: str) -> ConstructionPlan:
    return ConstructionPlan("unsupported", message=message)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def plan_for(guest_shape: Shape, host_shape: Shape) -> ConstructionPlan:
    """The memoized :class:`ConstructionPlan` of a pair of shape tuples.

    This is the decision procedure of :mod:`repro.core.dispatch`, run on
    shapes.

    Raises
    ------
    ShapeMismatchError
        When the guest has more nodes than the host.
    """
    guest_size = math.prod(guest_shape)
    host_size = math.prod(host_shape)
    if guest_size > host_size:
        raise ShapeMismatchError(
            f"guest has {guest_size} nodes but host has {host_size}; "
            "the guest must not be larger than the host"
        )
    if guest_size < host_size:
        sub = find_subshape(guest_size, host_shape)
        if sub is None:
            return _unsupported(
                f"no sub-box of host shape {host_shape} has exactly {guest_size} "
                "nodes; the guest cannot be embedded as a subshape"
            )
        inner = plan_for(guest_shape, subshape_inner_shape(sub))
        if inner.family == "unsupported":
            return inner
        return ConstructionPlan("subshape")

    if guest_shape == host_shape:
        return ConstructionPlan("same-shape")
    permutation = find_permutation(guest_shape, host_shape)
    if permutation is not None:
        return ConstructionPlan("permute-dimensions", permutation)
    if len(guest_shape) == 1:
        return ConstructionPlan("basic")
    square = len(set(guest_shape)) == 1 and len(set(host_shape)) == 1
    if len(guest_shape) < len(host_shape):
        factor = find_expansion_factor(guest_shape, host_shape)
        if factor is not None:
            return ConstructionPlan("increasing", factor)
        if square:
            return ConstructionPlan("square-increasing")
        return _unsupported(
            f"{host_shape} is not an expansion of {guest_shape} and the graphs are "
            "not both square; the paper does not provide an embedding for this pair"
        )
    simple = find_simple_reduction(guest_shape, host_shape)
    if simple is not None:
        return ConstructionPlan("lowering-simple", simple)
    general = find_general_reduction(guest_shape, host_shape)
    if general is not None:
        return ConstructionPlan("lowering-general", general)
    if square:
        return ConstructionPlan("square-lowering")
    return _unsupported(
        f"{host_shape} is not a reduction of {guest_shape} and the graphs are "
        "not both square; the paper does not provide an embedding for this pair"
    )
