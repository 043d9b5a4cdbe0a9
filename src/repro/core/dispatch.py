"""Automatic strategy selection: ``embed(guest, host)``.

The paper's results are organized by the relationship between the two
shapes; :func:`repro.core.plan.plan_for` encodes the decision procedure, once
per pair of shapes, so that a caller can simply ask for an embedding and get
the best construction the paper offers:

0. guest strictly smaller than host → an injective subshape embedding
   into an equal-size sub-box of the host (:mod:`repro.core.subshape`);
1. equal shapes → Lemma 36 (identity or ``T_L``);
2. shapes that are permutations of each other → permute dimensions
   (plus ``T`` for a torus guest in a mesh host);
3. 1-dimensional guest (line or ring) → Section 3 basic embeddings;
4. 1-dimensional host → the simple reduction with a single group (always
   applies), Theorem 39;
5. higher-dimensional host satisfying the expansion condition → Theorem 32;
6. lower-dimensional host satisfying a reduction condition → Theorem 39 / 43;
7. both graphs square → the Section 5 chains (Theorems 48, 51, 52, 53);
8. otherwise → :class:`~repro.exceptions.UnsupportedEmbeddingError` (the
   paper does not cover the pair).

:func:`embed` applies the pair's plan; :func:`strategy_for` reports its
family without building anything.
"""

from __future__ import annotations

from ..exceptions import ShapeMismatchError, UnsupportedEmbeddingError
from ..graphs.base import CartesianGraph
from ..runtime.cache import embedding_cache_key
from ..runtime.context import current
from .embedding import Embedding
from .plan import plan_for

__all__ = ["embed", "strategy_for", "strategy_family"]


def strategy_for(guest: CartesianGraph, host: CartesianGraph) -> str:
    """The strategy family :func:`embed` would use, without building the mapping.

    Useful for experiment sweeps that only need to know which theorem covers
    a pair of shapes: it is the family of the pair's memoized plan
    (:func:`repro.core.plan.plan_for`).
    """
    return plan_for(guest.shape, host.shape).family


#: Ordered (prefix, family) pairs mapping an ``Embedding.strategy`` name to
#: the :func:`strategy_for` family that produces it.  Order matters: the
#: simple-reduction prefix must be tried before the general ``lowering:``
#: one, and the ``square-*`` prefixes before the plain ones they extend.
_STRATEGY_FAMILIES = (
    ("subshape:", "subshape"),
    ("identity", "same-shape"),
    ("same-shape", "same-shape"),
    ("permute-dimensions", "permute-dimensions"),
    ("line:", "basic"),
    ("ring:", "basic"),
    ("square-lowering:", "square-lowering"),
    ("square-increasing:", "square-increasing"),
    ("lowering:U_V", "lowering-simple"),
    ("lowering:", "lowering-general"),
    ("increasing:", "increasing"),
)


def strategy_family(strategy: str) -> str:
    """The :func:`strategy_for` family that produces a given strategy name.

    ``embed`` labels embeddings with the concrete construction
    (``"increasing:H_V"``, ``"lowering:U_V∘T∘τ"``, ...) while
    :func:`strategy_for` predicts only the family (``"increasing"``,
    ``"lowering-simple"``, ...); this maps the former onto the latter so the
    two code paths can be cross-checked.  Unrecognized names (custom or
    composed strategies) map to ``"custom"``.
    """
    for prefix, family in _STRATEGY_FAMILIES:
        if strategy.startswith(prefix):
            return family
    return "custom"


def embed(guest: CartesianGraph, host: CartesianGraph) -> Embedding:
    """Embed ``guest`` in ``host`` using the paper's best applicable construction.

    Two steps: the pair's shape-keyed plan (:func:`repro.core.plan.plan_for`:
    family, factor searches, per-kind labels and tables, all memoized), then
    its application to the two graphs.  The construction backend is resolved
    from the ambient execution context (:mod:`repro.runtime.context`): the
    array backend expands the plan's per-dimension host-rank tables with one
    :func:`~repro.numbering.batch.outer_sum` (never touching per-node
    Python); ``use_context(backend="loop")`` runs the per-node reference
    maps of the same constructions.  Both backends produce node-for-node
    identical embeddings — the differential test harness asserts this for
    every strategy this dispatcher can select.

    When the context carries a construction cache
    (:class:`~repro.runtime.cache.ConstructionCache`), the result is
    memoized under ``(strategy family, guest kind+shape, host kind+shape)``
    — the constructions are pure functions of that key, so a warm cache
    skips planning and construction entirely (see
    ``benchmarks/bench_runtime_cache.py``).

    Raises
    ------
    ShapeMismatchError
        When the guest has more nodes than the host.
    UnsupportedEmbeddingError
        When none of the paper's conditions (expansion, reduction, square,
        basic, same-shape) applies to the pair of shapes.
    """
    cache = current().cache
    if cache is None:
        return plan_for(guest.shape, host.shape).build(guest, host)
    if guest.size > host.size:
        raise ShapeMismatchError(
            f"guest has {guest.size} nodes but host has {host.size}; "
            "the guest must not be larger than the host"
        )
    memo = cache.fetch_family(guest, host)
    if memo is None:
        # Cold pair: memoize the family with the construction, and for an
        # unsupported pair the error message, so a warm sweep skips the
        # failed searches entirely.
        cache.misses += 1
        plan = plan_for(guest.shape, host.shape)
        try:
            embedding = plan.build(guest, host)
        except UnsupportedEmbeddingError as error:
            cache.store_family(guest, host, "unsupported", error=str(error))
            raise
        cache.store_family(guest, host, plan.family)
        cache.store_embedding(embedding_cache_key(plan.family, guest, host), embedding)
        return embedding
    family, unsupported_message = memo
    if family == "unsupported":
        raise UnsupportedEmbeddingError(unsupported_message)
    key = embedding_cache_key(family, guest, host)
    cached = cache.fetch_embedding(key, guest, host)
    if cached is not None:
        return cached
    # Family memo without its construction (e.g. a partially merged warm
    # start): rebuild and fill the gap.
    embedding = plan_for(guest.shape, host.shape).build(guest, host)
    cache.store_embedding(key, embedding)
    return embedding
