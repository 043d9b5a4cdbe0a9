"""Batch construction kernels — the paper's sequences over whole node sets.

The scalar functions of :mod:`repro.core.basic` (``t_n``, ``f_L``, ``g_L``,
``r_L``, ``h_L``) evaluate one node at a time; building a survey-scale
embedding that way costs one Python call per guest node.  Every one of those
definitions is plain arithmetic on digit vectors (Definitions 7–9, 14–15,
20, 22 of the paper), so this module provides them over flat NumPy ``int64``
index arrays — the construction-side counterpart of the cost-side kernels in
:mod:`repro.numbering.arrays`:

* :func:`t_indices` — ``t_n`` over an index array (Definition 14);
* :func:`f_digits` / :func:`g_digits` / :func:`r_digits` / :func:`h_digits` —
  the embedding sequences as ``(n, d)`` digit matrices;
* :func:`sequence_table` — one of ``t_n``/``f_L``/``g_L``/``h_L`` over
  ``0 .. n-1``, memoized read-only by radix base;
* :func:`placed_weights` / :func:`coordinate_tables` — host digit weights
  under a coordinate permutation, and the tables of coordinate-wise maps;
* :func:`outer_sum` — the apply step of a separable construction: the flat
  host ranks ``Σ_k table_k[x_k]`` over every guest node ``x``.

Every same-size construction of the paper except the square chains is a
product map: guest coordinate ``x_k`` contributes ``table_k[x_k]`` to the
host rank, independently of the other coordinates.  The builders of
:mod:`repro.core` therefore compute one short ``int64`` table per guest
dimension (a :func:`sequence_table` times host digit weights, which makes
``T_L`` and the ``U_V`` collapse of Definition 38 per-coordinate scalings),
keep them concatenated in dimension order ("packed"), and expand them with
:func:`outer_sum`.

Each kernel is cross-checked element-for-element against its scalar
counterpart (``tests/test_numbering_batch.py``), and every construction
built from them against the per-node builders
(``tests/test_construction_differential.py``); the scalar loops remain the
reference implementation.  All kernels assume their index arguments are in
range (the callers iterate ``0..n-1``); only shapes are validated.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from ..utils.listops import product
from .arrays import DIGIT_TABLE_RETAIN_NODES, digit_weights

__all__ = [
    "t_indices",
    "f_digits",
    "g_digits",
    "r_digits",
    "h_digits",
    "sequence_table",
    "placed_weights",
    "coordinate_tables",
    "outer_sum",
]


def t_indices(n: int, indices):
    """Vectorized ``t_n`` (Definition 14) over an array of values in ``[n]``.

    ``t_n(x) = 2x`` for ``x`` in the first (rounded-up) half and
    ``2(n - x) - 1`` afterwards; the threshold ``⌊(n-1)/2⌋`` covers both the
    even and the odd case of the scalar definition.
    """
    if n < 1:
        raise ValueError("n must be positive")
    x = np.asarray(indices, dtype=np.int64)
    return np.where(x <= (n - 1) // 2, 2 * x, 2 * (n - x) - 1)


def f_digits(shape: Sequence[int], indices):
    """Vectorized ``f_L`` (Definition 9) as an ``(n, d)`` digit matrix.

    Per digit ``j`` (1-based): with ``x̂_j`` the natural radix-L digit, the
    reflected digit is ``x̂_j`` when the segment number ``⌊x / w_{j-1}⌋`` is
    even and ``l_j - x̂_j - 1`` when it is odd — the whole-column form of
    :func:`repro.numbering.graycode.reflected_digit`.
    """
    shape = tuple(shape)
    x = np.asarray(indices, dtype=np.int64)
    radices = np.asarray(shape, dtype=np.int64)
    weights = digit_weights(shape)  # w_1 .. w_d
    previous = np.concatenate(([product(shape)], weights[:-1]))  # w_0 .. w_{d-1}
    natural = (x[..., None] // weights) % radices
    segment = x[..., None] // previous
    return np.where(segment % 2 == 0, natural, radices - 1 - natural)


def g_digits(shape: Sequence[int], indices):
    """Vectorized ``g_L = f_L ∘ t_n`` (Definition 15) as a digit matrix."""
    return f_digits(shape, t_indices(product(tuple(shape)), indices))


def r_digits(shape: Sequence[int], indices):
    """Vectorized ``r_L`` (Definition 20) for a 2-dimensional base ``(l_1, l_2)``.

    First ``l_1`` elements walk down the first column; the rest snake through
    the remaining ``(l_1, l_2 - 1)`` sub-mesh with ``f`` (single remaining
    column filled bottom-to-top when ``l_2 = 2``).
    """
    shape = tuple(shape)
    if len(shape) != 2:
        raise ValueError("r_L is only defined for 2-dimensional radix-bases")
    l1, l2 = shape
    x = np.asarray(indices, dtype=np.int64)
    head = x < l1
    if l2 > 2:
        # Clip the sub-mesh argument for head rows; their values are discarded.
        inner = f_digits((l1, l2 - 1), np.maximum(x - l1, 0))
        first = np.where(head, l1 - 1 - x, inner[..., 0])
        second = np.where(head, 0, inner[..., 1] + 1)
    else:
        first = np.where(head, l1 - 1 - x, x - l1)
        second = np.where(head, 0, 1)
    return np.stack([first, second], axis=-1)


def h_digits(shape: Sequence[int], indices):
    """Vectorized ``h_L`` (Definition 22) as an ``(n, d)`` digit matrix.

    ``d = 1`` is the identity and ``d = 2`` is ``r_L``; for ``d ≥ 3`` the
    forward pass fills ``l_1 l_2 - 1`` nodes of each ``(l_1, l_2)``-plane
    (alternating direction between planes ordered by ``f`` over the tail
    base) and the backward pass fills the remaining node of each plane.
    """
    shape = tuple(shape)
    x = np.asarray(indices, dtype=np.int64)
    d = len(shape)
    if d == 1:
        return x[..., None].copy()
    if d == 2:
        return r_digits(shape, x)
    l1, l2 = shape[0], shape[1]
    tail = shape[2:]
    m = product(tail)
    n = m * l1 * l2
    plane_fill = l1 * l2 - 1
    a = x // plane_fill
    b = x % plane_fill
    forward = x < m * plane_fill
    plane_arg = np.where(
        forward, np.where(a % 2 == 0, b, l1 * l2 - b - 2), plane_fill
    )
    tail_arg = np.where(forward, a, n - x - 1)
    return np.concatenate(
        [r_digits((l1, l2), plane_arg), f_digits(tail, tail_arg)], axis=-1
    )


#: Distinct ``(sequence, radix base)`` keys the :func:`sequence_table` memo
#: holds.  The exhaustive space up to 64 nodes has 426 shapes.
SEQUENCE_CACHE_SIZE = 2048

_SEQUENCE_DIGITS = {"f": f_digits, "g": g_digits, "h": h_digits}


def _build_sequence_table(name: str, shape):
    ranks = np.arange(math.prod(shape), dtype=np.int64)
    if name == "t":
        (n,) = shape
        table = t_indices(n, ranks)
    else:
        table = _SEQUENCE_DIGITS[name](shape, ranks)
    table.setflags(write=False)
    return table


_retained_sequence_table = functools.lru_cache(maxsize=SEQUENCE_CACHE_SIZE)(
    _build_sequence_table
)


def sequence_table(name: str, shape: Sequence[int]):
    """A whole embedding sequence over ``0 .. n-1``, read-only.

    ``name`` is ``"t"`` (``t_n`` of Definition 14 for ``shape == (n,)``; an
    ``(n,)`` array) or one of ``"f"``, ``"g"``, ``"h"`` (Definitions 9, 15
    and 22; an ``(n, d)`` digit matrix of the radix base ``shape``).
    Memoized by ``(name, tuple(shape))`` up to
    :data:`~repro.numbering.arrays.DIGIT_TABLE_RETAIN_NODES` nodes, like
    the digit tables.
    """
    shape = tuple(shape)
    if name not in _SEQUENCE_DIGITS and name != "t":
        raise ValueError(f"unknown sequence {name!r}: expected 't', 'f', 'g' or 'h'")
    if math.prod(shape) > DIGIT_TABLE_RETAIN_NODES:
        return _build_sequence_table(name, shape)
    return _retained_sequence_table(name, shape)


def placed_weights(permutation: Sequence[int], shape: Sequence[int]):
    """Host digit weight of every source column under a column permutation.

    Host column ``j`` takes source column ``permutation[j]`` (the
    :func:`~repro.utils.listops.apply_permutation` convention), so source
    column ``permutation[j]`` carries the weight ``w_j`` of the radix base
    ``shape``: ``digits[:, permutation] @ digit_weights(shape)`` equals
    ``digits @ placed_weights(permutation, shape)``.
    """
    weights = np.empty(len(permutation), dtype=np.int64)
    weights[list(permutation)] = digit_weights(shape)
    return weights


def coordinate_tables(lengths: Sequence[int], weights, *, relabel: bool = False):
    """The per-coordinate host-rank tables of a coordinate-wise map, packed.

    Table ``k`` is ``w_k · s(x)`` for ``x`` in ``0 .. l_k - 1``, where ``s``
    is ``t_{l_k}`` when ``relabel`` is set (the ``T_L`` relabelling of
    Definition 35) and the identity otherwise.  The tables are returned
    concatenated in coordinate order: one ``int64`` array of ``Σ l_k``
    entries.
    """
    if relabel:
        values = [sequence_table("t", (length,)) for length in lengths]
    else:
        values = [np.arange(length, dtype=np.int64) for length in lengths]
    scale = np.repeat(np.asarray(weights, dtype=np.int64), lengths)
    return np.concatenate(values) * scale


def outer_sum(tables: Sequence):
    """``out[rank(x)] = Σ_k tables[k][x_k]`` over the C-order grid of the tables.

    ``tables[k]`` has one entry per value of coordinate ``k``; the result is
    a fresh ``int64`` array of ``Π len(tables[k])`` entries indexed by the
    natural-order (first coordinate most significant) rank of ``x``.  With
    ``tables[k]`` holding a separable construction's contribution of guest
    coordinate ``k`` to the host rank, this is the construction's host-index
    array.
    """
    if not len(tables):
        raise ValueError("outer_sum needs at least one table")
    out = np.array(tables[0], dtype=np.int64)
    for table in tables[1:]:
        out = np.add.outer(out, table).ravel()
    return out
