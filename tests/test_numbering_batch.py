"""Differential tests for the batch construction kernels.

Every kernel in :mod:`repro.numbering.batch` is checked element-for-element
against its scalar reference in :mod:`repro.core.basic` /
:mod:`repro.core.same_shape` / :mod:`repro.core.lowering` — exhaustively on
fixed shapes and on random shapes via hypothesis.  The separable tables are
checked through :func:`~repro.numbering.batch.outer_sum`: ``T_L`` and the
``U_V`` collapse must give the ranks of the scalar maps.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.basic import f_value, g_value, h_value, r_value, t_value
from repro.core.embedding import Embedding
from repro.core.lowering import U_value, lowering_simple_construction
from repro.core.reduction import SimpleReductionFactor
from repro.core.same_shape import t_vector_value
from repro.graphs.base import Mesh
from repro.numbering.arrays import digit_weights, digits_to_indices
from repro.numbering.batch import (
    coordinate_tables,
    f_digits,
    g_digits,
    h_digits,
    outer_sum,
    placed_weights,
    r_digits,
    sequence_table,
    t_indices,
)

from .strategies import small_shapes

SHAPES = [
    (2,),
    (5,),
    (2, 2),
    (4, 2),
    (3, 5),
    (4, 2, 3),
    (2, 3, 2, 5),
    (3, 3, 3),
    (2, 2, 2, 2, 2),
    (6, 2),
    (7, 2, 2),
]


@pytest.mark.parametrize("n", range(1, 12))
def test_t_indices_matches_t_value(n):
    assert t_indices(n, np.arange(n)).tolist() == [t_value(n, x) for x in range(n)]


@pytest.mark.parametrize("shape", SHAPES)
def test_f_digits_matches_f_value(shape):
    n = math.prod(shape)
    got = f_digits(shape, np.arange(n))
    assert got.tolist() == [list(f_value(shape, x)) for x in range(n)]
    assert np.array_equal(sequence_table("f", shape), got)


@pytest.mark.parametrize("shape", SHAPES)
def test_g_digits_matches_g_value(shape):
    n = math.prod(shape)
    assert g_digits(shape, np.arange(n)).tolist() == [
        list(g_value(shape, x)) for x in range(n)
    ]
    assert sequence_table("g", shape).tolist() == [
        list(g_value(shape, x)) for x in range(n)
    ]


@pytest.mark.parametrize("shape", [s for s in SHAPES if len(s) == 2])
def test_r_digits_matches_r_value(shape):
    n = math.prod(shape)
    assert r_digits(shape, np.arange(n)).tolist() == [
        list(r_value(shape, x)) for x in range(n)
    ]


@pytest.mark.parametrize("shape", SHAPES)
def test_h_digits_matches_h_value(shape):
    n = math.prod(shape)
    assert h_digits(shape, np.arange(n)).tolist() == [
        list(h_value(shape, x)) for x in range(n)
    ]
    assert sequence_table("h", shape).dtype == np.int64


def _ranks(nodes, shape):
    return digits_to_indices(np.asarray(nodes, dtype=np.int64), shape).tolist()


def _outer_sum_of_packed(packed, shape):
    starts = np.cumsum((0,) + tuple(shape))
    return outer_sum([packed[a:b] for a, b in zip(starts, starts[1:])]).tolist()


@pytest.mark.parametrize("shape", [s for s in SHAPES if len(s) >= 2])
def test_coordinate_tables_match_t_vector_value(shape):
    nodes = list(np.ndindex(*shape))  # natural order
    relabelled = coordinate_tables(shape, digit_weights(shape), relabel=True)
    assert _outer_sum_of_packed(relabelled, shape) == _ranks(
        [t_vector_value(shape, node) for node in nodes], shape
    )
    identity = coordinate_tables(shape, digit_weights(shape))
    assert _outer_sum_of_packed(identity, shape) == list(range(math.prod(shape)))


@pytest.mark.parametrize("permutation", [(1, 0, 2), (2, 0, 1), (0, 1, 2)])
def test_placed_weights_match_column_permutation(permutation):
    shape = (2, 3, 4)
    target = tuple(shape[p] for p in permutation)
    digits = np.asarray(list(np.ndindex(*shape)), dtype=np.int64)
    expected = digits_to_indices(digits[:, list(permutation)], target)
    assert np.array_equal(digits @ placed_weights(permutation, target), expected)


@pytest.mark.parametrize(
    "groups",
    [((4, 2), (3, 3)), ((2, 2, 2), (5,)), ((6,), (2, 2)), ((3,), (3,), (3,))],
)
def test_lowering_tables_match_U_value(groups):
    factor = SimpleReductionFactor(tuple(groups))
    shape = factor.flattened
    guest, host = Mesh(shape), Mesh(factor.host_shape)
    construction = lowering_simple_construction(guest, host, factor)
    embedding = Embedding.from_tables(guest, host, construction.tables())
    nodes = list(np.ndindex(*shape))
    assert embedding.host_index_array().tolist() == _ranks(
        [U_value(factor, node) for node in nodes], factor.host_shape
    )


@settings(max_examples=40, deadline=None)
@given(shape=small_shapes())
def test_batch_sequences_match_scalar_on_random_shapes(shape):
    n = math.prod(shape)
    x = np.arange(n)
    assert f_digits(shape, x).tolist() == [list(f_value(shape, i)) for i in range(n)]
    assert g_digits(shape, x).tolist() == [list(g_value(shape, i)) for i in range(n)]
    assert h_digits(shape, x).tolist() == [list(h_value(shape, i)) for i in range(n)]


@settings(max_examples=40, deadline=None)
@given(shape=small_shapes())
def test_batch_sequences_are_permutations(shape):
    """Every sequence table is a bijection of [n] — the injectivity invariant."""
    n = math.prod(shape)
    for name in ("f", "g", "h"):
        ranks = sequence_table(name, shape) @ digit_weights(shape)
        assert sorted(ranks.tolist()) == list(range(n))


def test_kernel_shape_validation():
    with pytest.raises(ValueError):
        r_digits((2, 2, 2), np.arange(8))
    with pytest.raises(ValueError):
        sequence_table("r", (2, 2))
    with pytest.raises(ValueError):
        outer_sum([])
    with pytest.raises(ValueError):
        t_indices(0, np.arange(1))
