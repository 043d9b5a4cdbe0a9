"""Shape-keyed memos: read-only, bounded, and equal to the uncached values.

Digit weights, all-nodes digit tables, embedding sequence tables, expansion
factors and construction plans depend on shapes alone, so they are memoized
process-wide.  Callers share the cached objects, so the arrays must refuse
writes and what ``embed`` returns must not alias them; every memo must be
bounded; huge digit tables must not be retained; a cached expansion factor
must be the one the uncached search finds; and one plan must serve every
kind combination of its shape pair.
"""

import importlib
import math
import pkgutil
from collections import defaultdict

import numpy as np
import pytest

import repro
from repro.core import expansion
from repro.core.dispatch import embed
from repro.core.expansion import find_expansion_factor, iter_expansion_factors
from repro.core.plan import plan_for
from repro.graphs.base import make_graph
from repro.numbering import arrays
from repro.numbering.arrays import (
    DIGIT_TABLE_RETAIN_NODES,
    digit_table,
    digit_weights,
    indices_to_digits,
    rank_digits,
)
from repro.numbering.batch import sequence_table
from repro.survey.scenarios import all_pairs


def uncached_weights(shape):
    weights = np.ones(len(shape), dtype=np.int64)
    for j in range(len(shape) - 2, -1, -1):
        weights[j] = weights[j + 1] * shape[j + 1]
    return weights


class TestReadOnly:
    @pytest.mark.parametrize("shape", [(5,), (2, 3), (4, 2, 3)])
    def test_writes_into_weights_raise(self, shape):
        weights = digit_weights(shape)
        assert weights.tolist() == uncached_weights(shape).tolist()
        with pytest.raises(ValueError):
            weights[0] = 7
        assert digit_weights(list(shape)) is weights

    @pytest.mark.parametrize("shape", [(5,), (2, 3), (4, 2, 3)])
    def test_writes_into_digit_table_raise(self, shape):
        table = digit_table(shape)
        expected = indices_to_digits(np.arange(math.prod(shape)), shape)
        assert np.array_equal(table, expected)
        with pytest.raises(ValueError):
            table[0, 0] = 7
        assert digit_table(list(shape)) is table

    @pytest.mark.parametrize(
        "name,shape", [("t", (5,)), ("f", (4, 2, 3)), ("g", (3, 3)), ("h", (2, 3, 2))]
    )
    def test_writes_into_sequence_tables_raise(self, name, shape):
        table = sequence_table(name, shape)
        with pytest.raises(ValueError):
            table[0] = 7
        assert sequence_table(name, list(shape)) is table

    @pytest.mark.parametrize(
        "guest_shape,host_shape",
        [
            ((4, 6), (4, 6)),
            ((3, 4), (4, 3)),
            ((24,), (4, 2, 3)),
            ((4, 6), (2, 2, 2, 3)),
            ((4, 2, 3, 3), (8, 9)),
            ((3, 3, 4), (6, 6)),
        ],
    )
    def test_writes_into_plan_tables_raise(self, guest_shape, host_shape):
        for guest_kind in ("mesh", "torus"):
            for host_kind in ("mesh", "torus"):
                guest = make_graph(guest_kind, guest_shape)
                embed(guest, make_graph(host_kind, host_shape))
        variants = plan_for(guest_shape, host_shape).variants
        assert all(variant is not None for variant in variants)
        for _, _, _, packed in variants:
            assert packed.size == sum(guest_shape)
            with pytest.raises(ValueError):
                packed[0] = 7


class TestPlanMemo:
    def test_one_plan_serves_all_four_kind_combinations(self):
        plan_for.cache_clear()
        for guest_kind in ("mesh", "torus"):
            for host_kind in ("mesh", "torus"):
                guest = make_graph(guest_kind, (4, 6))
                embed(guest, make_graph(host_kind, (2, 2, 2, 3)))
        info = plan_for.cache_info()
        assert (info.hits, info.misses) == (3, 1)

    @pytest.mark.parametrize(
        "guest,host",
        [
            (("torus", (4, 6)), ("mesh", (2, 2, 2, 3))),
            (("torus", (3, 4)), ("mesh", (4, 3))),
            (("torus", (24,)), ("mesh", (4, 2, 3))),
            (("torus", (3, 3, 4)), ("mesh", (6, 6))),
        ],
    )
    def test_mutating_a_returned_embedding_leaves_the_next_one_alone(self, guest, host):
        guest, host = make_graph(*guest), make_graph(*host)
        first = embed(guest, host)
        notes = dict(first.notes)
        images = first.host_index_array().copy()
        first.notes.clear()
        first.notes["tampered"] = True
        first.host_index_array()[:] = 0
        second = embed(guest, host)
        assert second.notes == notes
        assert np.array_equal(second.host_index_array(), images)


class TestBounded:
    def test_every_lru_cache_in_the_package_is_bounded(self):
        caches = []
        for module_info in pkgutil.walk_packages(repro.__path__, "repro."):
            if module_info.name.endswith("__main__"):
                continue
            module = importlib.import_module(module_info.name)
            for name, value in vars(module).items():
                if callable(value) and hasattr(value, "cache_info"):
                    caches.append((module_info.name, name, value))
        names = {name for _, name, _ in caches}
        memos = {
            "_weights_of",
            "_retained_digit_table",
            "_retained_sequence_table",
            "_first_expansion_factor",
            "plan_for",
        }
        assert memos <= names
        for module_name, name, cache in caches:
            assert cache.cache_info().maxsize is not None, f"{module_name}.{name}"

    def test_table_above_retention_limit_is_not_kept(self):
        shape = (DIGIT_TABLE_RETAIN_NODES + 1,)
        arrays._retained_digit_table.cache_clear()
        table = digit_table(shape)
        assert arrays._retained_digit_table.cache_info().currsize == 0
        assert digit_table(shape) is not table
        assert not table.flags.writeable
        assert np.array_equal(table[:, 0], np.arange(DIGIT_TABLE_RETAIN_NODES + 1))
        ranks = np.array([0, 5, DIGIT_TABLE_RETAIN_NODES])
        assert np.array_equal(rank_digits(ranks, shape), table[ranks])
        assert arrays._retained_digit_table.cache_info().currsize == 0

    def test_table_at_retention_limit_is_kept(self):
        shape = (2, DIGIT_TABLE_RETAIN_NODES // 2)
        assert digit_table(shape) is digit_table(shape)

    def test_rank_digits_gathers_table_rows(self):
        shape = (3, 2, 4)
        ranks = np.array([[0, 23], [7, 12]], dtype=np.int32)
        expected = indices_to_digits(ranks, shape)
        assert np.array_equal(rank_digits(ranks, shape), expected)


def shape_pairs(max_nodes):
    """Every ordered pair of shapes (lengths >= 2) of equal size <= max_nodes."""
    by_size = defaultdict(set)
    for scenario in all_pairs(max_nodes):
        for shape in (scenario.guest_shape, scenario.host_shape):
            by_size[math.prod(shape)].add(shape)
    for shapes in by_size.values():
        for source in shapes:
            for target in shapes:
                yield source, target


class TestExpansionFactorMemo:
    def test_memo_equals_uncached_search_up_to_64_nodes(self):
        expansion._first_expansion_factor.cache_clear()
        checked = 0
        for source, target in shape_pairs(64):
            for min_parts in (1, 2):
                uncached = next(
                    iter_expansion_factors(
                        source, target, min_parts_per_list=min_parts, limit=1
                    ),
                    None,
                )
                cached = find_expansion_factor(
                    source, target, min_parts_per_list=min_parts
                )
                assert cached == uncached, (source, target, min_parts)
                assert find_expansion_factor(
                    list(source), list(target), min_parts_per_list=min_parts
                ) is cached
                checked += 1
        assert checked > 1000

    def test_factor_is_frozen(self):
        factor = find_expansion_factor((4, 6), (2, 2, 2, 3))
        with pytest.raises(AttributeError):
            factor.lists = ()
