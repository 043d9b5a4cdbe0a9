"""BENCH-RUNTIME-CACHE: warm construction cache vs re-construction.

MaT87's constructions are pure functions of ``(strategy family, guest kind
and shape, host kind and shape)``, so the runtime's
:class:`~repro.runtime.cache.ConstructionCache` can memoize them across
survey shards and CLI invocations.  This benchmark runs the construction
pass of a survey-suite sweep — the Section 5 square chains at table scale
(up to 4096 nodes) plus the exhaustive 48-node sweep — twice through the
same execution context:

* **cold** — an empty cache and an empty plan memo
  (:func:`repro.core.plan.plan_for`): every supported pair runs the full
  dispatcher (strategy selection, factor searches, table construction) and
  is memoized;
* **warm** — the same pass again: every pair resolves to a content-addressed
  cache hit (family memo + stored host-index array), skipping
  re-construction entirely.

The warm pass must be at least ``SPEEDUP_FLOOR``x faster, and the cached
embeddings must be node-for-node identical to freshly built ones (the golden
tables are pinned byte-identical with caching on and off in
``tests/test_runtime_cache.py``).  Run with ``-s`` to see the measured
ratio.  The same memo survives worker-process boundaries (warm-start dict)
and process exits (``ConstructionCache.save``/``load`` — the CLI ``--cache``
flag), which is what makes repeated ``repro survey`` / ``repro simulate``
invocations skip construction.
"""

import time

from repro.core.dispatch import embed
from repro.core.plan import plan_for
from repro.exceptions import UnsupportedEmbeddingError
from repro.runtime import ConstructionCache, use_context
from repro.survey import scenarios_for_suite

SPEEDUP_FLOOR = 5.0


def _suite_scenarios():
    """The benchmark sweep: table-scale square chains + the exhaustive sweep."""
    return scenarios_for_suite("squares", max_nodes=4096) + scenarios_for_suite(
        "exhaustive", max_nodes=48
    )


def _construction_pass(scenarios):
    """Build every supported pair once; returns the built embeddings."""
    built = []
    for scenario in scenarios:
        try:
            built.append(embed(scenario.guest_graph(), scenario.host_graph()))
        except UnsupportedEmbeddingError:
            continue
    return built


def test_warm_cache_speedup_over_reconstruction():
    scenarios = _suite_scenarios()
    cache = ConstructionCache()
    with use_context(cache=cache):
        plan_for.cache_clear()  # cold means no memoized plans either
        started = time.perf_counter()
        cold_built = _construction_pass(scenarios)
        cold_seconds = time.perf_counter() - started

        warm_seconds = float("inf")
        for _ in range(3):  # best-of-3 guards the assertion against CI jitter
            started = time.perf_counter()
            warm_built = _construction_pass(scenarios)
            warm_seconds = min(warm_seconds, time.perf_counter() - started)

    # The warm pass must reproduce the cold pass exactly (metadata included).
    assert len(warm_built) == len(cold_built)
    for warm, cold in zip(warm_built, cold_built):
        assert warm.strategy == cold.strategy
        assert warm.predicted_dilation == cold.predicted_dilation
        assert (warm.host_index_array() == cold.host_index_array()).all()

    speedup = cold_seconds / warm_seconds
    print(
        f"\n{len(cold_built)} constructions over {len(scenarios)} scenarios: "
        f"cold {cold_seconds:.3f}s, warm {warm_seconds:.3f}s, "
        f"speedup {speedup:.1f}x ({cache.construction_count} memoized "
        f"constructions, {cache.hits} hits)"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm construction cache only {speedup:.1f}x faster than "
        f"re-construction (floor {SPEEDUP_FLOOR}x) over {len(scenarios)} scenarios"
    )


def test_warm_start_dict_carries_the_speedup_to_a_new_cache():
    # The survey engine ships cache.snapshot() to worker processes; a cache
    # warm-started from that dict must hit immediately.
    scenarios = scenarios_for_suite("squares", max_nodes=4096)
    parent = ConstructionCache()
    with use_context(cache=parent):
        _construction_pass(scenarios)
    worker = ConstructionCache(parent.snapshot())
    with use_context(cache=worker):
        started = time.perf_counter()
        built = _construction_pass(scenarios)
        warm_seconds = time.perf_counter() - started
    assert built and worker.misses == 0
    print(
        f"\nwarm-started worker cache: {len(built)} constructions in "
        f"{warm_seconds:.3f}s, {worker.hits} hits, 0 misses"
    )


def test_benchmark_warm_construction_pass(benchmark):
    scenarios = scenarios_for_suite("squares", max_nodes=4096)
    cache = ConstructionCache()
    with use_context(cache=cache):
        _construction_pass(scenarios)  # fill

        def warm_pass():
            return _construction_pass(scenarios)

        built = benchmark(warm_pass)
    assert len(built) == len(scenarios)
