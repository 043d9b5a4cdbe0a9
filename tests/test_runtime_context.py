"""Tests for the execution context: resolution order and scoping."""

import pickle
import warnings

import pytest

from repro.analysis.fault_tolerance import fault_dilation_summary, repair_embedding
from repro.core.dispatch import embed
from repro.core.embedding import use_array_path
from repro.graphs.base import Mesh, Torus
from repro.graphs.faults import FaultSpec
from repro.netsim.network import HostNetwork
from repro.netsim.simulator import simulate_phase
from repro.netsim.traffic import neighbor_exchange_traffic, traffic_pattern
from repro.netsim.weights import LinkWeightSpec
from repro.runtime import ExecutionContext, current, use_context
from repro.runtime.context import resolve_backend, set_default_context
from repro.survey import Scenario, SurveyOptions
from repro.survey.runner import evaluate_scenario

pytestmark = pytest.mark.smoke


class TestExecutionContext:
    def test_defaults(self):
        context = ExecutionContext()
        assert context.backend == "auto"
        assert context.cache is None
        assert context.workers is None
        assert context.shard_size == 64

    def test_backend_validation(self):
        with pytest.raises(ValueError):
            ExecutionContext(backend="vectorized")
        with pytest.raises(ValueError):
            ExecutionContext(workers=-1)
        with pytest.raises(ValueError):
            ExecutionContext(shard_size=0)

    def test_resolved_backend(self):
        assert ExecutionContext(backend="auto").resolved_backend() == "array"
        assert ExecutionContext(backend="array").resolved_backend() == "array"
        assert ExecutionContext(backend="loop").resolved_backend() == "loop"

    def test_resolved_workers(self):
        assert ExecutionContext(workers=3).resolved_workers() == 3
        assert ExecutionContext(workers=0).resolved_workers() == 0
        assert ExecutionContext().resolved_workers() >= 1

    def test_context_is_picklable(self):
        context = ExecutionContext(backend="loop", workers=2, shard_size=16)
        clone = pickle.loads(pickle.dumps(context))
        assert clone == context


class TestScoping:
    def test_current_defaults_to_auto(self):
        assert current().backend == "auto"

    def test_use_context_overrides_and_restores(self):
        assert current().backend == "auto"
        with use_context(backend="loop") as scoped:
            assert scoped.backend == "loop"
            assert current() is scoped
            assert not use_array_path()
        assert current().backend == "auto"
        assert use_array_path()

    def test_nesting_is_innermost_wins(self):
        with use_context(backend="loop"):
            with use_context(backend="array"):
                assert current().backend == "array"
            assert current().backend == "loop"

    def test_overrides_derive_from_the_active_context(self):
        with use_context(backend="loop", shard_size=8):
            with use_context(workers=2):  # backend/shard_size inherited
                assert current().backend == "loop"
                assert current().shard_size == 8
                assert current().workers == 2

    def test_restored_even_when_the_body_raises(self):
        with pytest.raises(RuntimeError):
            with use_context(backend="loop"):
                raise RuntimeError("boom")
        assert current().backend == "auto"

    def test_full_context_argument(self):
        context = ExecutionContext(backend="loop", shard_size=4)
        with use_context(context) as scoped:
            assert scoped is context
        with use_context(context, shard_size=16) as scoped:
            assert scoped.backend == "loop" and scoped.shard_size == 16

    def test_set_default_context_survives_outside_scopes(self):
        previous = set_default_context(ExecutionContext(backend="loop"))
        try:
            assert current().backend == "loop"
            with use_context(backend="array"):
                assert current().backend == "array"
            assert current().backend == "loop"
        finally:
            set_default_context(previous)
        assert current().backend == "auto"

    def test_resolve_backend_module_helper(self):
        with use_context(backend="loop"):
            assert resolve_backend() == "loop"


class TestPerCallBackendRemoved:
    """``use_context(backend=...)`` is the only backend switch since 2.0."""

    def test_resolvers_take_no_arguments(self):
        with pytest.raises(TypeError):
            ExecutionContext().resolved_backend("loop")
        with pytest.raises(TypeError):
            ExecutionContext().use_array("loop")
        with pytest.raises(TypeError):
            resolve_backend("loop")
        with pytest.raises(TypeError):
            use_array_path("loop")

    def test_method_kwarg_raises_type_error(self):
        guest, host = Torus((4, 6)), Mesh((2, 2, 2, 3))
        with pytest.raises(TypeError):
            embed(guest, host, method="loop")
        embedding = embed(guest, host)
        with pytest.raises(TypeError):
            embedding.dilation(method="loop")

    def test_survey_options_has_no_method_field(self):
        with pytest.raises(TypeError):
            SurveyOptions(method="loop")


def _record_fields(record):
    """A record's canonical dict with the timing column removed."""
    return {**record.as_dict(), "elapsed_seconds": None}


class TestLoopBackend:
    """``backend="loop"`` is the pure-Python reference for every workload."""

    def test_constructions_build_dict_backed(self):
        with use_context(backend="loop"):
            embedding = embed(Torus((3, 4)), Mesh((3, 4)))
            # the loop reference builds without the array host indices
            assert embedding._host_indices is None
            assert embedding.dilation() == 2

    def test_loop_request_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ExecutionContext(backend="loop").resolved_backend() == "loop"
            with use_context(backend="loop"):
                embedding = embed(Mesh((8,)), Mesh((3, 4)))
                assert embedding.strategy.startswith("subshape:")

    def test_cost_methods_follow_the_scoped_backend(self):
        embedding = embed(Torus((4, 6)), Mesh((2, 2, 2, 3)))
        with use_context(backend="loop"):
            loop_costs = (embedding.dilation(), embedding.average_dilation())
        with use_context(backend="array"):
            array_costs = (embedding.dilation(), embedding.average_dilation())
        assert loop_costs == array_costs

    def test_expansion_faults_and_weighted_simulation(self):
        guest, host = Torus((2, 3)), Mesh((3, 4))
        faults = FaultSpec(1, 1, 5).apply(host)
        network = HostNetwork(host, link_weights=LinkWeightSpec("dimension", 0.5))
        traffic = neighbor_exchange_traffic(guest)
        outcomes = {}
        for backend in ("loop", "array"):
            with use_context(backend=backend):
                # Expansion: a sub-embedding into the larger host.
                embedding = embed(guest, host)
                assert embedding.strategy.startswith("subshape:")
                assert embedding.dilation() >= 1
                # Faults: repair and degraded dilation.
                repaired = repair_embedding(embedding, faults)
                dilation, average = fault_dilation_summary(repaired, faults)
                assert dilation >= 1 and average > 0
                # Weighted, fault-aware simulation.
                result = simulate_phase(network, repaired, traffic, faults=faults)
                assert result.makespan > 0
                outcomes[backend] = (
                    repaired.mapping,
                    dilation,
                    average,
                    result.makespan,
                    result.per_message_completion,
                )
        assert outcomes["loop"] == outcomes["array"]
        assert len(traffic_pattern("hotspot", guest).messages) == guest.size - 1

    def test_survey_records_for_expansion_and_faults(self):
        options = SurveyOptions(workers=1)
        scenarios = (
            Scenario("torus", (2, 3), "mesh", (3, 4)),
            Scenario("torus", (2, 3), "mesh", (3, 4), faults="n1l1s5"),
        )
        records = {}
        for backend in ("loop", "array"):
            with use_context(backend=backend):
                records[backend] = [
                    evaluate_scenario(scenario, options) for scenario in scenarios
                ]
        expansion, fault = records["loop"]
        assert expansion.status == "ok"
        assert expansion.guest_size == 6 and expansion.nodes == 12
        assert fault.status == "ok"
        assert fault.faults == "n1l1s5"
        assert fault.dilation >= 1
        assert [_record_fields(r) for r in records["loop"]] == [
            _record_fields(r) for r in records["array"]
        ]
