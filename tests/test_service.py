"""Tests for the serving tier: protocol, coalescer, service, HTTP, client.

The load-bearing contract is **byte-identity**: a response served through the
coalesced batched path must carry exactly the record the per-request survey
reference (:func:`repro.survey.runner.evaluate_scenario`) produces for the
same scenario — ``elapsed_seconds`` timing aside, the repo-wide convention.
"""

import socket
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.runtime import ConstructionCache
from repro.service import (
    CoalescerClosed,
    ProtocolError,
    ReproService,
    RequestCoalescer,
    ServiceClient,
    ServiceError,
    ServiceRequest,
    parse_graph_spec,
    serve,
)
from repro.service.server import _RequestHandler
from repro.survey.runner import SurveyOptions, evaluate_scenario

pytestmark = pytest.mark.smoke


def strip(record_dict):
    return {
        key: value for key, value in record_dict.items() if key != "elapsed_seconds"
    }


def reference_record(request: ServiceRequest):
    options = SurveyOptions(workers=1, with_congestion=request.congestion)
    return evaluate_scenario(request.scenario(), options)


class TestProtocol:
    def test_parse_graph_spec_kinds_and_conveniences(self):
        assert parse_graph_spec("torus:4,6") == ("torus", (4, 6))
        assert parse_graph_spec("mesh: 2,2,3") == ("mesh", (2, 2, 3))
        assert parse_graph_spec("ring:12") == ("torus", (12,))
        assert parse_graph_spec("line:7") == ("mesh", (7,))
        assert parse_graph_spec("hypercube:3") == ("torus", (2, 2, 2))

    @pytest.mark.parametrize(
        "bad", ["blob", "cube:2,2", "torus:", "torus:0,4", "torus:a,b"]
    )
    def test_parse_graph_spec_rejects(self, bad):
        with pytest.raises(ProtocolError):
            parse_graph_spec(bad)

    def test_request_validation(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            ServiceRequest(op="teleport", guest="torus:4,6", host="mesh:4,6")
        with pytest.raises(ProtocolError, match="could not parse"):
            ServiceRequest(op="embed", guest="blob", host="mesh:4,6")
        with pytest.raises(ProtocolError, match="boolean"):
            ServiceRequest(
                op="embed", guest="torus:4,6", host="mesh:4,6", congestion="yes"
            )

    def test_from_dict_rejects_stray_and_missing_fields(self):
        with pytest.raises(ProtocolError, match="unknown request field"):
            ServiceRequest.from_dict(
                {"op": "embed", "guest": "torus:4,6", "host": "mesh:4,6", "spin": 1}
            )
        with pytest.raises(ProtocolError, match="missing required"):
            ServiceRequest.from_dict({"op": "embed", "guest": "torus:4,6"})
        with pytest.raises(ProtocolError, match="JSON object"):
            ServiceRequest.from_dict(["embed"])

    @pytest.mark.parametrize("field", ["strategy", "traffic"])
    def test_from_dict_rejects_non_string_strategy_and_traffic(self, field):
        # An unhashable value would otherwise fail the whole coalesced shard.
        payload = {"op": "simulate", "guest": "torus:4,4", "host": "mesh:4,4"}
        for bad in (["x"], {"x": 1}, 3, None):
            with pytest.raises(ProtocolError, match=f"{field} must be a string"):
                ServiceRequest.from_dict({**payload, field: bad})

    def test_scenario_conversion(self):
        embed = ServiceRequest(op="embed", guest="torus:4,6", host="mesh:2,2,2,3")
        scenario = embed.scenario()
        assert scenario.scenario_id == "torus:4,6->mesh:2,2,2,3"
        assert not scenario.traffic
        simulate = ServiceRequest(
            op="simulate",
            guest="torus:4,4",
            host="mesh:2,2,2,2",
            strategy="bfs",
            traffic="transpose",
        )
        assert (
            simulate.scenario().scenario_id == "torus:4,4->mesh:2,2,2,2|bfs|transpose"
        )

    def test_signature_is_the_batch_grouping_key(self):
        a = ServiceRequest(op="embed", guest="torus:4,6", host="mesh:2,2,2,3")
        b = ServiceRequest(
            op="simulate", guest="torus:4,6", host="mesh:2,2,2,3", traffic="transpose"
        )
        assert a.signature == b.signature

    def test_round_trip_dict(self):
        request = ServiceRequest(op="embed", guest="torus:4,6", host="mesh:4,6")
        assert ServiceRequest.from_dict(request.as_dict()) == request


class TestCoalescer:
    def test_concurrent_submissions_coalesce_into_one_batch(self):
        seen = []

        def evaluate(batch):
            seen.append(len(batch))
            return [item * 10 for item in batch]

        with RequestCoalescer(evaluate, window=0.25, max_batch=64) as coalescer:
            with ThreadPoolExecutor(8) as pool:
                futures = list(pool.map(coalescer.submit, range(8)))
            results = sorted(future.result(timeout=10) for future in futures)
        assert results == [0, 10, 20, 30, 40, 50, 60, 70]
        assert max(seen) > 1  # the window really grouped concurrent requests
        stats = coalescer.batch_stats()
        assert stats["coalesced_batches"] >= 1
        assert stats["max_batch_size"] == max(seen)

    def test_max_batch_caps_a_batch(self):
        sizes = []
        release = threading.Event()

        def evaluate(batch):
            release.wait(5)
            sizes.append(len(batch))
            return list(batch)

        with RequestCoalescer(evaluate, window=5.0, max_batch=3) as coalescer:
            futures = [coalescer.submit(index) for index in range(3)]
            release.set()
            for future in futures:
                future.result(timeout=10)
        assert sizes[0] == 3  # dispatched at the cap, not after the window

    def test_window_zero_batches_what_queued_during_an_evaluation(self):
        sizes = []
        entered, release = threading.Event(), threading.Event()

        def evaluate(batch):
            sizes.append(len(batch))
            entered.set()
            release.wait(10)
            return list(batch)

        with RequestCoalescer(evaluate, window=0) as coalescer:
            first = coalescer.submit(0)
            assert entered.wait(10)
            queued = [coalescer.submit(index) for index in range(1, 6)]
            release.set()
            results = [future.result(timeout=10) for future in [first, *queued]]
        assert results == [0, 1, 2, 3, 4, 5]
        # Everything submitted while the evaluator was busy went out together.
        assert sizes == [1, 5]

    def test_evaluator_exception_fails_the_batch_futures(self):
        def evaluate(batch):
            raise RuntimeError("kernel exploded")

        with RequestCoalescer(evaluate, window=0.01) as coalescer:
            future = coalescer.submit("request")
            with pytest.raises(RuntimeError, match="kernel exploded"):
                future.result(timeout=10)

    def test_result_count_mismatch_fails_the_batch(self):
        with RequestCoalescer(lambda batch: [], window=0.01) as coalescer:
            future = coalescer.submit("request")
            with pytest.raises(RuntimeError, match="0 results"):
                future.result(timeout=10)

    def test_submit_after_close_raises(self):
        coalescer = RequestCoalescer(lambda batch: list(batch), window=0.01)
        coalescer.close()
        with pytest.raises(CoalescerClosed):
            coalescer.submit("late")
        coalescer.close()  # idempotent


EMBED = ServiceRequest(op="embed", guest="torus:4,6", host="mesh:2,2,2,3")
EMBED_CONGESTION = ServiceRequest(
    op="embed", guest="torus:4,6", host="mesh:2,2,2,3", congestion=True
)
SIMULATE = ServiceRequest(
    op="simulate", guest="torus:4,4", host="mesh:2,2,2,2", traffic="transpose"
)
UNSUPPORTED = ServiceRequest(op="embed", guest="mesh:4,6", host="mesh:3,8")


class TestServiceDifferential:
    @pytest.mark.parametrize(
        "request_", [EMBED, EMBED_CONGESTION, SIMULATE, UNSUPPORTED], ids=str
    )
    def test_response_byte_identical_to_reference_path(self, request_):
        with ReproService(window=0.001) as service:
            record, batch_size = service.handle(request_)
        assert batch_size >= 1
        assert strip(record.as_dict()) == strip(reference_record(request_).as_dict())

    def test_coalesced_batch_byte_identical_to_reference(self):
        requests = [EMBED, SIMULATE, EMBED_CONGESTION, UNSUPPORTED] * 4
        with ReproService(window=0.25, max_batch=64) as service:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(service.handle, req) for req in requests]
                outcomes = [future.result(timeout=30) for future in futures]
        assert service.coalescer.batch_stats()["max_batch_size"] > 1
        for request_, (record, _) in zip(requests, outcomes):
            assert strip(record.as_dict()) == strip(
                reference_record(request_).as_dict()
            )

    def test_resident_cache_warms_across_requests(self):
        with ReproService(window=0.001) as service:
            service.handle(EMBED)
            service.handle(EMBED)
            cache = service.context.cache
            assert cache is not None and cache.hits > 0


class TestCacheSnapshots:
    def test_periodic_snapshot_and_warm_restart(self, tmp_path):
        path = tmp_path / "service-cache.pkl"
        with ReproService(
            window=0.001, cache_path=str(path), snapshot_interval=0.0
        ) as service:
            service.handle(EMBED)
            deadline = time.monotonic() + 10
            while not path.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
        assert path.exists()
        warm = ConstructionCache.load(path)
        assert warm.construction_count >= 1
        with ReproService(window=0.001, cache_path=str(path)) as restarted:
            restarted.handle(EMBED)
            cache = restarted.context.cache
            assert cache is not None and cache.hits > 0  # warm from the snapshot

    def test_close_takes_a_final_snapshot(self, tmp_path):
        path = tmp_path / "final.pkl"
        service = ReproService(
            window=0.001, cache_path=str(path), snapshot_interval=3600
        )
        service.handle(EMBED)
        assert not path.exists()  # interval far away: no periodic snapshot yet
        service.close()
        assert ConstructionCache.load(path).construction_count >= 1


@contextmanager
def served(service, handler=None):
    """Serve ``service`` on an ephemeral port; yields its base URL."""
    server = serve(service, "127.0.0.1", 0)
    if handler is not None:
        server.RequestHandlerClass = handler
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture(scope="class")
def http_service():
    with ReproService(window=0.02) as service, served(service) as url:
        client = ServiceClient(url, timeout=30.0)
        client.wait_until_ready()
        try:
            yield service, client, url
        finally:
            client.close()


class TestHTTPEndToEnd:
    def test_embed_round_trip(self, http_service):
        _, client, _ = http_service
        response = client.embed("torus:4,6", "mesh:2,2,2,3")
        assert response["ok"] and response["record"]["dilation"] == 1
        assert strip(response["record"]) == strip(reference_record(EMBED).as_dict())

    def test_simulate_round_trip(self, http_service):
        _, client, _ = http_service
        response = client.simulate("torus:4,4", "mesh:2,2,2,2", traffic="transpose")
        assert response["record"]["status"] == "ok"
        assert response["record"]["makespan"] is not None

    def test_invoke_with_explicit_op(self, http_service):
        _, client, _ = http_service
        response = client.invoke(
            {"op": "embed", "guest": "ring:12", "host": "mesh:3,4"}
        )
        assert response["record"]["status"] == "ok"

    def test_concurrent_http_requests_coalesce(self, http_service):
        service, _, url = http_service

        def fire(_):
            with ServiceClient(url, timeout=30.0) as client:
                return client.embed("torus:4,6", "mesh:2,2,2,3")

        with ThreadPoolExecutor(8) as pool:
            responses = list(pool.map(fire, range(12)))
        assert all(response["record"]["dilation"] == 1 for response in responses)
        assert any(response["meta"]["coalesced"] for response in responses)
        assert service.coalescer.batch_stats()["max_batch_size"] > 1

    def test_stats_document(self, http_service):
        _, client, _ = http_service
        client.embed("torus:4,6", "mesh:2,2,2,3")
        stats = client.stats()
        assert stats["requests"] >= 1
        assert stats["latency_ms"]["p50"] >= 0
        assert stats["latency_ms"]["p99"] >= stats["latency_ms"]["p50"]
        assert stats["coalescer"]["batches"] >= 1
        assert stats["cache"]["constructions"] >= 1
        assert stats["backend"] in ("array", "loop")

    def test_health(self, http_service):
        _, client, _ = http_service
        assert client.health()["ok"] is True

    def test_unknown_path_is_404(self, http_service):
        _, client, _ = http_service
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_malformed_request_is_400(self, http_service):
        _, client, _ = http_service
        with pytest.raises(ServiceError) as excinfo:
            client.invoke({"op": "embed", "guest": "blob", "host": "mesh:4,6"})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.invoke({"op": "embed", "guest": "torus:4,6"})
        assert excinfo.value.status == 400

    def test_non_string_traffic_is_400(self, http_service):
        _, client, _ = http_service
        body = {"op": "simulate", "guest": "torus:4,4", "host": "mesh:4,4"}
        with pytest.raises(ServiceError) as excinfo:
            client.invoke({**body, "traffic": ["x"]})
        assert excinfo.value.status == 400
        # The rejection happens before coalescing; a well-formed request of
        # the same signature is answered as usual.
        assert client.invoke(body)["record"]["status"] == "ok"

    def test_client_unreachable_server(self):
        client = ServiceClient("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(OSError):
            client.embed("torus:4,6", "mesh:4,6")


class TestTransport:
    """Warm keep-alive requests must not wait on a delayed ACK (~40 ms)."""

    def test_both_ends_set_tcp_nodelay(self):
        accepted = []

        class Recording(_RequestHandler):
            def setup(self):
                super().setup()
                accepted.append(
                    self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                )

        with ReproService() as service, served(service, Recording) as url:
            with ServiceClient(url, timeout=30.0) as client:
                assert client.health()["ok"]
                sock = client._connection.sock
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        assert accepted and all(accepted)

    def test_warm_sequential_requests_beat_the_delayed_ack_floor(self):
        with ReproService() as service, served(service) as url:
            with ServiceClient(url, timeout=30.0) as client:
                client.embed("torus:4,6", "mesh:2,2,2,3")  # warm the cache
                latencies = []
                for _ in range(50):
                    started = time.perf_counter()
                    client.embed("torus:4,6", "mesh:2,2,2,3")
                    latencies.append(time.perf_counter() - started)
        median_ms = statistics.median(latencies) * 1e3
        assert median_ms < 10.0, f"warm sequential median {median_ms:.1f} ms"


class TestServeDaemon:
    def test_sigterm_shuts_down_cleanly_with_final_snapshot(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part
            for part in (
                str(Path(repro.__file__).resolve().parents[1]),
                env.get("PYTHONPATH"),
            )
            if part
        )
        cache = tmp_path / "serve-cache.pkl"
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--cache",
                str(cache),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            assert "listening on http://" in banner
            url = banner.split()[4]
            with ServiceClient(url, timeout=30.0) as client:
                client.wait_until_ready(timeout=30.0)
                assert client.embed("torus:4,6", "mesh:2,2,2,3")["ok"]
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        output = process.stdout.read()
        assert "draining" in output
        assert "shutdown complete" in output
        assert ConstructionCache.load(cache).construction_count >= 1


class TestInvokeCLI:
    def test_invoke_against_live_server(self, http_service, capsys):
        from repro.cli import main

        _, _, url = http_service
        assert (
            main(
                [
                    "invoke",
                    "embed",
                    "--url",
                    url,
                    "--guest",
                    "torus:4,6",
                    "--host",
                    "mesh:2,2,2,3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "dilation" in out and "batch of" in out
        assert main(["invoke", "stats", "--url", url]) == 0
        assert "coalescer" in capsys.readouterr().out

    def test_invoke_requires_guest_and_host(self, capsys):
        from repro.cli import main

        assert main(["invoke", "embed", "--url", "http://127.0.0.1:1"]) == 2
        assert "requires --guest" in capsys.readouterr().err

    def test_invoke_unreachable_server_fails_cleanly(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "invoke",
                    "embed",
                    "--url",
                    "http://127.0.0.1:1",
                    "--timeout",
                    "0.5",
                    "--guest",
                    "torus:4,6",
                    "--host",
                    "mesh:4,6",
                ]
            )
            == 1
        )
        assert "could not reach" in capsys.readouterr().err
