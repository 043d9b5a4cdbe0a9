"""The serve-keepalive workload: a ``repro serve`` daemon under a closed loop.

The daemon runs in its own process, started exactly as a user starts it
(``python -m repro.cli serve --port 0``).  The load is a closed loop of
:data:`CONNECTIONS` keep-alive :class:`~repro.service.ServiceClient`
connections from this process, each sending its next request as soon as
the previous answer arrived.  The client is used unmodified, so whatever the
transport costs (a Nagle/delayed-ACK stall included) is in the numbers.
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from repro.runtime import ConstructionCache, ExecutionContext, use_context
from repro.service import ServiceClient, ServiceRequest
from repro.survey import SurveyOptions

# The per-scenario reference path and the shard evaluator the daemon answers
# with live only in the runner module.
from repro.survey.runner import evaluate_scenario, evaluate_shard  # noqa: TID251

#: Client connections of the closed loop (one thread each).
CONNECTIONS = 2

#: Fewest measured requests per run: p99 then has at least ten samples
#: beyond it.
MIN_REQUESTS = 1000

#: Requests sent after the pool warm-up and before the measured phase.
WARMUP_REQUESTS = 40

#: Seconds allowed for the daemon to come up, and to exit after SIGTERM.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0

#: Length of the ``/stats`` latency window (``ServiceStats(latency_window)``).
STATS_WINDOW = 4096

_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")


@dataclass
class Daemon:
    process: subprocess.Popen
    url: str
    ready_seconds: float


def start_daemon(env: Dict[str, str], cwd: Path) -> Daemon:
    """Spawn ``repro serve --port 0``; ready at the first 200 from ``/health``."""
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        line = process.stdout.readline()
        match = _LISTENING.search(line)
        if match is None:
            raise RuntimeError(f"repro serve did not report its address: {line!r}")
        host, port = match.group(1), int(match.group(2))
        deadline = started + START_TIMEOUT
        while True:
            connection = http.client.HTTPConnection(host, port, timeout=5.0)
            try:
                connection.request("GET", "/health")
                if connection.getresponse().status == 200:
                    break
            except OSError:
                pass
            finally:
                connection.close()
            if time.perf_counter() > deadline:
                raise RuntimeError("repro serve never answered /health with 200")
            time.sleep(0.002)
        ready = time.perf_counter() - started
    except BaseException:
        stop_daemon(process)
        raise
    return Daemon(process, f"http://{host}:{port}", ready)


def stop_daemon(process: subprocess.Popen) -> None:
    """SIGTERM (graceful drain), then SIGKILL if it does not exit in time."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


@dataclass
class LoadResult:
    """Client-side view of the measured phase."""

    latencies: List[float] = field(default_factory=list)  # seconds, all lanes
    # (payload, response document) per answered request
    responses: List[Tuple[Dict, Dict]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    retries: int = 0
    wall: float = 0.0
    spans: List[list] = field(default_factory=list)  # [id, lane, start, end]

    def merge(self, other: "LoadResult") -> None:
        """Fold in the answers and failures of another phase (not its spans)."""
        self.latencies += other.latencies
        self.responses += other.responses
        self.errors += other.errors
        self.retries += other.retries

    def write_spans(self, path: Path) -> None:
        """One JSON object per client request span; each request is a trace."""
        with open(path, "w", encoding="utf-8") as handle:
            for request_id, lane, begin, end in self.spans:
                span = {
                    "trace": f"request-{request_id}",
                    "name": "client.request",
                    "lane": lane,
                    "start": begin,
                    "end": end,
                    "parent": -1,
                }
                handle.write(json.dumps(span) + "\n")

    def span_coverage(self) -> float:
        """Share of the lanes' wall time covered by request spans."""
        busy = sum(end - begin for _, _, begin, end in self.spans)
        return busy / (self.wall * CONNECTIONS) if self.wall else 0.0


def closed_loop(
    url: str,
    mix: List[Dict],
    seconds: float,
    min_requests: int = MIN_REQUESTS,
    traced: bool = False,
) -> LoadResult:
    """:data:`CONNECTIONS` lanes send ``mix`` in turn until ``seconds`` are
    spent and at least ``min_requests`` were sent; ``traced`` keeps one
    client span per request."""
    result = LoadResult()
    lock = threading.Lock()
    cursor = [0]
    started = time.perf_counter()
    deadline = started + seconds

    def lane(number: int) -> None:
        clock = time.perf_counter
        with ServiceClient(url) as client:
            while True:
                with lock:
                    index = cursor[0]
                    if clock() >= deadline and index >= min_requests:
                        break
                    cursor[0] += 1
                payload = mix[index % len(mix)]
                begin = clock()
                try:
                    document = client.invoke(payload)
                    error = None
                except Exception as failure:  # noqa: BLE001 - a failed request
                    document, error = None, f"{type(failure).__name__}: {failure}"
                end = clock()
                with lock:
                    if error is None:
                        result.latencies.append(end - begin)
                        result.responses.append((payload, document))
                    else:
                        result.errors.append(error)
                    if traced:
                        result.spans.append([index, number, begin, end])
            with lock:
                result.retries += client.retries

    threads = [
        threading.Thread(target=lane, args=(number,)) for number in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall = time.perf_counter() - started
    return result


def warm_up(url: str, pool: List[Dict], mix: List[Dict]) -> None:
    """Every pool request once (fills the resident cache), then the first
    :data:`WARMUP_REQUESTS` of the mix; none of it is measured."""
    with ServiceClient(url) as client:
        for payload in pool + mix[:WARMUP_REQUESTS]:
            client.invoke(payload)


def stats(url: str) -> Dict:
    with ServiceClient(url) as client:
        return client.stats()


def stats_delta(before: Dict, after: Dict) -> Dict[str, float]:
    """Counters of the measured phase: ``/stats`` after minus before."""
    histogram = {
        int(size): count - before["coalescer"]["batch_size_histogram"].get(size, 0)
        for size, count in after["coalescer"]["batch_size_histogram"].items()
    }
    batches = sum(histogram.values())
    batched = sum(size * count for size, count in histogram.items())
    coalesced = sum(size * count for size, count in histogram.items() if size > 1)
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    return {
        "requests": after["requests"] - before["requests"],
        "shed": after["recovery"]["shed"] - before["recovery"]["shed"],
        "timeouts": after["recovery"]["timeouts"] - before["recovery"]["timeouts"],
        "batches": batches,
        "batch_size_mean": batched / batches if batches else 0.0,
        "coalesced_share": coalesced / batched if batched else 0.0,
        "cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def _key(payload: Dict) -> str:
    return repr(sorted(payload.items()))


def reference_records(payloads: List[Dict]) -> Dict[str, Dict]:
    """The ``evaluate_scenario`` record of each distinct payload, without
    ``elapsed_seconds``."""
    expected: Dict[str, Dict] = {}
    for payload in payloads:
        key = _key(payload)
        if key in expected:
            continue
        request = ServiceRequest.from_dict(payload)
        options = SurveyOptions(workers=1, with_congestion=request.congestion)
        record = evaluate_scenario(request.scenario(), options).as_dict()
        record.pop("elapsed_seconds", None)
        expected[key] = record
    return expected


def check_responses(load: LoadResult) -> List[str]:
    """Every answered request must equal the reference record of its payload."""
    expected = reference_records([payload for payload, _ in load.responses])
    problems = []
    for payload, document in load.responses:
        record = dict(document["record"])
        record.pop("elapsed_seconds", None)
        if record != expected[_key(payload)]:
            problems.append(f"response to {payload} differs from evaluate_scenario")
    return problems


def evaluate_ms(mix: List[Dict], count: int = 300) -> float:
    """Median milliseconds of ``evaluate_shard`` on one request of the mix,
    in this process under a warm context (the floor under any latency)."""
    context = ExecutionContext(cache=ConstructionCache(), batch=True)
    timings = []
    with use_context(context):
        for position, payload in enumerate(mix[: 2 * count]):
            request = ServiceRequest.from_dict(payload)
            options = SurveyOptions(
                workers=1, shard_size=1, with_congestion=request.congestion
            )
            started = time.perf_counter()
            evaluate_shard([request.scenario()], options)
            if position >= count:  # the first pass warms the context cache
                timings.append(time.perf_counter() - started)
    return statistics.median(timings) * 1e3


def daemon_setups(env: Dict[str, str], cwd: Path, count: int) -> List[float]:
    """Seconds from spawning the daemon to its first 200 from ``/health``,
    ``count`` times after one unmeasured start (each daemon is stopped
    again)."""
    readies: List[float] = []
    for _ in range(count + 1):
        daemon = start_daemon(env, cwd)
        readies.append(daemon.ready_seconds)
        stop_daemon(daemon.process)
    return readies[1:]
