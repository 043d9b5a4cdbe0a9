"""End-to-end and per-layer benchmark of the survey engine and the daemon.

Usage, from the repository root::

    python3 perfbench/run.py --workload survey-exhaustive --seed 1 --seconds 36
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 1

``--trace 0`` (the default) measures the end-to-end metrics with no tracing
at all; ``--trace 1`` is the separate traced run that reports the per-layer
metrics (README.md lists every metric and workload and the layer
interaction table).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
result document (seed, host, raw timings, sample counts) is the line before
it and is also written under ``.perfbench_out/``.  The exit code is 0 only
when every output checked equals its reference.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("survey-exhaustive", "survey-pipeline", "serve-keepalive")

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUPS = 5

_READY = "import repro.api\nprint('ready', flush=True)\n"

#: Every per-layer metric, in report order.  A traced run reports all of
#: them; a layer the workload does not run reads 0.
PER_LAYER = (
    "core.construct_s",
    "core.construct_calls",
    "numbering.digit_weights_calls",
    "numbering.digit_weights_unique_ratio",
    "graphs.resolve_s",
    "graphs.make_graph_calls",
    "analysis.measure_s",
    "analysis.stacked_calls",
    "analysis.rows_per_stacked_call",
    "analysis.fault_repair_s",
    "netsim.traffic_s",
    "netsim.simulate_s",
    "netsim.phases_per_call",
    "netsim.messages",
    "optimize.search_s",
    "optimize.steps",
    "optimize.improved_ratio",
    "survey.shard_s",
    "survey.assemble_self_s",
    "survey.store_write_s",
    "survey.store_bytes",
    "client.latency_p50_ms",
    "service.server_p50_ms",
    "service.server_p99_ms",
    "service.transport_p50_ms",
    "service.batch_size_mean",
    "service.coalesced_share",
    "service.evaluate_ms",
    "runtime.cache_hit_ratio",
    "service.shed",
    "service.timeouts",
    "client.retries",
    "setup.import_s",
    "setup.daemon_ready_s",
    "error_rate",
    "trace.overhead_s",
    "trace.overhead_share",
    "trace.coverage",
)

UNITS = {
    "setup_s": "s",
    "records_per_s": "1/s",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MiB",
}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_ratio", "_share", "coverage", "error_rate")):
        return "ratio"
    if "_per_" in name:
        return "ratio"
    return "count"


def host_record() -> Dict[str, object]:
    """Where a result was measured: CPUs, CPU model, Python, NumPy, the
    optional kernel toolchains and the exact source measured."""
    import numpy

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            completed = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            )
            commit = completed.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cffi": importlib.util.find_spec("cffi") is not None,
        "numba": importlib.util.find_spec("numba") is not None,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _nearest_rank(values: List[float], fraction: float) -> float:
    """Nearest-rank quantile (the rank ``/stats`` uses too)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(fraction * len(ordered))))]


def _per_layer(measured: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric: the measured ones, 0 for the rest."""
    unknown = set(measured) - set(PER_LAYER)
    if unknown:
        raise ValueError(f"unlisted per-layer metrics {sorted(unknown)}")
    return {name: measured.get(name, 0.0) for name in PER_LAYER}


def _result(metrics, attempted, failed, problems, details) -> Dict:
    return {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
        "problems": problems[:20],
        "details": details,
    }


def import_setups(env: Dict[str, str]) -> List[float]:
    """Seconds from a fresh interpreter's start to ``import repro.api`` done,
    :data:`SETUPS` times.

    One unmeasured start first, so every measured start finds the bytecode
    cache written.
    """
    seconds = []
    for attempt in range(SETUPS + 1):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", _READY],
            cwd=OUT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.close()
        if child.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("a fresh interpreter could not import repro.api")
        if attempt:
            seconds.append(elapsed)
    return seconds


def run_survey_workload(name: str, seed: int, seconds: float, trace: bool, env):
    import seeded
    import sweeps
    from repro.survey import read_records

    if name == "survey-exhaustive":
        scenarios = seeded.exhaustive_sample(seed)
    else:
        scenarios = seeded.pipeline_scenarios(seed)
    output = OUT / f"{name}-records.json"
    details = {"scenarios": len(scenarios)}
    if trace:
        spans_path = OUT / f"{name}-seed{seed}-spans.jsonl"
        layers, traced = sweeps.traced_sweeps(scenarios, output, spans_path, seconds)
        layers["setup.import_s"] = statistics.median(import_setups(env))
        metrics = _per_layer(layers)
        details.update(traced)
        records = read_records(output)
        attempted, failed = len(records), sweeps.failed_count(records)
    else:
        setups = import_setups(env)
        run = sweeps.timed_sweeps(scenarios, output, seconds)
        records = run.last_records
        sweep_ms = [value * 1e3 for value in run.seconds]
        # The host runs at two speeds whose mix changes from minute to
        # minute; the slowest sweep of a run (the slower speed, met in most
        # runs) moves less than the median, which follows the mix (README.md).
        p99_ms = _nearest_rank(sweep_ms, 0.99)
        metrics = {
            "setup_s": statistics.median(setups),
            "records_per_s": run.records / (p99_ms / 1e3),
            "latency_p99_ms": p99_ms,
            "peak_rss_mb": run.peak_rss_mb,
        }
        attempted = run.records * len(run.seconds)
        failed = run.failed * len(run.seconds)
        details.update(
            sweeps=len(run.seconds),
            records_per_sweep=run.records,
            latency_unit="one sweep (run_survey + write_records)",
            latency_p50_ms=statistics.median(sweep_ms),
            sweep_seconds=run.seconds,
            setup_seconds=setups,
        )
    problems = sweeps.check_records(name, seed, scenarios, records, output)
    return _result(metrics, attempted, failed, problems, details)


def run_serve_workload(seed: int, seconds: float, trace: bool, env):
    import seeded
    import serving

    mix = seeded.request_mix(seed, 50_000)
    measured_mix = mix[serving.WARMUP_REQUESTS :]
    readies = serving.daemon_setups(env, OUT, SETUPS)
    daemon = serving.start_daemon(env, OUT)
    try:
        serving.warm_up(daemon.url, seeded.REQUEST_POOL, mix)
        before = serving.stats(daemon.url)
        if trace:
            # Half the time untraced, half with client spans: the latency
            # difference is the tracing overhead.
            half = serving.MIN_REQUESTS // 2
            untraced = serving.closed_loop(daemon.url, measured_mix, seconds / 2, half)
            load = serving.closed_loop(
                daemon.url, measured_mix, seconds / 2, half, traced=True
            )
        else:
            load = serving.closed_loop(daemon.url, measured_mix, seconds)
        after = serving.stats(daemon.url)
        daemon_rss = serving.peak_rss_mb(daemon.process.pid)
    finally:
        serving.stop_daemon(daemon.process)
    if trace:
        traced_p50 = statistics.median(load.latencies)
        untraced_p50 = statistics.median(untraced.latencies)
        load.merge(untraced)
    delta = serving.stats_delta(before, after)
    sent = len(load.latencies) + len(load.errors)
    # Requests that raised (non-2xx after retries, timeouts, transport
    # errors) plus every client retry (a shed request is retried).
    failed = len(load.errors) + load.retries
    latencies_ms = [value * 1e3 for value in load.latencies]
    client_p50 = statistics.median(latencies_ms)
    details = {
        "requests": sent,
        "connections": serving.CONNECTIONS,
        "loop": "closed",
        "measured_seconds": load.wall,
        "latency_unit": "one request, client-measured",
        "latency_p50_ms": client_p50,
        "setup_seconds": readies,
        "server_requests": delta["requests"],
        "batches": delta["batches"],
        "errors": load.errors[:5],
    }
    if trace:
        server = after["latency_ms"]
        metrics = _per_layer(
            {
                "client.latency_p50_ms": client_p50,
                "service.server_p50_ms": server["p50"],
                "service.server_p99_ms": server["p99"],
                "service.transport_p50_ms": client_p50 - server["p50"],
                "service.batch_size_mean": delta["batch_size_mean"],
                "service.coalesced_share": delta["coalesced_share"],
                "service.evaluate_ms": serving.evaluate_ms(mix),
                "runtime.cache_hit_ratio": delta["cache_hit_ratio"],
                "service.shed": delta["shed"],
                "service.timeouts": delta["timeouts"],
                "client.retries": load.retries,
                "setup.daemon_ready_s": statistics.median(readies),
                "error_rate": failed / sent,
                "trace.overhead_s": traced_p50 - untraced_p50,
                "trace.overhead_share": (traced_p50 - untraced_p50) / untraced_p50,
                "trace.coverage": load.span_coverage(),
            }
        )
        # /stats keeps the last STATS_WINDOW latencies: its quantiles
        # describe the measured phase only while the phase fits.
        fits = delta["requests"] <= serving.STATS_WINDOW
        details["server_quantiles_cover_measured_phase"] = fits
        details["server_window_requests"] = server["count"]
        load.write_spans(OUT / f"serve-keepalive-seed{seed}-spans.jsonl")
    else:
        metrics = {
            "setup_s": statistics.median(readies),
            "records_per_s": len(load.latencies) / load.wall,
            "latency_p99_ms": _nearest_rank(latencies_ms, 0.99),
            "peak_rss_mb": daemon_rss,
        }
    problems = serving.check_responses(load)
    if load.errors:
        problems.append(f"{len(load.errors)} requests failed: {load.errors[0]}")
    return _result(metrics, sent, failed, problems, details)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    env = dict(os.environ)
    paths = (str(SRC), env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
    # Set-up is timed with the bytecode cache in place, as after an install:
    # the first, unmeasured start of each kind writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if name == "serve-keepalive":
        return run_serve_workload(seed, seconds, trace, env)
    return run_survey_workload(name, seed, seconds, trace, env)


def _run_all(args) -> int:
    """Every workload in its own process (so peak RSS and caches stay per
    workload); prints their metric lines and one combined JSON line."""
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, __file__, "--workload", name]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        command += ["--trace", str(args.trace)]
        completed = subprocess.run(command, capture_output=True, text=True)
        lines = completed.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):  # the run crashed before its result
            sys.stderr.write(completed.stderr)
            return completed.returncode or 1
        print("\n".join(lines[:-2]), flush=True)
        final["correct"] = final["correct"] and result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            final["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    name = args.workload
    host = host_record()
    result = run_one(name, args.seed, args.seconds, bool(args.trace))
    document = dict(
        result,
        workload=name,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        host=host,
    )
    path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    for metric, value in result["metrics"].items():
        print(f"{name:<18} {metric:<38} {value:>14.6g} {_unit(metric)}")
    for problem in result["problems"]:
        print(f"{name:<18} MISMATCH {problem}")
    summary = dict(result["details"], workload=name, seed=args.seed, host=host)
    print(json.dumps(summary))
    final = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric: {"value": value, "unit": _unit(metric)}
            for metric, value in result["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
