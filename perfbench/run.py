"""Fixed-work benchmark of geocard, end to end and layer by layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. ``--workload`` is one of sweep,
ec7_design and mcp_session; ``--seed`` fixes the operation list;
``--seconds`` sizes it (the list takes about that long on a 2-CPU
machine, and the same arguments always give the same list). With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it
times the calls into each geocard layer instead, prints the per-layer
metrics and writes its spans under perfbench/results/. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import selftest  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from clock import Clock  # noqa: E402

RESULTS_DIR = workloads.BENCH_DIR / "results"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_geocard():
    sys.path.insert(0, str(workloads.SRC))
    import geocard
    import geocard.server  # noqa: F401  (the MCP layer, for in-process runs)
    return geocard


def untraced(workload) -> tuple:
    geocard = import_geocard()
    workload.prepare(geocard)
    clock = Clock()
    # Set-up samples are spread over the run, between operations, so they
    # meet the same machine conditions as the operations do. The first
    # one also fills the bytecode cache and is not kept.
    workload.setup_sample()
    setup = []
    every = -(-workload.size // workloads.SETUP_REPEATS)

    def before_op(index):
        if index % every == 0:
            setup_clock = Clock()
            setup_clock.start()
            seconds = workload.setup_sample()
            setup_clock.stop()
            setup.append(seconds * setup_clock.scales[-1])

    if workload.name == "mcp_session":
        client = workloads.StdioClient()
        try:
            outcome = workload.run(client, clock, before_op)
            peak_rss_mb = client.close()
        finally:
            client.kill()
    else:
        outcome = workload.run(geocard, clock, before_op)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = outcome.latencies
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (workloads.percentile(lat, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw = {
        "wall ops_per_s": (len(clock.raw) / sum(clock.raw), "1/s"),
        "wall op_p50_ms": (statistics.median(clock.raw) * 1e3, "ms"),
        "speed vs reference": (statistics.median(clock.scales), "x"),
    }
    return outcome, metrics, raw, geocard


def traced(workload, seed: int) -> tuple:
    t0 = time.perf_counter()
    geocard = import_geocard()
    import_ms = (time.perf_counter() - t0) * 1e3
    extra = {}
    raw = {}
    clock = Clock()
    if workload.name == "mcp_session":
        # Untraced stdio and in-process passes over the same tasks give the
        # transport's share; a traced in-process pass gives the layers.
        workload.prepare(geocard)
        client = workloads.StdioClient()
        try:
            stdio = workload.run(client, Clock())
            client.close()
        finally:
            client.kill()
        local = workload.run(workloads.InProcessClient(geocard.server), Clock())
        extra["server.transport_ms"] = (statistics.median(
            a - b for a, b in zip(stdio.latencies, local.latencies)) * 1e3, "ms")
        raw["untraced in-process ops_per_s"] = (
            len(local.latencies) / sum(local.latencies), "1/s")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            outcome = workload.run(workloads.InProcessClient(geocard.server),
                                   clock, tracer.set_op)
        finally:
            tracer.uninstall()
        extra["server.reply_bytes"] = (statistics.fmean(outcome.extra["reply_bytes"]), "bytes")
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            workload.prepare(geocard)
            outcome = workload.run(geocard, clock, tracer.set_op)
        finally:
            tracer.uninstall()
        extra["server.transport_ms"] = (0.0, "ms")
        extra["server.reply_bytes"] = (0.0, "bytes")
    n_ops = len(outcome.latencies)
    scale = statistics.median(clock.scales)
    metrics = {"import.geocard_ms": (import_ms * scale, "ms")}
    metrics.update(tracer.layer_metrics(n_ops, scale))
    metrics.update(extra)
    metrics["ec7.designs_failing_own_check"] = (
        outcome.extra.get("designs_failing_own_check", 0.0), "share")
    metrics["trace.ops_per_s"] = (n_ops / sum(outcome.latencies), "1/s")
    tracer.write(RESULTS_DIR / f"spans-{workload.name}-seed{seed}.jsonl")
    raw["speed vs reference"] = (scale, "x")
    return outcome, metrics, raw, geocard


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (workloads.SRC / "geocard" / "__init__.py").is_file():
        print(f"error: no geocard sources under {workloads.SRC}; run from the "
              "root of a geocard checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    if args.trace:
        outcome, metrics, raw, geocard = traced(workload, args.seed)
    else:
        outcome, metrics, raw, geocard = untraced(workload)

    missed = selftest.run(geocard)
    for name in missed:
        print(f"self-test: check did not catch: {name}", file=sys.stderr)
    for problem in outcome.unexpected[:5]:
        print(f"failed operation: {problem}", file=sys.stderr)
    if not outcome.determinism_ok:
        print("replayed requests got different replies", file=sys.stderr)
    correct = not missed and not outcome.unexpected and outcome.determinism_ok

    attempted = len(outcome.latencies)
    print(f"{workload.name} seed {args.seed}: {attempted} operations, "
          f"{outcome.failed} failed, correct {correct}")
    for name, (value, unit) in {**metrics, **raw}.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
