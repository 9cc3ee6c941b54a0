"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hot-repl-jit --seed 1 --seconds 20 --trace 0

The workload's inputs come from ``--seed``. The run repeats the
workload (set-up, then every request) until ``--seconds`` have passed,
checks every output against the benchmark's own reference, and prints
its metrics; the last line of standard output is one JSON object. A
wrong output, a nondeterministic rep or a failed paper claim ends the
run with exit code 1 and no result.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics instead: it alternates untraced and span-traced reps
(their difference is the tracing overhead), then makes one counted rep
that attributes Python calls to layers, and writes the spans to
``.perfbench/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


#: Set-up is timed at least this often per run (its median is reported).
MIN_SETUPS = 5
#: How much slower a counted rep runs than an untraced one (about 5x
#: measured on every workload).
COUNTED_SLOWDOWN = 5


class RunFailed(Exception):
    """The run produced a wrong or unreportable result."""


def supported_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    if n <= 10:
        return 0.0
    return math.floor(1000.0 * (n - 10) / n) / 10.0


def timed_rep(workload, probe=None):
    """One rep: set-up, then the measured window (optionally probed)."""
    gc.collect()
    t0 = time.perf_counter()
    state = workload.setup()
    t1 = time.perf_counter()
    if probe is None:
        served = workload.serve(state)
        t2 = time.perf_counter()
    else:
        with probe:
            t1 = time.perf_counter()
            served = workload.serve(state)
            t2 = time.perf_counter()
    workload.close(state)
    if served.mismatches:
        shown = "\n  ".join(served.mismatches[:10])
        raise RunFailed(
            f"{len(served.mismatches)} outputs differ from the reference:\n  {shown}"
        )
    return t1 - t0, t2 - t1, t1, served


def fingerprint(served) -> tuple:
    """What must repeat exactly between reps of the same inputs."""
    return (
        served.outputs,
        served.latencies,
        served.span_ms,
        sorted(served.counters.items()),
    )


class Runner:
    def __init__(self, workload, seconds: float) -> None:
        self.workload = workload
        self.seconds = seconds
        self.first = None
        self.attempted = 0
        self.failed = 0

    def rep(self, probe=None):
        setup_s, serve_s, start, served = timed_rep(self.workload, probe)
        if self.first is None:
            self.first = served
        elif fingerprint(served) != fingerprint(self.first):
            raise RunFailed("two reps of the same inputs gave different results")
        self.attempted += served.attempted
        self.failed += served.failed
        return setup_s, serve_s, start, served


def end_to_end(runner: Runner, report) -> dict:
    """Repeat reps until the time is up; medians of the host figures,
    modeled figures from the (identical) reps."""
    from workloads import SLO_MS, percentile

    setups, per_1k = [], []
    t_end = time.perf_counter() + runner.seconds
    while True:
        setup_s, serve_s, _, served = runner.rep()
        setups.append(setup_s)
        per_1k.append(serve_s / served.completed * 1000.0)
        if time.perf_counter() >= t_end and len(setups) >= 2:
            break
    while len(setups) < MIN_SETUPS:
        gc.collect()
        t0 = time.perf_counter()
        state = runner.workload.setup()
        setups.append(time.perf_counter() - t0)
        runner.workload.close(state)
        # Drop it before the next set-up, or two states are alive at once
        # and the peak RSS depends on how many reps fitted in the time.
        del state
    served = runner.first
    lat = served.latencies
    n = len(lat)
    report(f"reps: {len(per_1k)}; requests per rep: {served.completed}; "
           f"interactive latency samples per rep: {n}, "
           f"supported up to p{supported_percentile(n):g}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "host_s_per_1k_req": (statistics.median(per_1k), "s"),
        "host_peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "modeled_jobs_per_s": (
            served.completed / (served.span_ms / 1000.0), "1/s"),
        "modeled_p50_ms": (percentile(lat, 0.50), "ms"),
        "modeled_p99_ms": (percentile(lat, 0.99), "ms"),
        "slo_attainment": (sum(1 for x in lat if x <= SLO_MS) / n, "ratio"),
    }
    report(f"setup_s: median of {len(setups)} set-ups "
           f"{[round(x, 4) for x in setups]}")
    report(f"host_s_per_1k_req: median of {len(per_1k)} reps "
           f"{[round(x, 4) for x in per_1k]}")
    return metrics


def workload_extras(served) -> dict:
    """Figures that exist for one workload only (0 on the others)."""
    from workloads import SLO_MS

    c = served.counters
    extras = {
        "failed_share": (served.failed / served.attempted, "ratio"),
        "modeled_bulk_elems_per_s": (0.0, "1/s"),
        "slo_max_rate_rps": (0.0, "1/s"),
        "claims_passed": (c.get("claims_passed", 0), "count"),
    }
    if "bulk.span_ms" in c:
        extras["modeled_bulk_elems_per_s"] = (
            c["bulk.elements"] / (c["bulk.span_ms"] / 1000.0), "1/s")
        passing = [
            rate for rate, p99, failed, growing in c["per_rate"]
            if p99 <= SLO_MS and failed == 0 and not growing
        ]
        extras["slo_max_rate_rps"] = (max(passing, default=0), "1/s")
    return extras


def per_layer(runner: Runner, workload_name: str, report) -> dict:
    """Traced and counted reps: per-layer self time, calls and figures."""
    from tracing import LAYERS, SPLIT_LAYERS, CountProbe, SpanProbe
    from workloads import percentile

    untraced, traced = [], []
    t_end = time.perf_counter() + runner.seconds
    while True:
        untraced.append(runner.rep()[1])
        probe = SpanProbe()
        _, serve_s, start, _ = runner.rep(probe)
        traced.append((serve_s, start, probe))
        # Leave room in the budget for the counted rep.
        counted_cost = COUNTED_SLOWDOWN * statistics.median(untraced)
        if time.perf_counter() + counted_cost >= t_end:
            break
    # Every per-layer time comes from the median traced rep, so the
    # self times and the residual add up to its window exactly.
    traced.sort(key=lambda t: t[0])
    serve_s, start, probe = traced[(len(traced) - 1) // 2]
    spans_path = os.path.join(".perfbench", f"spans-{workload_name}.jsonl")
    probe.write(spans_path, start)
    selves = probe.self_times()

    counter = CountProbe(SRC)
    t0 = time.perf_counter()
    _, _, _, served = runner.rep(counter)
    counted_s = time.perf_counter() - t0

    m = {}
    for layer in LAYERS:
        if layer in SPLIT_LAYERS:
            for part in SPLIT_LAYERS[layer]:
                m[f"{layer}.{part}_host_ms"] = (
                    selves.get(f"{layer}.{part}", 0.0) * 1000.0, "ms")
        else:
            m[f"{layer}.host_ms"] = (selves.get(layer, 0.0) * 1000.0, "ms")
    total_ms = serve_s * 1000.0
    m["unattributed.host_ms"] = (total_ms - sum(selves.values()) * 1000.0, "ms")
    m["trace.total_ms"] = (total_ms, "ms")
    m["trace.overhead_ms"] = (
        (statistics.median(t[0] for t in traced) - statistics.median(untraced))
        * 1000.0, "ms")

    calls, values = counter.calls, counter.values
    c = served.counters
    sizes, waits = counter.batch_sizes, counter.queue_waits
    formation_calls = calls["formation"]
    m.update({
        "admission.calls": (calls["admission"], "count"),
        "admission.refused": (c.get("admission.refused", 0), "count"),
        "placement.calls": (calls["placement"], "count"),
        "formation.calls": (formation_calls, "count"),
        "formation.yield": (
            calls["formation.nonempty"] / formation_calls if formation_calls else 0.0,
            "ratio"),
        "formation.batch_size_mean": (
            sum(sizes) / len(sizes) if sizes else 0.0, "count"),
        "formation.queue_wait_p50_ms": (percentile(waits, 0.50), "ms"),
        "formation.queue_wait_p99_ms": (percentile(waits, 0.99), "ms"),
        "pipeline.util_spread": (c.get("pipeline.util_spread", 0.0), "ratio"),
        "pipeline.overlap_ms": (c.get("pipeline.overlap_ms", 0.0), "ms"),
        "pipeline.stall_ms": (values["pipeline.stall_ms"], "ms"),
        "rebalancer.calls": (calls["rebalancer"], "count"),
        "rebalancer.migrations": (c.get("rebalancer.migrations", 0), "count"),
        "checkpoint.shipped": (c.get("checkpoint.shipped", 0), "count"),
        "checkpoint.skipped": (c.get("checkpoint.skipped", 0), "count"),
        "checkpoint.bytes": (c.get("checkpoint.bytes", 0), "B"),
        "failover.recovered": (c.get("failover.recovered", 0), "count"),
        "failover.replayed": (c.get("failover.replayed", 0), "count"),
        "snapshot.bytes": (values["snapshot.bytes"], "B"),
        "bulk.chunks": (c.get("bulk.chunks", 0), "count"),
        "stats.calls": (calls["stats"], "count"),
        "device.batches": (values["device.batches"], "count"),
        "device.modeled_upload_ms": (values["device.modeled_upload_ms"], "ms"),
        "device.modeled_kernel_ms": (values["device.modeled_kernel_ms"], "ms"),
        "device.modeled_download_ms": (values["device.modeled_download_ms"], "ms"),
        "parse.modeled_ms": (values["parse.modeled_ms"], "ms"),
        "parse_cache.hit_rate": (
            values["parse_cache.hits"] / values["parse_cache.lookups"]
            if values["parse_cache.lookups"] else 0.0, "ratio"),
        "eval.modeled_ms": (values["eval.modeled_ms"], "ms"),
        "print.modeled_ms": (values["print.modeled_ms"], "ms"),
        "gc.modeled_ms": (values["gc.modeled_ms"], "ms"),
        "gc.major_collections": (c.get("gc.major_collections", 0), "count"),
        "gc.regions_reset": (c.get("gc.regions_reset", 0), "count"),
        "jit.traces_compiled": (c.get("jit.traces_compiled", 0), "count"),
        "jit.trace_hits": (c.get("jit.trace_hits", 0), "count"),
        "jit.guard_bails": (c.get("jit.guard_bails", 0), "count"),
    })
    for layer in LAYERS + ["unattributed"]:
        m[f"{layer}.pycalls"] = (counter.pycalls[layer], "count")
    m["counted.wall_s"] = (counted_s, "s")
    m.update(workload_extras(served))

    report(f"traced reps: {len(traced)}; host self time per layer in the "
           f"median one ({total_ms:.1f} ms; untraced median "
           f"{statistics.median(untraced) * 1e3:.1f} ms):")
    for layer in LAYERS + ["unattributed"]:
        host = [v for k, (v, u) in m.items()
                if k.startswith(layer + ".") and k.endswith("host_ms")]
        report(f"  {layer:<13} {sum(host):10.1f} ms  "
               f"{counter.pycalls[layer]:>10} calls")
    report(f"queue-wait samples: {len(waits)}, supported up to "
           f"p{supported_percentile(len(waits)):g}; spans written to {spans_path}")
    return m


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: the program's sources are missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing, so call counts and set orders repeat.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, __file__] + sys.argv[1:], env)
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    def report(line: str) -> None:
        print(f"# {line}", flush=True)

    workload = WORKLOADS[args.workload](args.seed)
    runner = Runner(workload, args.seconds)
    try:
        if args.trace:
            metrics = per_layer(runner, args.workload, report)
        else:
            metrics = end_to_end(runner, report)
        claims = runner.first.counters.get("claims_failed")
        if claims:
            raise RunFailed(f"paper claims failed: {claims}")
    except RunFailed as err:
        print(f"perfbench: {args.workload} seed {args.seed}: {err}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        if not math.isfinite(value):
            print(f"perfbench: {name} is not finite ({value})", file=sys.stderr)
            return 1
        report(f"{name:<28} {value:>14.6g} {unit}")
    result = {
        "correct": True,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
