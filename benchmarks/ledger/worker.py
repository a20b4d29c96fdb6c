"""One measuring process: set up one workload, time its reps, check outputs.

Started by ``cli.py`` as ``python -m ledger.worker`` with the program's
``src`` on ``PYTHONPATH``; prints one JSON object as its last stdout line.
With ``--setup-only`` it stops after set-up (a cold start for
``setup_s``).  A single caller runs reps in a closed loop: the next rep
starts only when the previous one has returned.

Shared hosts change speed from minute to minute.  The host probe
(``host.py``) runs between reps, and each rep's times are scaled by the
mean of the samples just before and just after it, to the speed of the
reference host; the raw numbers stay in the run's detail.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import metrics as obs_metrics

from . import host, stats, trace, workloads

#: Minimum reps of an untraced run, and of traced pairs.
MIN_REPS = 3
MIN_TRACED_PAIRS = 6

#: Program counters read from the rep's metrics capture.
PROGRAM_COUNTERS = (
    "tem.copies", "tem.jobs", "sim.events",
    "harness.batch_chunks", "harness.batch_fallbacks", "harness.retries",
)


def fingerprint() -> Dict[str, Any]:
    """The machine and toolchain a run measured."""
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "reference_kernel_s": host.REFERENCE_KERNEL_S,
    }


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def run_rep(
    workload: workloads.Workload,
    rep: int,
    inputs: Any,
    probe: host.HostProbe,
    kernel_before: float,
    tracer: Optional[trace.Tracer] = None,
) -> Tuple[Dict[str, Any], Optional[List[float]], float]:
    """Time one rep between two host-kernel samples.

    Returns the rep's record, its per-call latencies and the closing
    kernel sample, which the next rep reuses as its opening one.
    """
    gc.collect()
    with obs_metrics.capture() as registry:
        if tracer is not None:
            tracer.install(rep)
        self0, children0 = _cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_CHILDREN)
        started = time.perf_counter()
        try:
            output = workload.run(inputs)
        finally:
            ended = time.perf_counter()
            if tracer is not None:
                tracer.uninstall()
                tracer.windows[rep] = (started, ended)
        self1, children1 = _cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_CHILDREN)
    kernel_after = probe.sample()
    summary = workload.summarise(rep, inputs, output)
    workload.finish(inputs)
    counts = {key: int(registry.counter(key)) for key in PROGRAM_COUNTERS}
    counts.update(summary.counts)
    kernel_s = (kernel_before + kernel_after) / 2
    record = {
        "rep": rep,
        "wall_s": ended - started,
        "ops": summary.ops,
        "kernel_s": kernel_s,
        "host_speed": host.REFERENCE_KERNEL_S / kernel_s,
        "cpu_self_s": self1 - self0,
        "cpu_children_s": children1 - children0,
        "digest": summary.digest,
        "failures": summary.failures,
        "counts": counts,
    }
    return record, summary.latencies_s, kernel_after


def call_latencies(
    reps: List[Dict[str, Any]], latencies: List[Optional[List[float]]]
) -> Tuple[float, float, Dict[str, Any]]:
    """``(p50_ms, tail_ms, detail)`` of calls into the public entry point.

    Latencies are normalised to the reference host speed per rep.  When a
    rep makes many calls (``multicore_des`` times each trial), every rep
    yields its own p50 and tail and the metric is their median over reps,
    so one disturbed rep cannot move it.  When a rep is a single call, the
    reps' latencies are the samples.
    """
    if all(latencies):
        per_call = len(latencies[0])
        tail_q = stats.tail_quantile(per_call)
        scaled = [
            [1e3 * s * rep["host_speed"] for s in samples]
            for rep, samples in zip(reps, latencies)
        ]
        p50 = stats.summary([stats.percentile(r, 0.5) for r in scaled])["median"]
        tail = stats.summary([stats.percentile(r, tail_q) for r in scaled])["median"]
        return p50, tail, {
            "per_rep_calls": per_call, "reps": len(reps), "tail_quantile": tail_q,
            "samples_beyond_tail": stats.samples_beyond(per_call, tail_q),
        }
    walls_ms = [1e3 * rep["wall_s"] * rep["host_speed"] for rep in reps]
    tail_q = stats.tail_quantile(len(walls_ms))
    return (
        stats.percentile(walls_ms, 0.5),
        stats.percentile(walls_ms, tail_q),
        {
            "per_rep_calls": 1, "reps": len(reps), "tail_quantile": tail_q,
            "samples_beyond_tail": stats.samples_beyond(len(walls_ms), tail_q),
        },
    )


def end_to_end(
    reps: List[Dict[str, Any]], latencies: List[Optional[List[float]]]
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Any]]:
    """End-to-end metrics (all but ``setup_s``) and their sample details.

    Throughput is normalised to the reference host speed per rep, using
    the host kernel run just before and just after the rep.
    """
    rates = [rep["ops"] / rep["wall_s"] / rep["host_speed"] for rep in reps]
    raw_rates = [rep["ops"] / rep["wall_s"] for rep in reps]
    p50, tail, calls = call_latencies(reps, latencies)
    metrics = {
        "ops_per_s": {"value": stats.summary(rates)["median"], "unit": "1/s"},
        "call_p50_ms": {"value": p50, "unit": "ms"},
        "call_tail_ms": {"value": tail, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    detail = {
        "ops_per_s": stats.summary(rates),
        "raw_ops_per_s": stats.summary(raw_rates),
        "host_speed": stats.summary([rep["host_speed"] for rep in reps]),
        "calls": calls,
    }
    return metrics, detail


def _measure(workload, first_inputs, seconds: float, probe, kernel: float):
    reps, latencies = [], []
    deadline = time.perf_counter() + seconds
    inputs, rep = first_inputs, 0
    while True:
        record, samples, kernel = run_rep(workload, rep, inputs, probe, kernel)
        reps.append(record)
        latencies.append(samples)
        rep += 1
        if rep >= MIN_REPS and time.perf_counter() >= deadline:
            return reps, latencies
        inputs = workload.prepare(rep)


def _measure_traced(workload, first_inputs, seconds: float, probe, kernel: float,
                    min_pairs: int):
    """Alternate untraced and traced runs of the same rep until the
    deadline; returns both halves and the tracer."""
    tracer = trace.Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    inputs, rep = first_inputs, 0
    while True:
        record, _, kernel = run_rep(workload, rep, inputs, probe, kernel)
        untraced.append(record)
        record, _, kernel = run_rep(
            workload, rep, workload.prepare(rep), probe, kernel, tracer
        )
        traced.append(record)
        rep += 1
        if rep >= min_pairs and time.perf_counter() >= deadline:
            return untraced, traced, tracer
        inputs = workload.prepare(rep)


def _same_simulation(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    return a["digest"] == b["digest"] and a["counts"] == b["counts"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="ledger.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    scratch = Path(args.scratch) / f"worker-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        workload = workloads.make(args.workload, args.seed, args.quick, scratch)
        workload.warm_up()
        first_inputs = workload.prepare(0)
        ready = time.monotonic()
        with host.HostProbe(workload.cores) as probe:
            # Host speed right after set-up: normalises this cold start,
            # and opens the first rep's bracket.
            kernel = probe.sample()
            if args.setup_only:
                workload.finish(first_inputs)
                print(json.dumps({
                    "ready": ready, "host_speed": host.REFERENCE_KERNEL_S / kernel,
                }))
                return 0
            result = measure(workload, first_inputs, probe, kernel, args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["ready"] = ready
    result["host_speed"] = host.REFERENCE_KERNEL_S / kernel
    print(json.dumps(result))
    return 0


def measure(
    workload: workloads.Workload, first_inputs: Any, probe: host.HostProbe,
    kernel: float, args: argparse.Namespace,
) -> Dict[str, Any]:
    """Run the timed loop (and the traced pairs), then the output checks."""
    mismatched_ops = 0
    if args.trace:
        untraced, traced, tracer = _measure_traced(
            workload, first_inputs, args.seconds, probe, kernel,
            1 if args.quick else MIN_TRACED_PAIRS,
        )
        reps = untraced + traced
        pairs = [(u, t) for u, t in zip(untraced, traced) if not _same_simulation(u, t)]
        mismatched = [t["rep"] for _, t in pairs]
        mismatched_ops = sum(t["ops"] for _, t in pairs)
        ledger = trace.Ledger(
            tracer.spans, tracer.windows, traced, untraced, workers=workload.workers
        )
        metrics = trace.layer_metrics(ledger)
        detail: Dict[str, Any] = {
            "traced_reps": len(traced),
            "mismatched_traced_reps": mismatched,
            "spans": len(tracer.spans),
            "self_ms_by_span": {
                name: 1e3 * seconds / ledger.reps
                for name, seconds in sorted(ledger.self_s.items())
            },
            "calls_by_span": {
                name: count / ledger.reps for name, count in sorted(ledger.calls.items())
            },
            "rep_wall_ms": 1e3 * ledger.wall_s() / ledger.reps,
        }
        if args.trace_out:
            tracer.write(args.trace_out)
    else:
        reps, latencies = _measure(workload, first_inputs, args.seconds, probe, kernel)
        metrics, detail = end_to_end(reps, latencies)
    rep_ids = sorted({rep["rep"] for rep in reps})
    check_failed, checks = workload.check(rep_ids)
    harness_failed = sum(rep["failures"] for rep in reps)
    attempted = sum(rep["ops"] for rep in reps)
    failed = min(attempted, harness_failed + check_failed + mismatched_ops)
    checks["program_reported_failures"] = harness_failed
    checks["traced_untraced_mismatched_ops"] = mismatched_ops
    return {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "quick": bool(args.quick),
        "fingerprint": fingerprint(),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "metrics": metrics,
        "detail": detail,
        "reps": reps,
    }


if __name__ == "__main__":
    sys.exit(main())
