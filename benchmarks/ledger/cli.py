"""Command line: ``run`` the ledger's workloads, ``compare`` two sets.

``run`` starts every workload in fresh processes of its own (see
``worker.py``): ``COLD_STARTS - 1`` set-up-only processes, then the
measuring process, whose set-up is the last cold start.  The parent only
waits, so at most one measuring process (plus the campaign's own pool
workers for ``e5_jobs2``) is busy at a time.  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import compare as compare_mod
from . import spec

#: Repository root: ``benchmarks/ledger/cli.py`` -> three levels up.
ROOT = Path(__file__).resolve().parents[2]

#: A run must finish within this many seconds of its start.
RUN_BUDGET_S = 175.0

SET_SCHEMA = "ledger-set-v1"


class LedgerError(RuntimeError):
    """A run could not produce a result."""


def _program_present() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # The ledger measures the program's default configuration.
    env.pop("REPRO_FAST", None)
    # One BLAS thread: at these chain sizes extra BLAS threads do not speed
    # the solves up (0.423 s vs 0.425 s per study on the reference host)
    # but keep a second core spinning, which the single caller would then
    # share with whatever else runs on the host.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _launch(args: List[str], deadline: float) -> "tuple[float, Dict[str, Any]]":
    """Run one worker; returns (launch time, its JSON result)."""
    command = [sys.executable, "-m", "ledger.worker", *args]
    launched = time.monotonic()
    process = subprocess.Popen(
        command, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        out, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise LedgerError(f"worker timed out: {' '.join(args)}")
    if process.returncode != 0:
        raise LedgerError(f"worker exited with {process.returncode}: {' '.join(args)}")
    lines = out.strip().splitlines()
    if not lines:
        raise LedgerError(f"worker printed no result: {' '.join(args)}")
    return launched, json.loads(lines[-1])


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, quick: bool,
    scratch: Path, trace_out: Optional[str], deadline: float,
) -> Dict[str, Any]:
    """Cold starts plus one measuring process for workload *name*."""
    base = [
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--scratch", str(scratch),
    ] + (["--quick"] if quick else [])
    # Each cold start is normalised by the host speed measured right after it.
    setups: List[float] = []
    if not traced:
        for _ in range(1 if quick else spec.COLD_STARTS - 1):
            launched, result = _launch(base + ["--setup-only"], deadline)
            setups.append((result["ready"] - launched) * result["host_speed"])
    extra = ["--trace", "1" if traced else "0"]
    if trace_out:
        extra += ["--trace-out", trace_out]
    launched, result = _launch(base + extra, deadline)
    if not traced:
        setups.append((result["ready"] - launched) * result["host_speed"])
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["setup_samples_s"] = setups
        order = [m.name for m in spec.END_TO_END]
        result["metrics"] = {key: result["metrics"][key] for key in order}
    result["seconds"] = seconds
    result["failed_ratio"] = result["failed"] / result["attempted"]
    return result


def cross_check_e5(results: List[Dict[str, Any]]) -> None:
    """Per-rep record digests of E5 workloads run together must agree;
    marks each disagreeing rep's operations failed."""
    runs = [r for r in results if r["workload"] in spec.E5_WORKLOADS and not r["trace"]]
    for run in runs[1:]:
        reference = {rep["rep"]: rep["digest"] for rep in runs[0]["reps"]}
        bad = [
            rep for rep in run["reps"]
            if rep["rep"] in reference and rep["digest"] != reference[rep["rep"]]
        ]
        run["checks"]["e5_digest_mismatches_vs_" + runs[0]["workload"]] = len(bad)
        if bad:
            run["failed"] += sum(rep["ops"] for rep in bad)
            run["correct"] = False
            run["failed_ratio"] = run["failed"] / run["attempted"]


def _describe(result: Dict[str, Any]) -> str:
    lines = [
        f"[ledger] {result['workload']} seed={result['seed']} "
        f"trace={result['trace']} reps={len(result['reps'])} "
        f"attempted={result['attempted']} failed={result['failed']} "
        f"failed_ratio={result['failed_ratio']:.6g} correct={result['correct']}"
    ]
    detail = result["detail"]
    for name, metric in result["metrics"].items():
        note = ""
        if name == "ops_per_s":
            note = (
                f"  (n={detail['ops_per_s']['n']}, IQR {detail['ops_per_s']['iqr']:.4g}, "
                f"raw median {detail['raw_ops_per_s']['median']:.6g})"
            )
        elif name in ("call_p50_ms", "call_tail_ms"):
            calls = detail["calls"]
            note = (
                f"  ({calls['reps']} reps x {calls['per_rep_calls']} calls, "
                f"tail q={calls['tail_quantile']:.4f})"
            )
        elif name == "setup_s":
            note = "  (cold starts: " + ", ".join(
                f"{s:.3f}" for s in result["setup_samples_s"]
            ) + ")"
        lines.append(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}{note}")
    return "\n".join(lines)


def _for_set(result: Dict[str, Any]) -> Dict[str, Any]:
    """A run as stored in a set file (rep digests and counts dropped)."""
    kept = dict(result)
    kept["reps"] = [
        {k: v for k, v in rep.items() if k not in ("digest", "counts")}
        for rep in result["reps"]
    ]
    kept.pop("ready", None)
    return kept


def append_to_set(path: Path, results: List[Dict[str, Any]]) -> None:
    """Add *results* to the set file at *path* (created if missing)."""
    runs: List[Dict[str, Any]] = []
    if path.exists():
        data = json.loads(path.read_text())
        if data.get("schema") != SET_SCHEMA:
            raise LedgerError(f"{path} is not a {SET_SCHEMA} file")
        runs = data["runs"]
    runs.extend(_for_set(result) for result in results)
    path.write_text(json.dumps({"schema": SET_SCHEMA, "runs": runs}, separators=(",", ":")) + "\n")


def cmd_run(args: argparse.Namespace) -> int:
    started = time.monotonic()
    if not _program_present():
        print(f"ledger: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    scratch = ROOT / ".ledger_tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    results = []
    try:
        for name in names:
            trace_out = str(Path(args.trace_out).resolve()) if args.trace_out else None
            if trace_out and len(names) > 1:
                stem, dot, suffix = trace_out.rpartition(".")
                trace_out = f"{stem}-{name}.{suffix}" if dot else f"{trace_out}-{name}"
            deadline = (
                started + RUN_BUDGET_S if len(names) == 1
                else time.monotonic() + RUN_BUDGET_S
            )
            result = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.quick,
                scratch, trace_out, deadline,
            )
            results.append(result)
            print(_describe(result), flush=True)
    except LedgerError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    cross_check_e5(results)
    if args.json:
        append_to_set(Path(args.json), results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{name}": metric
            for r in results for name, metric in r["metrics"].items()
        }
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 benchmarks/ledger",
        description="Campaign ledger benchmark (see benchmarks/ledger/README.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure workloads")
    run.add_argument("--workload", choices=sorted(spec.WORKLOADS),
                     help="one workload (default: all five)")
    run.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=spec.DEFAULT_SECONDS,
                     help="measuring time per workload")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1 = traced run reporting the per-layer metrics")
    run.add_argument("--json", metavar="OUT",
                     help="add the full runs to the set file OUT")
    run.add_argument("--trace-out", metavar="PATH",
                     help="write the traced run's spans to PATH")
    run.add_argument("--quick", action="store_true",
                     help="tiny workload sizes (self-tests)")
    run.set_defaults(handler=cmd_run)
    comp = sub.add_parser("compare", help="compare a change's set against its parent's")
    comp.add_argument("parent", type=Path)
    comp.add_argument("change", type=Path)
    comp.set_defaults(handler=compare_mod.cmd_compare)
    args = parser.parse_args(argv)
    if getattr(args, "seconds", 1) <= 0:
        parser.error("--seconds must be positive")
    return args.handler(args)
