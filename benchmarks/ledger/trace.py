"""Outside-in tracer: spans around the program's layer boundaries.

The program has no spans of its own yet, so the ledger wraps a fixed list
of public functions from outside (:data:`TARGETS`): class methods on their
class, and module functions on the module that calls them (for example
``repro.experiments.figure14.build_bbw_system``).  Each call records one
span — name, start, end, parent span and rep id — into memory; the spans
are written out only when the run ends.

A span's *self time* is its duration minus the part of it that its child
spans cover.  Every traced function belongs to exactly one per-layer time
metric (:data:`PER_LAYER`), so the self times of all layers plus the time
outside any span add up to the traced rep's wall time.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: The layer whose self time is experiment glue rather than attributed work.
GLUE_LAYER = "experiments"


@dataclasses.dataclass(frozen=True)
class Target:
    """One traced function.

    ``span`` is ``<layer>.<attribute path>``; the attribute path is looked
    up on each module in ``sites``.  ``weigh`` extracts a per-call weight
    from the call's arguments (for example a batch's lane count).
    """

    span: str
    sites: Tuple[str, ...]
    weigh: Optional[Callable[[tuple, dict], float]] = None

    @property
    def layer(self) -> str:
        return self.span.split(".", 1)[0]

    @property
    def path(self) -> Tuple[str, ...]:
        return tuple(self.span.split(".")[1:])


def _lanes(args: tuple, kwargs: dict) -> float:
    # BatchMachine.__init__(self, lanes, ...)
    return float(args[1] if len(args) > 1 else kwargs["lanes"])


def _methods(layer: str, module: str, cls: str, *names: str) -> Tuple[Target, ...]:
    return tuple(Target(f"{layer}.{cls}.{name}", (module,)) for name in names)


_EXP = "repro.experiments"

TARGETS: Tuple[Target, ...] = (
    # experiments: the public entry points the workloads call, and the E5
    # trial functions the campaign hands to the supervisor.
    Target("experiments.run_coverage_campaign", (f"{_EXP}.coverage_table",)),
    Target("experiments._e5_trial", (f"{_EXP}.coverage_table",)),
    Target("experiments._e5_batch_runner", (f"{_EXP}.coverage_table",)),
    Target("experiments.compute_figure12", (f"{_EXP}.figure12",)),
    Target("experiments.compute_figure13", (f"{_EXP}.figure13",)),
    Target("experiments.compute_figure14", (f"{_EXP}.figure14",)),
    Target("experiments.compute_mttf_table", (f"{_EXP}.mttf_table",)),
    Target("experiments.run_multicore_trial", (f"{_EXP}.multicore_tem",)),
    # cpu
    *_methods("cpu", "repro.cpu.machine", "Machine", "run"),
    Target("cpu.BatchMachine.__init__", ("repro.cpu.batch",), weigh=_lanes),
    *_methods(
        "cpu", "repro.cpu.batch", "BatchMachine", "run", "step", "load_rom",
        "to_machine",
    ),
    # core
    Target("core.run_tem_direct", ("repro.faults.campaign",)),
    *_methods(
        "core", "repro.core.tem", "TemStateMachine",
        "next_action", "copy_completed", "copy_aborted",
    ),
    *_methods(
        "core", "repro.core.tem", "SpatialTem",
        "claim_launches", "copy_completed", "copy_aborted",
    ),
    # faults
    Target("faults.random_fault_list", (f"{_EXP}.coverage_table",)),
    *_methods("faults", "repro.faults.campaign", "TemInjectionHarness", "__init__", "run_experiment"),
    *_methods("faults", "repro.faults.campaign", "_SteppedTem", "execute_copy"),
    *_methods("faults", "repro.faults.batch_campaign", "BatchTemExecutor", "run_experiments"),
    # harness
    Target("harness.run_experiment_campaign", (f"{_EXP}.coverage_table",)),
    *_methods("harness", "repro.harness.supervisor", "CampaignSupervisor", "run"),
    *_methods("harness", "repro.harness.journal", "CampaignJournal", "append"),
    # obs
    *_methods("obs", "repro.obs.metrics", "MetricsRegistry", "snapshot", "merge_snapshot"),
    # models
    Target("models.build_bbw_system", (f"{_EXP}.figure14",)),
    Target(
        "models.build_all_configurations",
        (f"{_EXP}.figure12", f"{_EXP}.figure13", f"{_EXP}.mttf_table"),
    ),
    # reliability
    Target("reliability.reliability_batch", ("repro.reliability.sweep_solver",)),
    Target("reliability.transient_distribution", ("repro.reliability.solvers",)),
    Target("reliability.transient_distributions", ("repro.reliability.solvers",)),
    Target("reliability.mttf_from_reliability", ("repro.models.bbw",)),
    *_methods("reliability", "repro.reliability.ctmc", "MarkovChain", "mttf"),
    # sim
    *_methods("sim", "repro.sim.simulator", "Simulator", "__init__", "run", "schedule_at",
              "schedule_after"),
    *_methods("sim", "repro.sim.trace", "TraceRecorder", "__init__"),
    # kernel
    *_methods("kernel", "repro.kernel.task", "MachineExecutable", "__init__"),
    *_methods("kernel", "repro.kernel.task", "TaskSpec", "__init__"),
    *_methods("kernel", "repro.kernel.task", "CallableExecutable", "__init__"),
    *_methods("kernel", "repro.kernel.scheduler", "KernelConfig", "__init__"),
    *_methods("kernel", "repro.kernel.scheduler", "Scheduler", "__init__", "add_task", "start"),
    *_methods("kernel", "repro.kernel.scheduler", "Scheduler", "apply_fault_effect"),
    *_methods(
        "kernel", "repro.kernel.resources", "ResourceManager",
        "lock_acquire", "lock_release", "cancel_wait", "holder_of",
        "free_begin", "free_commit", "reset",
    ),
    *_methods("kernel", "repro.kernel.task", "Executable", "plan_copy"),
    *_methods("kernel", "repro.kernel.task", "CallableExecutable", "plan_copy"),
    *_methods("kernel", "repro.kernel.task", "MachineExecutable", "plan_copy"),
)


class Spans:
    """Recorded spans as parallel columns.

    Flat arrays keep a traced run from creating one container object per
    span, which would make the garbage collector's cost grow with the
    number of spans recorded so far.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.reps = array("q")
        self.weights = array("d")

    def __len__(self) -> int:
        return len(self.names)

    def add(self, name: str, start: float, end: float, parent: int = -1,
            rep: int = 0, weight: float = 1.0) -> int:
        """Append one finished span and return its index.  The tracer's
        wrappers append inline instead; this builds synthetic spans."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.reps.append(rep)
        self.weights.append(weight)
        return len(self.names) - 1


class Tracer:
    """Installs span-recording wrappers on :data:`TARGETS` and keeps the
    spans in memory."""

    def __init__(self, targets: Sequence[Target] = TARGETS) -> None:
        self.targets = tuple(targets)
        self.spans = Spans()
        #: rep id -> (start, end) of the traced rep's timed call.
        self.windows: Dict[int, Tuple[float, float]] = {}
        self.rep = -1
        self.enabled = False
        self._stack: List[int] = []
        self._originals: List[Tuple[Any, str, Any]] = []
        self._fork_hook = False

    # ------------------------------------------------------------------
    def install(self, rep: int) -> None:
        """Wrap every target; spans recorded from now on carry *rep*."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        if not self._fork_hook:
            # Forked pool workers inherit the wrappers; their spans could
            # never reach this process, so they stop recording.
            os.register_at_fork(after_in_child=self._disable)
            self._fork_hook = True
        for target in self.targets:
            for site in target.sites:
                owner = importlib.import_module(site)
                for attr in target.path[:-1]:
                    owner = getattr(owner, attr)
                name = target.path[-1]
                original = vars(owner)[name]
                if not callable(original) or isinstance(original, (staticmethod, classmethod)):
                    raise TypeError(f"cannot trace {site}.{'.'.join(target.path)}")
                self._originals.append((owner, name, original))
                setattr(owner, name, self._wrap(target.span, original, target.weigh))
        self.rep = rep
        self.enabled = True

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        self.enabled = False
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()

    def _disable(self) -> None:
        self.enabled = False

    def _wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        weigh: Optional[Callable[[tuple, dict], float]],
    ) -> Callable[..., Any]:
        tracer = self
        spans = self.spans
        names, starts, ends = spans.names, spans.starts, spans.ends
        parents, reps, weights = spans.parents, spans.reps, spans.weights
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            # The clock is read first and last, so the bookkeeping is
            # charged to this span rather than to its parent's self time.
            start = clock()
            index = len(names)
            names.append(name)
            starts.append(start)
            ends.append(start)
            parents.append(stack[-1] if stack else -1)
            reps.append(tracer.rep)
            weights.append(weigh(args, kwargs) if weigh is not None else 1.0)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                ends[index] = clock()

        return traced

    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write the spans and rep windows as JSON."""
        spans = self.spans
        payload = {
            "windows": {str(rep): list(window) for rep, window in self.windows.items()},
            "spans": {
                "name": spans.names,
                "start": spans.starts.tolist(),
                "end": spans.ends.tolist(),
                "parent": spans.parents.tolist(),
                "rep": spans.reps.tolist(),
                "weight": spans.weights.tolist(),
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------

def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Spans) -> List[float]:
    """Per span: its duration minus the part its child spans cover."""
    starts, ends = spans.starts, spans.ends
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for index, parent in enumerate(spans.parents):
        if parent >= 0:
            children[parent].append((starts[index], ends[index]))
    return [
        (ends[i] - starts[i]) - covered(children.get(i, ()), starts[i], ends[i])
        for i in range(len(spans))
    ]


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

@dataclasses.dataclass
class Ledger:
    """Traced spans and rep records, aggregated for :data:`PER_LAYER`.

    ``traced`` and ``untraced`` are the worker's rep records (wall time,
    operations, CPU deltas, program counters) of the two halves of each
    traced pair.
    """

    spans: Spans
    windows: Mapping[int, Tuple[float, float]]
    traced: Sequence[Mapping[str, Any]]
    untraced: Sequence[Mapping[str, Any]]
    workers: int = 0

    def __post_init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.weights: Dict[str, float] = defaultdict(float)
        spans = self.spans
        for name, own, weight in zip(spans.names, self_times(spans), spans.weights):
            self.self_s[name] += own
            self.calls[name] += 1
            self.weights[name] += weight
        self.reps = max(1, len(self.traced))

    # Aggregates -----------------------------------------------------
    def self_ms(self, names: Iterable[str]) -> float:
        """Self time of *names*, in ms per traced rep."""
        return 1e3 * sum(self.self_s.get(n, 0.0) for n in names) / self.reps

    def call_count(self, names: Iterable[str]) -> float:
        """Calls of *names* per traced rep."""
        return sum(self.calls.get(n, 0) for n in names) / self.reps

    def counter(self, key: str) -> float:
        """Program or simulated count *key* per traced rep."""
        return sum(rep["counts"].get(key, 0) for rep in self.traced) / self.reps

    def ops(self) -> float:
        return sum(rep["ops"] for rep in self.traced) / self.reps

    def wall_s(self) -> float:
        return sum(end - start for start, end in self.windows.values())

    def layer_coverage(self) -> float:
        """Share of traced rep wall time in the self time of named layers
        other than the experiment glue."""
        layer_s = sum(
            seconds for name, seconds in self.self_s.items()
            if name.split(".", 1)[0] != GLUE_LAYER
        )
        return layer_s / self.wall_s() if self.wall_s() else 0.0

    def trace_overhead(self) -> float:
        """Traced against untraced throughput: ``untraced / traced - 1``."""
        return _mean_rate(self.untraced) / _mean_rate(self.traced) - 1.0

    def cpu_s(self, key: str) -> float:
        """Mean per-rep CPU seconds *key* over the untraced reps."""
        return sum(rep[key] for rep in self.untraced) / max(1, len(self.untraced))

    def parallel_efficiency(self) -> float:
        """CPU seconds used per wall second per process the campaign may
        keep busy (untraced reps)."""
        cpu = sum(rep["cpu_self_s"] + rep["cpu_children_s"] for rep in self.untraced)
        wall = sum(rep["wall_s"] for rep in self.untraced)
        return cpu / (wall * max(1, self.workers)) if wall else 0.0


def _mean_rate(reps: Sequence[Mapping[str, Any]]) -> float:
    ops = sum(rep["ops"] for rep in reps)
    wall = sum(rep["wall_s"] for rep in reps)
    return ops / wall if wall else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclasses.dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric; ``spans`` lists the spans a time metric owns."""

    name: str
    unit: str
    value: Callable[[Ledger], float]
    spans: Tuple[str, ...] = ()
    better: str = "lower"


def _self_ms(name: str, *spans: str) -> LayerMetric:
    return LayerMetric(name, "ms", lambda ledger: ledger.self_ms(spans), spans)


def _calls(name: str, *spans: str) -> LayerMetric:
    return LayerMetric(name, "count", lambda ledger: ledger.call_count(spans))


def _counter(name: str, key: str) -> LayerMetric:
    return LayerMetric(name, "count", lambda ledger: ledger.counter(key))


_RESOURCE_SPANS = tuple(
    f"kernel.ResourceManager.{name}" for name in (
        "lock_acquire", "lock_release", "cancel_wait", "holder_of",
        "free_begin", "free_commit", "reset",
    )
)
_TEM_SPANS = (
    "core.run_tem_direct",
    "core.TemStateMachine.next_action", "core.TemStateMachine.copy_completed",
    "core.TemStateMachine.copy_aborted",
    "core.SpatialTem.claim_launches", "core.SpatialTem.copy_completed",
    "core.SpatialTem.copy_aborted",
)

PER_LAYER: Tuple[LayerMetric, ...] = (
    # cpu
    _calls("cpu.run_calls", "cpu.Machine.run"),
    _self_ms("cpu.run_self_ms", "cpu.Machine.run"),
    _self_ms("cpu.batch_alloc_ms", "cpu.BatchMachine.__init__"),
    _self_ms("cpu.batch_step_ms", "cpu.BatchMachine.run", "cpu.BatchMachine.step"),
    _self_ms("cpu.batch_load_rom_ms", "cpu.BatchMachine.load_rom"),
    _self_ms("cpu.batch_evict_ms", "cpu.BatchMachine.to_machine"),
    _calls("cpu.batch_evictions", "cpu.BatchMachine.to_machine"),
    LayerMetric(
        "cpu.batch_eviction_ratio", "ratio",
        lambda l: _ratio(l.calls.get("cpu.BatchMachine.to_machine", 0),
                         l.weights.get("cpu.BatchMachine.__init__", 0.0)),
    ),
    # kernel
    _calls("kernel.executable_builds", "kernel.MachineExecutable.__init__"),
    _self_ms("kernel.executable_build_ms", "kernel.MachineExecutable.__init__"),
    _self_ms(
        "kernel.setup_ms", "kernel.TaskSpec.__init__", "kernel.CallableExecutable.__init__",
        "kernel.KernelConfig.__init__", "kernel.Scheduler.__init__",
        "kernel.Scheduler.add_task", "kernel.Scheduler.start",
    ),
    _self_ms("kernel.fault_ms", "kernel.Scheduler.apply_fault_effect"),
    _calls("kernel.resource_calls", *_RESOURCE_SPANS),
    _self_ms("kernel.resource_ms", *_RESOURCE_SPANS),
    _self_ms(
        "kernel.plan_copy_ms", "kernel.Executable.plan_copy",
        "kernel.CallableExecutable.plan_copy", "kernel.MachineExecutable.plan_copy",
    ),
    _counter("kernel.migrations", "kernel.migrations"),
    _counter("kernel.lock_contentions", "kernel.lock_contentions"),
    _counter("kernel.omissions", "kernel.omissions"),
    # core
    _self_ms("core.tem_self_ms", *_TEM_SPANS),
    LayerMetric(
        "core.copies_per_trial", "ratio",
        lambda l: _ratio(l.counter("tem.copies"), l.counter("tem.jobs")),
    ),
    # faults
    _self_ms("faults.fault_gen_ms", "faults.random_fault_list"),
    _self_ms(
        "faults.experiment_self_ms", "faults.TemInjectionHarness.run_experiment",
        "faults._SteppedTem.execute_copy",
    ),
    _self_ms("faults.batch_self_ms", "faults.BatchTemExecutor.run_experiments"),
    _self_ms("faults.harness_build_ms", "faults.TemInjectionHarness.__init__"),
    # harness
    _self_ms(
        "harness.supervisor_self_ms", "harness.CampaignSupervisor.run",
        "harness.run_experiment_campaign",
    ),
    _calls("harness.journal_appends", "harness.CampaignJournal.append"),
    _self_ms("harness.journal_append_ms", "harness.CampaignJournal.append"),
    _counter("harness.batch_chunks", "harness.batch_chunks"),
    _counter("harness.batch_fallbacks", "harness.batch_fallbacks"),
    _counter("harness.retries", "harness.retries"),
    LayerMetric("harness.worker_cpu_s", "s", lambda l: l.cpu_s("cpu_children_s")),
    LayerMetric("harness.coordinator_cpu_s", "s", lambda l: l.cpu_s("cpu_self_s")),
    LayerMetric(
        "harness.parallel_efficiency", "ratio", Ledger.parallel_efficiency, better="higher"
    ),
    # obs
    _self_ms("obs.snapshot_ms", "obs.MetricsRegistry.snapshot"),
    _self_ms("obs.merge_ms", "obs.MetricsRegistry.merge_snapshot"),
    # models
    _self_ms("models.build_ms", "models.build_bbw_system", "models.build_all_configurations"),
    # reliability
    _self_ms("reliability.sweep_ms", "reliability.reliability_batch"),
    _self_ms("reliability.point_solve_ms", "reliability.transient_distribution"),
    _calls("reliability.point_solves", "reliability.transient_distribution"),
    _self_ms("reliability.grid_solve_ms", "reliability.transient_distributions"),
    _self_ms(
        "reliability.mttf_ms", "reliability.mttf_from_reliability",
        "reliability.MarkovChain.mttf",
    ),
    # sim
    _self_ms("sim.setup_ms", "sim.Simulator.__init__", "sim.TraceRecorder.__init__"),
    _self_ms("sim.run_self_ms", "sim.Simulator.run"),
    _calls("sim.schedule_calls", "sim.Simulator.schedule_at"),
    _self_ms("sim.schedule_ms", "sim.Simulator.schedule_at", "sim.Simulator.schedule_after"),
    LayerMetric(
        "sim.events_per_op", "ratio",
        lambda l: _ratio(l.counter("sim.events"), l.ops()),
    ),
    # experiments: experiment glue left unattributed
    _self_ms(
        "experiments.self_ms", *(t.span for t in TARGETS if t.layer == GLUE_LAYER)
    ),
    # the trace itself
    LayerMetric("trace_overhead", "ratio", Ledger.trace_overhead),
    LayerMetric("layer_coverage", "ratio", Ledger.layer_coverage, better="higher"),
)


def layer_metrics(ledger: Ledger) -> Dict[str, Dict[str, Any]]:
    """Every :data:`PER_LAYER` metric as ``{name: {"value", "unit"}}``."""
    return {
        metric.name: {"value": float(metric.value(ledger)), "unit": metric.unit}
        for metric in PER_LAYER
    }
