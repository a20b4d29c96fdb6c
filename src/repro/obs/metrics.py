"""Cross-process metrics: counters, gauges, timers, fixed-bucket histograms.

The observability substrate of the campaign engine.  Design constraints:

* **no dependencies** — plain dicts and ``time.perf_counter`` only, so the
  instrumented hot paths (DES event loop, TEM execution, CTMC solvers) pay
  roughly one dict update per recorded fact;
* **mergeable snapshots** — a registry serialises to a plain-JSON dict
  (:meth:`MetricsRegistry.snapshot`) that can travel in a journal or
  over a shard runner's handoff pipe and be merged coordinator-side
  (:func:`merge_snapshots`).
  Counter, timer-count and histogram-count merges are commutative and
  associative, so aggregating the same seeded trials serially, on shard
  runners, or across a checkpoint resume yields the identical totals;
* **ambient registry** — instrumented library code records into the
  *active* registry (:func:`active`); the campaign supervisor swaps in a
  fresh registry per trial (:func:`capture`) so per-trial metrics can be
  shipped back from shard runner processes.  The active registry is resolved
  through the active :class:`repro.runtime.RunContext` — each context
  owns its base registry and capture stack, so two concurrent runs never
  bleed metrics into each other; code outside any activated context
  simply accumulates into the process-default context's registry.

Snapshot schema (JSON)::

    {
      "counters":   {name: number},
      "gauges":     {name: number},
      "timers":     {name: {"count": n, "total_s": t,
                            "min_s": lo, "max_s": hi}},
      "histograms": {name: {"bounds": [b0, ..., bk],
                            "counts": [c0, ..., ck, overflow],
                            "count": n, "total": sum}}
    }

Empty kinds are omitted.  Wall-clock fields (``total_s``/``min_s``/
``max_s``, histogram bucket counts over durations) vary run to run; the
deterministic projection used by reproducibility tests is
:func:`stable_view` (counters plus timer/histogram event counts).

Registries are single-threaded by design: trials, the DES and the solvers
all run on one thread per run context, so no locking is needed (or
provided).  Concurrency happens *across* contexts, which never share a
registry.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence

from .. import runtime as _runtime

#: Default histogram bucket upper bounds, in seconds (durations).
DEFAULT_DURATION_BOUNDS_S = (
    0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0,
)

Snapshot = Dict[str, Any]


class MetricsRegistry:
    """One process-local set of counters/gauges/timers/histograms."""

    __slots__ = ("_counters", "_gauges", "_timers", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        # timer: [count, total_s, min_s, max_s]
        self._timers: Dict[str, List[float]] = {}
        # histogram: [bounds tuple, counts list (len(bounds)+1), count, total,
        #             the bounds object last checked against the tuple]
        self._histograms: Dict[str, List[Any]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, by: float = 1) -> None:
        """Add *by* to counter *name* (no-op for 0, so zero-valued keys
        never appear and snapshots stay sparse)."""
        if not by:
            return
        self._counters[name] = self._counters.get(name, 0) + by

    def gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to *value* (last write wins)."""
        self._gauges[name] = value

    def observe_duration(self, name: str, seconds: float) -> None:
        """Record one duration sample into timer *name*."""
        timer = self._timers.get(name)
        if timer is None:
            self._timers[name] = [1, seconds, seconds, seconds]
            return
        timer[0] += 1
        timer[1] += seconds
        if seconds < timer[2]:
            timer[2] = seconds
        if seconds > timer[3]:
            timer[3] = seconds

    def observe(
        self,
        name: str,
        value: float,
        bounds: Sequence[float] = DEFAULT_DURATION_BOUNDS_S,
        count: int = 1,
    ) -> None:
        """Record *value* into fixed-bucket histogram *name*, *count* times.

        The first observation fixes the bucket bounds; later calls with
        different bounds raise :class:`ValueError` (silently re-bucketing
        would corrupt merges).  A call passing the same bounds tuple object
        as the last checked one skips the comparison.
        """
        hist = self._histograms.get(name)
        if hist is None:
            checked = tuple(float(b) for b in bounds)
            if list(checked) != sorted(checked):
                raise ValueError(f"histogram {name!r} bounds must be sorted")
            hist = self._histograms[name] = [
                checked, [0] * (len(checked) + 1), 0, 0.0, _immutable(bounds),
            ]
        elif bounds is not hist[4]:
            if hist[0] != tuple(float(b) for b in bounds):
                raise ValueError(
                    f"histogram {name!r} already registered with bounds {hist[0]}"
                )
            hist[4] = _immutable(bounds)
        hist[1][_bucket_index(hist[0], value)] += count
        hist[2] += count
        hist[3] += value * count

    def span(self, name: str) -> "_Span":
        """Time the enclosed block into timer *name* (perf_counter)."""
        return _Span(self, name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def counter(self, name: str) -> float:
        """Current value of counter *name* (0 if never incremented)."""
        return self._counters.get(name, 0)

    def timer_count(self, name: str) -> int:
        """Number of samples recorded into timer *name*."""
        timer = self._timers.get(name)
        return int(timer[0]) if timer is not None else 0

    def snapshot(self) -> Snapshot:
        """Serialise to a plain-JSON mergeable dict (empty kinds omitted)."""
        snap: Snapshot = {}
        if self._counters:
            snap["counters"] = dict(self._counters)
        if self._gauges:
            snap["gauges"] = dict(self._gauges)
        if self._timers:
            snap["timers"] = {
                name: {
                    "count": int(t[0]), "total_s": t[1],
                    "min_s": t[2], "max_s": t[3],
                }
                for name, t in self._timers.items()
            }
        if self._histograms:
            snap["histograms"] = {
                name: {
                    "bounds": list(h[0]), "counts": list(h[1]),
                    "count": int(h[2]), "total": h[3],
                }
                for name, h in self._histograms.items()
            }
        return snap

    def merge_snapshot(self, snap: Optional[Snapshot], times: int = 1) -> None:
        """Fold a snapshot into this registry *times* times over
        (counters/timers/histograms add; gauges: the incoming value wins)."""
        if not snap:
            return
        for name, value in snap.get("counters", {}).items():
            self._counters[name] = self._counters.get(name, 0) + value * times
        for name, value in snap.get("gauges", {}).items():
            self._gauges[name] = value
        for name, data in snap.get("timers", {}).items():
            timer = self._timers.get(name)
            if timer is None:
                self._timers[name] = [
                    data["count"] * times, data["total_s"] * times,
                    data["min_s"], data["max_s"],
                ]
            else:
                timer[0] += data["count"] * times
                timer[1] += data["total_s"] * times
                timer[2] = min(timer[2], data["min_s"])
                timer[3] = max(timer[3], data["max_s"])
        for name, data in snap.get("histograms", {}).items():
            hist = self._histograms.get(name)
            counts = [c * times for c in data["counts"]]
            if hist is None:
                self._histograms[name] = [
                    tuple(data["bounds"]), counts,
                    data["count"] * times, data["total"] * times, None,
                ]
            else:
                if tuple(hist[0]) != tuple(data["bounds"]):
                    raise ValueError(
                        f"cannot merge histogram {name!r}: bounds differ "
                        f"({hist[0]} vs {data['bounds']})"
                    )
                hist[1] = [a + b for a, b in zip(hist[1], counts)]
                hist[2] += data["count"] * times
                hist[3] += data["total"] * times

    def clear(self) -> None:
        """Drop all recorded values."""
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()
        self._histograms.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, timers={len(self._timers)}, "
            f"histograms={len(self._histograms)})"
        )


class _Span:
    """Class-based context manager behind :meth:`MetricsRegistry.span`.

    Spans fire once per trial in campaign loops; a generator-based
    ``@contextmanager`` costs several microseconds per entry/exit, a
    slotted class a fraction of that.
    """

    __slots__ = ("registry", "name", "_started")

    def __init__(self, registry: MetricsRegistry, name: str) -> None:
        self.registry = registry
        self.name = name

    def __enter__(self) -> None:
        self._started = time.perf_counter()

    def __exit__(self, *exc_info: Any) -> None:
        self.registry.observe_duration(
            self.name, time.perf_counter() - self._started
        )


def _immutable(bounds: Sequence[float]) -> Optional[Sequence[float]]:
    """*bounds* when it is a tuple (safe to recognise by identity later)."""
    return bounds if type(bounds) is tuple else None


def _bucket_index(bounds: Sequence[float], value: float) -> int:
    """Index of the first bucket whose upper bound fits *value* (linear
    scan; bucket lists are short and fixed)."""
    for index, bound in enumerate(bounds):
        if value <= bound:
            return index
    return len(bounds)


# ----------------------------------------------------------------------
# The ambient (active) registry — resolved through the run context
# ----------------------------------------------------------------------

def active() -> MetricsRegistry:
    """The registry instrumented code currently records into.

    Resolution goes through the active :class:`repro.runtime.RunContext`:
    the top of that context's capture stack, which bottoms out at the
    context's base registry.
    """
    return _runtime.current().active_metrics()


def default_registry() -> MetricsRegistry:
    """The active context's base registry (bottom of its capture stack).

    Outside any activated context this is the process-default context's
    registry — the historic process-wide default.
    """
    return _runtime.current().metrics


class _Capture:
    """Class-based context manager behind :func:`capture`.

    A generator-based ``@contextmanager`` costs several microseconds per
    entry/exit — measurable when a batched campaign captures per trial —
    so the swap is done with plain ``__enter__``/``__exit__``.
    """

    __slots__ = ("registry", "merge_upstream", "_stack")

    def __init__(self, registry: MetricsRegistry, merge_upstream: bool) -> None:
        self.registry = registry
        self.merge_upstream = merge_upstream

    def __enter__(self) -> MetricsRegistry:
        self._stack = _runtime.current().metrics_stack
        self._stack.append(self.registry)
        return self.registry

    def __exit__(self, *exc_info: Any) -> None:
        self._stack.pop()
        if self.merge_upstream:
            self._stack[-1].merge_snapshot(self.registry.snapshot())


def capture(
    registry: Optional[MetricsRegistry] = None,
    merge_upstream: bool = False,
) -> _Capture:
    """Swap in a fresh (or given) registry as the active one.

    By default everything instrumented code records inside the ``with``
    block lands in the captured registry only — the previous active
    registry is *not* updated automatically; callers that want the capture
    reflected upstream either merge the snapshot explicitly (as the
    campaign supervisor does once per campaign) or pass
    ``merge_upstream=True``, which folds the captured snapshot into the
    enclosing registry on exit (as the experiment runner does per section,
    so section metrics also land in the run-level aggregate).
    """
    return _Capture(
        registry if registry is not None else MetricsRegistry(), merge_upstream
    )


def capture_stack() -> List[MetricsRegistry]:
    """The active context's live capture stack (hot-loop escape hatch).

    Batch drivers flip the active registry thousands of times a second —
    once per lane per protocol round — and even a slotted context manager
    pays a context resolution per entry.  Such drivers may resolve the
    stack once and ``append``/``pop`` registries directly, provided they
    keep strict LIFO discipline (``try``/``finally``) within one owner.
    Everyone else should use :func:`capture`.
    """
    return _runtime.current().metrics_stack


# Module-level conveniences: record into the active registry.

def inc(name: str, by: float = 1) -> None:
    active().inc(name, by)


def gauge(name: str, value: float) -> None:
    active().gauge(name, value)


def observe_duration(name: str, seconds: float) -> None:
    active().observe_duration(name, seconds)


def observe(
    name: str, value: float, bounds: Sequence[float] = DEFAULT_DURATION_BOUNDS_S
) -> None:
    active().observe(name, value, bounds)


def span(name: str) -> "contextlib.AbstractContextManager[None]":
    return active().span(name)


def stopwatch() -> Callable[[], float]:
    """Start a wall-clock stopwatch; the returned function gives the
    seconds elapsed since.  For instrumentation that splits one measured
    interval across several registries (the lanes of a lockstep job)."""
    started = time.perf_counter()
    return lambda: time.perf_counter() - started


def merge_into_active(snap: Optional[Snapshot]) -> None:
    """Fold *snap* into the currently active registry."""
    active().merge_snapshot(snap)


# ----------------------------------------------------------------------
# Snapshot algebra
# ----------------------------------------------------------------------

def merge_snapshots(*snaps: Optional[Snapshot]) -> Snapshot:
    """Merge snapshots into one (order only matters for gauges).

    A gauge-free snapshot *object* passed several times — a batch chunk's
    fast-path lanes share one — is folded once, at its first position,
    scaled by its repeat count: exact for the integer counts, and the
    merged keys keep their one-by-one insertion order.
    """
    registry = MetricsRegistry()
    repeats = Counter(id(snap) for snap in snaps)
    folded = set()
    for snap in snaps:
        times = repeats[id(snap)]
        if times == 1 or not snap or snap.get("gauges"):
            registry.merge_snapshot(snap)
        elif id(snap) not in folded:
            folded.add(id(snap))
            registry.merge_snapshot(snap, times)
    return registry.snapshot()


def snapshot_is_empty(snap: Optional[Snapshot]) -> bool:
    """True when the snapshot records nothing."""
    return not snap or not any(snap.get(kind) for kind in (
        "counters", "gauges", "timers", "histograms",
    ))


def stable_view(snap: Optional[Snapshot]) -> Snapshot:
    """The deterministic projection of a snapshot.

    Counters and event *counts* of timers/histograms depend only on what
    the instrumented code did — not on how fast the machine ran — so a
    seeded campaign must produce the identical stable view whether it ran
    serially, on shard runners, or across a kill-and-resume.  Wall-clock
    fields (durations, min/max, duration-bucket tallies) are excluded.
    """
    snap = snap or {}
    view: Snapshot = {}
    if snap.get("counters"):
        view["counters"] = dict(snap["counters"])
    if snap.get("timers"):
        view["timer_counts"] = {
            name: data["count"] for name, data in snap["timers"].items()
        }
    if snap.get("histograms"):
        view["histogram_counts"] = {
            name: data["count"] for name, data in snap["histograms"].items()
        }
    return view


def format_hot_paths(snap: Optional[Snapshot], top: int = 3) -> str:
    """One-line ``name total_s xcount`` digest of the busiest timers."""
    timers = (snap or {}).get("timers", {})
    busiest = sorted(
        timers.items(), key=lambda kv: kv[1]["total_s"], reverse=True
    )[:top]
    if not busiest:
        return "no timed hot paths"
    return ", ".join(
        f"{name} {data['total_s']:.3f}s x{data['count']}"
        for name, data in busiest
        if math.isfinite(data["total_s"])
    )
