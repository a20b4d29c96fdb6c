"""Opt-in profiling hooks: cProfile capture of the top-K hottest trials.

The always-on side of the observability layer is cheap ``perf_counter``
spans recorded as timers (see :mod:`repro.obs.metrics`) inside the DES
event loop, TEM execution and the CTMC solvers.  This module is the
*expensive*, opt-in side: when the active run config has ``profile`` on
the campaign supervisor runs every trial under :mod:`cProfile` and keeps
the rendered statistics of the K hottest (longest wall-clock) trials —
exactly the trials worth reading when hunting a hot path.  They reach the
context's collector only while :func:`enabled` is on (the runner turns it
on for ``--profile``).

Workers render the profile to text before shipping it over the result
pipe (``pstats.Stats`` objects do not pickle); the supervisor keeps a
bounded min-heap so memory stays O(K) regardless of campaign size.

Usage::

    from repro import runtime

    ctx = runtime.RunContext(runtime.RunConfig(profile=True))
    with runtime.activate(ctx), repro.obs.profile.enabled(top_k=3) as collector:
        run_coverage_campaign(experiments=200)
    print(collector.render())
"""

from __future__ import annotations

import cProfile
import contextlib
import dataclasses
import heapq
import io
import pstats
from typing import Any, Callable, Iterator, List, Optional, Tuple

from .. import runtime as _runtime

#: Default number of hottest trials to keep.
DEFAULT_TOP_K = 3

#: Default number of pstats rows rendered per captured trial.
DEFAULT_STATS_LINES = 12


@dataclasses.dataclass(frozen=True)
class HotTrial:
    """One captured trial profile."""

    campaign: str
    trial_id: int
    duration_s: float
    profile_text: str

    def summary(self) -> str:
        return f"{self.campaign} trial {self.trial_id}: {self.duration_s:.4f}s"


class ProfileCollector:
    """Bounded collector of the hottest trial profiles (min-heap of K)."""

    def __init__(self, top_k: int = DEFAULT_TOP_K) -> None:
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.top_k = top_k
        self._heap: List[Tuple[float, int, HotTrial]] = []
        self._seq = 0

    def record(self, trial: HotTrial) -> None:
        """Offer one profiled trial; kept only while it is among the K
        slowest seen so far."""
        self._seq += 1
        entry = (trial.duration_s, self._seq, trial)
        if len(self._heap) < self.top_k:
            heapq.heappush(self._heap, entry)
        elif trial.duration_s > self._heap[0][0]:
            heapq.heapreplace(self._heap, entry)

    def hottest(self) -> List[HotTrial]:
        """Captured trials, slowest first."""
        return [
            entry[2]
            for entry in sorted(self._heap, key=lambda e: e[0], reverse=True)
        ]

    def drain(self) -> List[HotTrial]:
        """Return the captured trials (slowest first) and reset."""
        trials = self.hottest()
        self._heap.clear()
        return trials

    def render(self) -> str:
        """Readable report: one summary + stats block per hot trial."""
        trials = self.hottest()
        if not trials:
            return "no profiled trials captured"
        blocks = []
        for trial in trials:
            blocks.append(f"--- {trial.summary()} ---\n{trial.profile_text}")
        return "\n".join(blocks)


# ----------------------------------------------------------------------
# Context-scoped collector (enabled by the experiment runner's --profile)
# ----------------------------------------------------------------------

def collector() -> Optional[ProfileCollector]:
    """The active context's collector, or None when profiling is off."""
    return _runtime.current().profile_collector


@contextlib.contextmanager
def enabled(top_k: int = DEFAULT_TOP_K) -> Iterator[ProfileCollector]:
    """Enable the active context's collector inside the ``with`` block."""
    ctx = _runtime.current()
    previous = ctx.profile_collector
    ctx.profile_collector = ProfileCollector(top_k=top_k)
    try:
        yield ctx.profile_collector
    finally:
        ctx.profile_collector = previous


def record_hot_trial(trial: HotTrial) -> None:
    """Offer a profiled trial to the active context's collector (no-op
    when profiling is off)."""
    active = _runtime.current().profile_collector
    if active is not None:
        active.record(trial)


# ----------------------------------------------------------------------
# Capture helpers
# ----------------------------------------------------------------------

def stats_text(
    profiler: cProfile.Profile, limit: int = DEFAULT_STATS_LINES
) -> str:
    """Render a profiler's hottest functions (by cumulative time)."""
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(limit)
    return buffer.getvalue().strip()


def profiled_call(
    fn: Callable[..., Any], *args: Any, limit: int = DEFAULT_STATS_LINES
) -> "Tuple[Any, str]":
    """Run ``fn(*args)`` under cProfile; return ``(result, stats_text)``.

    Exceptions propagate unchanged (the profile of a failed trial is
    discarded — the harness classifies the failure instead).
    """
    profiler = cProfile.Profile()
    result = profiler.runcall(fn, *args)
    return result, stats_text(profiler, limit)
