"""A deterministic discrete-event simulation (DES) engine.

The engine is the substrate on which the simulated processors, real-time
kernels, communication bus and fault injectors run.  It is a classic
event-calendar design:

* time is an integer tick counter (microseconds, see :mod:`repro.units`);
* events are kept in a binary heap of plain ``(time, priority, seq,
  handle)`` tuples; ``seq`` is unique, so ordering never reaches the
  handle;
* an event fires ``callback(*args)``: kernels schedule bound methods, so
  ``copy.deepcopy`` of a simulator and its kernel fires into the copy; a
  tuple label is joined with ``":"`` only when read;
* executing an event may schedule or cancel further events.

Determinism matters for reproducing fault-injection campaigns: two runs with
the same seed and the same injected fault list produce identical traces.
Simultaneous events are ordered first by an explicit priority class (e.g.
fault injections fire before kernel ticks so a fault "present at time t" is
visible to the tick at t) and then by scheduling order.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Any, Callable, Iterable, Optional, Tuple

from ..errors import SimulationError
from ..obs import metrics as obs_metrics
from .events import EventHandle

#: Priority classes for simultaneous events (lower fires first).
PRIORITY_FAULT = 0
PRIORITY_HARDWARE = 1
PRIORITY_KERNEL = 2
PRIORITY_DEFAULT = 5
PRIORITY_OBSERVER = 9


class Simulator:
    """Discrete-event simulator with cancellable events.

    An event fires ``callback(*args)`` with the positional operands given
    after the callback; a zero-argument closure needs none.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule_at(10, lambda: fired.append(sim.now))
    >>> _ = sim.schedule_after(3, fired.append, "three")
    >>> _ = sim.run()
    >>> fired
    ['three', 10]
    """

    def __init__(self) -> None:
        self._now = 0
        self._heap: list[tuple[int, int, int, EventHandle]] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self._events_executed = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in ticks."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of events fired so far (for diagnostics/tests)."""
        return self._events_executed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self,
        time: int,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DEFAULT,
        label: str | Tuple[Any, ...] = "",
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute tick *time*.

        Raises :class:`SimulationError` when *time* lies in the past.
        Scheduling at the current time is allowed; the event fires within the
        current :meth:`run` pass (after all earlier-priority events at the
        same instant).
        """
        time = int(time)
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        handle = EventHandle(time, callback, args, label)
        self._seq += 1
        heapq.heappush(self._heap, (time, priority, self._seq, handle))
        return handle

    def schedule_after(
        self,
        delay: int,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DEFAULT,
        label: str | Tuple[Any, ...] = "",
    ) -> EventHandle:
        """Schedule ``callback(*args)`` after *delay* ticks from now."""
        delay = int(delay)
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority, label=label)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events in time order.

        Parameters
        ----------
        until:
            If given, stop once the next pending event lies strictly after
            *until* and advance the clock to *until*.  If omitted, run until
            the calendar is empty.
        max_events:
            Safety valve: raise :class:`SimulationError` after this many
            events (guards against accidental infinite self-scheduling).

        Returns the simulated time at which execution stopped.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stopped = False
        executed_this_run = 0
        wall_started = perf_counter()  # reprolint: disable=DET001 -- obs instrumentation: one host-timer sample per run() pass; never read by simulation logic
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap and not self._stopped:
                if until is not None and heap[0][0] > until:
                    break
                time, _, _, handle = heappop(heap)
                # A handle is pushed once and fires only here, so a queued
                # handle that is not pending was cancelled.
                if handle._cancelled:
                    continue
                if time < self._now:  # pragma: no cover - internal invariant
                    raise SimulationError("event calendar corrupted: time went backwards")
                self._now = time
                handle._fired = True
                handle.callback(*handle.args)
                self._events_executed += 1
                executed_this_run += 1
                if max_events is not None and executed_this_run >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; suspected runaway event loop"
                    )
            if until is not None and self._now < until and not self._stopped:
                self._now = until
        finally:
            self._running = False
            # Instrumentation stays out of the per-event loop: one timer
            # sample and one counter add per run() pass, however long.
            obs_metrics.observe_duration("sim.run", perf_counter() - wall_started)  # reprolint: disable=DET001 -- obs instrumentation: duration feeds the metrics registry only
            obs_metrics.inc("sim.events", executed_this_run)
        return self._now

    def step(self) -> bool:
        """Execute exactly one pending event.  Returns False if none remain."""
        while self._heap:
            time, _, _, handle = heapq.heappop(self._heap)
            if handle._cancelled:
                continue
            self._now = time
            handle._fired = True
            handle.callback(*handle.args)
            self._events_executed += 1
            return True
        return False

    def stop(self) -> None:
        """Request that the current :meth:`run` pass stop after this event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending_events(self) -> Iterable[EventHandle]:
        """Yield pending event handles (unordered; for tests/diagnostics)."""
        return (entry[3] for entry in self._heap if entry[3].pending)

    def pending_count(self) -> int:
        """Number of events still pending on the calendar."""
        return sum(1 for _ in self.pending_events())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self._now}, pending={self.pending_count()})"
