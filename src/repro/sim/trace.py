"""Structured trace recording for simulation runs.

Every interesting occurrence (job release, preemption, fault injection, EDM
detection, vote, omission, node restart, bus frame, ...) is recorded as a
:class:`TraceEvent`.  Traces serve three purposes:

* tests assert on exact event sequences (e.g. the four TEM scenarios of the
  paper's Figure 3);
* campaign runners classify run outcomes from the trace;
* the experiment drivers render human-readable timelines.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One recorded occurrence.

    Attributes
    ----------
    time:
        Simulated time in ticks.
    category:
        Dot-separated event kind, e.g. ``"kernel.preempt"``, ``"tem.vote"``,
        ``"fault.inject"``, ``"node.fail_silent"``.
    source:
        Name of the emitting component (node, task, bus, ...).
    details:
        Free-form payload; values should be small and printable.
    """

    time: int
    category: str
    source: str
    details: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def matches(self, category: str) -> bool:
        """True if this event's category equals *category* or is nested
        beneath it (``"tem"`` matches ``"tem.vote"``)."""
        return self.category == category or self.category.startswith(category + ".")

    def __str__(self) -> str:
        payload = " ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{self.time:>12d}] {self.category:<24s} {self.source:<16s} {payload}"


class TraceRecorder:
    """Collects :class:`TraceEvent` objects and supports simple queries.

    A recorder may be disabled (``enabled=False``) to make large campaigns
    cheap; emit calls then do nothing.  Listeners may be attached to react to
    events as they are recorded (used by outcome classifiers).
    """

    def __init__(self, enabled: bool = True, capacity: Optional[int] = None) -> None:
        self.enabled = enabled
        # A deque with maxlen makes capacity trimming O(1) per emit — the
        # old list backing paid an O(n) ``del`` slice on every overflowing
        # emit, which made bounded traces *more* expensive than unbounded
        # ones on long campaigns.
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._capacity = capacity
        self._listeners: List[Callable[[TraceEvent], None]] = []

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """True when :meth:`emit` records or notifies anything; hot paths
        test it to skip building an event's details."""
        return self.enabled or bool(self._listeners)

    def emit(self, time: int, category: str, source: str, **details: Any) -> None:
        """Record one event (no-op when disabled)."""
        if not self.enabled and not self._listeners:
            return
        event = TraceEvent(time=time, category=category, source=source, details=details)
        if self.enabled:
            self._events.append(event)
        for listener in self._listeners:
            listener(event)

    def add_listener(self, listener: Callable[[TraceEvent], None]) -> None:
        """Attach a callable invoked for every emitted event."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    @property
    def events(self) -> List[TraceEvent]:
        """All recorded events in emission order (a fresh list)."""
        return list(self._events)

    def select(self, category: str, source: Optional[str] = None) -> List[TraceEvent]:
        """Events whose category matches *category* (prefix semantics)."""
        return [
            e
            for e in self._events
            if e.matches(category) and (source is None or e.source == source)
        ]

    def count(self, category: str, source: Optional[str] = None) -> int:
        """Number of events matching *category* / *source*."""
        return len(self.select(category, source))

    def last(self, category: str) -> Optional[TraceEvent]:
        """Most recent event matching *category*, or None."""
        for event in reversed(self._events):
            if event.matches(category):
                return event
        return None

    def clear(self) -> None:
        """Drop all recorded events (listeners stay attached)."""
        self._events.clear()

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def render(self, category: Optional[str] = None) -> str:
        """Human-readable multi-line rendering (optionally filtered)."""
        events = self._events if category is None else self.select(category)
        return "\n".join(str(e) for e in events)
