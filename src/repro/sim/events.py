"""Event primitives for the discrete-event simulation engine.

Events are scheduled on a :class:`~repro.sim.simulator.Simulator` and fire a
callback at a given simulated time.  Scheduling returns an
:class:`EventHandle` that supports cancellation, which the preemptive
scheduler uses heavily (a job-completion event is cancelled and re-scheduled
whenever the job is preempted or a fault forces a re-execution).
"""

from __future__ import annotations

from typing import Any, Callable, Tuple


class EventHandle:
    """A scheduled event that can be cancelled before it fires.

    Attributes
    ----------
    time:
        Absolute simulated time (ticks) at which the event fires.
    callback, args:
        The event calls ``callback(*args)``; a bound method and operands,
        unlike a closure, deep-copy along with the object they act on.
    label:
        Free-form description used in traces and error messages (a tuple
        of parts is joined with ``":"`` only when read).
    """

    __slots__ = ("time", "callback", "args", "_label", "_cancelled", "_fired")

    def __init__(
        self, time: int, callback: Callable[..., Any], args: Tuple[Any, ...] = (), label: Any = ""
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self._label = label
        self._cancelled = False
        self._fired = False

    @property
    def label(self) -> str:
        """The description, with a tuple label's parts joined by ``":"``."""
        label = self._label
        return ":".join(map(str, label)) if isinstance(label, tuple) else label

    @property
    def cancelled(self) -> bool:
        """True if :meth:`cancel` was called before the event fired."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """True once the event's callback has been invoked."""
        return self._fired

    @property
    def pending(self) -> bool:
        """True while the event is still scheduled to fire."""
        return not (self._cancelled or self._fired)

    def cancel(self) -> bool:
        """Cancel the event.  Returns True if the event was still pending.

        Cancelling an already-fired or already-cancelled event is a no-op
        (returns False); this tolerance simplifies scheduler bookkeeping.
        """
        if not self.pending:
            return False
        self._cancelled = True
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        return f"EventHandle(t={self.time}, {state}, label={self.label!r})"
