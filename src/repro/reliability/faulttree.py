"""Fault trees with time-dependent basic events.

A fault tree expresses a system's *failure* logic: the top event occurs when
the gate structure over basic events evaluates true.  The paper's Figure 5 is
a two-input OR: the brake-by-wire system fails if the central-unit subsystem
fails OR the wheel-node subsystem fails.

Basic events carry a time-dependent occurrence probability F(t) (typically a
subsystem's unreliability obtained from a Markov model, see
:mod:`repro.reliability.hierarchy`).  Gates assume statistically independent
inputs, matching the paper's assumptions; repeated (shared) basic events are
handled exactly by conditioning (Shannon decomposition) on the shared events.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Sequence, Set

from ..errors import ModelError


class FaultTreeNode:
    """Abstract node; subclasses implement conditional failure probability."""

    name: str = ""

    def basic_events(self) -> "Set[BasicEvent]":
        """The set of distinct basic events appearing under this node."""
        raise NotImplementedError

    def _probability(self, t: float, assignment: "Dict[BasicEvent, bool]") -> float:
        """Failure probability at *t* given fixed truth values for the
        basic events in *assignment* (others evaluated probabilistically)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def probability(self, t: float) -> float:
        """Top-event (failure) probability at time *t*.

        Shared basic events are detected and handled by Shannon decomposition
        so the result is exact, not a rare-event approximation.
        """
        shared = self._shared_events()
        if not shared:
            return self._probability(t, {})
        total = 0.0
        shared_list = sorted(shared, key=lambda e: e.name)
        for values in itertools.product([False, True], repeat=len(shared_list)):
            weight = 1.0
            assignment: Dict[BasicEvent, bool] = {}
            for event, value in zip(shared_list, values):
                p = event.failure_probability(t)
                weight *= p if value else (1.0 - p)
                assignment[event] = value
            if weight > 0.0:
                total += weight * self._probability(t, assignment)
        return total

    def reliability(self, t: float) -> float:
        """1 - P(top event) — success probability of the modelled system."""
        return 1.0 - self.probability(t)

    def _shared_events(self) -> "Set[BasicEvent]":
        counts: Dict[BasicEvent, int] = {}
        self._count_events(counts)
        return {event for event, count in counts.items() if count > 1}

    def _count_events(self, counts: "Dict[BasicEvent, int]") -> None:
        raise NotImplementedError


class BasicEvent(FaultTreeNode):
    """A leaf event with occurrence probability F(t).

    Parameters
    ----------
    failure_fn:
        Callable t -> F(t), the probability the event has occurred by *t*.
    name:
        Identifier; shared events are conditioned on in name order.
    """

    def __init__(self, failure_fn: Callable[[float], float], name: str):
        self._fn = failure_fn
        self.name = name

    def failure_probability(self, t: float) -> float:
        value = float(self._fn(t))
        if not -1e-9 <= value <= 1.0 + 1e-9:
            raise ModelError(f"basic event {self.name!r} returned probability {value}")
        return min(max(value, 0.0), 1.0)

    def basic_events(self) -> Set["BasicEvent"]:
        return {self}

    def _probability(self, t: float, assignment: Dict["BasicEvent", bool]) -> float:
        if self in assignment:
            return 1.0 if assignment[self] else 0.0
        return self.failure_probability(t)

    def _count_events(self, counts: Dict["BasicEvent", int]) -> None:
        counts[self] = counts.get(self, 0) + 1


class Gate(FaultTreeNode):
    """Common machinery for gates over child nodes."""

    def __init__(self, children: Sequence[FaultTreeNode], name: str):
        if not children:
            raise ModelError(f"gate {name!r} needs at least one input")
        self.children = list(children)
        self.name = name

    def basic_events(self) -> Set[BasicEvent]:
        events: Set[BasicEvent] = set()
        for child in self.children:
            events |= child.basic_events()
        return events

    def _count_events(self, counts: Dict[BasicEvent, int]) -> None:
        for child in self.children:
            child._count_events(counts)


class OrGate(Gate):
    """Fails if *any* input fails: F = 1 - prod(1 - F_i)."""

    def __init__(self, children: Sequence[FaultTreeNode], name: str = "or"):
        super().__init__(children, name)

    def _probability(self, t: float, assignment: Dict[BasicEvent, bool]) -> float:
        survive = 1.0
        for child in self.children:
            survive *= 1.0 - child._probability(t, assignment)
        return 1.0 - survive


class AndGate(Gate):
    """Fails only if *all* inputs fail: F = prod(F_i)."""

    def __init__(self, children: Sequence[FaultTreeNode], name: str = "and"):
        super().__init__(children, name)

    def _probability(self, t: float, assignment: Dict[BasicEvent, bool]) -> float:
        fail = 1.0
        for child in self.children:
            fail *= child._probability(t, assignment)
        return fail


class KofNGate(Gate):
    """Fails if at least *k* of the n inputs fail (a voting gate)."""

    def __init__(self, k: int, children: Sequence[FaultTreeNode], name: str = "k-of-n"):
        super().__init__(children, name)
        if not 1 <= k <= len(children):
            raise ModelError(f"need 1 <= k <= {len(children)}, got k={k}")
        self.k = k

    def _probability(self, t: float, assignment: Dict[BasicEvent, bool]) -> float:
        dist = [1.0]
        for child in self.children:
            p = child._probability(t, assignment)
            new = [0.0] * (len(dist) + 1)
            for j, mass in enumerate(dist):
                new[j] += mass * (1.0 - p)
                new[j + 1] += mass * p
            dist = new
        return float(sum(dist[self.k :]))
