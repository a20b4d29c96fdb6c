"""Continuous-time Markov chains (CTMC) with named states.

This is the core model type of the reliability engine: the paper's central
unit and wheel-node subsystems (Figures 6, 7, 9, 10, 11) are all small CTMCs
with absorbing failure states.  The class stores a transition-rate dictionary
and materialises the infinitesimal generator matrix Q on demand.

Conventions
-----------
* Rates are *per hour* (the paper's unit).
* Q[i, j] (i != j) is the transition rate i -> j; Q[i, i] = -sum of row.
* A state with no outgoing transitions is *absorbing*.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ModelError


@dataclasses.dataclass(frozen=True)
class Transition:
    """One directed transition of a CTMC."""

    source: str
    target: str
    rate: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ModelError(
                f"negative rate {self.rate} on transition {self.source}->{self.target}"
            )
        if self.source == self.target:
            raise ModelError(f"self-loop on state {self.source!r} is meaningless in a CTMC")


class MarkovChain:
    """A finite CTMC with named states and an initial distribution.

    Example — a two-state machine that fails at rate lam and is repaired at
    rate mu:

    >>> chain = MarkovChain(["up", "down"])
    >>> chain.add_transition("up", "down", 0.1)
    >>> chain.add_transition("down", "up", 2.0)
    >>> chain.set_initial("up")
    >>> probs = chain.transient_distribution(10.0)
    >>> abs(probs.sum() - 1.0) < 1e-12
    True
    """

    def __init__(self, states: Sequence[str], name: str = "") -> None:
        states = list(states)
        if len(states) != len(set(states)):
            raise ModelError(f"duplicate state names in {states}")
        if not states:
            raise ModelError("a Markov chain needs at least one state")
        self.name = name
        self._states: List[str] = states
        self._index: Dict[str, int] = {s: i for i, s in enumerate(states)}
        self._transitions: List[Transition] = []
        self._initial = np.zeros(len(states))
        self._initial[0] = 1.0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @property
    def states(self) -> List[str]:
        """State names in index order."""
        return list(self._states)

    @property
    def transitions(self) -> List[Transition]:
        """All transitions in insertion order."""
        return list(self._transitions)

    def state_index(self, state: str) -> int:
        """Index of *state*; raises :class:`ModelError` if unknown."""
        try:
            return self._index[state]
        except KeyError:
            raise ModelError(f"unknown state {state!r}; states are {self._states}") from None

    def add_transition(self, source: str, target: str, rate: float, label: str = "") -> None:
        """Add a transition ``source -> target`` with the given rate/hour.

        A zero rate is accepted and simply contributes nothing; this lets
        model builders write parameter-dependent rates without special-casing
        degenerate parameter values (e.g. coverage = 1.0).
        """
        self.state_index(source)
        self.state_index(target)
        transition = Transition(source, target, float(rate), label)
        self._transitions.append(transition)

    def set_initial(self, distribution: "str | Mapping[str, float]") -> None:
        """Set the initial distribution.

        Accepts either a single state name (probability mass 1) or a mapping
        ``{state: probability}`` summing to 1.
        """
        initial = np.zeros(len(self._states))
        if isinstance(distribution, str):
            initial[self.state_index(distribution)] = 1.0
        else:
            for state, probability in distribution.items():
                if probability < 0:
                    raise ModelError(f"negative initial probability for {state!r}")
                initial[self.state_index(state)] = probability
            if abs(initial.sum() - 1.0) > 1e-9:
                raise ModelError(f"initial distribution sums to {initial.sum()}, expected 1")
        self._initial = initial

    @property
    def initial_distribution(self) -> np.ndarray:
        """Copy of the initial probability vector."""
        return self._initial.copy()

    # ------------------------------------------------------------------
    # Matrices
    # ------------------------------------------------------------------
    def generator_matrix(self) -> np.ndarray:
        """The infinitesimal generator Q (rows sum to zero)."""
        n = len(self._states)
        q = np.zeros((n, n))
        for t in self._transitions:
            i, j = self._index[t.source], self._index[t.target]
            q[i, j] += t.rate
        np.fill_diagonal(q, 0.0)
        q[np.diag_indices(n)] = -q.sum(axis=1)
        return q

    def absorbing_states(self) -> List[str]:
        """States with no outgoing transitions of positive rate."""
        outgoing = {t.source for t in self._transitions if t.rate > 0}
        return [s for s in self._states if s not in outgoing]

    # ------------------------------------------------------------------
    # Analysis front-ends (delegate to repro.reliability.solvers)
    # ------------------------------------------------------------------
    def transient_distribution(self, t: float) -> np.ndarray:
        """State-probability vector at time *t* (hours)."""
        from . import solvers

        return solvers.transient_distribution(self, t)

    def transient_distributions(self, times: Iterable[float]) -> np.ndarray:
        """Matrix of state probabilities, one row per requested time."""
        from . import solvers

        return solvers.transient_distributions(self, list(times))

    def probability_in(self, states: Sequence[str], t: float) -> float:
        """Probability of being in any of *states* at time *t*."""
        probs = self.transient_distribution(t)
        return float(sum(probs[self.state_index(s)] for s in states))

    def reliability(self, t: float, failure_states: Optional[Sequence[str]] = None) -> float:
        """P(not absorbed in a failure state by time t).

        When *failure_states* is omitted, all absorbing states count as
        failures — the common case for the paper's models, where 'F' is the
        single absorbing failure state.
        """
        if failure_states is None:
            failure_states = self.absorbing_states()
        if not failure_states:
            raise ModelError(
                f"chain {self.name!r} has no absorbing/failure states; "
                "specify failure_states explicitly"
            )
        return 1.0 - self.probability_in(list(failure_states), t)

    def mttf(self, failure_states: Optional[Sequence[str]] = None) -> float:
        """Mean time to absorption into the failure states (hours)."""
        from . import absorbing

        return absorbing.mean_time_to_absorption(self, failure_states)

    def steady_state(self) -> np.ndarray:
        """Stationary distribution (requires an irreducible chain)."""
        from . import solvers

        return solvers.steady_state(self)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Readable dump of states and transitions (for docs and debugging)."""
        lines = [f"MarkovChain {self.name!r}: states={self._states}"]
        for t in self._transitions:
            tag = f"  [{t.label}]" if t.label else ""
            lines.append(f"  {t.source} -> {t.target}  rate={t.rate:.6g}{tag}")
        for s in self.absorbing_states():
            lines.append(f"  absorbing: {s}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MarkovChain(name={self.name!r}, states={len(self._states)}, "
            f"transitions={len(self._transitions)})"
        )


def rate_sum(chain: MarkovChain, source: str, target: str) -> float:
    """Total rate between two states (summing parallel transitions).

    Useful in tests asserting a model's structure against the paper.
    """
    i, j = chain.state_index(source), chain.state_index(target)
    q = chain.generator_matrix()
    return float(q[i, j])
