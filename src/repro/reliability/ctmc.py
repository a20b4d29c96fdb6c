"""Continuous-time Markov chains (CTMC) with named states.

This is the core model type of the reliability engine: the paper's central
unit and wheel-node subsystems (Figures 6, 7, 9, 10, 11) are all small CTMCs
with absorbing failure states.  The class stores its transitions as
``(source index, target index, rate, label)`` tuples and materialises the
infinitesimal generator matrix Q on demand; :func:`generator_stack` builds
the generators of many chains over one state list in a single pass.

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
        _check_transition(self.source, self.target, self.rate)


def _check_transition(source: str, target: str, rate: float) -> None:
    if rate < 0:
        raise ModelError(f"negative rate {rate} on transition {source}->{target}")
    if source == target:
        raise ModelError(f"self-loop on state {source!r} is meaningless in a CTMC")


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
        #: ``(i, j, rate, label)`` per transition, in insertion order.
        self._transitions: List[Tuple[int, int, float, str]] = []
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
        states = self._states
        return [
            Transition(states[i], states[j], rate, label)
            for i, j, rate, label in self._transitions
        ]

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
        i, j, rate = self.state_index(source), self.state_index(target), float(rate)
        _check_transition(source, target, rate)
        self._transitions.append((i, j, rate, label))

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
        return generator_stack([self])[0]

    def absorbing_states(self) -> List[str]:
        """States with no outgoing transitions of positive rate."""
        outgoing = {i for i, _, rate, _ in self._transitions if rate > 0}
        return [s for i, s in enumerate(self._states) if i not in outgoing]

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
        for t in self.transitions:
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


def generator_stack(chains: Sequence[MarkovChain]) -> np.ndarray:
    """The generators of C chains over one state list — shape ``(C, n, n)``.

    Parallel transitions add up in insertion order, starting from 0.0, and
    each diagonal entry is minus its row sum, so every slice is the
    chain's :meth:`MarkovChain.generator_matrix`, bit for bit.
    """
    if not chains:
        raise ModelError("need at least one chain")
    states = chains[0]._states
    for chain in chains[1:]:
        if chain._states != states:
            raise ModelError(
                "chains need one shared state list; "
                f"{chain.name!r} differs from {chains[0].name!r}"
            )
    n, count = len(states), len(chains)
    cells = [
        c * n * n + i * n + j
        for c, chain in enumerate(chains)
        for i, j, _, _ in chain._transitions
    ]
    rates = [rate for chain in chains for _, _, rate, _ in chain._transitions]
    # bincount adds its weights one by one in index order, as a loop of
    # q[i, j] += rate over each chain's transitions would.  With no
    # weights at all it returns integers, hence the astype.
    flat = np.bincount(
        np.array(cells, dtype=np.intp),
        weights=np.array(rates, dtype=float),
        minlength=count * n * n,
    ).astype(float, copy=False).reshape(count, n * n)
    q = flat.reshape(count, n, n)
    # Every (n + 1)-th entry of a flattened n x n matrix is on its diagonal.
    flat[:, :: n + 1] = -np.add.reduce(q, axis=-1)
    return q


def rate_sum(chain: MarkovChain, source: str, target: str) -> float:
    """Total rate between two states (summing parallel transitions).

    Useful in tests asserting a model's structure against the paper.
    """
    i, j = chain.state_index(source), chain.state_index(target)
    q = chain.generator_matrix()
    return float(q[i, j])
