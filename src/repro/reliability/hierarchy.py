"""Hierarchical model composition (the SHARPE workflow).

The paper follows the hierarchical approach of Chen et al. [14]: solve each
subsystem with the most natural formalism (Markov chain for the central unit,
Markov chain or RBD for the wheel-node subsystem) and combine the resulting
reliability functions in a system-level fault tree (Figure 5).

This module provides the adapter that plugs a Markov chain into a fault
tree:

* :func:`markov_event` — a CTMC's failure probability as a fault-tree
  basic event;
* :class:`CachedReliability` — memoises R(t) evaluations, which matters when
  a fault tree re-evaluates a Markov subsystem at many time points.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from .ctmc import MarkovChain
from .faulttree import BasicEvent


class CachedReliability:
    """Memoising wrapper around an expensive reliability function.

    CTMC transient solves cost a matrix exponential each; experiment drivers
    evaluate the same subsystem at the same grid of times for several
    sub-models, so caching pays for itself immediately.
    """

    def __init__(self, fn: Callable[[float], float], name: str = "cached"):
        self._fn = fn
        self._cache: Dict[float, float] = {}
        self.name = name

    def __call__(self, t: float) -> float:
        t = float(t)
        value = self._cache.get(t)
        if value is None:
            value = float(self._fn(t))
            self._cache[t] = value
        return value


def markov_reliability_fn(
    chain: MarkovChain, failure_states: Optional[Sequence[str]] = None
) -> CachedReliability:
    """Memoised R(t) of a CTMC (probability of not being in a failure state)."""
    failure_list = list(failure_states) if failure_states is not None else None
    return CachedReliability(
        lambda t: chain.reliability(t, failure_states=failure_list),
        name=f"R[{chain.name}]",
    )


def markov_event(
    chain: MarkovChain,
    failure_states: Optional[Sequence[str]] = None,
    name: Optional[str] = None,
) -> BasicEvent:
    """Wrap a CTMC's *unreliability* as a fault-tree basic event."""
    reliability = markov_reliability_fn(chain, failure_states)
    return BasicEvent(
        lambda t: 1.0 - reliability(t),
        name=name or (chain.name or "markov"),
    )

