"""Absorbing-chain analysis: mean time to failure and absorption probabilities.

For a CTMC with transient states T and absorbing states A, partition the
generator as::

        | Q_TT  Q_TA |
    Q = |  0     0   |

Then with initial distribution pi0 restricted to T:

* expected total time spent in the transient states before absorption
  (the **MTTF** when A are the failure states) is  pi0_T @ (-Q_TT)^-1 @ 1;
* the absorption probability into each absorbing state a is
  pi0_T @ (-Q_TT)^-1 @ Q_TA[:, a]  (plus any initial mass on a).

Independent chains in series (the system fails when any one of them does,
an OR fault tree over the chains) form one product chain that is transient
only while every chain is.  Its transient block is the Kronecker sum
Q_TT,1 (+) Q_TT,2 (+) ... and its initial vector the Kronecker product of
the chains' transient initial vectors, so the composition's MTTF is the same
fundamental-matrix solve (:func:`series_mean_time_to_absorption`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ModelError, NotAbsorbingError
from .ctmc import MarkovChain


def _partition(
    chain: MarkovChain, failure_states: Optional[Sequence[str]]
) -> tuple[List[int], List[int], np.ndarray]:
    """Return (transient indices, absorbing indices, Q)."""
    if failure_states is None:
        failure_states = chain.absorbing_states()
    if not failure_states:
        raise NotAbsorbingError(
            f"chain {chain.name!r} has no absorbing states and none were specified"
        )
    failure_set = set(failure_states)
    unknown = failure_set - set(chain.states)
    if unknown:
        raise ModelError(f"unknown failure states {sorted(unknown)}")
    q = chain.generator_matrix()
    absorbing = [chain.state_index(s) for s in chain.states if s in failure_set]
    transient = [chain.state_index(s) for s in chain.states if s not in failure_set]
    if not transient:
        raise ModelError("all states are failure states; MTTF is trivially zero")
    return transient, absorbing, q


def mean_time_to_absorption(
    chain: MarkovChain, failure_states: Optional[Sequence[str]] = None
) -> float:
    """Mean time (hours) until the chain enters a failure state.

    Raises :class:`NotAbsorbingError` if the failure states are unreachable
    from the initial distribution (the fundamental-matrix solve is singular).
    """
    transient, _, q = _partition(chain, failure_states)
    q_tt = q[np.ix_(transient, transient)]
    pi0 = chain.initial_distribution[transient]
    return _absorption_time(q_tt, pi0, repr(chain.name))


def series_mean_time_to_absorption(chains: Sequence[MarkovChain]) -> float:
    """Mean time (hours) until the first of independent *chains* fails.

    Each chain's failure states are its absorbing states, exactly as
    ``chain.reliability(t)`` counts them, so the result is the integral of
    ``R_1(t) * R_2(t) * ...`` over t >= 0, solved exactly on the product
    chain's Kronecker-sum transient generator.  Raises
    :class:`NotAbsorbingError`, as :func:`mean_time_to_absorption` does,
    unless every chain reaches its failure states from each of its transient
    states.
    """
    if not chains:
        raise ModelError("a series composition needs at least one chain")
    q_tt = np.zeros((1, 1))
    pi0 = np.ones(1)
    for chain in chains:
        transient, _, q = _partition(chain, None)
        block = q[np.ix_(transient, transient)]
        # The Kronecker sum is singular only when every block is, and
        # round-off can hide that; check each chain on its own block.
        _absorption_time(block, np.ones(len(transient)), repr(chain.name))
        q_tt = np.kron(q_tt, np.eye(len(transient))) + np.kron(
            np.eye(len(q_tt)), block
        )
        pi0 = np.kron(pi0, chain.initial_distribution[transient])
    names = " x ".join(repr(chain.name) for chain in chains)
    return _absorption_time(q_tt, pi0, names)


def _absorption_time(q_tt: np.ndarray, pi0: np.ndarray, name: str) -> float:
    """``pi0 @ (-Q_TT)^-1 @ 1`` with the not-absorbing checks."""
    if pi0.sum() <= 0:
        return 0.0  # starts already absorbed
    try:
        # Solve (-Q_TT) tau = 1 for expected residence time vector tau.
        tau = np.linalg.solve(-q_tt, np.ones(len(pi0)))
    except np.linalg.LinAlgError as exc:
        raise NotAbsorbingError(
            f"failure states of chain {name} are not reachable from "
            "every transient state; MTTF is infinite"
        ) from exc
    if (tau <= 0).any():
        raise NotAbsorbingError(
            f"chain {name}: non-positive expected absorption time "
            "indicates the failure states are not almost-surely reached"
        )
    return float(pi0 @ tau)


def absorption_probabilities(
    chain: MarkovChain, failure_states: Optional[Sequence[str]] = None
) -> Dict[str, float]:
    """Probability of eventually being absorbed into each failure state."""
    transient, absorbing, q = _partition(chain, failure_states)
    q_tt = q[np.ix_(transient, transient)]
    q_ta = q[np.ix_(transient, absorbing)]
    pi0_t = chain.initial_distribution[transient]
    pi0_a = chain.initial_distribution[absorbing]
    try:
        n_matrix = np.linalg.solve(-q_tt, q_ta)  # (-Q_TT)^-1 Q_TA
    except np.linalg.LinAlgError as exc:
        raise NotAbsorbingError(
            f"absorption probabilities undefined for chain {chain.name!r}"
        ) from exc
    probs = pi0_t @ n_matrix + pi0_a
    states = chain.states
    return {states[a]: float(p) for a, p in zip(absorbing, probs)}


def expected_visits(
    chain: MarkovChain, failure_states: Optional[Sequence[str]] = None
) -> Dict[str, float]:
    """Expected total time (hours) spent in each transient state before
    absorption — useful for identifying where a subsystem spends its life."""
    transient, _, q = _partition(chain, failure_states)
    q_tt = q[np.ix_(transient, transient)]
    pi0 = chain.initial_distribution[transient]
    try:
        occupancy = np.linalg.solve(-q_tt.T, pi0)
    except np.linalg.LinAlgError as exc:
        raise NotAbsorbingError(
            f"expected visit times undefined for chain {chain.name!r}"
        ) from exc
    states = chain.states
    return {states[i]: float(v) for i, v in zip(transient, occupancy)}
