"""Per-point CTMC transient solves: the results production must match.

Every call computes one matrix exponential (or one uniformization / ODE
pass) per time point — no step-matrix propagation — and post-processes it
with :func:`clip`, a private one-vector copy of the clamp-and-renormalise
step, so the oracle does not share the row-wise ``_clip`` production runs
on whole grids.  Production (:mod:`repro.reliability.solvers`) must return
bit-identical point solves and grids within 1e-9 of these.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.linalg import expm

from repro.errors import ModelError
from repro.reliability.ctmc import MarkovChain
from repro.reliability.solvers import _METHODS, _ode, _uniformization


def clip(pi: np.ndarray) -> np.ndarray:
    """Clamp tiny negative round-off of one distribution and renormalise."""
    pi = np.asarray(pi, dtype=float).ravel()
    pi = np.where(np.abs(pi) < 1e-15, 0.0, pi)
    if (pi < -1e-9).any():
        raise ModelError(f"solver produced significantly negative probability: {pi}")
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0:
        raise ModelError("solver produced an all-zero distribution")
    return pi / total


def transient_distribution(
    chain: MarkovChain, t: float, method: str = "expm", tol: float = 1e-12
) -> np.ndarray:
    """pi(t) by one solve of *method*."""
    if t < 0:
        raise ModelError(f"time must be non-negative, got {t}")
    if method not in _METHODS:
        raise ModelError(f"unknown method {method!r}; choose from {_METHODS}")
    pi0 = chain.initial_distribution
    if t == 0:
        return pi0
    q = chain.generator_matrix()
    if method == "expm":
        return clip(pi0 @ expm(q * t))
    if method == "uniformization":
        return clip(_uniformization(pi0, q, t, tol))
    return clip(_ode(pi0, q, [t])[-1])


def transient_distributions(
    chain: MarkovChain, times: Sequence[float], method: str = "expm", tol: float = 1e-12
) -> np.ndarray:
    """pi(t) for every t in *times*, one independent point solve each."""
    times = [float(t) for t in times]
    if not times:
        raise ModelError("time grid must not be empty")
    if any(t < 0 for t in times):
        raise ModelError("all times must be non-negative")
    return np.vstack(
        [transient_distribution(chain, t, method=method, tol=tol) for t in times]
    )
