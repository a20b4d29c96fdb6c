"""Per-point CTMC transient solves: the results production must match.

Every call computes one matrix exponential (or one uniformization / ODE
pass) per time point — no step-matrix propagation — and post-processes it
with :func:`clip`, a private one-vector copy of the clamp-and-renormalise
step, so the oracle does not share the row-wise ``_clip`` production runs
on whole grids.  Production (:mod:`repro.reliability.solvers`, ``expm``
only) must return bit-identical point solves and grids within 1e-9 of
the ``expm`` method here.  The two independent methods cross-check it:

``uniformization``
    Jensen's method: randomise the CTMC with rate LAMBDA >= max_i |q_ii|
    and sum Poisson-weighted DTMC powers, with a truncation bound on the
    Poisson tail.
``ode``
    Integrate the Kolmogorov forward equations dpi/dt = pi Q with scipy's
    ``solve_ivp`` (LSODA).
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from repro.errors import ModelError
from repro.reliability.ctmc import MarkovChain

METHODS = ("expm", "uniformization", "ode")


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
    if method not in METHODS:
        raise ModelError(f"unknown method {method!r}; choose from {METHODS}")
    pi0 = chain.initial_distribution
    if t == 0:
        return pi0
    q = chain.generator_matrix()
    if method == "expm":
        return clip(pi0 @ expm(q * t))
    if method == "uniformization":
        return clip(uniformization(pi0, q, t, tol))
    return clip(ode(pi0, q, [t])[-1])


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


def uniformization(pi0: np.ndarray, q: np.ndarray, t: float, tol: float) -> np.ndarray:
    """Jensen's uniformization: pi(t) = sum_k Pois(k; L t) pi0 P^k."""
    rate = float(np.max(-np.diag(q)))
    if rate == 0.0:
        return pi0.copy()
    # Modest inflation of the uniformization rate improves conditioning.
    rate *= 1.02
    p = np.eye(q.shape[0]) + q / rate
    lt = rate * t
    # Truncation point: mean + wide normal-tail margin, floor for small lt.
    k_max = int(lt + 8.0 * math.sqrt(lt) + 20.0)
    result = np.zeros_like(pi0)
    vector = pi0.copy()
    # Accumulate in log space to avoid overflow of lt^k / k!.
    log_weight = -lt  # log Poisson(0)
    accumulated = 0.0
    for k in range(k_max + 1):
        weight = math.exp(log_weight)
        result += weight * vector
        accumulated += weight
        if accumulated >= 1.0 - tol:
            break
        vector = vector @ p
        log_weight += math.log(lt) - math.log(k + 1)
    # Assign remaining tail mass to the last computed vector (standard
    # correction keeping the result a distribution).
    if accumulated < 1.0:
        result += (1.0 - accumulated) * vector
    return result


def ode(pi0: np.ndarray, q: np.ndarray, times: List[float]) -> np.ndarray:
    """Integrate dpi/dt = pi Q, evaluating at *times* (sorted ascending)."""
    solution = solve_ivp(
        fun=lambda _t, y: y @ q,
        t_span=(0.0, times[-1]),
        y0=pi0,
        t_eval=times,
        method="LSODA",
        rtol=1e-10,
        atol=1e-14,
    )
    if not solution.success:  # pragma: no cover - defensive
        raise ModelError(f"ODE transient solve failed: {solution.message}")
    return solution.y.T
