"""Numerical solvers for CTMC transient and stationary analysis.

The transient solve is pi(t) = pi(0) @ expm(Q t) via scipy's Pade-based
matrix exponential, exact up to floating point.  Every point solve runs it
from scratch.  A *grid* is solved by step propagation instead of one
matrix exponential per point: ``pi(t_i) = pi(t_{i-1}) @ expm(Q dt_i)``
along the sorted grid, with one ``expm(Q dt)`` per distinct step, so a
uniform N-point grid costs one matrix exponential.  The per-point solves,
and two independent methods (uniformization and the Kolmogorov ODE) that
cross-check them, are test oracles in ``tests/oracles/reference_ctmc.py``;
``tests/property/test_solver_equivalence.py`` checks point solves bit for
bit and grids within 1e-9 against them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np
from scipy.linalg import expm

from ..errors import ModelError
from ..obs import metrics as obs_metrics
from .ctmc import MarkovChain


def transient_distribution(chain: MarkovChain, t: float) -> np.ndarray:
    """State-probability vector of *chain* at time *t* (hours)."""
    if t < 0:
        raise ModelError(f"time must be non-negative, got {t}")
    pi0 = chain.initial_distribution
    if t == 0:
        return pi0
    q = chain.generator_matrix()
    with obs_metrics.span("solver.expm"):
        return _clip(pi0 @ expm(q * t))


def transient_distributions(chain: MarkovChain, times: Sequence[float]) -> np.ndarray:
    """State probabilities at several times; returns array (len(times), n).

    The whole grid is solved with one scaled decomposition (step-matrix
    propagation) instead of one matrix exponential per point; a
    one-point grid is a point solve.  Rows where ``t == 0`` are ``pi0``
    exactly.
    """
    times = [float(t) for t in times]
    if not times:
        raise ModelError("time grid must not be empty")
    if any(t < 0 for t in times):
        raise ModelError("all times must be non-negative")
    if len(times) == 1:
        return np.vstack([transient_distribution(chain, times[0])])
    pi0 = chain.initial_distribution
    q = chain.generator_matrix()
    with obs_metrics.span("solver.expm"):
        grid = _clip(_expm_grid_propagated(pi0, q, times))
    grid[np.asarray(times) == 0.0] = pi0  # exactly pi0, as in a point solve
    return grid


def steady_state(chain: MarkovChain) -> np.ndarray:
    """Stationary distribution pi with pi Q = 0, sum(pi) = 1.

    Solved as a constrained linear system.  Chains with absorbing states
    reachable from everywhere trivially put all mass on the absorbing class;
    irreducibility is the caller's responsibility (we verify the result
    satisfies the balance equations and raise a :class:`ModelError` for
    singular systems).
    """
    q = chain.generator_matrix()
    n = q.shape[0]
    # Replace one balance equation by the normalisation constraint.
    a = np.vstack([q.T[:-1, :], np.ones((1, n))])
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        with obs_metrics.span("solver.steady_state"):
            pi, residual, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise ModelError(f"steady-state solve failed: {exc}") from exc
    if rank < n:
        raise ModelError(
            f"chain {chain.name!r} has no unique stationary distribution "
            "(reducible chain?)"
        )
    if not np.allclose(pi @ q, 0.0, atol=1e-8):
        raise ModelError("stationary solution does not satisfy balance equations")
    return _clip(pi)


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _clip(pi: np.ndarray) -> np.ndarray:
    """Clamp tiny negative round-off and renormalise along the last axis."""
    pi = np.where(np.abs(pi) < 1e-15, 0.0, np.asarray(pi, dtype=float))
    if (pi < -1e-9).any():
        raise ModelError(f"solver produced significantly negative probability: {pi}")
    pi = np.clip(pi, 0.0, None)
    total = pi.sum(axis=-1, keepdims=True)
    if (total <= 0).any():
        raise ModelError("solver produced an all-zero distribution")
    return pi / total


def _expm_grid_propagated(
    pi0: np.ndarray, q: np.ndarray, times: List[float]
) -> np.ndarray:
    """Unnormalised ``pi(t)`` for every t in *times*, one row each.

    Walks the distinct times ascending with one ``expm(Q dt)`` per distinct
    step.  The step is quantized to 12 significant digits, so np.linspace
    deltas that differ only in the last ulp share one matrix; the relative
    perturbation is ~1e-12, far inside solver tolerance.
    """
    steps: Dict[float, np.ndarray] = {}
    rows: Dict[float, np.ndarray] = {0.0: pi0}
    current, current_t = pi0, 0.0
    for t in sorted(set(times) - {0.0}):
        dt = float(f"{t - current_t:.12e}")
        if dt not in steps:
            steps[dt] = expm(q * dt)
        current = current @ steps[dt]
        current_t = t
        rows[t] = current
    return np.stack([rows[t] for t in times])
