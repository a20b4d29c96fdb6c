"""Batched reliability solves: whole parameter sweeps in one stacked expm.

The reliability experiments evaluate R(t) over parameter grids: Figure 14
sweeps a (coverage, fault-rate) grid of structurally identical chains at
one mission time.  The point solver
(:func:`repro.reliability.solvers.transient_distribution`) answers one
``(chain, t)`` pair per call, paying the Python overhead of the front-end
for every point.

:func:`reliability_batch` stacks the C generators into one ``(C, n, n)``
array and calls :func:`scipy.linalg.expm` once per requested time.  scipy
exponentiates the slices of a stacked array with the same scaling-and-
squaring Pade routine it applies to a single matrix, so each chain's
distribution ``pi0 @ expm(Q t)`` goes through exactly the arithmetic of
the ``expm`` point solve, followed by the same row-wise ``_clip`` (once per
``(C, n)`` batch) and the same left-to-right failure-mass sum.

Equivalence contract
--------------------
Results are **bit-identical** to ``chain.reliability(t)`` (the ``expm``
point path) for every chain and time, ``t == 0`` included, and agree with
the independent uniformization point solver
(``transient_distribution(..., method="uniformization")``) within 1e-9 —
``tests/reliability/test_sweep_solver.py`` enforces both.  Failure states
default to *each chain's own* absorbing states, as in
:meth:`repro.reliability.ctmc.MarkovChain.reliability`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
from scipy.linalg import expm

from ..errors import ModelError
from ..obs import metrics as obs_metrics
from .ctmc import MarkovChain
from .solvers import _clip


def _failure_indices(
    chain: MarkovChain, failure_states: Optional[Sequence[str]]
) -> List[int]:
    states = (
        list(failure_states) if failure_states is not None
        else chain.absorbing_states()
    )
    if not states:
        raise ModelError(
            f"chain {chain.name!r} has no absorbing/failure states; "
            "specify failure_states explicitly"
        )
    return [chain.state_index(s) for s in states]


def reliability_batch(
    chains: Sequence[MarkovChain],
    times: Sequence[float],
    failure_states: Optional[Sequence[str]] = None,
) -> np.ndarray:
    """``R(t)`` of C structurally identical chains — shape ``(C, T)``.

    The chains must share their state list (same names, same order), as
    the parameter-sweep chains of Figure 14 do.  Each chain counts its own
    absorbing states as failures unless *failure_states* names them.
    """
    if not chains:
        raise ModelError("need at least one chain")
    reference = chains[0]
    for chain in chains[1:]:
        if chain.states != reference.states:
            raise ModelError(
                "reliability_batch needs structurally identical chains; "
                f"{chain.name!r} differs from {reference.name!r}"
            )
    times = [float(t) for t in times]
    if not times:
        raise ModelError("time grid must not be empty")
    if any(t < 0 for t in times):
        raise ModelError("all times must be non-negative")
    failures = [_failure_indices(chain, failure_states) for chain in chains]
    width = max(map(len, failures))
    # (K, C) failure columns; -1 pads a chain with fewer than K failure states.
    columns = np.array([f + [-1] * (width - len(f)) for f in failures]).T
    rows = np.arange(len(chains))
    pi0s = np.stack([chain.initial_distribution for chain in chains])
    qs = np.stack([chain.generator_matrix() for chain in chains])
    out = np.empty((len(chains), len(times)))
    for i, t in enumerate(times):
        if t == 0.0:
            dists = pi0s
        else:
            with obs_metrics.span("solver.expm_batch"):
                steps = expm(qs * t)
            dists = _clip(np.stack([pi0 @ step for pi0, step in zip(pi0s, steps)]))
        # Summed left to right as the point path's sum() is; a pad adds 0.0.
        mass = 0.0
        for column in columns:
            mass = mass + np.where(column >= 0, dists[rows, column], 0.0)
        out[:, i] = 1.0 - mass
    return out
