"""Batched reliability solves: whole parameter sweeps in one stacked expm.

The reliability experiments evaluate R(t) over parameter grids: Figure 14
sweeps a (coverage, fault-rate) grid of chains at one mission time.  The
chains of one sweep share a state list; their transition rates differ,
and so may their transitions.  The point solver
(:func:`repro.reliability.solvers.transient_distribution`) answers one
``(chain, t)`` pair per call, paying the Python overhead of the front-end
for every point.

:func:`reliability_batch` builds the C generators as one ``(C, n, n)``
stack with :func:`repro.reliability.ctmc.generator_stack` (the builder
behind ``MarkovChain.generator_matrix`` too) and calls
:func:`scipy.linalg.expm` once per requested time.  scipy exponentiates
the slices of a stacked array with the same scaling-and-squaring Pade
routine it applies to a single matrix, and one stacked ``np.matmul``
forms every chain's ``pi0 @ expm(Q t)`` with the vector-matrix kernel
of the point solve, so each distribution goes through exactly the
arithmetic of the ``expm`` point solve, followed by the same row-wise
``_clip`` (once per ``(C, n)`` batch) and the same left-to-right
failure-mass sum.

Equivalence contract
--------------------
Results are **bit-identical** to ``chain.reliability(t)`` (the ``expm``
point path) for every chain and time, ``t == 0`` included, and agree with
the independent uniformization point solver of the test oracle
(``tests/oracles/reference_ctmc.py``) within 1e-9 —
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
from .ctmc import MarkovChain, generator_stack
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
    """``R(t)`` of C chains over one state list — shape ``(C, T)``.

    The chains must share their state list (same names, same order), as
    the parameter-sweep chains of Figure 14 do; their transitions may
    differ.  Each chain counts its own absorbing states as failures unless
    *failure_states* names them.
    """
    qs = generator_stack(chains)
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
    out = np.empty((len(chains), len(times)))
    for i, t in enumerate(times):
        if t == 0.0:
            dists = pi0s
        else:
            with obs_metrics.span("solver.expm_batch"):
                steps = expm(qs * t)
            # (C, 1, n) @ (C, n, n): every chain's pi0 @ step in one call.
            dists = _clip(np.matmul(pi0s[:, None, :], steps)[:, 0])
        # Summed left to right as the point path's sum() is; a pad adds 0.0.
        mass = 0.0
        for column in columns:
            mass = mass + np.where(column >= 0, dists[rows, column], 0.0)
        out[:, i] = 1.0 - mass
    return out
