"""Benchmark — batched sweep solver on the Figure 14 chain population.

Run:  pytest benchmarks/bench_sweep_solver.py -q -s [--json PATH]

The Figure 14 sensitivity sweep solves one small CTMC per (coverage,
fault-rate) grid point.
:func:`repro.reliability.sweep_solver.reliability_batch` exponentiates the
stacked generators of every structurally identical chain with one
``scipy.linalg.expm`` call per mission time.  This bench checks it against
both point paths on the exact chains Figure 14 uses:

* the memoized uniformization point solver — the gate: the batch must be
  at least 3x faster and agree within the 1e-9 solver-equivalence
  tolerance;
* the ``expm`` point solver (``chain.reliability(t)``) — the batch must be
  bit-identical to it; its time is reported as ``expm_pointwise_s``,
  ungated.
"""

import os

import common
from repro.models import BbwParameters, build_bbw_system
from repro.reliability import clear_solver_cache, sweep_solver, transient_distribution

#: The Figure 14 sweep axes (both node types, degraded mode).
RATE_SCALES = (1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0)
COVERAGES = (0.9, 0.99, 0.999, 0.9999)
MISSION_TIMES = (1.0, 2.5, 5.0)
REQUIRED_SPEEDUP = 3.0
BEST_OF = 3
TOLERANCE = 1e-9


def _chain_groups():
    """Figure 14's chain population, grouped by shared structure.

    Within one node type the central-unit and wheel-subsystem chains share
    their state list, so each group batches both subsystems across the
    whole (coverage, rate-scale) grid; FS and NLFT chains differ in shape
    (4 vs 5 states) and form separate batches.
    """
    base = BbwParameters.paper()
    grid = [(c, s) for c in COVERAGES for s in RATE_SCALES]
    groups = []
    for node_type in ("fs", "nlft"):
        chains = []
        for coverage, scale in grid:
            model = build_bbw_system(
                base.with_coverage(coverage).with_transient_scale(scale),
                node_type,
                "degraded",
            )
            chains.append(model.central_unit)
            chains.append(model.wheel_subsystem)
        groups.append(chains)
    return groups


def _point_grid(chains):
    """One memoized uniformization point solve per (chain, t)."""
    curves = []
    for chain in chains:
        failure = [chain.state_index(s) for s in chain.absorbing_states()]
        curves.append(
            [
                float(
                    1.0
                    - transient_distribution(chain, t, method="uniformization")[
                        failure
                    ].sum()
                )
                for t in MISSION_TIMES
            ]
        )
    return curves


def _expm_point_grid(chains):
    """One memoized ``expm`` point solve per (chain, t)."""
    return [[chain.reliability(t) for t in MISSION_TIMES] for chain in chains]


def _batched_grid(chains):
    return sweep_solver.reliability_batch(chains, MISSION_TIMES)


def test_benchmark_batched_sweep_vs_pointwise():
    groups = _chain_groups()

    batched = [_batched_grid(chains) for chains in groups]
    clear_solver_cache()
    pointwise = [_point_grid(chains) for chains in groups]
    for batch_grid, point_grid in zip(batched, pointwise):
        for batch_row, point_row in zip(batch_grid, point_grid):
            for batch_r, point_r in zip(batch_row, point_row):
                assert abs(float(batch_r) - point_r) <= TOLERANCE
    clear_solver_cache()
    for batch_grid, chains in zip(batched, groups):
        assert batch_grid.tolist() == _expm_point_grid(chains)

    def _timed_pointwise():
        clear_solver_cache()  # distinct chains: the memo never cross-fills
        for chains in groups:
            _point_grid(chains)

    def _timed_expm_pointwise():
        clear_solver_cache()
        for chains in groups:
            _expm_point_grid(chains)

    def _timed_batched():
        for chains in groups:
            _batched_grid(chains)

    point_s = common.best_of(BEST_OF, _timed_pointwise)
    expm_point_s = common.best_of(BEST_OF, _timed_expm_pointwise)
    batch_s = common.best_of(BEST_OF, _timed_batched)
    speedup = point_s / max(batch_s, 1e-9)
    solves = sum(len(chains) for chains in groups) * len(MISSION_TIMES)
    common.report(
        "solver.batched_sweep",
        wall_s=batch_s,
        trials=solves,
        pointwise_s=round(point_s, 6),
        expm_pointwise_s=round(expm_point_s, 6),
        speedup=round(speedup, 2),
        chains=sum(len(chains) for chains in groups),
        times=len(MISSION_TIMES),
        cores=os.cpu_count() or 1,
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"batched sweep solve must be >= {REQUIRED_SPEEDUP}x the memoized "
        f"point-by-point grid, measured {speedup:.2f}x"
    )
