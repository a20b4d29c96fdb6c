"""Ablation benchmark — CTMC transient solver back-ends and grid propagation.

Run:  pytest benchmarks/bench_solvers.py --benchmark-only -s [--json PATH]

Times the three independent transient solvers (the production matrix
exponential, and the test oracle's uniformization and Kolmogorov ODE) on
the paper's largest model (the 5-state NLFT degraded wheel subsystem) and
verifies they agree to tight tolerance.  This is the DESIGN.md ablation
for the choice of the one production solver.

The grid benchmark gates step propagation: a dense R(t) grid solved by
propagating one ``expm(Q dt)`` step matrix along the grid must be at least
2x faster than one independent matrix exponential per point while agreeing
within solver tolerance.
"""

import numpy as np
import pytest
from scipy.linalg import expm

import common
from repro.models import BbwParameters, build_wn_nlft_degraded
from repro.reliability import transient_distribution, transient_distributions
from repro.units import HOURS_PER_YEAR
from tests.oracles import reference_ctmc
from tests.oracles.reference_ctmc import clip

#: Uniformization must sum ~LAMBDA*t Poisson terms; with the paper's stiff
#: repair rates (mu = 2250/h) a year-long horizon needs ~2e7 terms (~50 s).
#: The ablation therefore compares the solvers at a 100 h horizon — long
#: enough for meaningful transients, short enough to time all three — and
#: the stiffness finding is documented here: for stiff dependability models
#: the matrix exponential is the right default, which is why it is ours.
HORIZON_HOURS = 100.0

#: method -> point solver: production ``expm``, the oracle's cross-checks.
POINT_SOLVERS = {
    "expm": transient_distribution,
    "uniformization": lambda chain, t: reference_ctmc.transient_distribution(
        chain, t, method="uniformization"
    ),
    "ode": lambda chain, t: reference_ctmc.transient_distribution(
        chain, t, method="ode"
    ),
}

#: The grid gate: points on the R(t) grid and required speedup.
GRID_POINTS = 201
REQUIRED_SPEEDUP = 2.0
BEST_OF = 3


@pytest.fixture(scope="module")
def chain():
    return build_wn_nlft_degraded(BbwParameters.paper())


@pytest.fixture(scope="module")
def reference(chain):
    return _per_point_grid(chain, [HORIZON_HOURS])[0]


@pytest.mark.parametrize("method", sorted(POINT_SOLVERS))
def test_benchmark_transient_solver(benchmark, chain, reference, method):
    solve = POINT_SOLVERS[method]
    result = benchmark(lambda: solve(chain, HORIZON_HOURS))
    assert np.allclose(result, reference, atol=1e-6)
    common.report(
        f"solvers.point_{method}",
        wall_s=common.benchmark_mean(benchmark),
        horizon_hours=HORIZON_HOURS,
    )


def _per_point_grid(chain, times):
    """One independent matrix exponential per grid point, each clipped on
    its own by the oracle's one-vector copy of the post-processing."""
    pi0 = chain.initial_distribution
    q = chain.generator_matrix()
    return np.vstack([clip(pi0 @ expm(q * t)) for t in times])


def test_benchmark_transient_grid_cache_vs_per_point(chain):
    """Dense-grid transients >= 2x faster by step propagation than one
    matrix exponential per point, within tolerance of it."""
    times = list(np.linspace(0.0, HORIZON_HOURS, GRID_POINTS))

    ref_result = _per_point_grid(chain, times)
    ref_s = common.best_of(BEST_OF, lambda: _per_point_grid(chain, times))

    def fast():
        return transient_distributions(chain, times)

    fast_result = fast()
    fast_s = common.best_of(BEST_OF, fast)
    speedup = ref_s / max(fast_s, 1e-12)

    common.report(
        "solvers.grid_expm_fast",
        wall_s=fast_s,
        trials=GRID_POINTS,
        reference_s=round(ref_s, 6),
        speedup=round(speedup, 2),
    )
    assert np.allclose(fast_result, ref_result, atol=1e-9)
    assert np.allclose(fast_result.sum(axis=1), 1.0, atol=1e-12)
    assert speedup >= REQUIRED_SPEEDUP, (
        f"grid solve must be >= {REQUIRED_SPEEDUP}x one expm per point on "
        f"a {GRID_POINTS}-point grid, measured {speedup:.2f}x"
    )


def test_benchmark_mttf_exact_vs_integration(benchmark, chain):
    """Fundamental-matrix MTTF vs numerical integration of R(t)."""
    from repro.reliability import markov_reliability_fn, mttf_from_reliability

    exact = chain.mttf()
    integrated = benchmark.pedantic(
        lambda: mttf_from_reliability(
            markov_reliability_fn(chain), horizon=40 * HOURS_PER_YEAR
        ),
        rounds=1, iterations=1,
    )
    assert integrated == pytest.approx(exact, rel=1e-3)
    common.report("solvers.mttf_integration", wall_s=common.benchmark_mean(benchmark))
