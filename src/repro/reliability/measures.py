"""Dependability measures derived from reliability functions.

The paper reports two headline measures (Section 3.4):

* reliability at a mission time (R after one year), and
* mean time to failure, MTTF = integral of R(t) dt from 0 to infinity.

:func:`mttf_from_reliability` integrates any reliability function
numerically with an adaptive horizon; the tests use it to cross-check the
exact solves.  For a single CTMC prefer
:meth:`repro.reliability.ctmc.MarkovChain.mttf`, and for independent CTMCs
under an OR fault tree
:func:`repro.reliability.absorbing.series_mean_time_to_absorption`; both
are exact fundamental-matrix solves.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

from scipy.integrate import quad

from ..errors import ModelError


def mttf_from_reliability(
    reliability: Callable[[float], float],
    horizon: Optional[float] = None,
    tail_tolerance: float = 1e-4,
    quad_limit: int = 400,
) -> float:
    """MTTF = integral_0^inf R(t) dt by adaptive quadrature (hours).

    Parameters
    ----------
    reliability:
        R(t), must be non-increasing from R(0) ~= 1 toward 0.
    horizon:
        Upper integration limit.  When omitted, the horizon is grown by
        doubling until R(horizon) < *tail_tolerance*; the remaining tail is
        bounded above by assuming exponential decay at the empirical rate of
        the last doubling and added as a correction.
    """
    if horizon is None:
        horizon = _find_horizon(reliability, tail_tolerance)
    value, _err = quad(reliability, 0.0, horizon, limit=quad_limit)
    tail = _tail_estimate(reliability, horizon)
    return float(value + tail)


def _find_horizon(reliability: Callable[[float], float], tolerance: float) -> float:
    horizon = 1000.0
    for _ in range(60):
        if reliability(horizon) < tolerance:
            return horizon
        horizon *= 2.0
    raise ModelError(
        "reliability does not decay below tolerance within a practical "
        "horizon; is the model missing failure transitions?"
    )


def _tail_estimate(reliability: Callable[[float], float], horizon: float) -> float:
    """Exponential-tail correction: fit R(t) ~ R(h) exp(-r (t - h))."""
    r_h = reliability(horizon)
    if r_h <= 0.0:
        return 0.0
    r_half = reliability(horizon * 0.5)
    if r_half <= r_h or r_h >= 1.0:
        return 0.0
    rate = (math.log(r_half) - math.log(r_h)) / (horizon * 0.5)
    if rate <= 0.0:
        return 0.0
    return r_h / rate


def reliability_improvement(
    baseline: Callable[[float], float],
    improved: Callable[[float], float],
    t: float,
) -> float:
    """Relative reliability gain at time t: R_new/R_old - 1 (0.55 = +55%)."""
    r_old = baseline(t)
    if r_old <= 0:
        raise ModelError(f"baseline reliability is {r_old} at t={t}")
    return improved(t) / r_old - 1.0


def crossing_time(
    reliability: Callable[[float], float],
    level: float,
    t_max: float,
    tolerance: float = 1e-6,
) -> float:
    """First time R(t) drops to *level*, by bisection on [0, t_max].

    Useful for statements like "time until reliability falls below 0.9".
    Raises :class:`ModelError` when R stays above *level* on the interval.
    """
    if not 0.0 < level < 1.0:
        raise ModelError(f"level must be in (0, 1), got {level}")
    lo, hi = 0.0, float(t_max)
    if reliability(hi) > level:
        raise ModelError(f"reliability is still {reliability(hi):.4f} at t={t_max}")
    while hi - lo > tolerance * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if reliability(mid) > level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sample_curve(
    reliability: Callable[[float], float], times: Sequence[float]
) -> List[Tuple[float, float]]:
    """Evaluate R on a time grid, returning (t, R(t)) pairs."""
    return [(float(t), float(reliability(t))) for t in times]
