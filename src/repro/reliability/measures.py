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
from typing import Callable, Optional

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

