"""Reliability analysis engine (our SHARPE [13] substitute).

Formalisms provided, mirroring what the paper uses:

* continuous-time Markov chains with transient, absorbing (MTTF) and
  stationary analysis (:mod:`~repro.reliability.ctmc`,
  :mod:`~repro.reliability.solvers`, :mod:`~repro.reliability.absorbing`);
* fault trees (:mod:`~repro.reliability.faulttree`) over Markov
  subsystems (:mod:`~repro.reliability.hierarchy`), with importance
  measures (:mod:`~repro.reliability.importance`);
* MTTF by numerical integration of any R(t)
  (:mod:`~repro.reliability.measures`).

The Figure 8 series RBD is solved as its equivalent CTMC; a reference RBD
evaluator lives with the test oracles.
"""

from .availability import (
    expected_downtime_hours,
    interval_availability,
    point_availability,
    steady_state_availability,
)
from .absorbing import mean_time_to_absorption, series_mean_time_to_absorption
from .ctmc import MarkovChain, Transition, rate_sum
from .faulttree import AndGate, BasicEvent, KofNGate, OrGate
from .importance import (
    ImportanceReport,
    analyse_importance,
    birnbaum_importance,
    fussell_vesely,
    improvement_potential,
)
from .hierarchy import CachedReliability, markov_event, markov_reliability_fn
from .measures import mttf_from_reliability
from .sharpe_lang import SharpeModel, evaluate_expression, parse_sharpe
from .solvers import steady_state, transient_distribution, transient_distributions
from .sweep_solver import reliability_batch

__all__ = [
    "AndGate",
    "BasicEvent",
    "CachedReliability",
    "ImportanceReport",
    "KofNGate",
    "MarkovChain",
    "OrGate",
    "SharpeModel",
    "Transition",
    "analyse_importance",
    "birnbaum_importance",
    "evaluate_expression",
    "expected_downtime_hours",
    "fussell_vesely",
    "improvement_potential",
    "interval_availability",
    "point_availability",
    "markov_event",
    "markov_reliability_fn",
    "mean_time_to_absorption",
    "mttf_from_reliability",
    "parse_sharpe",
    "rate_sum",
    "reliability_batch",
    "series_mean_time_to_absorption",
    "steady_state",
    "steady_state_availability",
    "transient_distribution",
    "transient_distributions",
]
