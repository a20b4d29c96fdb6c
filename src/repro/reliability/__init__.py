"""Reliability analysis engine (our SHARPE [13] substitute).

Formalisms provided, mirroring what the paper uses:

* continuous-time Markov chains with transient, absorbing (MTTF) and
  stationary analysis (:mod:`~repro.reliability.ctmc`,
  :mod:`~repro.reliability.solvers`, :mod:`~repro.reliability.absorbing`);
* reliability block diagrams (:mod:`~repro.reliability.rbd`);
* fault trees (:mod:`~repro.reliability.faulttree`);
* hierarchical composition of all three
  (:mod:`~repro.reliability.hierarchy`);
* dependability measures and parameter sweeps
  (:mod:`~repro.reliability.measures`, :mod:`~repro.reliability.sensitivity`).
"""

from .availability import (
    expected_downtime_hours,
    interval_availability,
    point_availability,
    steady_state_availability,
)
from .absorbing import (
    absorption_probabilities,
    expected_visits,
    mean_time_to_absorption,
)
from .ctmc import MarkovChain, Transition, rate_sum
from .faulttree import AndGate, BasicEvent, KofNGate, OrGate
from .importance import (
    ImportanceReport,
    analyse_importance,
    birnbaum_importance,
    fussell_vesely,
    improvement_potential,
)
from .hierarchy import (
    CachedReliability,
    block_event,
    function_event,
    markov_component,
    markov_event,
    markov_reliability_fn,
)
from .measures import (
    crossing_time,
    mttf_from_reliability,
    mttf_improvement,
    reliability_improvement,
    sample_curve,
)
from .rbd import (
    Block,
    Component,
    Exponential,
    KofN,
    KofNHeterogeneous,
    Parallel,
    Series,
)
from .sensitivity import SweepPoint, SweepResult, sweep
from .sharpe_lang import SharpeModel, evaluate_expression, parse_sharpe
from .solver_cache import SolverCache
from .solver_cache import clear as clear_solver_cache
from .solvers import steady_state, transient_distribution, transient_distributions
from .sweep_solver import reliability_batch

__all__ = [
    "AndGate",
    "BasicEvent",
    "Block",
    "CachedReliability",
    "ImportanceReport",
    "Component",
    "Exponential",
    "KofN",
    "KofNGate",
    "KofNHeterogeneous",
    "MarkovChain",
    "OrGate",
    "Parallel",
    "Series",
    "SharpeModel",
    "SolverCache",
    "SweepPoint",
    "SweepResult",
    "Transition",
    "absorption_probabilities",
    "analyse_importance",
    "birnbaum_importance",
    "block_event",
    "clear_solver_cache",
    "crossing_time",
    "evaluate_expression",
    "expected_downtime_hours",
    "expected_visits",
    "function_event",
    "fussell_vesely",
    "improvement_potential",
    "interval_availability",
    "point_availability",
    "markov_component",
    "markov_event",
    "markov_reliability_fn",
    "mean_time_to_absorption",
    "mttf_from_reliability",
    "mttf_improvement",
    "parse_sharpe",
    "rate_sum",
    "reliability_batch",
    "reliability_improvement",
    "sample_curve",
    "steady_state",
    "steady_state_availability",
    "sweep",
    "transient_distribution",
    "transient_distributions",
]
