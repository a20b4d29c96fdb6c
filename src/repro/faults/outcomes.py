"""Outcome classification and coverage statistics for campaigns.

Each injection experiment is classified against a *golden* (fault-free)
reference run, following the taxonomy of the paper's Section 3.2.1:

========================  ====================================================
outcome                    meaning
========================  ====================================================
``NO_EFFECT``              correct result delivered, no error ever detected
                           (fault overwritten/latent)
``MASKED``                 errors detected, correct result still delivered
                           (TEM masked the fault — probability P_T)
``OMISSION``               no result delivered for the job (P_OM)
``FAIL_SILENT``            node went silent (kernel error or suspected
                           permanent fault — P_FS)
``UNDETECTED_WRONG``       a wrong result was delivered (non-covered error;
                           contributes to 1 - C_D)
``HUNG``                   the experiment never terminated within its step
                           budget at harness level (counted as detected via
                           the execution-time monitor in coverage terms)
``HARNESS_TIMEOUT``        the *harness* killed the trial at its wall-clock
                           budget — an infrastructure failure, not a
                           simulated outcome
``HARNESS_CRASH``          the *harness* worker crashed or raised while
                           running the trial — an infrastructure failure,
                           not a simulated outcome
========================  ====================================================

The two ``HARNESS_*`` classes are produced only by the campaign supervisor
(:mod:`repro.harness`).  They are excluded from the *valid* trial count and
therefore from the C_D / P_T / P_OM / P_FS estimators: a hung worker says
nothing about whether the simulated EDM stack would have detected the
fault, so counting it either way would bias the coverage estimates.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from collections import Counter
from typing import Dict, List, Optional

from ..core.tem import TemOutcome, TemReport
from ..types import Result


class OutcomeClass(enum.Enum):
    NO_EFFECT = "no_effect"
    MASKED = "masked"
    OMISSION = "omission"
    FAIL_SILENT = "fail_silent"
    UNDETECTED_WRONG = "undetected_wrong"
    HUNG = "hung"
    HARNESS_TIMEOUT = "harness_timeout"
    HARNESS_CRASH = "harness_crash"


#: Outcomes in which an error was *activated and detected* (the denominator
#: of the paper's conditional probabilities P_T / P_OM / P_FS).
DETECTED_OUTCOMES = (
    OutcomeClass.MASKED,
    OutcomeClass.OMISSION,
    OutcomeClass.FAIL_SILENT,
)

#: Infrastructure failures of the campaign harness itself — excluded from
#: every coverage estimator (see the module docstring).
HARNESS_OUTCOMES = (
    OutcomeClass.HARNESS_TIMEOUT,
    OutcomeClass.HARNESS_CRASH,
)


def classify_tem_report(
    report: TemReport, golden: Result, node_went_silent: bool = False
) -> OutcomeClass:
    """Classify a finished TEM job against the golden result."""
    if node_went_silent:
        return OutcomeClass.FAIL_SILENT
    if report.outcome is TemOutcome.OMISSION:
        return OutcomeClass.OMISSION
    assert report.delivered_result is not None
    if tuple(report.delivered_result) != tuple(golden):
        return OutcomeClass.UNDETECTED_WRONG
    if report.errors_detected > 0:
        return OutcomeClass.MASKED
    return OutcomeClass.NO_EFFECT


@dataclasses.dataclass(frozen=True)
class ExperimentRecord:
    """One classified injection experiment."""

    outcome: OutcomeClass
    fault_description: str
    detection_mechanisms: "tuple[str, ...]" = ()
    copies_run: int = 0

    def __reduce__(self) -> "tuple[type, tuple]":
        # Unpickle through the constructor, as records handed off by
        # shard runners are: an object rebuilt by pickle's default path
        # gets a materialised ``__dict__``, and the campaign statistics'
        # attribute reads over it ran ~1.8x slower than over records the
        # constructor built.
        return (
            type(self),
            (self.outcome, self.fault_description,
             self.detection_mechanisms, self.copies_run),
        )

    def to_json(self) -> "dict[str, object]":
        """JSON-serialisable form, for the campaign checkpoint journal."""
        return {
            "outcome": self.outcome.value,
            "fault": self.fault_description,
            "mechanisms": list(self.detection_mechanisms),
            "copies_run": self.copies_run,
        }

    @classmethod
    def from_json(cls, data: "dict[str, object]") -> "ExperimentRecord":
        """Inverse of :meth:`to_json` (journal replay on resume)."""
        return cls(
            outcome=OutcomeClass(data["outcome"]),
            fault_description=str(data["fault"]),
            detection_mechanisms=tuple(data.get("mechanisms", ())),
            copies_run=int(data.get("copies_run", 0)),
        )


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> "tuple[float, float]":
    """Wilson score interval for a binomial proportion (95% by default).

    The standard way to report coverage estimates from fault-injection
    campaigns; robust for proportions near 0 or 1.
    """
    if trials <= 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return (max(0.0, centre - half), min(1.0, centre + half))


@dataclasses.dataclass
class CampaignStatistics:
    """Aggregated campaign results with paper-style derived measures.

    ``planned_trials`` is set by the campaign supervisor when a campaign
    degrades gracefully (budget exhaustion, repeated harness failures): it
    records how many trials the campaign *intended* to run, so
    :attr:`completeness` reports how much of the plan produced a simulated
    outcome.  Harness failures (``HARNESS_*`` records) are kept for
    accounting but excluded from every coverage estimator.

    ``degraded`` marks statistics from a campaign that stopped before
    completing its plan (budget exhaustion, failure cap, abandoned
    shards).  Degraded statistics report a **widened** coverage interval
    (:meth:`coverage_interval`): the missing trials are treated as
    adversarial — all-undetected for the lower bound, all-detected for
    the upper — so the printed interval is honest about what the partial
    campaign can and cannot claim.
    """

    records: List[ExperimentRecord] = dataclasses.field(default_factory=list)
    planned_trials: Optional[int] = None
    degraded: bool = False

    def add(self, record: ExperimentRecord) -> None:
        self.records.append(record)

    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        return len(self.records)

    def count(self, outcome: OutcomeClass) -> int:
        return sum(1 for r in self.records if r.outcome is outcome)

    @property
    def harness_failures(self) -> int:
        """Trials lost to the harness itself (timeout / worker crash)."""
        return sum(self.count(o) for o in HARNESS_OUTCOMES)

    @property
    def valid(self) -> int:
        """Trials that produced a *simulated* outcome."""
        return self.total - self.harness_failures

    @property
    def completeness(self) -> float:
        """Fraction of the planned campaign with a simulated outcome."""
        planned = self.planned_trials if self.planned_trials else self.total
        if planned <= 0:
            return 1.0
        return self.valid / planned

    @property
    def effective(self) -> int:
        """Experiments in which the fault had *any* observable effect."""
        return self.valid - self.count(OutcomeClass.NO_EFFECT)

    @property
    def detected(self) -> int:
        """Experiments with a detected error (masked/omission/fail-silent)."""
        return sum(self.count(o) for o in DETECTED_OUTCOMES) + self.count(OutcomeClass.HUNG)

    # ------------------------------------------------------------------
    # The paper's parameters, estimated from the campaign
    # ------------------------------------------------------------------
    @property
    def coverage(self) -> Optional[float]:
        """C_D estimate: detected / effective (None without effective runs)."""
        if self.effective == 0:
            return None
        return self.detected / self.effective

    def conditional_probability(self, outcome: OutcomeClass) -> Optional[float]:
        """P(outcome | error detected): the paper's P_T, P_OM, P_FS."""
        if self.detected == 0:
            return None
        numerator = self.count(outcome)
        if outcome is OutcomeClass.OMISSION:
            numerator += self.count(OutcomeClass.HUNG)
        return numerator / self.detected

    @property
    def p_tem(self) -> Optional[float]:
        return self.conditional_probability(OutcomeClass.MASKED)

    @property
    def p_omission(self) -> Optional[float]:
        return self.conditional_probability(OutcomeClass.OMISSION)

    @property
    def p_fail_silent(self) -> Optional[float]:
        return self.conditional_probability(OutcomeClass.FAIL_SILENT)

    @property
    def missing(self) -> int:
        """Planned trials without a simulated outcome (lost to the
        harness, never dispatched, or on abandoned shards)."""
        planned = self.planned_trials if self.planned_trials else self.total
        return max(0, planned - self.valid)

    def coverage_interval(self) -> "tuple[float, float]":
        """95% Wilson interval for the coverage estimate.

        For :attr:`degraded` statistics the interval is *widened* by the
        missing trials: the lower bound assumes every missing trial would
        have been effective-but-undetected, the upper bound that every
        one would have been detected.  The plain interval over completed
        trials is unioned in, so a degraded interval always contains the
        undisturbed estimate.
        """
        plain = wilson_interval(self.detected, max(self.effective, 1))
        if not self.degraded or self.missing == 0:
            return plain
        missing = self.missing
        widened_n = max(self.effective + missing, 1)
        pessimistic = wilson_interval(self.detected, widened_n)
        optimistic = wilson_interval(self.detected + missing, widened_n)
        return (
            min(plain[0], pessimistic[0]),
            max(plain[1], optimistic[1]),
        )

    # ------------------------------------------------------------------
    def mechanism_counts(self) -> Dict[str, int]:
        """Detections per EDM mechanism (reproduces Table 1 empirically)."""
        counter: Counter[str] = Counter()
        for record in self.records:
            counter.update(record.detection_mechanisms)
        return dict(counter)

    def outcome_counts(self) -> Dict[str, int]:
        """Raw outcome histogram."""
        return {outcome.value: self.count(outcome) for outcome in OutcomeClass}

    def summary(self) -> str:
        """Multi-line human-readable campaign summary."""
        lines = [f"experiments: {self.total} (effective: {self.effective})"]
        if self.harness_failures or self.completeness < 1.0:
            lines.append(
                f"  harness failures: {self.harness_failures} "
                f"(excluded from estimates); "
                f"completeness: {self.completeness:.3f}"
            )
        if self.degraded:
            lines.append(
                f"  DEGRADED: campaign stopped with {self.missing} of "
                f"{self.planned_trials if self.planned_trials else self.total}"
                " planned trials missing; intervals widened accordingly"
            )
        for outcome in OutcomeClass:
            lines.append(f"  {outcome.value:<18s} {self.count(outcome)}")
        if self.coverage is not None:
            low, high = self.coverage_interval()
            lines.append(f"coverage C_D ~= {self.coverage:.4f} [{low:.4f}, {high:.4f}]")
        for label, value in (
            ("P_T", self.p_tem),
            ("P_OM", self.p_omission),
            ("P_FS", self.p_fail_silent),
        ):
            if value is not None:
                lines.append(f"  {label} ~= {value:.4f}")
        mechanisms = self.mechanism_counts()
        if mechanisms:
            lines.append("detections by mechanism:")
            for name, count in sorted(mechanisms.items(), key=lambda kv: -kv[1]):
                lines.append(f"  {name:<18s} {count}")
        return "\n".join(lines)
