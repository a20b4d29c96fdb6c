"""The frozen per-run configuration (:class:`RunConfig`).

One :class:`RunConfig` captures everything a run of the reproduction can
be parameterised with — the campaign supervisor's parallelism and timeout
knobs, the root seed, the resume directory and the observability
switches.  The campaign front-ends take ``jobs`` and the journal path as
arguments (their registry adapters pass them on); ``timeout_s``,
``progress``, ``profile`` and ``chaos`` reach no front-end: the campaign
supervisor reads them from the active context once per run.  It is

* **frozen** — a config never changes after construction; a different
  setting means activating a different :class:`repro.runtime.RunContext`;
* **plain data** — every field is a primitive, so a config pickles
  (the shard coordinator hands it to every runner, which activates it
  explicitly rather than relying on fork inheritance) and serialises to JSON
  (:meth:`to_dict` / :meth:`from_dict` / :meth:`from_file`, the CLI's
  ``--config FILE``).

``smoke`` chooses how *much* work runs: smoke-test campaign sizes (the
experiment runner's ``--fast`` CLI flag) instead of the full paper-scale
trial counts.  ``scale`` further multiplies campaign sizes for tests that
need tiny-but-real runs.  No field selects an implementation: every layer
has one production path.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Union

from ..errors import ConfigurationError

if TYPE_CHECKING:
    from ..harness.chaos import ChaosPolicy

#: Default reliability-curve horizon (hours in one year, the paper's
#: mission time).
DEFAULT_HORIZON_HOURS = 8_760.0


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Immutable description of one run.

    Attributes
    ----------
    jobs:
        Heartbeating shard runner processes for campaign-shaped experiments
        (:mod:`repro.harness.shards`; 0 = serial in-process).  Each runner
        executes its slice serially, in the same lockstep chunks as a
        serial run.  Shard journals go under ``resume_dir`` when it is
        set, else into a temporary directory removed after the campaign.
    timeout_s:
        Per-trial wall-clock budget for campaign trials (``None`` = no
        budget), enforced with ``SIGALRM`` in the process executing the
        trial.
    root_seed:
        Root seed of the run's RNG (:attr:`repro.runtime.RunContext.rng`).
        Experiment campaigns keep their own historic per-experiment seeds
        so published numbers stay stable; the root RNG seeds everything
        that is new.
    resume_dir:
        Directory for per-campaign JSONL checkpoint journals
        (:meth:`journal_path`); ``None`` disables journaling.
    smoke:
        Smoke-test campaign sizes instead of paper-scale sizes.
    scale:
        Multiplier applied on top of the smoke/full campaign sizes
        (:meth:`campaign_size`); ``1.0`` reproduces the published counts.
    progress:
        Show the live campaign progress line (TTY stderr only), labelled
        with the campaign name.
    profile:
        Run every campaign trial under cProfile, in process and trial at
        a time; the hottest land in the active context's collector when
        :func:`repro.obs.profile.enabled` is on (the runner turns it on).
    horizon_hours:
        Reliability-curve horizon for experiments that sweep R(t).
    chaos:
        Deterministic chaos-injection spec for the shard runners of a
        ``jobs >= 1`` run (:meth:`repro.harness.chaos.ChaosPolicy.from_spec`
        grammar, e.g. ``"die:40,stall:80,corrupt:0:tear"``); ``None`` =
        no chaos.
    chaos_seed:
        Seed of the chaos policy's corruption-byte generator.
    """

    jobs: int = 0
    timeout_s: Optional[float] = None
    root_seed: int = 0
    resume_dir: Optional[str] = None
    smoke: bool = False
    scale: float = 1.0
    progress: bool = False
    profile: bool = False
    horizon_hours: float = DEFAULT_HORIZON_HOURS
    chaos: Optional[str] = None
    chaos_seed: int = 0

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise ConfigurationError("jobs must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive")
        if self.scale <= 0:
            raise ConfigurationError("scale must be positive")
        if self.horizon_hours <= 0:
            raise ConfigurationError("horizon_hours must be positive")

    # ------------------------------------------------------------------
    # Derived knobs
    # ------------------------------------------------------------------
    def campaign_size(self, full: int, smoke: int) -> int:
        """Trial count for one campaign: smoke/full choice times scale."""
        base = smoke if self.smoke else full
        return max(1, int(round(base * self.scale)))

    def journal_path(self, name: str) -> Optional[str]:
        """The checkpoint-journal path of campaign *name* (or ``None``)."""
        if self.resume_dir is None:
            return None
        return str(Path(self.resume_dir) / f"{name}.jsonl")

    def chaos_policy(self) -> "Optional[ChaosPolicy]":
        """The parsed :attr:`chaos` schedule (or ``None`` without one)."""
        # Imported here: the harness package imports this module.
        from ..harness.chaos import ChaosPolicy

        if not self.chaos:
            return None
        return ChaosPolicy.from_spec(self.chaos, seed=self.chaos_seed)

    # ------------------------------------------------------------------
    # Serialisation (CLI --config, shard-runner bootstrap)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON dict of every field."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunConfig":
        """Build from a (possibly partial) mapping; unknown keys fail."""
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown RunConfig keys: {sorted(unknown)}; "
                f"known keys: {sorted(known)}"
            )
        return cls(**dict(data))

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "RunConfig":
        """Load a JSON config file (the CLI's ``--config FILE``)."""
        return cls.from_dict(read_config_file(path))

    def replace(self, **changes: Any) -> "RunConfig":
        """A copy with *changes* applied (frozen-dataclass convenience)."""
        return dataclasses.replace(self, **changes)


def read_config_file(path: Union[str, Path]) -> Dict[str, Any]:
    """The JSON object of :class:`RunConfig` fields held in *path*."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"config {path} must hold a JSON object of RunConfig fields"
        )
    return data
