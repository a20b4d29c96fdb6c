"""Resilient campaign supervisor: crash-isolated parallel trial execution.

Large fault-injection campaigns (E5/E11/E12) and Monte-Carlo studies (E8)
run thousands of independent trials.  Run in-process, serially and
fail-fast, a single runaway workload or injector bug discards hours of
completed work.  This module supervises campaigns the way the paper's
framework supervises nodes — contain the failure, classify it, keep the
mission going:

* **crash isolation** — with ``workers >= 1`` the campaign runs on N
  lease-owned shard runner processes (:mod:`repro.harness.shards`); a
  runner that dies is taken over and resumes its slice from its journal;
* **per-trial wall-clock timeouts** — a trial over its budget is
  interrupted with ``SIGALRM`` and classified
  :attr:`OutcomeClass.HARNESS_TIMEOUT` (in process, or inside the shard
  runner executing it);
* **bounded retry with exponential backoff** — raising trials are retried
  up to :data:`MAX_RETRIES` times before being classified
  :attr:`OutcomeClass.HARNESS_CRASH`;
* **checkpoint journal** — every finished trial (or, batched, every
  finished chunk) is committed to a JSONL journal
  (:mod:`repro.harness.journal`); together with deterministic
  per-trial seeds (:func:`repro.harness.seeds.derive_seed`) an interrupted
  campaign resumes exactly where it stopped and yields bit-identical
  statistics;
* **graceful degradation** — when the caller's ``after_trial`` hook asks
  to stop, or a shard is abandoned, the supervisor stops dispatching and
  returns statistics over the completed trials (with a completeness
  ratio) instead of raising.

Harness failures are *infrastructure* outcomes: they are excluded from the
C_D / P_T / P_OM / P_FS estimators (see :mod:`repro.faults.outcomes`), so a
flaky machine cannot bias the coverage estimates either way.

The serial path (``workers = 0``, the default everywhere) executes trials
in-process in trial order, preserving the pre-supervisor behaviour exactly.
Every shard runner is that same serial path over its slice of the
campaign, so one code path executes trials whatever the process count.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import signal
import threading
import time
from collections import deque
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

from ..errors import ConfigurationError, ReproError
from ..faults.outcomes import CampaignStatistics, ExperimentRecord, OutcomeClass
from ..obs import metrics as obs_metrics
from ..obs import profile as obs_profile
from ..obs.metrics import MetricsRegistry
from ..obs.progress import ProgressReporter
from .chaos import ChaosPolicy
from .journal import CampaignJournal, JournalHeader, TrialEntry
from .seeds import derive_seed

#: A trial function: ``(payload, seed) -> result``.  Must be deterministic
#: in its arguments for resume to be bit-identical.
TrialFn = Callable[[Any, int], Any]


class TrialTimeoutError(RuntimeError):
    """A trial exceeded its wall-clock budget (``SIGALRM`` enforcement)."""


@dataclasses.dataclass(frozen=True)
class HarnessFailure:
    """A trial consumed by the harness itself rather than the simulation."""

    trial_id: int
    kind: OutcomeClass  # HARNESS_TIMEOUT or HARNESS_CRASH
    detail: str
    attempts: int = 1

    def to_record(self) -> ExperimentRecord:
        """Render as a campaign record (excluded from coverage estimates)."""
        return ExperimentRecord(
            outcome=self.kind,
            fault_description=f"harness[{self.trial_id}]: {self.detail}",
        )


#: Retries of a raising trial before it is classified HARNESS_CRASH.
#: Timeouts are not retried — a hung trial hangs again.
MAX_RETRIES = 2
#: Exponential backoff between retries of one trial (see :func:`backoff_s`).
BACKOFF_BASE_S = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_MAX_S = 2.0


def backoff_s(attempt: int) -> float:
    """Delay before retry number *attempt* (1-based)."""
    delay = BACKOFF_BASE_S * (BACKOFF_FACTOR ** max(0, attempt - 1))
    return min(delay, BACKOFF_MAX_S)


@dataclasses.dataclass
class SupervisorConfig:
    """Knobs of the campaign supervisor.

    Attributes
    ----------
    workers:
        0 = serial in-process execution (the default; preserves historic
        behaviour); N >= 1 = N lease-owned shard runner processes
        (:func:`repro.harness.shards.run_sharded_campaign`), each a serial
        supervisor over a contiguous slice of the campaign that inherits
        this whole config — ``batch_size``/``batch_runner`` included.
        Without a ``journal_path`` the shard journals and leases live in a
        temporary directory removed after the merge.  Profiled runs
        always execute in process.
    timeout_s:
        Per-trial wall-clock budget.  ``None`` disables the budget.  It is
        enforced with ``SIGALRM`` in the process executing the trial (the
        caller's, or a shard runner's), which needs a POSIX main thread;
        elsewhere it is silently skipped.  A shard runner heartbeats from a
        background thread, so a trial longer than the lease TTL is not
        mistaken for a dead runner; a runner frozen beyond the reach of
        ``SIGALRM`` (heartbeat thread starved too) is caught by the TTL.
    journal_path:
        JSONL checkpoint journal; pass the same path again to resume.
        Trial results must be :class:`ExperimentRecord` or plain
        JSON-serialisable values.  It syncs every
        :data:`~repro.harness.journal.DEFAULT_FSYNC_INTERVAL` trials (a
        batch chunk at least that large at its own commit) and on close;
        lines are flushed per commit, so a killed *process* never loses an
        acknowledged trial.
    master_seed:
        Campaign master seed; trial ``i`` receives
        ``derive_seed(master_seed, i)``.
    campaign:
        Campaign name, recorded in the journal header (resume guard).
    progress:
        Optional :class:`repro.obs.progress.ProgressReporter`; fed one
        per-outcome tally per finished trial (including ``harness_*``
        infrastructure outcomes) and resume counts.  With
        ``workers >= 1`` the coordinator feeds it as it merges the shard
        results.
    profile:
        Run every trial under cProfile and keep the rendered stats of the
        :data:`~repro.obs.profile.DEFAULT_TOP_K` hottest (longest
        wall-clock) trials in :attr:`SupervisorResult.hot_trials` —
        opt-in, it slows trials noticeably.
    trial_offset:
        Global trial id of the first payload.  A sharded campaign
        (:mod:`repro.harness.shards`) hands each shard a slice of the
        payload list with the slice's start as the offset, so per-trial
        seeds, journal entries and result keys all use *campaign-global*
        trial ids — the property that makes shard results merge into the
        whole-campaign result bit-identically.
    chaos:
        Optional :class:`repro.harness.chaos.ChaosPolicy` attacking the
        shard runners (``die``/``stall``) and their journals
        (``corrupt``).  Events fire once, so the recovery machinery —
        not luck — restores the campaign.  Ignored in serial mode
        (killing the only process would be the campaign failing, not
        surviving).
    after_trial:
        Optional hook called as ``after_trial(trial_id, harness_failures)``
        after each trial is committed (journal append included), with the
        global trial id and the number of trials lost to the harness so
        far (journal replays included).  A batch chunk is committed whole
        first, then the hook runs for each of its trials in order — so a
        chaos ``die:T`` fires after the chunk holding ``T`` is durable.
        A true return value stops dispatching (after the current chunk)
        and the run returns degraded: this is how a caller stops a
        campaign early.  Shard runners (``workers >= 1``) replace it
        with their own hook for chaos death/stall points.  Never called
        for trials replayed from the journal on resume.
    batch_size / batch_runner:
        Serial-mode vectorised execution.  When ``batch_size`` > 0 and a
        ``batch_runner`` is supplied, the serial path slices pending
        trials into chunks of up to ``batch_size`` and calls
        ``batch_runner(payloads, seeds)`` which must return one
        ``(result, metrics_snapshot_or_None)`` pair per payload, in
        order.  Results, aggregated metrics, resume behaviour and seeds
        are identical to trial-at-a-time execution — the runner is
        required to be bit-equivalent to calling ``trial_fn(payload,
        seed)`` per trial under metrics capture
        (:mod:`repro.faults.batch_campaign` provides such a runner for
        fault-injection campaigns).  The journal differs in grain only: a
        chunk is one group commit (one ``chunk`` record with the chunk's
        snapshots merged in trial order), so a crash loses at most the
        in-flight chunk, which resume re-runs whole.  If the runner
        raises, the chunk falls back to scalar per-trial execution (and
        per-trial commits) with the usual retry machinery (counted as
        ``harness.batch_fallbacks``).  Profiled runs force the scalar
        path, since per-trial profiles require per-trial calls.  With
        ``workers >= 1`` every shard runner batches its own slice.
    """

    workers: int = 0
    timeout_s: Optional[float] = None
    journal_path: Optional[Union[str, Path]] = None
    master_seed: int = 0
    campaign: str = "campaign"
    progress: Optional[ProgressReporter] = None
    profile: bool = False
    trial_offset: int = 0
    chaos: Optional[ChaosPolicy] = None
    after_trial: Optional[Callable[[int, int], Optional[bool]]] = None
    batch_size: int = 0
    batch_runner: Optional[
        Callable[[Sequence[Any], Sequence[int]], Sequence["tuple[Any, Optional[dict]]"]]
    ] = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ConfigurationError("workers must be >= 0")
        if self.batch_size < 0:
            raise ConfigurationError("batch_size must be >= 0")
        if self.batch_size > 0 and self.batch_runner is None:
            raise ConfigurationError("batch_size > 0 requires a batch_runner")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive")
        if self.trial_offset < 0:
            raise ConfigurationError("trial_offset must be >= 0")


@dataclasses.dataclass
class SupervisorResult:
    """Everything a campaign run produced, in trial-id order on demand."""

    planned: int
    results: Dict[int, Any]
    failures: Dict[int, HarnessFailure]
    degraded: bool
    elapsed_s: float
    resumed_trials: int = 0
    #: Metrics snapshots, one per journal commit — a trial's own, or a
    #: batch chunk's merged snapshot — keyed by the commit's first trial
    #: id; the same in memory and on replay.
    trial_metrics: Dict[int, dict] = dataclasses.field(default_factory=dict)
    #: The supervisor's own infrastructure metrics (dispatch counts,
    #: retries, shard-runner spawns, trial-duration histogram).  Kept separate
    #: from trial metrics because they legitimately differ between serial,
    #: parallel and resumed executions of the same campaign.
    harness_metrics: dict = dataclasses.field(default_factory=dict)
    #: The hottest profiled trials (``profile``), slowest first.
    hot_trials: List["obs_profile.HotTrial"] = dataclasses.field(default_factory=list)

    def metrics_snapshot(self, include_harness: bool = False) -> dict:
        """Aggregate :attr:`trial_metrics` (in trial-id order).

        The :func:`repro.obs.metrics.stable_view` of this snapshot is
        invariant across execution modes: serial, parallel, batched and
        kill-and-resume runs of the same seeded campaign aggregate to the
        identical counters and timer counts, whatever the commit grain.
        Gauges are last-write-wins in trial order.
        """
        merged = obs_metrics.merge_snapshots(
            *(self.trial_metrics[tid] for tid in sorted(self.trial_metrics))
        )
        if include_harness:
            merged = obs_metrics.merge_snapshots(merged, self.harness_metrics)
        return merged

    @property
    def completed(self) -> int:
        """Trials with any recorded outcome (simulated or harness)."""
        return len(self.results) + len(self.failures)

    @property
    def completeness(self) -> float:
        """Fraction of the planned campaign with a *simulated* outcome."""
        if self.planned <= 0:
            return 1.0
        return len(self.results) / self.planned

    def ordered_results(self) -> List[Any]:
        """Simulated results in trial-id order (harness failures skipped)."""
        return [self.results[tid] for tid in sorted(self.results)]

    def statistics(self) -> CampaignStatistics:
        """Merge into :class:`CampaignStatistics` (trial-id order).

        Valid when the trial function returns :class:`ExperimentRecord`;
        harness failures become ``HARNESS_*`` records, which the statistics
        exclude from every coverage estimator.
        """
        stats = CampaignStatistics(
            planned_trials=self.planned, degraded=self.degraded
        )
        for trial_id in sorted(set(self.results) | set(self.failures)):
            if trial_id in self.results:
                record = self.results[trial_id]
                if not isinstance(record, ExperimentRecord):
                    raise ConfigurationError(
                        "statistics() needs ExperimentRecord results, got "
                        f"{type(record).__name__} for trial {trial_id}"
                    )
                stats.add(record)
            else:
                stats.add(self.failures[trial_id].to_record())
        return stats


# ----------------------------------------------------------------------
# Result <-> JSON codec (journal)
# ----------------------------------------------------------------------

_RECORD_TAG = "__experiment_record__"


def _default_encode(result: Any) -> Any:
    if isinstance(result, ExperimentRecord):
        return {_RECORD_TAG: result.to_json()}
    try:
        json.dumps(result)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"trial result of type {type(result).__name__} is not "
            "JSON-serialisable, so it cannot be journaled"
        ) from exc
    return result


def _default_decode(data: Any) -> Any:
    if isinstance(data, dict) and _RECORD_TAG in data:
        return ExperimentRecord.from_json(data[_RECORD_TAG])
    return data


def _replay_entries(
    entries: Iterable[TrialEntry],
    results: Dict[int, Any],
    failures: Dict[int, HarnessFailure],
    trial_metrics: Dict[int, dict],
) -> None:
    """Fold journaled trial entries into result/failure/metrics maps.

    Replayed trials contribute their journaled metrics snapshot — this is
    what keeps resume (and the merge of a shard without a handoff) from
    double- or under-counting campaign metrics.
    """
    for entry in entries:
        if entry.is_harness_failure:
            failures[entry.trial_id] = HarnessFailure(
                trial_id=entry.trial_id,
                kind=OutcomeClass(entry.status),
                detail=entry.detail,
                attempts=entry.attempts,
            )
        else:
            results[entry.trial_id] = _default_decode(entry.result)
        if entry.metrics is not None:
            trial_metrics[entry.trial_id] = entry.metrics


# ----------------------------------------------------------------------
# Per-trial timeout enforcement
# ----------------------------------------------------------------------

@contextlib.contextmanager
def _alarm(timeout_s: Optional[float]) -> Iterator[None]:
    """Raise :class:`TrialTimeoutError` after *timeout_s* (best effort).

    Uses ``SIGALRM``, so it only works on POSIX main threads; elsewhere the
    budget is skipped.  A shard runner executes trials on its process's
    main thread, so the budget holds there too.
    """
    usable = (
        timeout_s is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum: int, frame: Any) -> None:
        raise TrialTimeoutError(f"trial exceeded {timeout_s:.3f}s budget")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# One trial
# ----------------------------------------------------------------------

def _run_one_trial(
    trial_fn: TrialFn,
    payload: Any,
    seed: int,
    profiled: bool,
) -> "tuple[Any, Optional[dict], float, Optional[str]]":
    """Execute one trial with observability capture.

    Returns ``(result, metrics_snapshot|None, duration_s, profile|None)``.
    Exceptions propagate to the caller's isolation boundary; the partial
    capture of a failed attempt is discarded (failed/retried attempts must
    not contribute metrics, or resumed and uninterrupted campaigns would
    disagree).
    """
    started = time.perf_counter()
    profile_text: Optional[str] = None
    with obs_metrics.capture() as registry:
        if profiled:
            result, profile_text = obs_profile.profiled_call(
                trial_fn, payload, seed
            )
        else:
            result = trial_fn(payload, seed)
    snapshot = registry.snapshot()
    if obs_metrics.snapshot_is_empty(snapshot):
        snapshot = None
    return result, snapshot, time.perf_counter() - started, profile_text


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------

@dataclasses.dataclass
class _RunState:
    """Mutable bookkeeping of one :meth:`CampaignSupervisor.run` pass."""

    results: Dict[int, Any]
    failures: Dict[int, HarnessFailure]
    journal: Optional[CampaignJournal]
    trial_metrics: Dict[int, dict] = dataclasses.field(default_factory=dict)
    harness: MetricsRegistry = dataclasses.field(default_factory=MetricsRegistry)
    hot_trials: Optional["obs_profile.ProfileCollector"] = None
    reporter: Optional[ProgressReporter] = None
    #: Set when ``after_trial`` asked to stop dispatching.
    stop_requested: bool = False


class CampaignSupervisor:
    """Executes a list of independent trials under full fault containment.

    ``trial_fn(payload, seed)`` must be deterministic in its arguments.
    Shard runners (``workers >= 1``) are forked, so closures work as trial
    functions there too.
    """

    def __init__(self, trial_fn: TrialFn, config: Optional[SupervisorConfig] = None) -> None:
        self.trial_fn = trial_fn
        self.config = config if config is not None else SupervisorConfig()

    # ------------------------------------------------------------------
    def run(self, payloads: Sequence[Any]) -> SupervisorResult:
        """Run one trial per payload; trial ``trial_offset + i`` gets seed
        ``derive_seed(master_seed, trial_offset + i)``.

        With ``workers >= 1`` (and no profiling) the campaign is handed to
        :func:`repro.harness.shards.run_sharded_campaign`, whose runners
        each run this serial path over one slice.
        """
        if self.config.workers > 0 and not self.config.profile:
            # Imported here: the shard coordinator builds on this module.
            from .shards import run_sharded_campaign

            return run_sharded_campaign(self.trial_fn, payloads, self.config)
        started = time.monotonic()
        planned = len(payloads)
        state = _RunState(results={}, failures={}, journal=None)
        if self.config.profile:
            state.hot_trials = obs_profile.ProfileCollector()

        if self.config.journal_path is not None:
            state.journal = CampaignJournal(
                self.config.journal_path,
                JournalHeader(
                    campaign=self.config.campaign,
                    master_seed=self.config.master_seed,
                    total_trials=planned,
                ),
            )
            if state.journal.salvage is not None:
                salvage = state.journal.salvage
                state.harness.inc("harness.journal_salvages")
                state.harness.inc(
                    "harness.journal_entries_salvaged", salvage.entries_kept
                )
                state.harness.inc(
                    "harness.journal_quarantined_bytes",
                    salvage.quarantined_bytes,
                )
            _replay_entries(
                state.journal.entries.values(),
                state.results, state.failures, state.trial_metrics,
            )
        resumed = len(state.results) + len(state.failures)
        state.harness.inc("harness.trials_resumed", resumed)

        pending: Deque["tuple[int, Any]"] = deque(
            (trial_id, payload)
            for trial_id, payload in enumerate(
                payloads, self.config.trial_offset
            )
            if trial_id not in state.results and trial_id not in state.failures
        )

        state.reporter = self.config.progress
        if state.reporter is not None:
            state.reporter.start(total=planned, already_done=resumed)

        try:
            degraded = self._run_serial(pending, state)
        finally:
            if state.journal is not None:
                state.journal.close()
            if state.reporter is not None:
                state.reporter.finish()

        hot = state.hot_trials.hottest() if state.hot_trials is not None else []
        for trial in hot:
            obs_profile.record_hot_trial(trial)
        result = SupervisorResult(
            planned=planned,
            results=state.results,
            failures=state.failures,
            degraded=degraded,
            elapsed_s=time.monotonic() - started,
            resumed_trials=resumed,
            trial_metrics=state.trial_metrics,
            harness_metrics=state.harness.snapshot(),
            hot_trials=hot,
        )
        # Surface the campaign in the caller's ambient registry: the
        # deterministic per-trial aggregate plus the harness's own
        # infrastructure counters.  Trials recorded into captured
        # registries (serial mode swaps one in per trial), so nothing is
        # counted twice here.
        obs_metrics.merge_into_active(result.metrics_snapshot())
        obs_metrics.merge_into_active(result.harness_metrics)
        return result

    # ------------------------------------------------------------------
    # Shared bookkeeping
    # ------------------------------------------------------------------

    @staticmethod
    def _outcome_label(result: Any) -> str:
        """Progress-tally label of one simulated result."""
        if isinstance(result, ExperimentRecord):
            return result.outcome.value
        return "ok"

    def _record_success(
        self,
        state: _RunState,
        trial_id: int,
        result: Any,
        attempts: int,
        duration_s: Optional[float] = None,
        profile_text: Optional[str] = None,
    ) -> Optional[TrialEntry]:
        """Record one simulated result in memory; return its journal entry
        (``None`` without a journal) for the caller to :meth:`_commit`."""
        state.results[trial_id] = result
        state.harness.inc("harness.trials_ok")
        if profile_text is not None and state.hot_trials is not None:
            state.hot_trials.record(obs_profile.HotTrial(
                campaign=self.config.campaign,
                trial_id=trial_id,
                duration_s=duration_s if duration_s is not None else 0.0,
                profile_text=profile_text,
            ))
        if state.reporter is not None:
            state.reporter.note(self._outcome_label(result))
        if state.journal is None:
            return None
        return TrialEntry(
            trial_id=trial_id, status="ok",
            result=_default_encode(result), attempts=attempts,
            duration_s=duration_s,
        )

    def _record_failure(self, state: _RunState, failure: HarnessFailure) -> None:
        state.failures[failure.trial_id] = failure
        state.harness.inc(f"harness.{failure.kind.value}")
        if state.reporter is not None:
            state.reporter.note(failure.kind.value)
        entries = [] if state.journal is None else [TrialEntry(
            trial_id=failure.trial_id, status=failure.kind.value,
            detail=failure.detail, attempts=failure.attempts,
        )]
        self._commit(state, [failure.trial_id], entries, None)

    def _commit(
        self,
        state: _RunState,
        trial_ids: Sequence[int],
        entries: Sequence[TrialEntry],
        metrics: Optional[dict],
    ) -> None:
        """Commit recorded trials: their one metrics snapshot (keyed by the
        first trial id), one journal append, then ``after_trial`` for each
        trial in order — so a hook that kills the process never loses a
        trial it was told about."""
        if metrics is not None:
            state.trial_metrics[trial_ids[0]] = metrics
        if state.journal is not None:
            state.journal.append(*entries, metrics=metrics)
        for trial_id in trial_ids:
            self._after_trial(state, trial_id)

    def _after_trial(self, state: _RunState, trial_id: int) -> None:
        hook = self.config.after_trial
        if hook is not None and hook(trial_id, len(state.failures)):
            state.stop_requested = True

    # ------------------------------------------------------------------
    # Serial path (in process, or inside one shard runner)
    # ------------------------------------------------------------------

    def _run_serial(self, pending: Deque["tuple[int, Any]"], state: _RunState) -> bool:
        config = self.config
        profiled = config.profile
        # Vectorised fast path: profiling needs per-trial calls, so it
        # always wins over batching.
        batched = config.batch_size > 0 and config.batch_runner is not None and not profiled
        while pending:
            if state.stop_requested:
                return True
            if batched:
                chunk = [
                    pending.popleft()
                    for _ in range(min(config.batch_size, len(pending)))
                ]
                if not self._run_batch_chunk(chunk, state):
                    # The runner raised: fall back to scalar execution for
                    # this chunk (usual retry/containment machinery), then
                    # keep batching — a bad payload poisons one chunk only.
                    for trial_id, payload in chunk:
                        self._run_serial_trial(trial_id, payload, state, profiled)
                continue
            trial_id, payload = pending.popleft()
            self._run_serial_trial(trial_id, payload, state, profiled)
        return False

    def _run_serial_trial(
        self, trial_id: int, payload: Any, state: _RunState, profiled: bool
    ) -> None:
        """One trial, in process, with timeout/retry containment."""
        config = self.config
        seed = derive_seed(config.master_seed, trial_id)
        attempts = 0
        while True:
            attempts += 1
            state.harness.inc("harness.trials_dispatched")
            try:
                with _alarm(config.timeout_s):
                    result, snapshot, duration, profile_text = _run_one_trial(
                        self.trial_fn, payload, seed, profiled
                    )
            except TrialTimeoutError as exc:
                self._record_failure(
                    state,
                    HarnessFailure(trial_id, OutcomeClass.HARNESS_TIMEOUT,
                                   str(exc), attempts),
                )
                return
            except Exception as exc:  # noqa: BLE001 — isolation boundary
                if attempts > MAX_RETRIES:
                    self._record_failure(
                        state,
                        HarnessFailure(
                            trial_id, OutcomeClass.HARNESS_CRASH,
                            f"{type(exc).__name__}: {exc}", attempts,
                        ),
                    )
                    return
                state.harness.inc("harness.retries")
                time.sleep(backoff_s(attempts))
            else:
                state.harness.observe("harness.trial_duration_s", duration)
                entry = self._record_success(
                    state, trial_id, result, attempts,
                    duration_s=duration, profile_text=profile_text,
                )
                self._commit(
                    state, [trial_id], [] if entry is None else [entry], snapshot
                )
                return

    def _run_batch_chunk(
        self, chunk: List["tuple[int, Any]"], state: _RunState
    ) -> bool:
        """Run one chunk through ``config.batch_runner``.

        Returns False when the runner raised (caller falls back to scalar
        execution of the same trials); a short or misshapen reply list is
        treated the same way.  On success every trial is recorded as the
        scalar path would have (attempts=1, the chunk wall-clock split
        evenly across trials: per-trial timing is not observable in
        lockstep), and the chunk is committed once: one journal record
        and one metrics snapshot, the runner's per-trial snapshots merged
        in trial order.
        """
        config = self.config
        seeds = [derive_seed(config.master_seed, tid) for tid, _ in chunk]
        state.harness.inc("harness.batch_chunks")
        started = time.perf_counter()
        try:
            replies = config.batch_runner([p for _, p in chunk], seeds)
            if len(replies) != len(chunk):
                raise ReproError(
                    f"batch_runner returned {len(replies)} replies "
                    f"for {len(chunk)} payloads"
                )
        except Exception:  # noqa: BLE001 — isolation boundary
            # Visible in harness metrics; the scalar rerun provides the
            # per-trial error reporting and dispatch accounting.
            state.harness.inc("harness.batch_fallbacks")
            return False
        per_trial_s = (time.perf_counter() - started) / len(chunk)
        state.harness.inc("harness.trials_dispatched", len(chunk))
        state.harness.observe(
            "harness.trial_duration_s", per_trial_s, count=len(chunk)
        )
        entries: List[TrialEntry] = []
        snapshots: List[dict] = []
        for (trial_id, _), (result, snapshot) in zip(chunk, replies):
            entry = self._record_success(
                state, trial_id, result, attempts=1, duration_s=per_trial_s
            )
            if entry is not None:
                entries.append(entry)
            if snapshot is not None:
                snapshots.append(snapshot)
        merged = obs_metrics.merge_snapshots(*snapshots) if snapshots else None
        self._commit(state, [tid for tid, _ in chunk], entries, merged)
        return True


# ----------------------------------------------------------------------
# Convenience front-end for injection campaigns
# ----------------------------------------------------------------------

def run_experiment_campaign(
    trial_fn: TrialFn,
    payloads: Sequence[Any],
    config: Optional[SupervisorConfig] = None,
) -> CampaignStatistics:
    """Run a campaign whose trials return :class:`ExperimentRecord`.

    Returns :class:`CampaignStatistics` over the completed trials in
    trial-id order — in a fully completed run, byte-identical to the
    historic serial loop over the same payloads.
    """
    supervisor = CampaignSupervisor(trial_fn, config)
    return supervisor.run(payloads).statistics()
