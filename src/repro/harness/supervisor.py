"""Resilient campaign supervisor: crash-isolated parallel trial execution.

Large fault-injection campaigns (E5/E11/E12) and Monte-Carlo studies (E8)
run thousands of independent trials.  Run in-process, serially and
fail-fast, a single runaway workload or injector bug discards hours of
completed work.  This module supervises campaigns the way the paper's
framework supervises nodes — contain the failure, classify it, keep the
mission going:

* **crash isolation** — with ``workers >= 1`` the campaign runs on N
  heartbeating shard runner processes (:mod:`repro.harness.shards`); a
  runner that dies or freezes is taken over and resumes its slice from
  its journal;
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
    Tuple,
    Union,
)

from .. import runtime
from ..errors import ConfigurationError, ReproError
from ..faults.outcomes import CampaignStatistics, ExperimentRecord, OutcomeClass
from ..obs import metrics as obs_metrics
from ..obs import profile as obs_profile
from ..obs.metrics import MetricsRegistry
from ..obs.progress import ProgressReporter
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
    """Per-campaign knobs of the campaign supervisor.

    The per-run switches are not here: :meth:`CampaignSupervisor.run`
    reads them once per run from the active
    :class:`repro.runtime.RunConfig` (``runtime.current().config``) —
    ``timeout_s`` (per-trial ``SIGALRM`` budget, enforced in the process
    executing the trial; skipped off a POSIX main thread), ``progress``
    (a live stderr line labelled with :attr:`campaign`), ``profile``
    (cProfile of every trial, hottest kept in
    :attr:`SupervisorResult.hot_trials`; forces the in-process scalar
    path) and ``chaos`` (:meth:`~repro.runtime.RunConfig.chaos_policy`,
    acting on shard runners only).  A caller that activates no context
    gets the defaults: none of the four.

    Attributes
    ----------
    workers:
        0 = serial in-process execution (the default; preserves historic
        behaviour); N >= 1 = N heartbeating shard runner processes
        (:func:`repro.harness.shards.run_sharded_campaign`), each a serial
        supervisor over a contiguous slice of the campaign that inherits
        this whole config — ``batch_size``/``batch_runner`` included.
        Without a ``journal_path`` the shard journals live in a
        temporary directory removed after the merge.  Profiled runs
        always execute in process.  A shard runner heartbeats from a
        background thread, so a trial longer than the lease TTL is not
        mistaken for a dead runner.
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
    trial_offset:
        Global trial id of the first payload.  A sharded campaign
        (:mod:`repro.harness.shards`) hands each shard a slice of the
        payload list with the slice's start as the offset, so per-trial
        seeds, journal entries and result keys all use *campaign-global*
        trial ids — the property that makes shard results merge into the
        whole-campaign result bit-identically.
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
        for trials replayed from the journal on resume.  A hook, like a
        journal, keeps an unbatched run at one commit per trial, so the
        hook sees each trial as soon as it is recorded.
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
        in-flight chunk, which resume re-runs whole.  Without a runner,
        a serial run with no journal and no ``after_trial`` hook is
        chunked too: each fixed-size chunk calls ``trial_fn`` in process
        per payload (each call timed, and under its own ``timeout_s``
        alarm) into one metrics capture and commits once.  Either way,
        if the chunk raises, its metrics are discarded and its trials
        rerun one at a time with per-trial commits and the usual retry
        and timeout handling (counted as ``harness.batch_fallbacks``); a
        trial that raised in process is charged that failed attempt.
        Profiled runs take the per-trial path, since per-trial profiles
        require per-trial calls.  With ``workers >= 1`` every shard
        runner batches its own slice.
    """

    workers: int = 0
    journal_path: Optional[Union[str, Path]] = None
    master_seed: int = 0
    campaign: str = "campaign"
    trial_offset: int = 0
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
    #: Metrics snapshots, one per commit — a trial's own, or a chunk's
    #: (a batch chunk, or the in-process chunk of an unjournaled serial
    #: run) — keyed by the commit's first trial id; the same in memory and
    #: on journal replay.
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

def _alarm_budget(timeout_s: Optional[float]) -> Optional[float]:
    """*timeout_s* when ``SIGALRM`` can enforce it here, else ``None``.

    ``SIGALRM`` only works on POSIX main threads; elsewhere the budget is
    skipped.  A shard runner executes trials on its process's main thread,
    so the budget holds there too.
    """
    usable = (
        timeout_s is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    return float(timeout_s) if usable else None


@contextlib.contextmanager
def _alarm_handler(budget: float) -> Iterator[None]:
    """Turn ``SIGALRM`` into :class:`TrialTimeoutError` inside the block.

    The caller arms the real-time timer (``signal.setitimer``) per trial;
    on exit the timer is disarmed and the previous handler restored.
    """

    def _on_alarm(signum: int, frame: Any) -> None:
        raise TrialTimeoutError(f"trial exceeded {budget:.3f}s budget")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def _alarm(timeout_s: Optional[float]) -> Iterator[None]:
    """Raise :class:`TrialTimeoutError` after *timeout_s* (best effort,
    see :func:`_alarm_budget`)."""
    budget = _alarm_budget(timeout_s)
    if budget is None:
        yield
        return
    with _alarm_handler(budget):
        signal.setitimer(signal.ITIMER_REAL, budget)
        yield


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


#: Trials per chunk of an unjournaled, unhooked serial run: one metrics
#: capture and one commit per chunk.  A chunk that raises reruns its trials
#: one at a time, so this also bounds the work redone after a failure.
_SERIAL_CHUNK = 64

class _ChunkTrialError(Exception):
    """Trial *index* of an in-process chunk raised *cause*."""

    def __init__(self, index: int, cause: Exception) -> None:
        super().__init__(index, cause)
        self.index = index
        self.cause = cause


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------

@dataclasses.dataclass
class _RunState:
    """Mutable bookkeeping of one :meth:`CampaignSupervisor.run` pass."""

    results: Dict[int, Any]
    failures: Dict[int, HarnessFailure]
    journal: Optional[CampaignJournal]
    #: Per-trial budget, read once per run from the active RunConfig.
    timeout_s: Optional[float] = None
    trial_metrics: Dict[int, dict] = dataclasses.field(default_factory=dict)
    harness: MetricsRegistry = dataclasses.field(default_factory=MetricsRegistry)
    hot_trials: Optional["obs_profile.ProfileCollector"] = None
    reporter: Optional[ProgressReporter] = None
    #: Set when ``after_trial`` asked to stop dispatching.
    stop_requested: bool = False


#: A chunk's replies: results and per-trial durations in payload order, and
#: the chunk's one metrics snapshot (``None`` when nothing was recorded).
_Replies = Tuple[List[Any], List[float], Optional[dict]]
#: How a chunk gets its replies: ``(payloads, seeds, state) -> _Replies``.
_ChunkReplies = Callable[[Sequence[Any], Sequence[int], _RunState], _Replies]


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

        The timeout, progress and profile switches come from the active
        run context (see :class:`SupervisorConfig`).  With ``workers >= 1``
        (and no profiling) the campaign is handed to
        :func:`repro.harness.shards.run_sharded_campaign`, whose runners
        each run this serial path over one slice.
        """
        run_config = runtime.current().config
        if self.config.workers > 0 and not run_config.profile:
            # Imported here: the shard coordinator builds on this module.
            from .shards import run_sharded_campaign

            return run_sharded_campaign(self.trial_fn, payloads, self.config)
        started = time.monotonic()
        planned = len(payloads)
        state = _RunState(
            results={}, failures={}, journal=None,
            timeout_s=run_config.timeout_s,
        )
        if run_config.profile:
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

        if run_config.progress:
            state.reporter = ProgressReporter(self.config.campaign)
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
        profiled = state.hot_trials is not None
        # Chunked execution commits once per chunk.  Profiling needs
        # per-trial calls, and a journal or an ``after_trial`` hook observes
        # every commit, so those runs keep the per-trial grain unless the
        # caller asked for batches.
        replies: Optional[_ChunkReplies] = None
        size = 0
        if not profiled and config.batch_size > 0 and config.batch_runner is not None:
            replies, size = self._batch_replies, config.batch_size
        elif not profiled and state.journal is None and config.after_trial is None:
            replies, size = self._in_process_replies, _SERIAL_CHUNK
        while pending:
            if state.stop_requested:
                return True
            if replies is None:
                trial_id, payload = pending.popleft()
                self._run_serial_trial(trial_id, payload, state, profiled)
                continue
            chunk = [pending.popleft() for _ in range(min(size, len(pending)))]
            self._run_chunk(chunk, state, replies)
        return False

    def _run_serial_trial(
        self,
        trial_id: int,
        payload: Any,
        state: _RunState,
        profiled: bool,
        failed: Optional[Exception] = None,
    ) -> None:
        """One trial, in process, with timeout/retry containment.

        *failed* is the exception of an attempt already made inside a
        chunk; it counts as the first attempt, so the trial ends with the
        same attempts, detail and record as on this path alone.
        """
        config = self.config
        seed = derive_seed(config.master_seed, trial_id)
        attempts = 0
        while True:
            attempts += 1
            state.harness.inc("harness.trials_dispatched")
            if failed is None:
                try:
                    with _alarm(state.timeout_s):
                        result, snapshot, duration, profile_text = _run_one_trial(
                            self.trial_fn, payload, seed, profiled
                        )
                except Exception as exc:  # noqa: BLE001 — isolation boundary
                    failed = exc
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
            if isinstance(failed, TrialTimeoutError):
                self._record_failure(
                    state,
                    HarnessFailure(trial_id, OutcomeClass.HARNESS_TIMEOUT,
                                   str(failed), attempts),
                )
                return
            if attempts > MAX_RETRIES:
                self._record_failure(
                    state,
                    HarnessFailure(
                        trial_id, OutcomeClass.HARNESS_CRASH,
                        f"{type(failed).__name__}: {failed}", attempts,
                    ),
                )
                return
            state.harness.inc("harness.retries")
            time.sleep(backoff_s(attempts))
            failed = None

    def _run_chunk(
        self,
        chunk: List["tuple[int, Any]"],
        state: _RunState,
        replies: _ChunkReplies,
    ) -> None:
        """Run one chunk of trials and commit it once.

        *replies* produces the chunk's results, per-trial durations and one
        metrics snapshot: :meth:`_in_process_replies` calls the trial
        function under one capture, :meth:`_batch_replies` asks
        ``config.batch_runner``.  Every trial is then recorded as the
        per-trial path would have (attempts=1), and the chunk is committed
        once: one journal record and one metrics snapshot.

        If *replies* raises, the chunk's metrics are discarded and its
        trials rerun one at a time through :meth:`_run_serial_trial` with
        the usual retry and timeout handling (counted as
        ``harness.batch_fallbacks``); a trial that raised in process is
        charged that attempt.
        """
        config = self.config
        seeds = [derive_seed(config.master_seed, tid) for tid, _ in chunk]
        state.harness.inc("harness.batch_chunks")
        try:
            results, durations, snapshot = replies([p for _, p in chunk], seeds, state)
        except Exception as exc:  # noqa: BLE001 — isolation boundary
            state.harness.inc("harness.batch_fallbacks")
            failed_at = exc.index if isinstance(exc, _ChunkTrialError) else None
            for index, (trial_id, payload) in enumerate(chunk):
                self._run_serial_trial(
                    trial_id, payload, state, profiled=False,
                    failed=exc.cause if index == failed_at else None,
                )
            return
        state.harness.inc("harness.trials_dispatched", len(chunk))
        entries: List[TrialEntry] = []
        for (trial_id, _), result, duration in zip(chunk, results, durations):
            state.harness.observe("harness.trial_duration_s", duration)
            entry = self._record_success(
                state, trial_id, result, attempts=1, duration_s=duration
            )
            if entry is not None:
                entries.append(entry)
        self._commit(state, [tid for tid, _ in chunk], entries, snapshot)

    def _in_process_replies(
        self, payloads: Sequence[Any], seeds: Sequence[int], state: _RunState
    ) -> _Replies:
        """Call the trial function for each payload under one metrics
        capture, each call timed and (with ``timeout_s``) under its own
        ``SIGALRM`` budget.  A raising trial raises :class:`_ChunkTrialError`
        carrying its index; the capture is then dropped with the chunk."""
        trial_fn = self.trial_fn
        budget = _alarm_budget(state.timeout_s)
        results: List[Any] = []
        durations: List[float] = []
        with contextlib.ExitStack() as stack:
            registry = stack.enter_context(obs_metrics.capture())
            if budget is not None:
                stack.enter_context(_alarm_handler(budget))
            for index, (payload, seed) in enumerate(zip(payloads, seeds)):
                started = time.perf_counter()
                try:
                    if budget is not None:
                        signal.setitimer(signal.ITIMER_REAL, budget)
                    results.append(trial_fn(payload, seed))
                    if budget is not None:
                        signal.setitimer(signal.ITIMER_REAL, 0.0)
                except Exception as exc:  # noqa: BLE001 — charged to its trial
                    raise _ChunkTrialError(index, exc) from exc
                durations.append(time.perf_counter() - started)
        snapshot = registry.snapshot()
        return results, durations, None if obs_metrics.snapshot_is_empty(snapshot) else snapshot

    def _batch_replies(
        self, payloads: Sequence[Any], seeds: Sequence[int], state: _RunState
    ) -> _Replies:
        """Ask ``config.batch_runner`` for the chunk.  A short or misshapen
        reply list raises like the runner itself.  Per-trial timing is not
        observable in lockstep, so the chunk's wall-clock is split evenly;
        the runner's per-trial snapshots are merged in trial order."""
        started = time.perf_counter()
        replies = self.config.batch_runner(payloads, seeds)
        if len(replies) != len(payloads):
            raise ReproError(
                f"batch_runner returned {len(replies)} replies "
                f"for {len(payloads)} payloads"
            )
        per_trial_s = (time.perf_counter() - started) / len(payloads)
        snapshots = [snapshot for _, snapshot in replies if snapshot is not None]
        return (
            [result for result, _ in replies],
            [per_trial_s] * len(payloads),
            obs_metrics.merge_snapshots(*snapshots) if snapshots else None,
        )


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
