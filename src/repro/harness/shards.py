"""Sharded, crash-tolerant campaign coordinator (node-level FT, self-applied).

The paper's framework keeps a distributed real-time application alive by
detecting node failures with heartbeats, enforcing fail-stop semantics and
reintegrating recovered nodes.  This module applies the same design to the
campaign harness itself, and it is the harness's only process-parallel
path: ``SupervisorConfig(workers=N)`` (``--jobs N``) runs here with N
shard runners.

* a campaign's payload list is split into contiguous **seed-range shards**
  (:func:`plan_shards`); trial ids, and therefore per-trial seeds, stay
  *campaign-global* (``SupervisorConfig.trial_offset``), so shard results
  merge into exactly the whole-campaign result;
* each shard is executed by a **shard runner** process — a serial
  :class:`repro.harness.supervisor.CampaignSupervisor` over the shard's
  slice that inherits the whole config (a batching config steps
  lockstep chunks and journals one record per chunk), journaling every
  trial — that owns the shard through
  a checkpointed **lease** (:mod:`repro.harness.leases`): heartbeats from
  a background thread, fencing token, atomic writes;
* a runner that finishes its slice **hands its result off** in memory:
  it sends its :class:`SupervisorResult` (results, failures, per-commit
  metrics snapshots, harness counters) over a one-way pipe, then writes
  its DONE lease.  The coordinator merges a DONE shard from that handoff
  and reads a shard journal back only for shards that ended without one
  (abandoned, or a result that does not pickle), the way the paper's
  nodes return results as messages and leave recovery to node failures;
* the **coordinator** blocks on the runners' process sentinels and
  handoff pipes, and wakes at least every ``poll_s`` to check leases.  A
  dead runner (crash, SIGKILL) or an expired lease (frozen runner)
  triggers a *takeover*: the old process is killed, its pipe closed, the
  fencing token bumped, and a fresh runner respawned — it resumes from
  the shard journal, re-runs only the missing trials and hands off the
  whole shard.  Deterministic per-trial seeds make the recovered
  campaign bit-identical to an undisturbed one;
* a **trial that keeps killing its runner** is contained like a raising
  trial: once ``max(2, MAX_RETRIES + 1)`` runners in a row died (by a
  signal) or froze with it as the shard's first unrecorded trial, the
  coordinator journals it as ``HARNESS_CRASH`` (or ``HARNESS_TIMEOUT``
  for a freeze) and the next runner moves past it.  A single death is
  never charged to a trial: it may have struck between trials;
* a shard whose journal stops advancing is **abandoned** after
  ``max_takeovers`` takeovers in a row; the campaign degrades gracefully
  — the merged result carries ``degraded=True`` and partial statistics
  instead of an exception.

Per-trial timeouts (``timeout_s``) are enforced by ``SIGALRM`` inside the
runner executing the trial.  The lease measures liveness only: the runner
heartbeats from a thread, so neither a long trial nor a long batch chunk
expires it, and ``lease_ttl_s`` need not know how long trials take.  It
catches a runner frozen beyond ``SIGALRM``'s reach (stopped, or stuck in
native code holding the GIL).

Chaos injection (:mod:`repro.harness.chaos`) plugs in at two points: the
runner's after-trial hook (``die:T`` SIGKILLs the runner after journaling
trial T, or the chunk holding it; ``stall:T`` stops heartbeats and wedges
the runner so the lease
must expire) and the coordinator's takeover path (``corrupt:K:MODE``
damages shard K's journal tail before the replacement runner salvages it).

Wall-clock (`time.time`/`time.monotonic`) is legitimate here: it measures
the *host* — liveness of runner processes — never simulated time
(:mod:`repro.harness` is DET001's home for infrastructure clocks).
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import multiprocessing
import os
import pickle
import signal
import tempfile
import threading
import time
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from .. import runtime
from ..errors import ConfigurationError
from ..faults.outcomes import OutcomeClass
from ..obs import metrics as obs_metrics
from ..obs.metrics import MetricsRegistry
from . import chaos as chaos_mod
from .journal import CampaignJournal, JournalHeader, TrialEntry
from .leases import LEASE_ABANDONED, LEASE_DONE, Lease, LeaseFile
from .supervisor import (
    MAX_RETRIES,
    CampaignSupervisor,
    HarnessFailure,
    SupervisorConfig,
    SupervisorResult,
    TrialFn,
    _replay_entries,
)

#: Exit code of a runner that observed a newer fencing token and stopped.
FENCED_EXIT_CODE = 3


@dataclasses.dataclass(frozen=True)
class ShardSpec:
    """One contiguous slice of the campaign's global trial-id range."""

    shard_id: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start


def plan_shards(total: int, count: int) -> List[ShardSpec]:
    """Split ``total`` trials into ``count`` contiguous, near-equal shards.

    Never returns an empty shard: ``count`` is clamped to ``total`` (one
    shard minimum, even for an empty campaign).
    """
    if total < 0:
        raise ConfigurationError("total trials must be >= 0")
    if count < 1:
        raise ConfigurationError("shard count must be >= 1")
    count = max(1, min(count, total)) if total else 1
    base, extra = divmod(total, count)
    specs: List[ShardSpec] = []
    start = 0
    for shard_id in range(count):
        size = base + (1 if shard_id < extra else 0)
        specs.append(ShardSpec(shard_id, start, start + size))
        start += size
    return specs


def shard_paths(
    journal_path: Union[str, Path], shard_id: int
) -> "tuple[Path, Path]":
    """``(shard journal, shard lease)`` paths derived from the campaign's
    base journal path (``x.jsonl`` -> ``x.shard3.jsonl`` / ``x.shard3.lease``).
    """
    base = Path(journal_path)
    stem = base.stem if base.suffix else base.name
    suffix = base.suffix if base.suffix else ".jsonl"
    journal = base.with_name(f"{stem}.shard{shard_id}{suffix}")
    lease = base.with_name(f"{stem}.shard{shard_id}.lease")
    return journal, lease


@dataclasses.dataclass(frozen=True)
class ShardConfig:
    """Lease and polling timings of the sharded coordinator (the shard
    count is ``max(1, SupervisorConfig.workers)``).

    Attributes
    ----------
    lease_ttl_s:
        A running lease whose heartbeat is older than this is expired;
        the coordinator takes the shard over.  Must comfortably exceed
        ``heartbeat_s`` (heartbeats come from a runner thread, so trial
        and batch-chunk durations do not matter).
    heartbeat_s:
        Interval between a runner's lease heartbeats.
    poll_s:
        Longest the coordinator blocks on runner sentinels and handoff
        pipes before it checks lease expiry again; a runner's exit or
        handoff wakes it at once.
    max_takeovers:
        A shard taken over more than this many times in a row without its
        journal advancing is abandoned — the campaign degrades instead of
        thrashing forever.
    """

    lease_ttl_s: float = 2.0
    heartbeat_s: float = 0.2
    poll_s: float = 0.05
    max_takeovers: int = 5

    def __post_init__(self) -> None:
        if self.lease_ttl_s <= 0:
            raise ConfigurationError("lease_ttl_s must be positive")
        if self.heartbeat_s <= 0:
            raise ConfigurationError("heartbeat_s must be positive")
        if self.lease_ttl_s <= self.heartbeat_s:
            raise ConfigurationError(
                "lease_ttl_s must exceed heartbeat_s, or live runners "
                "would be taken over spuriously"
            )
        if self.poll_s <= 0:
            raise ConfigurationError("poll_s must be positive")
        if self.max_takeovers < 0:
            raise ConfigurationError("max_takeovers must be >= 0")


def _runner_run_config() -> runtime.RunConfig:
    """The run configuration every shard runner activates.

    The active context's config with the parallel/interactive knobs
    stripped: a runner is always a serial, progress-less executor of its
    own slice.
    """
    return runtime.current().config.replace(jobs=0, progress=False)


# ----------------------------------------------------------------------
# Shard runner (child process)
# ----------------------------------------------------------------------

def _shard_runner_main(
    trial_fn: TrialFn,
    payloads: Sequence[Any],
    spec: ShardSpec,
    config: SupervisorConfig,
    journal_path: Path,
    lease_path: Path,
    token: int,
    heartbeat_s: float,
    policy: "Optional[chaos_mod.ChaosPolicy]",
    run_config: runtime.RunConfig,
    handoff: "mp_connection.Connection",
) -> None:
    """Run one shard serially while a thread heartbeats its lease.

    The heartbeat thread proves the runner alive however long a trial or
    batch chunk takes, and exits the runner with :data:`FENCED_EXIT_CODE`
    the moment it observes a newer fencing token — a superseded runner
    must not touch the shard — or that its coordinator died (no orphan
    outlives the campaign).  The runner dies by ``os.kill(SIGKILL)`` at a
    chaos ``die:T`` point (fail-stop death with a durable journal) and
    stops heartbeating after a chaos ``stall:T`` point (the coordinator
    must expire the lease).

    On completion, after a last fencing check, the runner sends its
    :class:`SupervisorResult` — journal replays included, so a replacement
    runner hands off the whole shard — over ``handoff``, the write end of
    a one-way pipe the coordinator created for this spawn, and only then
    writes the DONE lease.  The coordinator receives while the runner is
    alive (a result past the pipe buffer blocks ``send`` until it does)
    and merges a DONE shard from it.  A result that does not pickle is
    not sent: the coordinator then merges the shard from its journal.

    ``run_config`` is the coordinator's effective run configuration
    (:func:`_runner_run_config`), activated explicitly rather than
    inherited through fork.
    """
    with contextlib.suppress(ValueError, OSError):
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    chaos_mod.install(policy)
    coordinator_pid = os.getppid()
    lease_file = LeaseFile(lease_path)
    lease = lease_file.heartbeat(Lease(
        shard_id=spec.shard_id,
        owner=f"pid{os.getpid()}",
        token=token,
        heartbeat=time.time(),
    ))
    stalled = threading.Event()
    finished = threading.Event()

    def heartbeat() -> None:
        while not finished.wait(heartbeat_s):
            if stalled.is_set():
                continue
            if lease_file.fenced_out(token) or os.getppid() != coordinator_pid:
                os._exit(FENCED_EXIT_CODE)
            lease_file.heartbeat(lease)

    beater = threading.Thread(target=heartbeat, daemon=True)
    beater.start()

    def after_trial(trial_id: int, harness_failures: int) -> None:
        # Only called for freshly *executed* trials (journal replays on
        # resume never re-enter here), which is what gives die/stall
        # events their fire-once semantics across takeovers.
        if policy is None:
            return
        if policy.dies_after(trial_id):
            # The journal record holding this trial (batched: its whole
            # chunk) is already flushed: dying here loses nothing
            # acknowledged.
            os.kill(os.getpid(), signal.SIGKILL)
        if policy.stalls_after(trial_id):
            stalled.set()

    runner_config = dataclasses.replace(
        config,
        workers=0,  # shard-level parallelism comes from the shards
        journal_path=journal_path,
        campaign=f"{config.campaign}/shard{spec.shard_id}",
        trial_offset=spec.start,
        after_trial=after_trial,  # reprolint: disable=PKL001 -- shard runner is serial (workers=0 above): the chaos hook never crosses a process boundary
        progress=None,  # the coordinator reports progress at merge
        chaos=None,  # die/stall fire from after_trial above
    )
    with runtime.activate(runtime.RunContext(run_config)):
        result = CampaignSupervisor(trial_fn, runner_config).run(payloads)
    if stalled.is_set():
        # A wedged node: alive, journal intact, no heartbeats.  The
        # coordinator expires the lease and kills this process.
        while os.getppid() == coordinator_pid:
            time.sleep(0.25)
        os._exit(FENCED_EXIT_CODE)
    finished.set()
    beater.join()
    if lease_file.fenced_out(token):
        os._exit(FENCED_EXIT_CODE)
    with contextlib.suppress(pickle.PicklingError, TypeError, AttributeError):
        handoff.send(result)
    handoff.close()
    lease_file.heartbeat(lease, state=LEASE_DONE)


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------

@dataclasses.dataclass
class _ShardState:
    """Coordinator-side bookkeeping of one shard."""

    spec: ShardSpec
    journal_path: Path
    lease_file: LeaseFile
    token: int = 0
    takeovers: int = 0
    process: Optional["multiprocessing.process.BaseProcess"] = None
    done: bool = False
    abandoned: bool = False
    corrupted: bool = False
    #: Read end of the current runner's handoff pipe, until it delivers.
    reader: Optional["mp_connection.Connection"] = None
    #: The current runner's finished result, received over ``reader``.
    handoff: Optional[SupervisorResult] = None
    #: First unrecorded trial at the latest takeover, and how many
    #: takeovers in a row found the journal stuck there.
    stuck_at: Optional[int] = None
    stuck_takeovers: int = 0


def _open_shard_journal(config: SupervisorConfig, shard: _ShardState) -> CampaignJournal:
    """Open a shard's journal under the header its runner writes."""
    return CampaignJournal(
        shard.journal_path,
        JournalHeader(
            campaign=f"{config.campaign}/shard{shard.spec.shard_id}",
            master_seed=config.master_seed,
            total_trials=shard.spec.size,
        ),
    )


def _close_reader(shard: _ShardState) -> None:
    if shard.reader is not None:
        shard.reader.close()
        shard.reader = None


def _receive(shard: _ShardState) -> None:
    """Take the runner's handoff off its pipe, or nothing at EOF (the
    runner died first, or its result did not pickle); the pipe is spent
    either way.  ``recv`` returns once the whole result is read, so a
    runner frozen in mid-send (a ~1 ms window) would hold it up."""
    assert shard.reader is not None
    with contextlib.suppress(EOFError, OSError):
        shard.handoff = shard.reader.recv()
    _close_reader(shard)


def _kill_process(process: "Optional[multiprocessing.process.BaseProcess]") -> None:
    if process is None:
        return
    with contextlib.suppress(OSError, AttributeError):
        process.kill()
    process.join(timeout=5.0)


def run_sharded_campaign(
    trial_fn: TrialFn,
    payloads: Sequence[Any],
    config: Optional[SupervisorConfig] = None,
    shard_config: Optional[ShardConfig] = None,
) -> SupervisorResult:
    """Run a campaign across crash-tolerant shard runner processes.

    Shard journals and leases derive from ``config.journal_path``; without
    one they live in a temporary directory that is removed after the
    merge (nothing to resume from, nothing left behind).  It runs
    ``max(1, config.workers)`` runners with ``shard_config``'s lease
    timings (default :class:`ShardConfig`).  Chaos comes from
    ``config.chaos``: ``die``/``stall`` events fire inside the runners,
    ``corrupt`` at the coordinator's takeover path.  The merged
    :class:`SupervisorResult` is — for a completed campaign —
    bit-identical to the undisturbed serial run over the same payloads:
    same results, same statistics, same deterministic metrics view.
    """
    config = config if config is not None else SupervisorConfig()
    if shard_config is None:
        shard_config = ShardConfig()
    if config.journal_path is not None:
        return _coordinate(
            trial_fn, payloads, config, shard_config, Path(config.journal_path)
        )
    with tempfile.TemporaryDirectory(prefix="repro-shards-") as scratch:
        return _coordinate(
            trial_fn, payloads, config, shard_config,
            Path(scratch) / "campaign.jsonl",
        )


def _coordinate(
    trial_fn: TrialFn,
    payloads: Sequence[Any],
    config: SupervisorConfig,
    shard_config: ShardConfig,
    journal_base: Path,
) -> SupervisorResult:
    policy = (
        config.chaos
        if config.chaos is not None and config.chaos.any_events
        else None
    )
    started = time.monotonic()
    harness = MetricsRegistry()
    run_config = _runner_run_config()
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    reporter = config.progress
    if reporter is not None:
        reporter.start(total=len(payloads))

    shards: List[_ShardState] = []
    for spec in plan_shards(len(payloads), max(1, config.workers)):
        journal_path, lease_path = shard_paths(journal_base, spec.shard_id)
        shard = _ShardState(spec, journal_path, LeaseFile(lease_path))
        # Resume across *coordinator* deaths: start fencing tokens above
        # whatever a previous coordinator issued, so runners orphaned by
        # a killed coordinator observe a newer token at their next
        # heartbeat and stop (their journal entries remain valid — trials
        # are deterministic, so even a raced duplicate append is an
        # identical record).
        existing = shard.lease_file.read()
        if existing is not None:
            shard.token = existing.token
        shards.append(shard)

    def spawn(shard: _ShardState) -> None:
        shard.token += 1
        # The coordinator stamps a fresh lease before the runner exists,
        # so the TTL countdown covers a runner that dies during startup.
        shard.lease_file.write(Lease(
            shard_id=shard.spec.shard_id,
            owner=f"coordinator#t{shard.token}",
            token=shard.token,
            heartbeat=time.time(),
        ))
        reader, writer = ctx.Pipe(duplex=False)
        shard.process = ctx.Process(
            target=_shard_runner_main,
            args=(
                trial_fn,
                payloads[shard.spec.start:shard.spec.stop],
                shard.spec,
                config,
                shard.journal_path,
                shard.lease_file.path,
                shard.token,
                shard_config.heartbeat_s,
                policy,
                run_config,
                writer,
            ),
            daemon=True,
        )
        # Keep the runner's garbage collector off the inherited heap: its
        # collections would otherwise write to every parent object's GC
        # header and copy-on-write the pages (measured: a 950-trial batch
        # chunk ran in ~140 ms instead of ~50 ms in a fresh fork).
        gc.freeze()
        try:
            shard.process.start()
        finally:
            gc.unfreeze()
            # Only the runner may hold the write end, so its death reads
            # as EOF here.
            writer.close()
        shard.reader = reader
        harness.inc("harness.shard_runners_spawned")

    def take_over(
        shard: _ShardState, charge: Optional[OutcomeClass], why: str
    ) -> None:
        # Fail-stop enforcement: whatever is (or is not) attached to the
        # lease gets killed before the shard is reassigned — combined
        # with fencing tokens this keeps a wedged-but-alive runner from
        # racing its replacement on the journal.
        _kill_process(shard.process)
        # A replacement runner replays the journal and hands off anew.
        _close_reader(shard)
        shard.handoff = None
        shard.takeovers += 1
        harness.inc("harness.lease_takeovers")
        journal = _open_shard_journal(config, shard)
        try:
            first = next(
                (t for t in range(shard.spec.start, shard.spec.stop)
                 if t not in journal.entries),
                None,
            )
            if first != shard.stuck_at:
                shard.stuck_at, shard.stuck_takeovers = first, 0
            shard.stuck_takeovers += 1
            # ``charge`` is the outcome a runner death or freeze would
            # mean for the trial it was running — most likely ``first``.
            # A trial is charged once it has taken down as many runners
            # as a raising trial gets attempts (two at least: one death
            # may have struck between trials), so the shard moves past it.
            if (
                charge is not None
                and first is not None
                and shard.stuck_takeovers > max(1, MAX_RETRIES)
            ):
                journal.append(TrialEntry(
                    trial_id=first,
                    status=charge.value,
                    detail=f"{why}, {shard.stuck_takeovers} runners in a row",
                    attempts=shard.stuck_takeovers,
                ))
                harness.inc(f"harness.{charge.value}")
                shard.stuck_at, shard.stuck_takeovers = None, 0
        finally:
            journal.close()
        if (
            policy is not None
            and not shard.corrupted
            and policy.corruption_mode(shard.spec.shard_id) is not None
        ):
            shard.corrupted = True
            if policy.corrupt_journal(shard.journal_path, shard.spec.shard_id):
                harness.inc("harness.chaos_journal_corruptions")
        if shard.stuck_takeovers > shard_config.max_takeovers:
            shard.abandoned = True
            harness.inc("harness.shards_abandoned")
            shard.lease_file.write(Lease(
                shard_id=shard.spec.shard_id,
                owner="coordinator",
                token=shard.token + 1,
                heartbeat=time.time(),
                state=LEASE_ABANDONED,
            ))
            return
        spawn(shard)

    try:
        for shard in shards:
            spawn(shard)
        while True:
            active = [s for s in shards if not s.done and not s.abandoned]
            if not active:
                break
            # Sleep until a runner exits or hands off, or poll_s passes
            # and the leases of the live runners are due for an expiry
            # check.
            ready = mp_connection.wait(
                [s.process.sentinel for s in active if s.process is not None]
                + [s.reader for s in active if s.reader is not None],
                timeout=shard_config.poll_s,
            )
            for shard in active:
                process = shard.process
                assert process is not None
                if process.sentinel in ready:
                    # The sentinel closes as the runner exits; reap it so
                    # its exit code is known on this pass.
                    process.join()
                exitcode = process.exitcode
                if shard.reader is not None and (
                    shard.reader in ready or exitcode is not None
                ):
                    # Receive while the runner lives: a large result
                    # blocks its send until this end reads it.  Once it
                    # exited, the pipe holds the whole result or EOF.
                    _receive(shard)
                lease = shard.lease_file.read()
                if exitcode is None:
                    if lease is None:
                        take_over(shard, None, "shard lease unreadable")
                    elif lease.expired(shard_config.lease_ttl_s):
                        take_over(
                            shard, OutcomeClass.HARNESS_TIMEOUT,
                            "shard runner froze past the lease TTL",
                        )
                elif exitcode == 0 and lease is not None and lease.state == LEASE_DONE:
                    shard.done = True
                else:
                    # Killed by a signal (SIGKILL, SIGSEGV, OOM killer):
                    # chargeable to a trial.  A runner that exited by
                    # itself (an exception, fencing) is not.
                    take_over(
                        shard,
                        OutcomeClass.HARNESS_CRASH if exitcode < 0 else None,
                        f"shard runner killed by signal {-exitcode}",
                    )
    finally:
        for shard in shards:
            if shard.process is not None and shard.process.is_alive():
                _kill_process(shard.process)
            _close_reader(shard)

    # ------------------------------------------------------------------
    # Merge the shards into one campaign result.  Trial ids are
    # campaign-global, so the merge is a plain commutative dict union.
    # ------------------------------------------------------------------
    results: Dict[int, Any] = {}
    failures: Dict[int, HarnessFailure] = {}
    trial_metrics: Dict[int, dict] = {}
    degraded = any(s.abandoned for s in shards)
    for shard in shards:
        if shard.handoff is not None:
            # A finished runner's result, received in memory, with its
            # own counters (batch chunks, retries, dispatches).
            harness.inc("harness.shard_handoffs")
            results.update(shard.handoff.results)
            failures.update(shard.handoff.failures)
            trial_metrics.update(shard.handoff.trial_metrics)
            for name, value in shard.handoff.harness_metrics.get(
                "counters", {}
            ).items():
                if not name.startswith("harness.journal_"):
                    harness.inc(name, value)
        elif not shard.journal_path.exists():
            degraded = True
            continue
        else:
            # No handoff (abandoned shard, or a result that did not
            # pickle): the journal holds everything its runners committed.
            harness.inc("harness.shard_journal_merges")
            journal = _open_shard_journal(config, shard)
            try:
                if journal.salvage is not None:
                    harness.inc(
                        "harness.journal_entries_salvaged",
                        journal.salvage.entries_kept,
                    )
                _replay_entries(
                    journal.entries.values(), results, failures, trial_metrics,
                )
            finally:
                journal.close()
        # Journal salvages are counted from the quarantine files, not
        # from runner counters: the runner that salvaged may have died
        # before it could hand off.  Every salvage, by a runner, at a
        # takeover or at this merge, leaves a quarantine file behind.
        quarantine = shard.journal_path.with_name(
            shard.journal_path.name + ".corrupt"
        )
        if quarantine.exists():
            harness.inc("harness.journal_salvages")
            harness.inc(
                "harness.journal_quarantined_bytes",
                quarantine.stat().st_size,
            )
    if len(results) + len(failures) < len(payloads):
        degraded = True
    harness.gauge(
        "harness.shards_done", sum(1 for s in shards if s.done)
    )
    if reporter is not None:
        for trial_id in sorted(results.keys() | failures.keys()):
            reporter.note(
                CampaignSupervisor._outcome_label(results[trial_id])
                if trial_id in results
                else failures[trial_id].kind.value
            )
        reporter.finish()

    result = SupervisorResult(
        planned=len(payloads),
        results=results,
        failures=failures,
        degraded=degraded,
        elapsed_s=time.monotonic() - started,
        resumed_trials=0,
        trial_metrics=trial_metrics,
        harness_metrics=harness.snapshot(),
    )
    obs_metrics.merge_into_active(result.metrics_snapshot())
    obs_metrics.merge_into_active(result.harness_metrics)
    return result
