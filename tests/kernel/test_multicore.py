"""Multicore kernel tests: CoreSet dispatch, resource protocols, spatial
TEM, scheduler-owned (m,k) windows and the M = 1 degeneracy gates."""

import pytest

from repro.cpu.profiles import FaultEffect
from repro.errors import ConfigurationError
from repro.kernel.analysis import FaultHypothesis, analyse, partition_tasks
from repro.kernel.cores import CoreSet, PlacementPolicy
from repro.kernel.resources import CriticalSection, ResourceProtocol
from repro.kernel.scheduler import KernelConfig, Scheduler
from repro.kernel.task import (
    CallableExecutable,
    Criticality,
    TaskSpec,
    TemMode,
    WeaklyHardConstraint,
)
from repro.sim import Simulator, TraceRecorder
from tests.oracles import reference_rta


def make_scheduler(config=None):
    sim = Simulator()
    trace = TraceRecorder()
    scheduler = Scheduler(sim, name="n", trace=trace, config=config)
    log = {"delivered": [], "omitted": [], "kernel_errors": [], "undetected": []}
    scheduler.on_deliver = lambda t, j, r: log["delivered"].append((sim.now, t.name, r))
    scheduler.on_omission = lambda t, j, reason: log["omitted"].append(
        (sim.now, t.name, reason)
    )
    scheduler.on_kernel_error = lambda m: log["kernel_errors"].append((sim.now, m))
    scheduler.on_undetected_output = lambda t, j, r: log["undetected"].append(
        (sim.now, t.name, r)
    )
    return sim, trace, scheduler, log


def noncritical(name, priority, wcet=1_000, core=None, period=10_000, **kw):
    return TaskSpec(
        name=name, period=period, wcet=wcet, priority=priority, core=core,
        criticality=Criticality.NON_CRITICAL, **kw,
    )


class TestCoreSet:
    def test_needs_at_least_one_core(self):
        with pytest.raises(ConfigurationError):
            CoreSet(0)

    def test_idle_core_is_lowest_numbered(self):
        cores = CoreSet(3)
        cores.slots[0] = "busy"
        assert cores.idle_core() == 1
        assert cores.busy

    def test_victim_is_least_urgent_preemptable(self):
        cores = CoreSet(3)
        cores.slots[0] = {"prio": 4}
        cores.slots[1] = {"prio": 9}
        cores.slots[2] = {"prio": 9}
        victim = cores.victim_core(
            urgency=lambda s: s["prio"], preemptable=lambda s: True
        )
        assert victim == 1  # largest priority number, ties to lowest core

    def test_non_preemptable_slots_skipped(self):
        cores = CoreSet(2)
        cores.slots[0] = {"prio": 9}
        cores.slots[1] = {"prio": 5}
        victim = cores.victim_core(
            urgency=lambda s: s["prio"], preemptable=lambda s: s["prio"] != 9
        )
        assert victim == 1


class TestPartitionedDispatch:
    def test_simultaneous_releases_run_concurrently(self):
        """Satellite 3: jobs released in the same tick on different cores
        must both start immediately — neither waits for the other."""
        sim, trace, s, log = make_scheduler(KernelConfig(cores=2))
        s.add_task(noncritical("A", 0, core=0), CallableExecutable(lambda i: (1,), 1_000))
        s.add_task(noncritical("B", 1, core=1), CallableExecutable(lambda i: (2,), 1_000))
        s.start()
        sim.run(until=9_999)
        assert [(t, n) for t, n, _ in log["delivered"]] == [(1_000, "A"), (1_000, "B")]

    def test_pin_out_of_range_rejected(self):
        sim, trace, s, log = make_scheduler(KernelConfig(cores=2))
        with pytest.raises(ConfigurationError):
            s.add_task(noncritical("A", 0, core=2), CallableExecutable(lambda i: (1,), 100))

    def test_per_core_priorities_independent(self):
        # The high-priority task on core 0 does not preempt core 1's job.
        sim, trace, s, log = make_scheduler(KernelConfig(cores=2))
        s.add_task(noncritical("hi", 0, core=0, wcet=500), CallableExecutable(lambda i: (1,), 500))
        s.add_task(noncritical("lo", 1, core=1), CallableExecutable(lambda i: (2,), 1_000))
        s.start()
        sim.run(until=9_999)
        assert s.stats.preemptions == 0
        assert len(log["delivered"]) == 2


class TestGlobalDispatch:
    def test_m_highest_priority_jobs_run(self):
        sim, trace, s, log = make_scheduler(
            KernelConfig(cores=2, placement=PlacementPolicy.GLOBAL)
        )
        for name, prio in (("X", 0), ("Y", 1), ("Z", 2)):
            s.add_task(noncritical(name, prio), CallableExecutable(lambda i: (0,), 1_000))
        s.start()
        sim.run(until=9_999)
        times = {n: t for t, n, _ in log["delivered"]}
        assert times["X"] == 1_000 and times["Y"] == 1_000
        assert times["Z"] == 2_000  # waited for a free core

    def test_budget_expiry_survives_migration(self):
        """Satellite 3: a job preempted on one core and resumed on another
        keeps its consumed-time accounting, so the execution-time EDM
        fires at the correct total even across the migration."""
        sim, trace, s, log = make_scheduler(
            KernelConfig(cores=2, placement=PlacementPolicy.GLOBAL)
        )
        # L overruns: 2_000 actual vs budget max(720, 601) = 720.
        s.add_task(
            noncritical("L", 2, wcet=600), CallableExecutable(lambda i: (9,), 2_000)
        )
        s.add_task(
            noncritical("H1", 0, wcet=1_000, **{"offset": 500}),
            CallableExecutable(lambda i: (1,), 1_000),
        )
        s.add_task(
            noncritical("H2", 1, wcet=1_000, **{"offset": 500}),
            CallableExecutable(lambda i: (2,), 1_000),
        )
        s.start()
        sim.run(until=9_999)
        # L: [0,500) on core 0, preempted by H2, resumes at 1_500 on the
        # first core to free up (core 1 — a migration), EDM at 500+220.
        assert s.stats.migrations == 1
        assert s.stats.edm_detections == 1
        assert s.stats.noncritical_shutdowns == 1
        edm = trace.select("kernel.edm")
        assert edm and edm[0].details["mechanism"] == "execution_time"
        assert edm[0].time == 1_720

    def test_preempted_job_resumes_and_completes(self):
        sim, trace, s, log = make_scheduler(
            KernelConfig(cores=2, placement=PlacementPolicy.GLOBAL)
        )
        s.add_task(noncritical("L", 2, wcet=2_000), CallableExecutable(lambda i: (9,), 2_000))
        s.add_task(
            noncritical("H", 0, wcet=1_000, **{"offset": 500}),
            CallableExecutable(lambda i: (1,), 1_000),
        )
        s.add_task(
            noncritical("M", 1, wcet=1_000, **{"offset": 500}),
            CallableExecutable(lambda i: (2,), 1_000),
        )
        s.start()
        sim.run(until=9_999)
        assert {n for _, n, _ in log["delivered"]} == {"L", "H", "M"}
        assert s.stats.preemptions == 1


class TestSpatialTem:
    def spatial_task(self, deadline=None):
        return TaskSpec(
            name="S", period=10_000, wcet=1_000, priority=0,
            deadline=deadline, tem_mode=TemMode.SPATIAL,
        )

    def test_fault_free_copies_run_in_parallel(self):
        sim, trace, s, log = make_scheduler(KernelConfig(cores=2))
        s.add_task(self.spatial_task(), CallableExecutable(lambda i: (7,), 1_000))
        s.start()
        sim.run(until=9_999)
        # Two concurrent copies: delivery at one WCET, not two.
        assert log["delivered"][0] == (1_000, "S", (7,))
        assert s.stats.delivered_ok >= 1

    def test_abort_races_remote_copy_then_recovers_on_third_core(self):
        """Satellite 3: a fault aborts copy A while copy B still runs on a
        remote core; the recovery copy starts immediately on the spare
        core and the vote delivers MASKED."""
        sim, trace, s, log = make_scheduler(KernelConfig(cores=3))
        s.add_task(self.spatial_task(), CallableExecutable(lambda i: (7,), 1_000))
        s.start()
        sim.schedule_at(
            500, lambda: s.apply_fault_effect(FaultEffect.HARDWARE_EXCEPTION, core=0)
        )
        sim.run(until=9_999)
        assert s.stats.delivered_masked == 1
        assert log["delivered"][0] == (1_501, "S", (7,))
        recoveries = trace.select("tem.recovery")
        assert len(recoveries) == 1 and recoveries[0].time == 501
        assert not s.busy  # no dangling copy segments

    def test_mismatch_launches_majority_copy(self):
        sim, trace, s, log = make_scheduler(KernelConfig(cores=3))
        s.add_task(self.spatial_task(), CallableExecutable(lambda i: (7,), 1_000))
        s.start()
        sim.schedule_at(
            500, lambda: s.apply_fault_effect(FaultEffect.WRONG_RESULT, core=1)
        )
        sim.run(until=9_999)
        assert s.stats.delivered_masked == 1
        assert log["delivered"][0][2] == (7,)  # majority out-votes the corruption
        vote = trace.select("tem.vote")
        assert vote and vote[0].details["copies"] == 3

    def test_deadline_refuses_recovery_and_cancels_remote_copy(self):
        """Satellite 3: when the decision point lands too close to the
        deadline the spatial machine omits instead of launching a doomed
        recovery — and any still-running remote copy is cancelled."""
        sim, trace, s, log = make_scheduler(KernelConfig(cores=2))
        s.add_task(self.spatial_task(deadline=1_200), CallableExecutable(lambda i: (7,), 1_000))
        s.start()
        sim.schedule_at(
            400, lambda: s.apply_fault_effect(FaultEffect.WRONG_RESULT, core=0)
        )
        sim.run(until=9_999)
        assert s.stats.omissions == 1
        assert "spatial" in log["omitted"][0][2]
        assert not s.busy

    def test_single_core_spatial_degenerates_to_temporal(self):
        """TemMode.SPATIAL on a 1-core node runs the classic sequential
        machine — traces are byte-identical to TemMode.TEMPORAL."""

        def run(mode):
            sim, trace, s, log = make_scheduler(KernelConfig(cores=1))
            s.add_task(
                TaskSpec(name="S", period=10_000, wcet=1_000, priority=0, tem_mode=mode),
                CallableExecutable(lambda i: (7,), 1_000),
            )
            s.start()
            sim.schedule_at(
                300, lambda: s.apply_fault_effect(FaultEffect.HARDWARE_EXCEPTION)
            )
            sim.run(until=9_999)
            return [str(event) for event in trace.events]

        assert run(TemMode.SPATIAL) == run(TemMode.TEMPORAL)


class TestResourceProtocolsInKernel:
    CS = (CriticalSection("state", 100, 300),)

    def two_sharing_tasks(self, s):
        s.add_task(
            noncritical("A", 0, core=0, critical_sections=self.CS),
            CallableExecutable(lambda i: (1,), 1_000),
        )
        s.add_task(
            noncritical("B", 1, core=1, critical_sections=self.CS),
            CallableExecutable(lambda i: (2,), 1_000),
        )

    def test_lock_spin_defers_loser(self):
        sim, trace, s, log = make_scheduler(KernelConfig(cores=2, budget_factor=2.0))
        self.two_sharing_tasks(s)
        s.start()
        sim.run(until=9_999)
        assert [(t, n) for t, n, _ in log["delivered"]] == [(1_000, "A"), (1_300, "B")]
        assert s.resources.stats.blocking_ticks == 300
        assert s.resources.stats.contentions == 1

    def test_lock_free_retry_reexecutes_section(self):
        sim, trace, s, log = make_scheduler(
            KernelConfig(
                cores=2, budget_factor=2.0,
                resource_protocol=ResourceProtocol.LOCK_FREE,
            )
        )
        self.two_sharing_tasks(s)
        s.start()
        sim.run(until=9_999)
        # Same 300-tick penalty, paid as re-execution instead of spinning.
        assert [(t, n) for t, n, _ in log["delivered"]] == [(1_000, "A"), (1_300, "B")]
        assert s.resources.stats.retries == 1
        assert s.resources.stats.retry_ticks == 300
        assert s.resources.stats.blocking_ticks == 0

    def test_faulted_lock_holder_blows_up_blocking(self):
        """A fault striking the holder inside its critical section keeps
        the lock held for the cleanup cost — the spinner pays for it."""
        sim, trace, s, log = make_scheduler(
            KernelConfig(cores=2, budget_factor=3.0, cs_fault_cleanup_cost=500)
        )
        self.two_sharing_tasks(s)
        s.start()
        sim.schedule_at(
            200, lambda: s.apply_fault_effect(FaultEffect.HARDWARE_EXCEPTION, core=0)
        )
        sim.run(until=9_999)
        assert s.resources.stats.cs_faults == 1
        assert s.resources.stats.cleanup_ticks == 500
        # B alone delivers, late: it spun through the fault + cleanup.
        assert [n for _, n, _ in log["delivered"]] == ["B"]
        assert log["delivered"][0][0] > 1_300

    def test_faulted_lock_free_attempt_leaves_no_cleanup(self):
        sim, trace, s, log = make_scheduler(
            KernelConfig(
                cores=2, budget_factor=3.0, cs_fault_cleanup_cost=500,
                resource_protocol=ResourceProtocol.LOCK_FREE,
            )
        )
        self.two_sharing_tasks(s)
        s.start()
        sim.schedule_at(
            200, lambda: s.apply_fault_effect(FaultEffect.HARDWARE_EXCEPTION, core=0)
        )
        sim.run(until=9_999)
        assert s.resources.stats.cs_faults == 1
        assert s.resources.stats.cleanup_ticks == 0  # nothing committed, nothing to repair
        assert [n for _, n, _ in log["delivered"]] == ["B"]


class TestSchedulerMkWindows:
    """Satellite 1: the DES kernel owns the (m,k) windows and checkpoints
    them with the scheduler."""

    def mk_task(self, deadline=None):
        return TaskSpec(
            name="W", period=10_000, wcet=1_000, priority=0, deadline=deadline,
            weakly_hard=WeaklyHardConstraint(max_misses=1, window_jobs=3),
        )

    def test_budget_miss_skips_recovery(self):
        sim, trace, s, log = make_scheduler()
        s.add_task(self.mk_task(), CallableExecutable(lambda i: (7,), 1_000))
        s.start()
        sim.schedule_at(
            300, lambda: s.apply_fault_effect(FaultEffect.HARDWARE_EXCEPTION)
        )
        sim.run(until=9_999)
        assert s.stats.omissions == 1
        assert "mk_budget_miss" in log["omitted"][0][2]
        assert s.stats.mk_violations == 0  # within budget: a controlled miss
        assert s.mk_window("W").recent_misses == 1

    def test_exhausted_window_runs_full_recovery(self):
        sim, trace, s, log = make_scheduler()
        s.add_task(self.mk_task(), CallableExecutable(lambda i: (7,), 1_000))
        s.start()
        # One fault per job: job 1 takes the budgeted miss, job 2's window
        # already holds a miss so the kernel runs the recovery copy.
        for release in (0, 10_000):
            sim.schedule_at(
                release + 300,
                lambda: s.apply_fault_effect(FaultEffect.HARDWARE_EXCEPTION),
            )
        sim.run(until=19_999)
        assert s.stats.omissions == 1  # job 1 only
        assert s.stats.delivered_masked == 1  # job 2 recovered
        assert s.stats.mk_violations == 0

    def test_violation_counted_when_miss_unabsorbable(self):
        # Deadline too tight for any recovery: every fault is a miss; the
        # second miss inside the 3-window is a violation.
        sim, trace, s, log = make_scheduler()
        s.add_task(self.mk_task(deadline=2_100), CallableExecutable(lambda i: (7,), 1_000))
        s.start()
        for release in (0, 10_000):
            sim.schedule_at(
                release + 300,
                lambda: s.apply_fault_effect(FaultEffect.HARDWARE_EXCEPTION),
            )
        sim.run(until=19_999)
        assert s.stats.omissions == 2
        assert s.stats.mk_violations == 1
        assert trace.select("kernel.mk_violation")


class TestMulticoreAnalysisDegeneracy:
    """The M-core analysis reduces to the single-core iterations term for
    term at cores=1, under either placement."""

    def tasks(self):
        from repro.experiments.schedulability_table import wheel_node_task_set

        return wheel_node_task_set()

    @pytest.mark.parametrize("placement", list(PlacementPolicy))
    @pytest.mark.parametrize("comparison_cost", [0, 20])
    def test_ft_mc_degenerates(self, placement, comparison_cost):
        tasks = self.tasks()
        hyp = FaultHypothesis(max_faults=1)
        multi = analyse(
            tasks, hyp, cores=1, placement=placement, comparison_cost=comparison_cost
        )
        assert [r.response_time for r in multi.per_task] == [
            reference_rta.ft_response_time(tasks, t, hyp, comparison_cost) for t in tasks
        ]

    @pytest.mark.parametrize("placement", list(PlacementPolicy))
    def test_mk_mc_degenerates(self, placement):
        import dataclasses

        tasks = [
            dataclasses.replace(
                t, weakly_hard=WeaklyHardConstraint(max_misses=1, window_jobs=4)
            )
            if t.is_critical else t
            for t in self.tasks()
        ]
        hyp = FaultHypothesis(max_faults=2)
        multi = analyse(tasks, hyp, cores=1, placement=placement, comparison_cost=20)
        assert [r.response_time for r in multi.per_task] == [
            reference_rta.mk_response_time(tasks, t, hyp, 20) for t in tasks
        ]

    def test_more_cores_never_hurt_partitioned(self):
        tasks = self.tasks()
        hyp = FaultHypothesis(max_faults=1)
        r1 = analyse(tasks, hyp, cores=1)
        r2 = analyse(tasks, hyp, cores=2)
        for a, b in zip(r1.per_task, r2.per_task):
            if a.response_time is not None and b.response_time is not None:
                assert b.response_time <= a.response_time

    def test_partition_respects_pins_and_rejects_bad_ones(self):
        tasks = self.tasks()
        import dataclasses

        pinned = [dataclasses.replace(tasks[0], core=1)] + list(tasks[1:])
        parts = partition_tasks(pinned, cores=2)
        assert any(t.name == pinned[0].name for t in parts[1])
        with pytest.raises(ConfigurationError):
            partition_tasks(pinned, cores=1)

    def test_m1_golden_trace_identical_to_single_core_kernel(self):
        """A cores=1 KernelConfig must drive the identical event stream as
        the default config — the DES-level degeneracy gate."""

        def run(config):
            sim, trace, s, log = make_scheduler(config)
            s.add_task(
                TaskSpec(name="T", period=5_000, wcet=800, priority=0),
                CallableExecutable(lambda i: (7,), 800),
            )
            s.add_task(noncritical("N", 1, wcet=400, period=5_000),
                       CallableExecutable(lambda i: (1,), 400))
            s.start()
            sim.schedule_at(
                600, lambda: s.apply_fault_effect(FaultEffect.HARDWARE_EXCEPTION)
            )
            sim.run(until=20_000)
            return [str(event) for event in trace.events]

        default = run(None)
        explicit = run(KernelConfig(cores=1, placement=PlacementPolicy.GLOBAL))
        assert default == run(KernelConfig(cores=1))
        assert default == explicit
