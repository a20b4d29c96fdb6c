"""Tests of the fixed-priority preemptive scheduler with TEM."""

import numpy as np
import pytest

from repro.cpu.profiles import FaultEffect
from repro.errors import SchedulingError
from repro.experiments.multicore_tem import MulticoreTrial, run_multicore_trial, workload_tasks
from repro.kernel.resources import ResourceProtocol
from repro.kernel.scheduler import KernelConfig, Scheduler
from repro.kernel.task import CallableExecutable, Criticality, TaskSpec, TemMode
from repro.sim import Simulator, TraceRecorder


def make_scheduler(config=None):
    sim = Simulator()
    trace = TraceRecorder()
    scheduler = Scheduler(sim, name="n", trace=trace, config=config)
    log = {"delivered": [], "omitted": [], "kernel_errors": [], "undetected": []}
    scheduler.on_deliver = lambda t, j, r: log["delivered"].append((sim.now, t.name, r))
    scheduler.on_omission = lambda t, j, reason: log["omitted"].append((sim.now, t.name, reason))
    scheduler.on_kernel_error = lambda m: log["kernel_errors"].append((sim.now, m))
    scheduler.on_undetected_output = lambda t, j, r: log["undetected"].append((sim.now, t.name, r))
    return sim, trace, scheduler, log


class TestBasicExecution:
    def test_critical_task_runs_twice_and_delivers(self):
        sim, trace, scheduler, log = make_scheduler()
        scheduler.add_task(
            TaskSpec(name="T", period=10_000, wcet=1_000, priority=0),
            CallableExecutable(lambda i: (7,), 1_000),
        )
        scheduler.start()
        sim.run(until=9_999)
        assert log["delivered"] == [(2_000, "T", (7,))]  # 2 copies x 1000

    def test_noncritical_task_runs_once(self):
        sim, trace, scheduler, log = make_scheduler()
        scheduler.add_task(
            TaskSpec(
                name="N", period=10_000, wcet=1_000, priority=0,
                criticality=Criticality.NON_CRITICAL,
            ),
            CallableExecutable(lambda i: (1,), 1_000),
        )
        scheduler.start()
        sim.run(until=9_999)
        assert log["delivered"] == [(1_000, "N", (1,))]

    def test_periodic_releases(self):
        sim, trace, scheduler, log = make_scheduler()
        scheduler.add_task(
            TaskSpec(name="T", period=5_000, wcet=500, priority=0),
            CallableExecutable(lambda i: (0,), 500),
        )
        scheduler.start()
        sim.run(until=20_001)
        assert scheduler.stats.released == 5  # t = 0, 5k, 10k, 15k, 20k
        assert scheduler.stats.delivered_ok == 4

    def test_offset_delays_first_release(self):
        sim, trace, scheduler, log = make_scheduler()
        scheduler.add_task(
            TaskSpec(name="T", period=10_000, wcet=500, priority=0, offset=3_000),
            CallableExecutable(lambda i: (0,), 500),
        )
        scheduler.start()
        sim.run(until=2_999)
        assert scheduler.stats.released == 0
        sim.run(until=3_000)
        assert scheduler.stats.released == 1

    def test_input_provider_feeds_compute(self):
        sim, trace, scheduler, log = make_scheduler()
        scheduler.add_task(
            TaskSpec(name="T", period=10_000, wcet=100, priority=0),
            CallableExecutable(lambda i: (i[0] * 2,), 100),
            input_provider=lambda: (21,),
        )
        scheduler.start()
        sim.run(until=1_000)
        assert log["delivered"][0][2] == (42,)


class TestPreemption:
    def test_higher_priority_preempts_lower(self):
        sim, trace, scheduler, log = make_scheduler()
        scheduler.add_task(
            TaskSpec(name="hi", period=10_000, wcet=500, priority=0, offset=1_000),
            CallableExecutable(lambda i: (1,), 500),
        )
        scheduler.add_task(
            TaskSpec(
                name="lo", period=50_000, wcet=5_000, priority=3,
                criticality=Criticality.NON_CRITICAL,
            ),
            CallableExecutable(lambda i: (2,), 5_000),
        )
        scheduler.start()
        sim.run(until=20_000)
        assert scheduler.stats.preemptions >= 1
        lo_done = [entry for entry in log["delivered"] if entry[1] == "lo"]
        hi_done = [entry for entry in log["delivered"] if entry[1] == "hi"]
        # hi (released at 1000, 2 copies) finishes at 2000; lo is delayed by
        # exactly the 1000 ticks of interference: 5000 + 1000 = 6000.
        assert hi_done[0][0] == 2_000
        assert lo_done[0][0] == 6_000

    def test_equal_release_runs_higher_priority_first(self):
        sim, trace, scheduler, log = make_scheduler()
        for name, priority in (("a", 1), ("b", 0)):
            scheduler.add_task(
                TaskSpec(name=name, period=10_000, wcet=400, priority=priority),
                CallableExecutable(lambda i: (0,), 400),
            )
        scheduler.start()
        sim.run(until=9_999)
        # Both release at t=0; the release events fire in registration
        # order, but priority-0 'b' preempts 'a' immediately, so 'b'
        # completes first.
        assert log["delivered"][0][1] == "b"
        assert log["delivered"][1][1] == "a"
        assert scheduler.stats.preemptions >= 1


class TestTemIntegration:
    def test_wrong_result_fault_is_masked_with_three_copies(self):
        sim, trace, scheduler, log = make_scheduler()
        scheduler.add_task(
            TaskSpec(name="T", period=20_000, wcet=1_000, priority=0),
            CallableExecutable(lambda i: (9,), 1_000),
        )
        scheduler.start()
        sim.schedule_at(1_200, lambda: scheduler.apply_fault_effect(FaultEffect.WRONG_RESULT))
        sim.run(until=19_999)
        assert scheduler.stats.delivered_masked == 1
        assert log["delivered"][0][2] == (9,)  # correct result by vote
        vote = trace.last("tem.vote")
        assert vote.details["copies"] == 3

    def test_hardware_exception_restarts_copy_immediately(self):
        sim, trace, scheduler, log = make_scheduler()
        scheduler.add_task(
            TaskSpec(name="T", period=20_000, wcet=1_000, priority=0),
            CallableExecutable(lambda i: (9,), 1_000),
        )
        scheduler.start()
        sim.schedule_at(1_500, lambda: scheduler.apply_fault_effect(FaultEffect.HARDWARE_EXCEPTION))
        sim.run(until=19_999)
        assert scheduler.stats.edm_detections == 1
        assert scheduler.stats.delivered_masked == 1
        # Scenario (iii): copy2 aborted at 1501 (EDM), the replacement
        # copy starts immediately (time reclaimed), completes at 2501 and
        # the T1-vs-T3 comparison delivers right there.
        assert log["delivered"][0][0] == pytest.approx(2_501, abs=5)

    def test_timing_overrun_caught_by_budget_timer(self):
        sim, trace, scheduler, log = make_scheduler()
        scheduler.add_task(
            TaskSpec(name="T", period=20_000, wcet=1_000, priority=0),
            CallableExecutable(lambda i: (9,), 1_000),
        )
        scheduler.start()
        sim.schedule_at(500, lambda: scheduler.apply_fault_effect(FaultEffect.TIMING_OVERRUN))
        sim.run(until=19_999)
        edm = trace.select("kernel.edm")
        assert edm and edm[0].details["mechanism"] == "execution_time"
        assert scheduler.stats.delivered_masked == 1

    def test_undetected_wrong_output_bypasses_comparison(self):
        sim, trace, scheduler, log = make_scheduler()
        scheduler.add_task(
            TaskSpec(name="T", period=20_000, wcet=1_000, priority=0),
            CallableExecutable(lambda i: (9,), 1_000),
        )
        scheduler.start()
        sim.schedule_at(
            500, lambda: scheduler.apply_fault_effect(FaultEffect.UNDETECTED_WRONG_OUTPUT)
        )
        sim.run(until=19_999)
        assert scheduler.stats.undetected_wrong_outputs == 1
        assert log["undetected"]
        assert log["undetected"][0][2] != (9,)

    def test_kernel_corruption_silences_node(self):
        sim, trace, scheduler, log = make_scheduler()
        scheduler.add_task(
            TaskSpec(name="T", period=10_000, wcet=1_000, priority=0),
            CallableExecutable(lambda i: (9,), 1_000),
        )
        scheduler.start()
        sim.schedule_at(500, lambda: scheduler.apply_fault_effect(FaultEffect.KERNEL_CORRUPTION))
        sim.run(until=50_000)
        assert log["kernel_errors"]
        assert scheduler.silent
        assert scheduler.stats.released == 1  # no further releases

    def test_latent_fault_hits_next_copy(self):
        sim, trace, scheduler, log = make_scheduler()
        scheduler.add_task(
            TaskSpec(name="T", period=20_000, wcet=1_000, priority=0, offset=5_000),
            CallableExecutable(lambda i: (9,), 1_000),
        )
        scheduler.start()
        # Fault strikes while the CPU is idle (before first release).
        sim.schedule_at(100, lambda: scheduler.apply_fault_effect(FaultEffect.WRONG_RESULT))
        sim.run(until=24_999)
        assert scheduler.stats.delivered_masked == 1

    def test_omission_when_deadline_too_tight_for_recovery(self):
        sim, trace, scheduler, log = make_scheduler()
        # Deadline fits exactly two copies; any recovery must be skipped.
        scheduler.add_task(
            TaskSpec(name="T", period=10_000, wcet=1_000, priority=0, deadline=2_100),
            CallableExecutable(lambda i: (9,), 1_000),
        )
        scheduler.start()
        sim.schedule_at(1_500, lambda: scheduler.apply_fault_effect(FaultEffect.HARDWARE_EXCEPTION))
        sim.run(until=9_999)
        assert scheduler.stats.omissions == 1
        assert log["omitted"] and "deadline" in log["omitted"][0][2]


class TestNonCriticalErrors:
    def test_noncritical_error_shuts_down_task_only(self):
        sim, trace, scheduler, log = make_scheduler()
        scheduler.add_task(
            TaskSpec(name="T", period=10_000, wcet=500, priority=0),
            CallableExecutable(lambda i: (1,), 500),
        )
        scheduler.add_task(
            TaskSpec(
                name="N", period=10_000, wcet=2_000, priority=4,
                criticality=Criticality.NON_CRITICAL,
            ),
            CallableExecutable(lambda i: (2,), 2_000),
        )
        scheduler.start()
        sim.schedule_at(1_500, lambda: scheduler.apply_fault_effect(FaultEffect.HARDWARE_EXCEPTION))
        sim.run(until=50_000)
        assert scheduler.stats.noncritical_shutdowns == 1
        assert scheduler.active_tasks() == ["T"]
        # The critical task keeps delivering every period.
        assert scheduler.stats.delivered_ok >= 5


class TestDeadlines:
    def test_deadline_miss_forces_omission(self):
        sim, trace, scheduler, log = make_scheduler()
        # Two tasks whose combined TEM load cannot fit the low one's deadline.
        scheduler.add_task(
            TaskSpec(name="hi", period=2_000, wcet=900, priority=0),
            CallableExecutable(lambda i: (1,), 900),
        )
        scheduler.add_task(
            TaskSpec(name="lo", period=8_000, wcet=1_500, priority=1, deadline=2_500),
            CallableExecutable(lambda i: (2,), 1_500),
        )
        scheduler.start()
        sim.run(until=30_000)
        assert scheduler.stats.deadline_misses >= 1
        assert any(name == "lo" for _, name, _ in log["omitted"])


class TestLifecycle:
    def test_add_task_after_start_rejected(self):
        sim, trace, scheduler, log = make_scheduler()
        scheduler.add_task(
            TaskSpec(name="T", period=1_000, wcet=100, priority=0),
            CallableExecutable(lambda i: (0,), 100),
        )
        scheduler.start()
        with pytest.raises(SchedulingError):
            scheduler.add_task(
                TaskSpec(name="U", period=1_000, wcet=100, priority=1),
                CallableExecutable(lambda i: (0,), 100),
            )

    def test_duplicate_priority_rejected(self):
        sim, trace, scheduler, log = make_scheduler()
        scheduler.add_task(
            TaskSpec(name="T", period=1_000, wcet=100, priority=0),
            CallableExecutable(lambda i: (0,), 100),
        )
        with pytest.raises(Exception):
            scheduler.add_task(
                TaskSpec(name="U", period=1_000, wcet=100, priority=0),
                CallableExecutable(lambda i: (0,), 100),
            )

    def test_start_without_tasks_rejected(self):
        sim, trace, scheduler, log = make_scheduler()
        with pytest.raises(SchedulingError):
            scheduler.start()

    def test_shutdown_and_restart(self):
        sim, trace, scheduler, log = make_scheduler()
        scheduler.add_task(
            TaskSpec(name="T", period=1_000, wcet=100, priority=0),
            CallableExecutable(lambda i: (0,), 100),
        )
        scheduler.start()
        sim.run(until=2_500)
        released_before = scheduler.stats.released
        scheduler.shutdown()
        sim.run(until=10_000)
        assert scheduler.stats.released == released_before
        scheduler.restart()
        sim.run(until=15_000)
        assert scheduler.stats.released > released_before

    def test_fs_mode_goes_silent_on_detected_error(self):
        sim, trace, scheduler, log = make_scheduler(KernelConfig(fail_silent_mode=True))
        scheduler.add_task(
            TaskSpec(name="T", period=10_000, wcet=1_000, priority=0),
            CallableExecutable(lambda i: (9,), 1_000),
        )
        scheduler.start()
        sim.schedule_at(1_200, lambda: scheduler.apply_fault_effect(FaultEffect.WRONG_RESULT))
        sim.run(until=30_000)
        assert scheduler.silent
        assert log["kernel_errors"]
        assert scheduler.stats.delivered_masked == 0


class TestDeterminism:
    def test_identical_trials_emit_identical_traces_and_labels(self):
        """Job ids are numbered per scheduler: the same seeded trial run
        twice in one process gives the same trace and event labels."""

        def trial():
            sim = Simulator()
            trace = TraceRecorder()
            scheduler = Scheduler(
                sim, name="n", trace=trace, rng=np.random.default_rng(7),
                config=KernelConfig(cores=2),
            )
            for spec in workload_tasks(TemMode.SPATIAL)[:2]:
                scheduler.add_task(spec, CallableExecutable(lambda i: (5,), spec.wcet))
            scheduler.start()
            sim.schedule_at(
                700, lambda: scheduler.apply_fault_effect(FaultEffect.WRONG_RESULT)
            )
            # Stop inside the second period, with segment and deadline
            # events (labelled with job ids) still pending.
            sim.run(until=10_500)
            labels = sorted(handle.label for handle in sim.pending_events())
            return trace.events, labels

        first_events, first_labels = trial()
        second_events, second_labels = trial()
        assert first_events == second_events
        assert first_labels == second_labels
        assert first_events[0].details["job"] == "ctrl#1"
        assert any("#" in label for label in first_labels)


class TestLazyRng:
    def test_int_seed_draws_as_the_generator_it_names(self):
        scheduler = Scheduler(Simulator(), rng=11)
        first = scheduler.rng
        assert scheduler.rng is first
        want = np.random.default_rng(11)
        assert first.integers(0, 1 << 30, size=4).tolist() == want.integers(
            0, 1 << 30, size=4
        ).tolist()

    def test_default_stream_is_seed_zero(self):
        got = Scheduler(Simulator()).rng.uniform(size=3).tolist()
        assert got == np.random.default_rng(0).uniform(size=3).tolist()

    @pytest.mark.parametrize(
        "effect,drawn",
        [(FaultEffect.HARDWARE_EXCEPTION, False), (FaultEffect.WRONG_RESULT, True)],
    )
    def test_generator_is_made_only_when_a_fault_draws(self, effect, drawn):
        trial = MulticoreTrial(tick=100, core=0, effect=effect, targets_cs=False)
        _, scheduler = run_multicore_trial(
            trial, TemMode.TEMPORAL, ResourceProtocol.LOCK, seed=5
        )
        assert isinstance(scheduler._rng, np.random.Generator) is drawn
