"""Tests of FS/NLFT node semantics and restart sequencing."""

import numpy as np
import pytest

from repro.cpu.profiles import FaultEffect, ManifestationProfile
from repro.faults.types import FaultType
from repro.kernel.task import CallableExecutable, TaskSpec
from repro.node import (
    FailSilentNode,
    FailureKind,
    NlftBehaviouralNode,
    NlftKernelNode,
    NodeStatus,
    RestartController,
)
from repro.node.fs_node import make_fs_kernel_node
from repro.sim import TraceRecorder
from repro.units import seconds


class TestRestartController:
    def test_fail_silent_repair_takes_three_seconds(self, sim):
        controller = RestartController(sim, "n")
        done = []
        controller.begin_restart(False, lambda found: done.append((sim.now, found)))
        sim.run()
        assert done == [(seconds(3.0), False)]

    def test_permanent_fault_found_skips_reintegration(self, sim):
        controller = RestartController(sim, "n")
        done = []
        controller.begin_restart(True, lambda found: done.append((sim.now, found)))
        sim.run()
        # Diagnosis takes 1.4 s; reintegration is skipped.
        assert done == [(seconds(1.4), True)]

    def test_omission_recovery_takes_1_6_seconds(self, sim):
        controller = RestartController(sim, "n")
        done = []
        controller.begin_omission_recovery(lambda: done.append(sim.now))
        sim.run()
        assert done == [seconds(1.6)]

    def test_concurrent_restart_rejected(self, sim):
        controller = RestartController(sim, "n")
        controller.begin_restart(False, lambda found: None)
        with pytest.raises(Exception):
            controller.begin_restart(False, lambda found: None)


class TestFailSilentNode:
    def make(self, sim, coverage=1.0, seed=0):
        return FailSilentNode(sim, "fs", coverage=coverage,
                              rng=np.random.default_rng(seed))

    def test_detected_transient_restarts_and_reintegrates(self, sim):
        node = self.make(sim)
        node.inject_fault(FaultType.TRANSIENT)
        assert node.status is NodeStatus.RESTARTING
        sim.run()
        assert node.status is NodeStatus.OPERATIONAL
        assert node.stats.restarts_completed == 1
        assert node.stats.fail_silent == 1

    def test_permanent_fault_leaves_node_down(self, sim):
        node = self.make(sim)
        node.inject_fault(FaultType.PERMANENT)
        sim.run()
        assert node.status is NodeStatus.DOWN_PERMANENT
        kinds = [record.kind for record in node.stats.failures]
        assert FailureKind.PERMANENT_SHUTDOWN in kinds

    def test_uncovered_fault_is_undetected_failure(self, sim):
        node = self.make(sim, coverage=0.0)
        node.inject_fault(FaultType.TRANSIENT)
        assert node.status is NodeStatus.OPERATIONAL  # node does not know
        assert node.stats.undetected == 1

    def test_faults_on_down_node_ignored(self, sim):
        node = self.make(sim)
        node.inject_fault(FaultType.PERMANENT)
        sim.run()
        node.inject_fault(FaultType.TRANSIENT)
        # Dead hardware activates no further faults: nothing is counted.
        assert node.stats.transient_faults == 0
        assert node.status is NodeStatus.DOWN_PERMANENT

    def test_status_observer_notified(self, sim):
        node = self.make(sim)
        changes = []
        node.add_observer(lambda n, old, new: changes.append((old, new)))
        node.inject_fault(FaultType.TRANSIENT)
        sim.run()
        assert (NodeStatus.OPERATIONAL, NodeStatus.RESTARTING) in changes
        assert (NodeStatus.RESTARTING, NodeStatus.OPERATIONAL) in changes


class TestNlftBehaviouralNode:
    def make(self, sim, seed=0, **kwargs):
        defaults = dict(coverage=1.0, p_tem=0.9, p_omission=0.05, p_fail_silent=0.05)
        defaults.update(kwargs)
        return NlftBehaviouralNode(sim, "nlft", rng=np.random.default_rng(seed), **defaults)

    def test_masking_dominates(self, sim):
        node = self.make(sim, p_tem=1.0, p_omission=0.0, p_fail_silent=0.0)
        for _ in range(20):
            node.inject_fault(FaultType.TRANSIENT)
        assert node.stats.masked == 20
        assert node.status is NodeStatus.OPERATIONAL

    def test_omission_recovers_quickly(self, sim):
        node = self.make(sim, p_tem=0.0, p_omission=1.0, p_fail_silent=0.0)
        node.inject_fault(FaultType.TRANSIENT)
        assert node.status is NodeStatus.OMITTING
        sim.run()
        assert node.status is NodeStatus.OPERATIONAL
        assert node.stats.omissions == 1

    def test_fail_silent_path(self, sim):
        node = self.make(sim, p_tem=0.0, p_omission=0.0, p_fail_silent=1.0)
        node.inject_fault(FaultType.TRANSIENT)
        assert node.status is NodeStatus.RESTARTING
        sim.run()
        assert node.status is NodeStatus.OPERATIONAL

    def test_outcome_distribution_matches_probabilities(self, sim):
        node = self.make(sim, seed=42)
        # Inject sequentially, letting recoveries finish in between.
        for _ in range(300):
            node.inject_fault(FaultType.TRANSIENT)
            sim.run()
        total = node.stats.masked + node.stats.omissions + node.stats.fail_silent
        assert total == 300
        assert node.stats.masked / total == pytest.approx(0.9, abs=0.05)

    def test_permanent_fault_ends_down(self, sim):
        node = self.make(sim)
        node.inject_fault(FaultType.PERMANENT)
        sim.run()
        assert node.status is NodeStatus.DOWN_PERMANENT

    def test_invalid_probabilities_rejected(self, sim):
        with pytest.raises(Exception):
            NlftBehaviouralNode(sim, "x", p_tem=0.5, p_omission=0.1, p_fail_silent=0.1)


class TestNlftKernelNode:
    def build(self, sim, profile=None):
        trace = TraceRecorder()
        node = NlftKernelNode(
            sim, "kn", profile=profile or ManifestationProfile.benign(),
            rng=np.random.default_rng(3), trace=trace,
        )
        node.add_task(
            TaskSpec(name="ctl", period=5_000, wcet=500, priority=0),
            CallableExecutable(lambda i: (8,), 500),
        )
        node.start()
        return node, trace

    def test_clean_operation_delivers_every_period(self, sim):
        node, _ = self.build(sim)
        sim.run(until=seconds(0.1))
        assert node.kernel.stats.delivered_ok == 20

    def test_wrong_result_fault_masked_by_tem(self, sim):
        node, _ = self.build(sim)
        sim.schedule_at(5_300, lambda: node.kernel.apply_fault_effect(FaultEffect.WRONG_RESULT))
        sim.run(until=seconds(0.1))
        assert node.stats.masked == 1
        assert node.status is NodeStatus.OPERATIONAL

    def test_kernel_corruption_causes_fail_silent_and_restart(self, sim):
        node, _ = self.build(sim)
        sim.schedule_at(5_200, lambda: node.kernel.apply_fault_effect(FaultEffect.KERNEL_CORRUPTION))
        sim.run(until=seconds(0.01))
        assert node.status is NodeStatus.RESTARTING
        sim.run(until=seconds(5))
        assert node.status is NodeStatus.OPERATIONAL
        assert node.stats.restarts_completed == 1
        # The kernel delivers again after reintegration.
        delivered_before = node.kernel.stats.delivered_ok
        sim.run(until=seconds(6))
        assert node.kernel.stats.delivered_ok > delivered_before

    def test_undetected_output_recorded(self, sim):
        node, _ = self.build(sim)
        sim.schedule_at(
            5_200,
            lambda: node.kernel.apply_fault_effect(FaultEffect.UNDETECTED_WRONG_OUTPUT),
        )
        sim.run(until=seconds(0.1))
        assert node.stats.undetected == 1
        assert node.status is NodeStatus.OPERATIONAL

    def test_permanent_fault_escalates_via_suspicion(self, sim):
        node, _ = self.build(sim)
        node.inject_fault(FaultType.PERMANENT)
        sim.run(until=seconds(10))
        assert node.status is NodeStatus.DOWN_PERMANENT

    def test_result_sink_receives_outputs(self, sim):
        trace = TraceRecorder()
        node = NlftKernelNode(sim, "kn", profile=ManifestationProfile.benign(),
                              rng=np.random.default_rng(1), trace=trace)
        outputs = []
        node.add_task(
            TaskSpec(name="ctl", period=5_000, wcet=500, priority=0),
            CallableExecutable(lambda i: (8,), 500),
            on_result=outputs.append,
        )
        node.start()
        sim.run(until=20_000)
        assert outputs == [(8,)] * 4


class TestFsKernelNode:
    def test_detected_error_silences_instead_of_masking(self, sim):
        node = make_fs_kernel_node(sim, "fsk", rng=np.random.default_rng(2))
        node.add_task(
            TaskSpec(name="ctl", period=5_000, wcet=500, priority=0),
            CallableExecutable(lambda i: (8,), 500),
        )
        node.start()
        sim.schedule_at(5_300, lambda: node.kernel.apply_fault_effect(FaultEffect.WRONG_RESULT))
        sim.run(until=seconds(0.02))
        assert node.status is NodeStatus.RESTARTING
        assert node.stats.masked == 0
        sim.run(until=seconds(5))
        assert node.status is NodeStatus.OPERATIONAL
