"""End-to-end integration: kernel nodes + bus + duplex pair + fault injection."""

import pytest

from repro.apps import BbwConfig, BbwSimulation, step_brake
from repro.cpu.profiles import ManifestationProfile
from repro.faults.injector import PoissonInjector
from repro.faults.types import FaultType
from repro.kernel.task import CallableExecutable, TaskSpec
from repro.net import FlexRayBus, NetworkInterface, round_robin_schedule
from repro.node import NlftKernelNode, NodeStatus
from repro.sim import RandomStreams, Simulator, TraceRecorder
from repro.units import ms, seconds, us


class TestDuplexOverBus:
    """A duplex pair publishing over the bus; a consumer selects outputs."""

    def build(self):
        sim = Simulator()
        trace = TraceRecorder()
        streams = RandomStreams(3)
        schedule = round_robin_schedule(["a", "b"], slot_duration=us(200))
        bus = FlexRayBus(sim, schedule, trace=trace)
        interfaces = {}
        nodes = {}
        for name, frame_id in (("a", 1), ("b", 2)):
            interface = NetworkInterface(name)
            interfaces[name] = interface
            bus.attach(interface)
            node = NlftKernelNode(
                sim, name, profile=ManifestationProfile.benign(),
                rng=streams.get(name), trace=trace, network=interface,
            )
            node.add_task(
                TaskSpec(name="pub", period=ms(2), wcet=us(300), priority=0),
                CallableExecutable(lambda i: (77,), us(300)),
                on_result=lambda r, ni=interface, fid=frame_id: ni.write_tx(fid, r),
            )
            nodes[name] = node
        consumer = NetworkInterface("consumer")
        bus.attach(consumer)
        return sim, bus, interfaces, nodes, consumer

    def test_consumer_sees_output_from_either_member(self):
        sim, bus, interfaces, nodes, consumer = self.build()
        bus.start()
        for node in nodes.values():
            node.start()
        sim.run(until=ms(10))
        assert consumer.read_rx(1).frame.payload == (77,)
        assert consumer.read_rx(2).frame.payload == (77,)

    def test_service_continues_when_one_member_silent(self):
        sim, bus, interfaces, nodes, consumer = self.build()
        bus.start()
        for node in nodes.values():
            node.start()
        sim.schedule_at(ms(4), lambda: nodes["a"].fail_silent("test"))
        sim.run(until=ms(8))
        assert nodes["a"].status is NodeStatus.RESTARTING
        assert nodes["b"].status is NodeStatus.OPERATIONAL
        now = sim.now
        # Member a's frame has gone stale; member b's is fresh.
        assert consumer.read_fresh(1, now, max_age=ms(3)) is None
        assert consumer.read_fresh(2, now, max_age=ms(3)) is not None
        # The silent node's controller transmits nothing (bus guardian).
        omissions_before = bus.omissions_observed
        sim.run(until=ms(12))
        assert bus.omissions_observed > omissions_before

    def test_member_reintegrates_and_publishes_again(self):
        sim, bus, interfaces, nodes, consumer = self.build()
        bus.start()
        for node in nodes.values():
            node.start()
        sim.schedule_at(ms(4), lambda: nodes["a"].fail_silent("test"))
        sim.run(until=seconds(3.2))  # past the 3 s repair
        assert nodes["a"].status is NodeStatus.OPERATIONAL
        assert consumer.read_fresh(1, sim.now, max_age=ms(4)) is not None


class TestPoissonFaultsOnDistributedSystem:
    def test_kernel_nodes_survive_realistic_fault_load(self):
        """Nodes under a fault rate 10^5 times the paper's (to make events
        frequent at second scale) still mask most faults."""
        sim = Simulator()
        streams = RandomStreams(11)
        trace = TraceRecorder(enabled=False)
        nodes = []
        for index in range(3):
            node = NlftKernelNode(
                sim, f"n{index}", rng=streams.get(f"n{index}"), trace=trace
            )
            node.add_task(
                TaskSpec(name="ctl", period=ms(5), wcet=us(500), priority=0),
                CallableExecutable(lambda i: (3,), us(500)),
            )
            node.start()
            nodes.append(node)
        injector = PoissonInjector(
            sim, streams.get("faults"), rate_per_hour=3_600.0,  # 1/s per node
            victims=[node.inject_fault for node in nodes],
        )
        injector.start()
        sim.run(until=seconds(30))
        total_arrivals = len(injector.arrivals)
        assert total_arrivals > 30
        masked = sum(node.stats.masked for node in nodes)
        silenced = sum(node.stats.fail_silent for node in nodes)
        # The manifestation profile sends ~40% NO_EFFECT, ~7% to the kernel;
        # masked outcomes must dominate fail-silent ones.
        assert masked > silenced
        # All nodes come back after restarts: none permanently down.
        assert all(n.status is not NodeStatus.DOWN_PERMANENT for n in nodes)


@pytest.mark.slow
class TestBbwWithFsNodesEndToEnd:
    def test_fs_system_loses_wheels_where_nlft_masks(self):
        """Identical seed and fault schedule: the FS system silences nodes
        (3 s outages) where the NLFT system masks locally."""
        outcomes = {}
        for kind in ("fs", "nlft"):
            simulation = BbwSimulation(
                BbwConfig(node_kind=kind, pedal=step_brake(0.3), seed=23)
            )
            for at_s, node in [(0.5, "wn1"), (0.8, "wn2"), (1.1, "wn3")]:
                simulation.inject_fault(node, FaultType.TRANSIENT, at_s)
            simulation.run(5.0)
            outcomes[kind] = simulation.summary()
        assert outcomes["nlft"]["masked_total"] >= outcomes["fs"]["masked_total"]
        assert (
            outcomes["fs"]["fail_silent_total"]
            >= outcomes["nlft"]["fail_silent_total"]
        )
        assert outcomes["nlft"]["stopped"] and outcomes["fs"]["stopped"]
