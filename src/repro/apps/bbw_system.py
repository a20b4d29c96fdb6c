"""The complete distributed brake-by-wire system of Figure 4.

Wiring:

* a **duplex central unit** (nodes ``cu_a``, ``cu_b``) samples the brake
  pedal, builds a wheel-membership view from received status frames and
  broadcasts per-wheel force commands in its static slots;
* four **simplex wheel nodes** (``wn1`` .. ``wn4``) each read the freshest
  valid CU frame (from either replica), run the wheel control law, drive
  their brake actuator and publish a status frame;
* a FlexRay-like bus carries all frames; a point-mass vehicle integrates
  the applied forces;
* a :class:`SystemMonitor` evaluates the paper's two failure criteria
  (full / degraded functionality) continuously.

Node fidelity is selectable: ``"nlft"`` and ``"fs"`` use kernel-backed
nodes (TEM vs fail-silent reaction); faults are injected per node via
:meth:`BbwSimulation.inject_fault` or Poisson processes.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from ..cpu.profiles import ManifestationProfile
from ..errors import ConfigurationError
from ..faults.types import FaultType
from ..kernel.task import CallableExecutable, TaskSpec
from ..net import FlexRayBus, NetworkInterface, round_robin_schedule
from ..node import NlftKernelNode, NodeStatus
from ..node.fs_node import make_fs_kernel_node
from ..sim import PRIORITY_DEFAULT, RandomStreams, Simulator, TraceRecorder
from ..units import ms, seconds, us
from .brake_controller import distribute_brake_force, membership_mask
from .pedal import PedalProfile, step_brake
from .vehicle import Vehicle, VehicleParameters
from .wheel_controller import STATUS_OK, compute_wheel_output

#: Frame identifiers (static slots, in slot order).
FRAME_CU_A = 1
FRAME_CU_B = 2
FRAME_WHEEL_BASE = 3  # wn1 -> 3, wn2 -> 4, ...

NODE_NAMES = ("cu_a", "cu_b", "wn1", "wn2", "wn3", "wn4")
WHEEL_NODES = NODE_NAMES[2:]


@dataclasses.dataclass
class BbwConfig:
    """Configuration of one functional BBW simulation run."""

    node_kind: str = "nlft"  # "nlft" or "fs"
    control_period: int = ms(5)
    task_wcet: int = us(600)
    slot_duration: int = us(150)
    initial_speed_mps: float = 30.0
    pedal: Optional[PedalProfile] = None
    seed: int = 42
    trace_enabled: bool = False
    #: A command older than this is treated as absent (fail-safe release).
    command_max_age_periods: int = 3

    def __post_init__(self) -> None:
        if self.node_kind not in ("nlft", "fs"):
            raise ConfigurationError(f"node_kind must be 'nlft' or 'fs', got {self.node_kind!r}")
        if self.control_period <= 0 or self.task_wcet <= 0:
            raise ConfigurationError("periods and WCETs must be positive")
        if 2 * self.task_wcet >= self.control_period:
            raise ConfigurationError(
                "TEM needs at least two copies per period: 2*wcet < period"
            )


class SystemMonitor:
    """Continuous evaluation of the paper's failure criteria.

    * full functionality: both CU service available AND all 4 wheel nodes
      operational;
    * degraded functionality: CU service available AND >= 3 wheel nodes
      operational;
    * any *undetected* failure anywhere fails the whole system
      (the paper's pessimistic rule for non-covered errors).
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.first_full_failure: Optional[int] = None
        self.first_degraded_failure: Optional[int] = None
        self.undetected_failure_at: Optional[int] = None

    def observe(self, cu_available: bool, wheels_operational: int, undetected: bool) -> None:
        now = self.sim.now
        if undetected and self.undetected_failure_at is None:
            self.undetected_failure_at = now
        full_ok = cu_available and wheels_operational == 4 and not undetected
        degraded_ok = cu_available and wheels_operational >= 3 and not undetected
        if not full_ok and self.first_full_failure is None:
            self.first_full_failure = now
        if not degraded_ok and self.first_degraded_failure is None:
            self.first_degraded_failure = now

    @property
    def full_functionality_intact(self) -> bool:
        return self.first_full_failure is None

    @property
    def degraded_functionality_intact(self) -> bool:
        return self.first_degraded_failure is None


class BbwSimulation:
    """One fully wired functional brake-by-wire simulation."""

    def __init__(self, config: Optional[BbwConfig] = None) -> None:
        self.config = config if config is not None else BbwConfig()
        self.sim = Simulator()
        self.trace = TraceRecorder(enabled=self.config.trace_enabled)
        self.streams = RandomStreams(self.config.seed)
        self.pedal = self.config.pedal if self.config.pedal is not None else step_brake(0.5)
        self.vehicle = Vehicle(VehicleParameters(), speed_mps=self.config.initial_speed_mps)
        self.monitor = SystemMonitor(self.sim)
        self._applied_forces: Dict[str, int] = {name: 0 for name in WHEEL_NODES}
        self._last_command_at: Dict[str, int] = {name: -(10**12) for name in WHEEL_NODES}
        self._build_network()
        self._build_nodes()
        self._build_tasks()
        self._started = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_network(self) -> None:
        schedule = round_robin_schedule(
            list(NODE_NAMES),
            slot_duration=self.config.slot_duration,
            minislot_count=4,
            minislot_duration=self.config.slot_duration // 3,
            idle_duration=self.config.slot_duration,
            first_frame_id=FRAME_CU_A,
        )
        self.bus = FlexRayBus(self.sim, schedule, trace=self.trace)
        self.interfaces: Dict[str, NetworkInterface] = {}
        for name in NODE_NAMES:
            interface = NetworkInterface(name)
            self.interfaces[name] = interface
            self.bus.attach(interface)

    def _build_nodes(self) -> None:
        profile = ManifestationProfile()
        self.nodes: Dict[str, NlftKernelNode] = {}
        for name in NODE_NAMES:
            if self.config.node_kind == "nlft":
                node = NlftKernelNode(
                    self.sim, name,
                    profile=profile,
                    rng=self.streams.get(f"node:{name}"),
                    trace=self.trace,
                    network=self.interfaces[name],
                )
            else:
                node = make_fs_kernel_node(
                    self.sim, name,
                    profile=profile,
                    rng=self.streams.get(f"node:{name}"),
                    trace=self.trace,
                    network=self.interfaces[name],
                )
            self.nodes[name] = node

    def _build_tasks(self) -> None:
        period = self.config.control_period
        wcet = self.config.task_wcet
        # Central-unit replicas run the distribution task.
        for cu_name, frame_id in (("cu_a", FRAME_CU_A), ("cu_b", FRAME_CU_B)):
            node = self.nodes[cu_name]
            interface = self.interfaces[cu_name]
            node.add_task(
                TaskSpec(name="distribute", period=period, wcet=wcet, priority=0),
                CallableExecutable(self._distribute_compute, wcet),
                input_provider=self._cu_inputs,
                on_result=self._make_cu_sink(interface, frame_id),
            )
        # Wheel nodes run their control task.
        for index, wn_name in enumerate(WHEEL_NODES):
            node = self.nodes[wn_name]
            interface = self.interfaces[wn_name]
            node.add_task(
                TaskSpec(name="wheel", period=period, wcet=wcet, priority=0),
                CallableExecutable(self._make_wheel_compute(index), wcet),
                input_provider=self._make_wheel_inputs(wn_name, index),
                on_result=self._make_wheel_sink(wn_name, index),
            )

    # ------------------------------------------------------------------
    # Central-unit task wiring
    # ------------------------------------------------------------------
    def _cu_inputs(self) -> "tuple[int, ...]":
        now = self.sim.now
        max_age = self.config.command_max_age_periods * self.config.control_period
        # Either CU replica's interface sees the same bus; use cu_a's only
        # for determinism of the membership view across replicas.
        interface = self.interfaces["cu_a"]
        fresh = [
            interface.read_fresh(FRAME_WHEEL_BASE + i, now, max_age) is not None
            for i in range(len(WHEEL_NODES))
        ]
        # During start-up no status frames exist yet; assume all present.
        if not any(fresh) and now < 2 * self.config.control_period:
            fresh = [True] * len(WHEEL_NODES)
        return (self.pedal.sample(now), membership_mask(fresh))

    @staticmethod
    def _distribute_compute(inputs: "tuple[int, ...]") -> "tuple[int, ...]":
        pedal_sample, mask = int(inputs[0]), int(inputs[1])
        return distribute_brake_force(pedal_sample, mask)

    def _make_cu_sink(self, interface: NetworkInterface, frame_id: int):
        def sink(result: "tuple[int, ...]") -> None:
            interface.write_tx(frame_id, [int(v) for v in result])

        return sink

    # ------------------------------------------------------------------
    # Wheel-node task wiring
    # ------------------------------------------------------------------
    def _make_wheel_inputs(self, wn_name: str, index: int):
        def inputs() -> "tuple[int, ...]":
            now = self.sim.now
            max_age = self.config.command_max_age_periods * self.config.control_period
            interface = self.interfaces[wn_name]
            command = 0
            best_age: Optional[int] = None
            for frame_id in (FRAME_CU_A, FRAME_CU_B):
                received = interface.read_fresh(frame_id, now, max_age)
                if received is None or len(received.frame.payload) <= index:
                    continue
                age = received.age_at(now)
                if best_age is None or age < best_age:
                    best_age = age
                    command = int(received.frame.payload[index])
            return (command, self._applied_forces[wn_name])

        return inputs

    def _make_wheel_compute(self, index: int):
        def compute(inputs: "tuple[int, ...]") -> "tuple[int, ...]":
            command, current = int(inputs[0]), int(inputs[1])
            return compute_wheel_output(command, current, index)

        return compute

    def _make_wheel_sink(self, wn_name: str, index: int):
        def sink(result: "tuple[int, ...]") -> None:
            force, status = int(result[0]), int(result[1])
            self._applied_forces[wn_name] = force
            self._last_command_at[wn_name] = self.sim.now
            self.vehicle.command_wheel_force(index, force)
            if status == STATUS_OK:
                self.interfaces[wn_name].write_tx(FRAME_WHEEL_BASE + index, [status, force])

        return sink

    # ------------------------------------------------------------------
    # Global periodic machinery
    # ------------------------------------------------------------------
    def _vehicle_step(self) -> None:
        now = self.sim.now
        stale_after = self.config.command_max_age_periods * self.config.control_period
        for index, wn_name in enumerate(WHEEL_NODES):
            if now - self._last_command_at[wn_name] > stale_after:
                # Actuator watchdog: release the brake on stale commands
                # (a silent wheel node must not lock its wheel).
                self.vehicle.command_wheel_force(index, 0)
                self._applied_forces[wn_name] = 0
        self.vehicle.step(self.config.control_period / 1_000_000.0)
        cu_available = any(
            self.nodes[name].status is NodeStatus.OPERATIONAL for name in ("cu_a", "cu_b")
        )
        wheels_operational = sum(
            1 for name in WHEEL_NODES if self.nodes[name].status is NodeStatus.OPERATIONAL
        )
        undetected = any(node.stats.undetected > 0 for node in self.nodes.values())
        self.monitor.observe(cu_available, wheels_operational, undetected)
        self.sim.schedule_after(
            self.config.control_period, self._vehicle_step,
            priority=PRIORITY_DEFAULT, label="vehicle",
        )

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start bus, kernels and the vehicle integrator (idempotent)."""
        if self._started:
            return
        self._started = True
        self.bus.start()
        for node in self.nodes.values():
            node.start()
        self.sim.schedule_after(
            self.config.control_period, self._vehicle_step,
            priority=PRIORITY_DEFAULT, label="vehicle",
        )

    def run(self, duration_s: float) -> None:
        """Run the simulation for *duration_s* simulated seconds."""
        self.start()
        self.sim.run(until=self.sim.now + seconds(duration_s))

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def inject_fault(self, node_name: str, fault_type: FaultType, at_s: float) -> None:
        """Schedule one fault arrival into *node_name* at time *at_s*."""
        node = self.nodes[node_name]
        # PRIORITY_DEFAULT (not PRIORITY_FAULT) deliberately: scenario-level
        # injections have always fired after same-tick kernel events, and
        # the recorded scenario traces depend on that order.
        self.sim.schedule_at(
            seconds(at_s),
            lambda: node.inject_fault(fault_type),
            priority=PRIORITY_DEFAULT,
            label=f"inject:{node_name}",
        )

    def kill_node(self, node_name: str, at_s: float) -> None:
        """Convenience: permanent fault, guaranteed detection path."""
        self.inject_fault(node_name, FaultType.PERMANENT, at_s)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Key results of the run (used by examples and benchmarks)."""
        return {
            "node_kind": self.config.node_kind,
            "time_s": self.vehicle.time_s,
            "speed_mps": self.vehicle.speed_mps,
            "distance_m": self.vehicle.distance_m,
            "stopped": self.vehicle.stopped,
            "full_ok": self.monitor.full_functionality_intact,
            "degraded_ok": self.monitor.degraded_functionality_intact,
            "wheels_operational": sum(
                1 for n in WHEEL_NODES if self.nodes[n].status is NodeStatus.OPERATIONAL
            ),
            "masked_total": sum(n.stats.masked for n in self.nodes.values()),
            "omissions_total": sum(n.stats.omissions for n in self.nodes.values()),
            "fail_silent_total": sum(n.stats.fail_silent for n in self.nodes.values()),
            "undetected_total": sum(n.stats.undetected for n in self.nodes.values()),
        }
