"""Partner-state recovery over the event-triggered network segment.

Implements the paper's future-work proposal (Section 4): "... protocols
such as FlexRay [9] that may facilitate fast recovery of state data with
low communication overhead through special requests to the partner node in
the event-triggered part of the protocol".

Protocol
--------
Each replica runs a :class:`StateRecoveryService` bound to its network
interface and its task-state store:

1. a reintegrating node broadcasts a **state request** in the dynamic
   segment (high-priority event frame carrying its node id);
2. any operational partner that sees the request answers with a **state
   response**: the requested state words plus the store's CRC-16, so the
   transfer is protected *end to end* (Section 2.6) — on top of the frame
   CRC the bus already applies;
3. the requester verifies the checksum and commits the snapshot to its own
   store; on timeout it falls back to defaults (the paper's alternative:
   "obtain new data in the next cycle").

The service is deliberately independent of the node classes so it can be
composed with behavioural nodes, kernel nodes and tests alike.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

from ..core.integrity import ChecksummedBlock, IntegrityError
from ..errors import ConfigurationError
from ..net.controller import NetworkInterface
from ..sim import PRIORITY_DEFAULT, EventHandle, Simulator, TraceRecorder

#: Default event-frame identifiers (low ids win dynamic-segment
#: arbitration, so recovery traffic has priority over diagnostics).
STATE_REQUEST_FRAME = 40
STATE_RESPONSE_FRAME = 41


def _encode_name(name: str) -> int:
    """Pack up to 4 ASCII characters of a node name into one word."""
    value = 0
    for char in name[:4].ljust(4):
        value = (value << 8) | (ord(char) & 0xFF)
    return value


@dataclasses.dataclass
class RecoveryStatistics:
    """Counters kept by every service instance."""

    requests_sent: int = 0
    requests_served: int = 0
    recoveries_completed: int = 0
    recovery_timeouts: int = 0
    integrity_rejections: int = 0


class StateRecoveryService:
    """One replica's endpoint of the state-recovery protocol.

    Parameters
    ----------
    sim / interface:
        Simulation substrate and the node's communication controller.
    node_name:
        Used to address requests/responses.
    get_state:
        Returns the node's current state words (called when serving a
        partner's request).
    set_state:
        Commits recovered state words (called when a verified response
        arrives).
    poll_period:
        How often the service checks for request/response frames
        (typically the communication-cycle length).
    timeout_cycles:
        Polls to wait for a response before falling back.
    """

    def __init__(
        self,
        sim: Simulator,
        interface: NetworkInterface,
        node_name: str,
        get_state: Callable[[], List[int]],
        set_state: Callable[[List[int]], None],
        poll_period: int,
        timeout_cycles: int = 5,
        request_frame: int = STATE_REQUEST_FRAME,
        response_frame: int = STATE_RESPONSE_FRAME,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        if poll_period <= 0:
            raise ConfigurationError("poll period must be positive")
        if timeout_cycles <= 0:
            raise ConfigurationError("timeout must be at least one cycle")
        self.sim = sim
        self.interface = interface
        self.node_name = node_name
        self._get_state = get_state
        self._set_state = set_state
        self.poll_period = poll_period
        self.timeout_cycles = timeout_cycles
        self.request_frame = request_frame
        self.response_frame = response_frame
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.stats = RecoveryStatistics()
        self._name_word = _encode_name(node_name)
        self._serving = False
        self._poll_event: Optional[EventHandle] = None
        self._pending_recovery: Optional[Callable[[bool], None]] = None
        self._recovery_polls_left = 0
        self._last_served_request: Optional[int] = None

    # ------------------------------------------------------------------
    # Serving side
    # ------------------------------------------------------------------
    def start_serving(self) -> None:
        """Begin answering partners' state requests (idempotent)."""
        if self._serving:
            return
        self._serving = True
        self._schedule_poll()

    def _schedule_poll(self) -> None:
        self._poll_event = self.sim.schedule_after(
            self.poll_period, self._poll,
            priority=PRIORITY_DEFAULT, label=f"{self.node_name}:state-sync",
        )

    def _poll(self) -> None:
        if self._serving:
            self._check_requests()
        if self._pending_recovery is not None:
            self._check_response()
        self._schedule_poll()

    def _check_requests(self) -> None:
        received = self.interface.read_rx(self.request_frame)
        if received is None:
            return
        if self._last_served_request == received.received_at:
            return  # already answered this request
        requester_word = received.frame.payload[0] if received.frame.payload else 0
        if requester_word == self._name_word:
            return  # our own request echoed back
        self._last_served_request = received.received_at
        state = [int(w) & 0xFFFF_FFFF for w in self._get_state()]
        block = ChecksummedBlock.seal(state)
        payload = [requester_word, len(state), *block.words, block.checksum]
        self.interface.send_event(self.response_frame, payload)
        self.stats.requests_served += 1
        self.trace.emit(
            self.sim.now, "state_sync.served", self.node_name,
            words=len(state),
        )

    # ------------------------------------------------------------------
    # Requesting side
    # ------------------------------------------------------------------
    def begin_recovery(self, on_done: Callable[[bool], None]) -> None:
        """Request state from any partner.

        *on_done(recovered)* fires with True when a verified snapshot was
        committed, False on timeout or integrity rejection (the caller then
        falls back to defaults / fresh inputs).
        """
        if self._pending_recovery is not None:
            raise ConfigurationError("a recovery is already in progress")
        self._pending_recovery = on_done
        self._recovery_polls_left = self.timeout_cycles
        self.stats.requests_sent += 1
        self.interface.send_event(self.request_frame, [self._name_word])
        self.trace.emit(self.sim.now, "state_sync.request", self.node_name)
        if self._poll_event is None or not self._poll_event.pending:
            self._schedule_poll()

    def _check_response(self) -> None:
        received = self.interface.read_fresh(
            self.response_frame, self.sim.now,
            max_age=self.poll_period * self.timeout_cycles,
        )
        if received is not None and received.frame.payload[:1] == (self._name_word,):
            payload = received.frame.payload
            count = int(payload[1])
            words = list(payload[2 : 2 + count])
            checksum = int(payload[2 + count])
            block = ChecksummedBlock(words=words, checksum=checksum)
            try:
                verified = block.verify()
            except IntegrityError:
                self.stats.integrity_rejections += 1
                self._finish_recovery(False)
                return
            self._set_state(verified)
            self.stats.recoveries_completed += 1
            self.trace.emit(
                self.sim.now, "state_sync.recovered", self.node_name,
                words=count, provider=received.frame.sender,
            )
            self._finish_recovery(True)
            return
        self._recovery_polls_left -= 1
        if self._recovery_polls_left <= 0:
            self.stats.recovery_timeouts += 1
            self.trace.emit(self.sim.now, "state_sync.timeout", self.node_name)
            self._finish_recovery(False)

    def _finish_recovery(self, success: bool) -> None:
        callback = self._pending_recovery
        self._pending_recovery = None
        if callback is not None:
            callback(success)
