"""Network interface (communication controller) of one node.

Each node owns a :class:`NetworkInterface` — the "NI" box of the paper's
Figure 1.  The host side writes outgoing payloads into transmit buffers and
reads the freshest valid frames from receive buffers; the bus side polls the
transmit buffers at the node's static slots and delivers frames from other
nodes.

The interface also enforces the *fail-silent boundary*: while the node is
silent (shut down or restarting), the controller transmits nothing — the
bus-guardian behaviour that keeps a failed host from babbling.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import NetworkError
from .frame import Frame, ReceivedFrame


class NetworkInterface:
    """Per-node communication controller.

    Parameters
    ----------
    node_name:
        Must match the sender names in the communication schedule.
    """

    def __init__(self, node_name: str) -> None:
        self.node_name = node_name
        self._tx_static: Dict[int, Tuple[int, ...]] = {}
        self._tx_dynamic: List[Tuple[int, Tuple[int, ...]]] = []
        self._rx: Dict[int, ReceivedFrame] = {}
        self._silent = False
        self.frames_sent = 0
        self.frames_received = 0
        self.crc_errors = 0

    # ------------------------------------------------------------------
    # Host-side API
    # ------------------------------------------------------------------
    def write_tx(self, frame_id: int, payload: Sequence[int]) -> None:
        """Stage a payload for the node's static slot carrying *frame_id*.

        The payload is transmitted in every cycle until overwritten (state
        message semantics, as in TTP/C and FlexRay static frames).
        """
        self._tx_static[frame_id] = tuple(int(w) & 0xFFFF_FFFF for w in payload)

    def send_event(self, frame_id: int, payload: Sequence[int]) -> None:
        """Queue an event-triggered frame for the dynamic segment."""
        self._tx_dynamic.append(
            (frame_id, tuple(int(w) & 0xFFFF_FFFF for w in payload))
        )

    def read_rx(self, frame_id: int) -> Optional[ReceivedFrame]:
        """Freshest received frame with *frame_id*, or None."""
        return self._rx.get(frame_id)

    def read_fresh(
        self, frame_id: int, now: int, max_age: int
    ) -> Optional[ReceivedFrame]:
        """Like :meth:`read_rx` but only if received within *max_age* ticks.

        Receivers use this to detect omission failures of a sender: a stale
        or missing frame means the sender skipped its slot.
        """
        received = self._rx.get(frame_id)
        if received is None or received.age_at(now) > max_age:
            return None
        return received

    # ------------------------------------------------------------------
    # Fail-silence boundary
    # ------------------------------------------------------------------
    @property
    def silent(self) -> bool:
        return self._silent

    def go_silent(self) -> None:
        """Stop transmitting (node shut down or restarting)."""
        self._silent = True
        self._tx_dynamic.clear()

    def resume(self) -> None:
        """Re-enable transmission after reintegration."""
        self._silent = False

    # ------------------------------------------------------------------
    # Bus-side API (called by the bus engine only)
    # ------------------------------------------------------------------
    def provide_static_frame(
        self, frame_id: int, cycle: int, timestamp: int
    ) -> Optional[Frame]:
        """Frame for the node's static slot, or None (omission)."""
        if self._silent:
            return None
        payload = self._tx_static.get(frame_id)
        if payload is None:
            return None
        self.frames_sent += 1
        return Frame.seal(frame_id, self.node_name, payload, cycle, timestamp)

    def provide_dynamic_frames(
        self, cycle: int, timestamp: int
    ) -> List[Frame]:
        """Drain the event queue into sealed frames (bus arbitrates)."""
        if self._silent or not self._tx_dynamic:
            return []
        frames = [
            Frame.seal(frame_id, self.node_name, payload, cycle, timestamp)
            for frame_id, payload in self._tx_dynamic
        ]
        self._tx_dynamic.clear()
        return frames

    def deliver(self, frame: Frame, now: int) -> None:
        """Bus delivers a frame; CRC-invalid frames are dropped and counted
        (the receiver-side end-to-end check)."""
        if frame.sender == self.node_name:
            return  # a node does not consume its own transmission
        if not frame.valid:
            self.crc_errors += 1
            return
        self.frames_received += 1
        self._rx[frame.frame_id] = ReceivedFrame(frame=frame, received_at=now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetworkInterface({self.node_name!r}, silent={self._silent}, "
            f"sent={self.frames_sent}, received={self.frames_received})"
        )
