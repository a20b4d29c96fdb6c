"""Frames of the time-triggered communication protocol.

A frame carries a tuple of 32-bit words plus a CRC-16 over its header and
payload — end-to-end error detection on the communication path (Table 1 /
Section 2.6).  The bus itself is assumed reliable (Section 2.1), but the CRC
lets the receiving node detect corruption introduced *before* transmission
(e.g. a fault hitting the transmit buffer), closing the end-to-end argument.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

from ..core.integrity import crc16, words_to_bytes
from ..errors import NetworkError


@dataclasses.dataclass(frozen=True)
class Frame:
    """One transmitted frame.

    Attributes
    ----------
    frame_id:
        Protocol-wide identifier; in the dynamic segment it doubles as the
        arbitration priority (lower id wins, as in FlexRay).
    sender:
        Transmitting node's name.
    payload:
        Tuple of 32-bit words.
    cycle:
        Communication-cycle counter at transmission.
    timestamp:
        Simulated time of transmission completion.
    crc:
        CRC-16 sealed by the sender over (frame_id, payload).
    """

    frame_id: int
    sender: str
    payload: Tuple[int, ...]
    cycle: int
    timestamp: int
    crc: int

    @staticmethod
    def compute_crc(frame_id: int, payload: Sequence[int]) -> int:
        """CRC-16 over the id word followed by the payload words."""
        return crc16(words_to_bytes([frame_id, *payload]))

    @classmethod
    def seal(
        cls,
        frame_id: int,
        sender: str,
        payload: Sequence[int],
        cycle: int,
        timestamp: int,
    ) -> "Frame":
        """Build a frame with a freshly computed CRC."""
        payload = tuple(int(w) & 0xFFFF_FFFF for w in payload)
        return cls(
            frame_id=frame_id,
            sender=sender,
            payload=payload,
            cycle=cycle,
            timestamp=timestamp,
            crc=cls.compute_crc(frame_id, payload),
        )

    @property
    def valid(self) -> bool:
        """True when the CRC matches the content."""
        return self.crc == self.compute_crc(self.frame_id, self.payload)

    def check(self) -> "Frame":
        """Return self if valid, else raise :class:`NetworkError`."""
        if not self.valid:
            raise NetworkError(
                f"CRC error in frame {self.frame_id} from {self.sender!r}"
            )
        return self

    def corrupted(self, word_index: int, new_value: int) -> "Frame":
        """A copy with one payload word overwritten and the *old* CRC —
        fault-injection helper producing a detectably invalid frame."""
        if not 0 <= word_index < len(self.payload):
            raise NetworkError(f"word index {word_index} outside payload")
        payload = list(self.payload)
        payload[word_index] = int(new_value) & 0xFFFF_FFFF
        return dataclasses.replace(self, payload=tuple(payload))


@dataclasses.dataclass(frozen=True)
class ReceivedFrame:
    """A frame as seen by one receiver, with reception metadata."""

    frame: Frame
    received_at: int

    def age_at(self, now: int) -> int:
        """Ticks elapsed since reception."""
        return now - self.received_at


def require_payload_length(frame: Frame, expected: int) -> Frame:
    """Validate payload arity (protocol schema check)."""
    if len(frame.payload) != expected:
        raise NetworkError(
            f"frame {frame.frame_id} from {frame.sender!r} has "
            f"{len(frame.payload)} words, expected {expected}"
        )
    return frame
