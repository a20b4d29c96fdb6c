"""Communication schedule: static TDMA segment plus dynamic segment.

The paper assumes a time-triggered protocol, "or even more preferable ... a
mix of event- and time-triggered communication (such as provided by the
FlexRay protocol [9])".  A :class:`CommunicationSchedule` describes one
communication cycle:

* a **static segment** of fixed-length slots, each statically assigned to
  one sending node and one frame id (all critical messages live here);
* a **dynamic segment** of mini-slots in which pending event-triggered
  frames are arbitrated by frame id (lower id = higher priority), exactly
  the FlexRay flexible-TDMA scheme;
* an inter-cycle **network idle time**.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from ..errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class StaticSlot:
    """One static-segment slot: who sends which frame."""

    slot_index: int
    sender: str
    frame_id: int

    def __post_init__(self) -> None:
        if self.slot_index < 0:
            raise ConfigurationError("slot index must be non-negative")
        if self.frame_id < 0:
            raise ConfigurationError("frame id must be non-negative")


@dataclasses.dataclass(frozen=True)
class CommunicationSchedule:
    """One communication cycle's layout (times in simulator ticks).

    Attributes
    ----------
    static_slots:
        Slot assignments; slot *i* starts at ``i * slot_duration``.
    slot_duration:
        Length of each static slot.
    minislot_count / minislot_duration:
        Dynamic-segment geometry; a dynamic frame consumes a whole number
        of mini-slots (we charge one per frame for simplicity).
    idle_duration:
        Network idle time closing the cycle.
    """

    static_slots: Sequence[StaticSlot]
    slot_duration: int
    minislot_count: int = 0
    minislot_duration: int = 0
    idle_duration: int = 0

    def __post_init__(self) -> None:
        if self.slot_duration <= 0:
            raise ConfigurationError("slot duration must be positive")
        if self.minislot_count < 0 or self.minislot_duration < 0 or self.idle_duration < 0:
            raise ConfigurationError("segment durations must be non-negative")
        if self.minislot_count > 0 and self.minislot_duration <= 0:
            raise ConfigurationError("mini-slots need a positive duration")
        indices = [slot.slot_index for slot in self.static_slots]
        if indices != sorted(indices) or len(indices) != len(set(indices)):
            raise ConfigurationError("static slots must have unique, ascending indices")
        frame_ids = [slot.frame_id for slot in self.static_slots]
        if len(frame_ids) != len(set(frame_ids)):
            raise ConfigurationError("static frame ids must be unique")

    # ------------------------------------------------------------------
    @property
    def static_duration(self) -> int:
        """Length of the static segment."""
        count = (self.static_slots[-1].slot_index + 1) if self.static_slots else 0
        return count * self.slot_duration

    @property
    def dynamic_duration(self) -> int:
        """Length of the dynamic segment."""
        return self.minislot_count * self.minislot_duration

    @property
    def cycle_duration(self) -> int:
        """Full communication-cycle length."""
        return self.static_duration + self.dynamic_duration + self.idle_duration

    # ------------------------------------------------------------------
    def slot_start(self, slot_index: int) -> int:
        """Offset of a static slot's start within the cycle."""
        return slot_index * self.slot_duration

    def dynamic_start(self) -> int:
        """Offset of the dynamic segment within the cycle."""
        return self.static_duration

    def sender_of(self, frame_id: int) -> Optional[str]:
        """Statically assigned sender of *frame_id* (None if dynamic)."""
        for slot in self.static_slots:
            if slot.frame_id == frame_id:
                return slot.sender
        return None

    def slots_of(self, sender: str) -> List[StaticSlot]:
        """All static slots owned by *sender*."""
        return [slot for slot in self.static_slots if slot.sender == sender]


def round_robin_schedule(
    senders: Sequence[str],
    slot_duration: int,
    minislot_count: int = 0,
    minislot_duration: int = 0,
    idle_duration: int = 0,
    first_frame_id: int = 1,
) -> CommunicationSchedule:
    """One static slot per sender, in the given order (a TTP/C-style TDMA
    round, the common case for the BBW system)."""
    slots = [
        StaticSlot(slot_index=i, sender=sender, frame_id=first_frame_id + i)
        for i, sender in enumerate(senders)
    ]
    return CommunicationSchedule(
        static_slots=slots,
        slot_duration=slot_duration,
        minislot_count=minislot_count,
        minislot_duration=minislot_duration,
        idle_duration=idle_duration,
    )
