"""Checkpointed shard leases: fail-stop worker detection for the harness.

The paper's framework detects node failures with heartbeats and enforces
fail-stop semantics so a recovering node can be reintegrated without
corrupting the group.  The sharded campaign coordinator
(:mod:`repro.harness.shards`) applies the same mechanism to its own
workers: each shard is owned through a small JSON lease file holding the
owner's identity, a monotonically increasing **fencing token** and the
owner's last heartbeat timestamp.

* the shard runner refreshes the heartbeat from a background thread, and
  marks the lease ``done`` once it has handed its result to the
  coordinator (the lease carries liveness and ownership only; results and
  counters travel over the runner's handoff pipe);
* the coordinator declares the lease **expired** when the heartbeat is
  older than the TTL (a dead, SIGKILLed or wedged runner all look the
  same from outside — exactly the paper's fail-stop abstraction), kills
  whatever process may still be attached, bumps the fencing token and
  reassigns the shard;
* a runner observing a lease token larger than its own has been fenced
  out — it must stop touching the shard journal immediately, which is
  what makes takeover safe even against a runner that was wedged rather
  than dead.

Lease writes are atomic (temp file + ``os.replace``), so a reader never
observes a half-written lease; a garbage lease file (crash mid-setup,
disk damage) simply reads as "no lease" and is reclaimed.

Wall-clock use is deliberate and legitimate here: leases measure the
*host* (is the owning process still making progress?), never simulated
time — :mod:`repro.harness` is DET001's home for exactly this kind of
infrastructure clock.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from pathlib import Path
from typing import Optional, Union

#: Lease lifecycle states.
LEASE_RUNNING = "running"
LEASE_DONE = "done"
LEASE_ABANDONED = "abandoned"


@dataclasses.dataclass(frozen=True)
class Lease:
    """One shard's ownership record."""

    shard_id: int
    owner: str
    #: Fencing token: bumped by the coordinator on every takeover.  A
    #: runner holding a smaller token than the file has been superseded.
    token: int
    #: Host wall-clock timestamp of the owner's last sign of life.
    heartbeat: float
    state: str = LEASE_RUNNING

    def to_json(self) -> "dict[str, object]":
        return {
            "shard_id": self.shard_id,
            "owner": self.owner,
            "token": self.token,
            "heartbeat": self.heartbeat,
            "state": self.state,
        }

    @classmethod
    def from_json(cls, data: "dict[str, object]") -> "Lease":
        return cls(
            shard_id=int(data["shard_id"]),
            owner=str(data["owner"]),
            token=int(data["token"]),
            heartbeat=float(data["heartbeat"]),
            state=str(data.get("state", LEASE_RUNNING)),
        )

    def expired(self, ttl_s: float, now: Optional[float] = None) -> bool:
        """True when the heartbeat is older than *ttl_s* (running leases
        only — a finished or abandoned shard cannot expire)."""
        if self.state != LEASE_RUNNING:
            return False
        if now is None:
            now = time.time()
        return (now - self.heartbeat) > ttl_s


class LeaseFile:
    """Atomic reader/writer of one shard's lease."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def read(self) -> Optional[Lease]:
        """The current lease, or ``None`` for a missing/garbage file."""
        try:
            raw = self.path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError, UnicodeDecodeError):
            return None
        try:
            data = json.loads(raw)
            if not isinstance(data, dict):
                return None
            return Lease.from_json(data)
        except (ValueError, KeyError, TypeError):
            return None

    def write(self, lease: Lease) -> None:
        """Atomically replace the lease (temp file + rename + fsync)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + f".tmp{os.getpid()}")
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(lease.to_json(), separators=(",", ":")))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)

    def heartbeat(self, lease: Lease, state: Optional[str] = None) -> Lease:
        """Refresh *lease*'s heartbeat (and optionally its state) on disk
        and return the refreshed lease."""
        refreshed = dataclasses.replace(
            lease,
            heartbeat=time.time(),
            state=state if state is not None else lease.state,
        )
        self.write(refreshed)
        return refreshed

    def fenced_out(self, token: int) -> bool:
        """True when the on-disk lease carries a newer fencing token than
        *token* — the holder has been superseded and must stop."""
        current = self.read()
        return current is not None and current.token > token
