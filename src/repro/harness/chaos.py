"""Deterministic chaos injection for the campaign harness itself.

The repo's fault-injection campaigns prove the *paper's* node-level fault
tolerance by injecting faults into simulated nodes.  This module turns the
same discipline on the harness: a seeded :class:`ChaosPolicy` attacks the
campaign infrastructure — SIGKILLing shard runners at chosen trial
indices, stalling runner heartbeats until the coordinator takes the shard
over, tearing or poisoning journal tails — and the acceptance bar is the
repo's signature move: under **any** chaos schedule the recovered campaign must reproduce the undisturbed serial run's outcome
counts and deterministic metrics view bit-identically (see
``tests/harness/test_chaos_equivalence.py`` and ``tools/chaos_smoke.py``).

Every event is pinned to a trial index or shard id, so a schedule is
reproducible run-to-run; the only randomness — the bytes used to damage a
journal tail — is drawn from a ``random.Random`` seeded from the policy
seed.  Events fire **once**: runner events trigger only when their trial
is *executed* (a resumed trial replayed from the journal never re-fires
its event), and a shard's journal is corrupted at its first takeover only.
Chaos acts on ``--jobs N`` (shard-runner) campaigns; a serial campaign
ignores it.

Spec grammar (the ``--chaos`` CLI knob), comma-separated events::

    die:T           shard runner SIGKILLs itself right after journaling
                    trial T — batched, the whole chunk holding T (fail-stop
                    node death with a durable journal)
    stall:T         shard runner stops heartbeating after journaling trial
                    T (batched: its chunk) but keeps computing (a wedged
                    node; the coordinator must see its beat counter go
                    stale and take the shard over)
    corrupt:K:MODE  damage shard K's journal tail at its first takeover;
                    MODE is ``tear`` (truncate mid-line), ``garbage``
                    (append invalid-UTF-8 bytes and a torn line) or
                    ``schema`` (append valid-JSON wrong-schema lines)

Example: ``--chaos "die:40,stall:80,corrupt:0:tear"``.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path
from typing import Mapping, Optional, Union

from ..errors import ConfigurationError

#: Journal-corruption modes understood by :meth:`ChaosPolicy.corrupt_journal`.
CORRUPTION_MODES = ("tear", "garbage", "schema")

#: The event grammar, as quoted in parse errors.
_GRAMMAR = "die:T, stall:T, corrupt:K:MODE"

#: Directives of the deleted worker pool; rejected with a pointer to
#: :data:`_GRAMMAR` so an old spec fails loudly instead of silently.
_POOL_DIRECTIVES = ("kill", "kill-idle", "delay")


@dataclasses.dataclass(frozen=True)
class ChaosPolicy:
    """A deterministic, seeded schedule of harness-level fault injections.

    Immutable and picklable: the same policy object travels to the shard
    runner processes (as an argument of the runner's entry point) and is
    consulted by the coordinator at takeover.
    """

    #: Seed for the corruption byte generator (the only entropy source).
    seed: int = 0
    #: Trials after whose journal append the shard runner SIGKILLs itself.
    die_after_trials: "frozenset[int]" = frozenset()
    #: Trials after which the shard runner stops heartbeating (wedge).
    stall_after_trials: "frozenset[int]" = frozenset()
    #: shard id -> corruption mode applied to its journal at first takeover.
    corrupt_shards: "Mapping[int, str]" = dataclasses.field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        for shard_id, mode in self.corrupt_shards.items():
            if mode not in CORRUPTION_MODES:
                raise ConfigurationError(
                    f"unknown journal-corruption mode {mode!r} for shard "
                    f"{shard_id}; choose from {CORRUPTION_MODES}"
                )

    # ------------------------------------------------------------------
    # Spec parsing (the --chaos CLI knob)
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "ChaosPolicy":
        """Parse the comma-separated event grammar (module docstring)."""
        die: "set[int]" = set()
        stall: "set[int]" = set()
        corrupt: "dict[int, str]" = {}
        for token in filter(None, (t.strip() for t in spec.split(","))):
            parts = token.split(":")
            kind = parts[0]
            if kind in _POOL_DIRECTIVES:
                raise ConfigurationError(
                    f"chaos event {token!r} targeted the removed worker "
                    f"pool; campaigns run on shard runners, whose "
                    f"directives are: {_GRAMMAR}"
                )
            try:
                if kind == "die" and len(parts) == 2:
                    die.add(int(parts[1]))
                elif kind == "stall" and len(parts) == 2:
                    stall.add(int(parts[1]))
                elif kind == "corrupt" and len(parts) == 3:
                    corrupt[int(parts[1])] = parts[2]
                else:
                    raise ValueError(token)
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad chaos event {token!r}; grammar: {_GRAMMAR}"
                ) from exc
        return cls(
            seed=seed,
            die_after_trials=frozenset(die),
            stall_after_trials=frozenset(stall),
            corrupt_shards=corrupt,
        )

    def describe(self) -> str:
        """The canonical spec string of this policy (round-trips)."""
        tokens = [f"die:{t}" for t in sorted(self.die_after_trials)]
        tokens += [f"stall:{t}" for t in sorted(self.stall_after_trials)]
        tokens += [
            f"corrupt:{k}:{m}" for k, m in sorted(self.corrupt_shards.items())
        ]
        return ",".join(tokens)

    # ------------------------------------------------------------------
    # Event queries
    # ------------------------------------------------------------------
    @property
    def any_events(self) -> bool:
        return bool(
            self.die_after_trials or self.stall_after_trials
            or self.corrupt_shards
        )

    def dies_after(self, trial_id: int) -> bool:
        return trial_id in self.die_after_trials

    def stalls_after(self, trial_id: int) -> bool:
        return trial_id in self.stall_after_trials

    def corruption_mode(self, shard_id: int) -> Optional[str]:
        return self.corrupt_shards.get(shard_id)

    # ------------------------------------------------------------------
    # Journal corruption (coordinator-side, applied at takeover)
    # ------------------------------------------------------------------
    def corrupt_journal(
        self, path: Union[str, Path], shard_id: int, mode: Optional[str] = None
    ) -> Optional[str]:
        """Damage *path*'s tail the way a torn write or bad disk would.

        Only the suffix *beyond the last intact line boundary at worst one
        record deep* is touched — acknowledged-and-synced records stay
        intact, mirroring what real torn writes can and cannot destroy.
        Returns the mode applied (``None`` when the file is missing or
        too small to damage).
        """
        mode = mode if mode is not None else self.corruption_mode(shard_id)
        if mode is None:
            return None
        path = Path(path)
        if not path.exists():
            return None
        raw = path.read_bytes()
        rng = random.Random((self.seed << 16) ^ (shard_id + 1))
        if mode == "tear":
            # Truncate inside the final line: the classic torn write.  The
            # newline of the previous line survives, so exactly one record
            # is lost — one trial, or a batched runner's whole chunk — and
            # deterministically re-run on resume.
            body = raw[:-1] if raw.endswith(b"\n") else raw
            cut = body.rfind(b"\n") + 1
            if cut == 0 or cut >= len(body):
                # Nothing after the header / last boundary to tear: tearing
                # into the header would make the journal unresumable, which
                # no torn *append* can do.
                return None
            keep = rng.randrange(cut, len(body))
            path.write_bytes(raw[:keep])
        elif mode == "garbage":
            # Invalid UTF-8 noise followed by a torn JSON-ish line.
            noise = bytes(rng.randrange(0x80, 0x100) for _ in range(24))
            with path.open("ab") as handle:
                handle.write(noise + b"\n")
                handle.write(b'{"kind":"trial","trial_id":')
        elif mode == "schema":
            # Well-formed JSON that is not a journal record.
            lines = [
                json.dumps({"kind": "trial", "bogus": True}),
                json.dumps({"kind": "lease", "token": rng.randrange(1 << 16)}),
                json.dumps([1, 2, 3]),
            ]
            with path.open("ab") as handle:
                handle.write(("\n".join(lines) + "\n").encode("utf-8"))
        else:  # pragma: no cover — guarded by __post_init__
            raise ConfigurationError(f"unknown corruption mode {mode!r}")
        return mode

