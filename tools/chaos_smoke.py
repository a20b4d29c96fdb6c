#!/usr/bin/env python
"""CI chaos smoke: sharded E5 under SIGKILL + journal corruption.

Runs the short golden E5 campaign (150 trials, seed 2005) across two
crash-tolerant shards while a seeded chaos schedule SIGKILLs one shard
runner mid-campaign and tears the tail off its journal at takeover, then
verifies the recovered result against the committed golden fixture
(``tests/faults/golden_campaign_e5.json``) bit-for-bit.  Every shard of
the completed campaign must also have merged through its runner's
in-memory handoff, replacement runners included, never from a journal
read back by the coordinator.

Shard journals and quarantine files are written to the artifact
directory (``--artifacts``, default ``chaos-artifacts/``) so a failing CI
run leaves the full forensic record behind.

With ``--batch N`` every shard runner steps its slice in N-trial lockstep
chunks and journals one record per chunk, so the SIGKILL lands after a
whole chunk is committed and the torn tail is a whole chunk.

Usage::

    PYTHONPATH=src python tools/chaos_smoke.py [--artifacts DIR] \\
        [--chaos SPEC] [--chaos-seed SEED] [--batch N]

Exit status: 0 on bit-identical recovery, 1 on divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import runtime  # noqa: E402
from repro.experiments.coverage_table import (  # noqa: E402
    _e5_batch_runner,
    _e5_trial,
    e5_fault_payloads,
)
from repro.harness import (  # noqa: E402
    ShardConfig,
    SupervisorConfig,
    run_sharded_campaign,
)
from repro.obs import metrics  # noqa: E402
from repro.obs.health import format_harness_health  # noqa: E402

EXPERIMENTS = 150
SEED = 2005
MAX_COPIES = 3
SHARDS = 2
GOLDEN_PATH = REPO_ROOT / "tests" / "faults" / "golden_campaign_e5.json"

#: One runner SIGKILL plus one journal-tail truncation at takeover.
DEFAULT_CHAOS = "die:40,corrupt:0:tear"


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifacts", type=Path, default=Path("chaos-artifacts"),
        metavar="DIR", help="directory for journals/report",
    )
    parser.add_argument(
        "--chaos", default=DEFAULT_CHAOS, metavar="SPEC",
        help=f"chaos schedule (default: {DEFAULT_CHAOS!r})",
    )
    parser.add_argument("--chaos-seed", type=int, default=7, metavar="SEED")
    parser.add_argument(
        "--batch", type=int, default=0, metavar="N",
        help="shard runners batch N-trial chunks (default: 0, scalar)",
    )
    args = parser.parse_args(argv)
    if args.batch < 0:
        parser.error("--batch must be >= 0")

    args.artifacts.mkdir(parents=True, exist_ok=True)
    # The coordinator reads the chaos schedule from the active run context.
    context = runtime.RunContext(
        runtime.RunConfig(chaos=args.chaos, chaos_seed=args.chaos_seed)
    )
    policy = context.config.chaos_policy()
    print(f"chaos schedule: {(policy and policy.describe()) or '(none)'}")
    print(f"batch: {args.batch or 'scalar'}")

    with runtime.activate(context), metrics.capture():
        result = run_sharded_campaign(
            _e5_trial,
            e5_fault_payloads(EXPERIMENTS, seed=SEED, max_copies=MAX_COPIES),
            SupervisorConfig(
                workers=SHARDS,
                master_seed=SEED,
                campaign=f"e5-golden-n{EXPERIMENTS}",
                journal_path=args.artifacts / "e5.jsonl",
                batch_size=args.batch,
                batch_runner=_e5_batch_runner if args.batch else None,
            ),
            ShardConfig(lease_ttl_s=1.2, heartbeat_s=0.1, poll_s=0.03),
        )

    stats = result.statistics()
    frozen = {
        "experiments": EXPERIMENTS,
        "seed": SEED,
        "max_copies": MAX_COPIES,
        "outcome_counts": stats.outcome_counts(),
        "mechanism_counts": dict(sorted(stats.mechanism_counts().items())),
        "stable_view": metrics.stable_view(result.metrics_snapshot()),
    }
    (args.artifacts / "recovered.json").write_text(
        json.dumps(frozen, indent=2, sort_keys=True) + "\n"
    )

    health = format_harness_health(result.harness_metrics)
    print(f"harness health: {health or 'clean'}")
    print(
        f"completed {result.completed}/{result.planned} trials, "
        f"degraded={result.degraded}, elapsed {result.elapsed_s:.1f}s"
    )

    golden = json.loads(GOLDEN_PATH.read_text())
    failed = False
    counters = result.harness_metrics.get("counters", {})
    if (
        policy is not None
        and policy.any_events
        and not counters.get("harness.lease_takeovers")
    ):
        print("FAIL: chaos schedule produced no takeover — nothing was tested")
        failed = True
    if result.degraded or result.completed != EXPERIMENTS:
        print("FAIL: recovered campaign is incomplete or degraded")
        failed = True
    if (
        counters.get("harness.shard_handoffs", 0) != SHARDS
        or counters.get("harness.shard_journal_merges", 0)
    ):
        print(
            "FAIL: not every shard merged through its runner's handoff "
            f"(handoffs={counters.get('harness.shard_handoffs', 0)}, "
            f"journal merges={counters.get('harness.shard_journal_merges', 0)})"
        )
        failed = True
    if frozen != golden:
        print(
            "FAIL: recovered campaign diverged from the golden fixture "
            f"({GOLDEN_PATH}); see {args.artifacts / 'recovered.json'}"
        )
        failed = True
    if failed:
        return 1
    print("OK: recovery is bit-identical to the undisturbed serial campaign")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
