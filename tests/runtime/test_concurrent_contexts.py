"""Acceptance: two run contexts with different seeds, concurrently, no
cross-talk.

Two threads each activate their own :class:`repro.runtime.RunContext` —
with different root seeds — and run the same seeded E5 mini-campaign at
the same time.  Both must reproduce the committed golden fixture
(``tests/faults/golden_campaign_e5.json``) exactly: the campaign derives
its trial seeds from its own master seed, and context scoping means
neither thread's config, metrics or caches bleed into the other.  Every
single trial additionally asserts that ``runtime.current()`` is its own
thread's context, so a cross-talk bug cannot hide behind result identity.
"""

import json
import threading

from repro import runtime
from repro.harness import CampaignSupervisor, SupervisorConfig
from repro.obs import metrics as obs_metrics

from tests.faults.test_golden_campaign import (
    EXPERIMENTS,
    GOLDEN_PATH,
    MAX_COPIES,
    SEED,
    _e5_trial,
    _freeze,
    _payloads,
)

ROOT_SEEDS = (11, 23)


def test_concurrent_seeded_contexts_reproduce_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    payloads = _payloads()
    start_line = threading.Barrier(2, timeout=60)
    results = {}
    errors = {}
    context_mismatches = {}
    contexts = {
        root_seed: runtime.RunContext(runtime.RunConfig(root_seed=root_seed))
        for root_seed in ROOT_SEEDS
    }

    def run_campaign(root_seed):
        context = contexts[root_seed]
        mismatches = context_mismatches[root_seed] = []

        def checked_trial(payload, seed):
            if runtime.current() is not context:
                mismatches.append(seed)
            return _e5_trial(payload, seed)

        try:
            with runtime.activate(context):
                # Both campaigns genuinely overlap: neither starts its
                # trials before the other thread has activated its context.
                start_line.wait()
                with obs_metrics.capture() as captured:
                    run = CampaignSupervisor(
                        checked_trial,
                        SupervisorConfig(
                            master_seed=SEED,
                            campaign=f"e5-concurrent-{root_seed}",
                        ),
                    ).run(payloads)
                results[root_seed] = (_freeze(run), captured)
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            errors[root_seed] = exc

    threads = [
        threading.Thread(target=run_campaign, args=(root_seed,))
        for root_seed in ROOT_SEEDS
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
        assert not thread.is_alive(), "concurrent campaign did not finish"
    assert not errors, errors

    for root_seed in ROOT_SEEDS:
        frozen, captured = results[root_seed]
        # Every trial resolved exactly its own thread's context.
        assert context_mismatches[root_seed] == [], (
            f"root_seed={root_seed}: {len(context_mismatches[root_seed])} "
            "trials observed the other thread's run context"
        )
        # Fixture equality covers experiments/seed/outcomes/mechanisms and
        # the deterministic metrics view.
        assert {
            **frozen,
            "experiments": EXPERIMENTS,
            "seed": SEED,
            "max_copies": MAX_COPIES,
        } == frozen
        assert frozen == golden, f"root_seed={root_seed} diverged from the fixture"
        # Each thread captured its metrics in its own registry.
        assert not obs_metrics.snapshot_is_empty(captured.snapshot())
    first, second = ROOT_SEEDS
    assert results[first][1] is not results[second][1]
