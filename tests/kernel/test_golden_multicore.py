"""Golden-outcome regression gate for the E15 multicore DES.

``golden_multicore_e15.json`` freezes, for a seeded
:func:`~repro.experiments.multicore_tem.multicore_trials` list run under
all four (TEM mode x resource protocol) configurations:

* the per-config outcome counts;
* the summed ``events_executed``, migrations, lock contentions and
  omissions;
* a sha256 over the per-trial fingerprints — outcome, events executed,
  :class:`~repro.kernel.resources.ResourceStats` and
  :class:`~repro.kernel.scheduler.JobStats` of every trial.

Any change to the simulator's event order, the scheduler's dispatch or
boundary decisions, the resource protocols or the TEM machinery that
alters one simulated event of one trial fails this test.  Speed-ups of
the DES hot path must leave it untouched.

Regenerate (only when an intentional semantic change is made)::

    PYTHONPATH=src python tests/kernel/test_golden_multicore.py regen
"""

import dataclasses
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments.multicore_tem import multicore_trials, run_multicore_trial
from repro.harness.seeds import derive_seed
from repro.kernel.resources import ResourceProtocol
from repro.kernel.task import TemMode

TRIALS = 120
SEED = 2015
GOLDEN_PATH = Path(__file__).with_name("golden_multicore_e15.json")

CONFIGS = tuple(
    (mode, protocol)
    for mode in (TemMode.TEMPORAL, TemMode.SPATIAL)
    for protocol in (ResourceProtocol.LOCK, ResourceProtocol.LOCK_FREE)
)


def _fingerprint(outcome, scheduler):
    return json.dumps(
        [
            outcome,
            scheduler.sim.events_executed,
            dataclasses.asdict(scheduler.resources.stats),
            dataclasses.asdict(scheduler.stats),
        ],
        separators=(",", ":"),
    )


def _freeze_config(mode, protocol):
    outcomes = Counter()
    events = migrations = contentions = omissions = 0
    digest = hashlib.sha256()
    for index, trial in enumerate(multicore_trials(TRIALS, seed=SEED)):
        outcome, scheduler = run_multicore_trial(
            trial, mode, protocol, seed=derive_seed(SEED, index)
        )
        outcomes[outcome] += 1
        events += scheduler.sim.events_executed
        migrations += scheduler.stats.migrations
        contentions += scheduler.resources.stats.contentions
        omissions += scheduler.stats.omissions
        digest.update(_fingerprint(outcome, scheduler).encode())
        digest.update(b"\n")
    return {
        "outcome_counts": dict(sorted(outcomes.items())),
        "events_executed": events,
        "migrations": migrations,
        "lock_contentions": contentions,
        "omissions": omissions,
        "trial_fingerprints_sha256": digest.hexdigest(),
    }


def _key(mode, protocol):
    return f"{mode.value}/{protocol.value}"


def _freeze():
    return {
        "trials": TRIALS,
        "seed": SEED,
        "configs": {
            _key(mode, protocol): _freeze_config(mode, protocol)
            for mode, protocol in CONFIGS
        },
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize(
    "mode,protocol", CONFIGS, ids=[_key(m, p) for m, p in CONFIGS]
)
def test_config_reproduces_golden_fixture(golden, mode, protocol):
    assert golden["trials"] == TRIALS and golden["seed"] == SEED
    assert _freeze_config(mode, protocol) == golden["configs"][_key(mode, protocol)], (
        f"{_key(mode, protocol)} diverged from the committed golden fixture; "
        "if the change is an intentional semantic change, regenerate with "
        "`PYTHONPATH=src python tests/kernel/test_golden_multicore.py regen`"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["regen"]:
        sys.exit("usage: python tests/kernel/test_golden_multicore.py regen")
    GOLDEN_PATH.write_text(json.dumps(_freeze(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
