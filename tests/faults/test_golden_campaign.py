"""Golden-outcome regression gate for the E5 campaign pipeline.

``golden_campaign_e5.json`` freezes the per-outcome counts, the EDM
mechanism histogram and the deterministic observability view
(:func:`repro.obs.metrics.stable_view`) of a small seeded E5 campaign.
Any change to the interpreter, the TEM stepper, the fault generators or
the campaign supervisor that alters a single outcome — on any execution
mode — fails this test.

All four execution modes must reproduce the fixture *exactly*: the
serial in-process path, two shard runners (``--jobs 2``), the lockstep
batch engine (``--batch 16``) and two batching shard runners
(``--jobs 2 --batch 16``).  The per-record JSON streams must additionally
be identical across the modes themselves.

Regenerate (only when an intentional semantic change is made)::

    PYTHONPATH=src python tests/faults/test_golden_campaign.py regen
"""

import json
import sys
from pathlib import Path

import pytest

from repro.experiments.coverage_table import (
    _e5_batch_runner,
    _e5_trial,
    e5_fault_payloads,
)
from repro.harness import CampaignSupervisor, SupervisorConfig
from repro.obs import metrics

EXPERIMENTS = 150
SEED = 2005
MAX_COPIES = 3
GOLDEN_PATH = Path(__file__).with_name("golden_campaign_e5.json")

_BATCH16 = dict(batch_size=16, batch_runner=_e5_batch_runner)

MODES = {
    "serial": dict(workers=0),
    "jobs2": dict(workers=2),
    "batched": dict(workers=0, **_BATCH16),
    "jobs2-batched": dict(workers=2, **_BATCH16),
}


def _payloads():
    # The single shared payload source: the chaos-equivalence suite and
    # tools/chaos_smoke.py freeze the same fixture from the same helper.
    return e5_fault_payloads(EXPERIMENTS, seed=SEED, max_copies=MAX_COPIES)


def _run(payloads, **mode):
    with metrics.capture():
        return CampaignSupervisor(
            _e5_trial,
            SupervisorConfig(
                master_seed=SEED,
                campaign=f"e5-golden-n{EXPERIMENTS}",
                **mode,
            ),
        ).run(payloads)


def _freeze(result):
    """The JSON-stable projection of one campaign run."""
    stats = result.statistics()
    return {
        "experiments": EXPERIMENTS,
        "seed": SEED,
        "max_copies": MAX_COPIES,
        "outcome_counts": stats.outcome_counts(),
        "mechanism_counts": dict(sorted(stats.mechanism_counts().items())),
        "stable_view": metrics.stable_view(result.metrics_snapshot()),
    }


@pytest.fixture(scope="module")
def payloads():
    return _payloads()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def runs(payloads):
    return {name: _run(payloads, **mode) for name, mode in MODES.items()}


@pytest.mark.parametrize("name", sorted(MODES))
def test_mode_reproduces_golden_fixture(runs, golden, name):
    frozen = _freeze(runs[name])
    assert frozen == golden, (
        f"{name} run diverged from the committed golden fixture; if the "
        "change is an intentional semantic change, regenerate with "
        "`PYTHONPATH=src python tests/faults/test_golden_campaign.py regen`"
    )


def test_record_streams_identical_across_modes(runs):
    serial = [r.to_json() for r in runs["serial"].statistics().records]
    for name in ("jobs2", "batched", "jobs2-batched"):
        assert [r.to_json() for r in runs[name].statistics().records] == serial, name


def test_no_harness_failures(runs):
    for name, result in runs.items():
        assert result.statistics().harness_failures == 0, name
        assert result.completed == EXPERIMENTS, name


if __name__ == "__main__":
    if sys.argv[1:] != ["regen"]:
        sys.exit("usage: python tests/faults/test_golden_campaign.py regen")
    frozen = _freeze(_run(_payloads(), **MODES["serial"]))
    GOLDEN_PATH.write_text(json.dumps(frozen, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
