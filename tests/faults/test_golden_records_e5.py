"""Per-record regression gate for the full-size E5 campaign.

``golden_records_e5.json`` freezes one short digest per experiment record
of the 2000-trial, seed-2005 E5 campaign (:func:`run_coverage_campaign`
with its defaults), in campaign order, kernel-hit records included.
``golden_campaign_e5.json`` holds only outcome counts and a metrics view
over 150 trials; this fixture pins every single record of the campaign
the report and the ledger run, so a change that alters one trial — or
trades two outcomes so the counts still match — fails here and prints
the first record that differs.

Both the scalar trial path and the lockstep batch path must reproduce
the fixture.

Regenerate (only when an intentional semantic change is made)::

    PYTHONPATH=src python tests/faults/test_golden_records_e5.py regen
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.experiments.coverage_table import BATCH_CHUNK, run_coverage_campaign
from repro.obs import metrics

GOLDEN_PATH = Path(__file__).with_name("golden_records_e5.json")
EXPERIMENTS = 2_000
SEED = 2005

MODES = {"scalar": 0, "batch": BATCH_CHUNK}


def _digest(record):
    text = json.dumps(record.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:10]


def _records(batch):
    with metrics.capture():
        result = run_coverage_campaign(experiments=EXPERIMENTS, seed=SEED, batch=batch)
    return result.stats.records


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("mode", sorted(MODES))
def test_records_reproduce_golden_fixture(golden, mode):
    assert (golden["experiments"], golden["seed"]) == (EXPERIMENTS, SEED)
    records = _records(MODES[mode])
    expected = golden["digests"]
    for index, (record, want) in enumerate(zip(records, expected)):
        assert _digest(record) == want, (
            f"{mode} E5 record {index} diverged from the committed golden "
            f"fixture: {record.to_json()}; if the change is an intentional "
            "semantic change, regenerate with `PYTHONPATH=src python "
            "tests/faults/test_golden_records_e5.py regen`"
        )
    assert len(records) == len(expected)


if __name__ == "__main__":
    if sys.argv[1:] != ["regen"]:
        sys.exit("usage: python tests/faults/test_golden_records_e5.py regen")
    frozen = {
        "experiments": EXPERIMENTS,
        "seed": SEED,
        "digests": [_digest(record) for record in _records(0)],
    }
    GOLDEN_PATH.write_text(json.dumps(frozen, indent=0) + "\n")
    print(f"wrote {GOLDEN_PATH}")
