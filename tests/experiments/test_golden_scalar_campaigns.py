"""Golden-record regression gate for the scalar-only campaigns E11 and E12.

``golden_scalar_campaigns.json`` freezes, for every E11 ablation variant
and every E12 library workload of a ``--fast`` run (the registry's smoke
sizes and default seeds), one short digest per experiment record in
campaign order.  These campaigns never batch, and they cover what the E5
golden fixture does not: ECC-off, MMU-off and no-CFC machines, the
single-execution (``no_tem``) path and two more programs.  Any change to
the scalar interpreter, the trial machines or the TEM stepper that alters
one record of one trial fails this test, which then prints the first
record that differs.

Regenerate (only when an intentional semantic change is made)::

    PYTHONPATH=src python tests/experiments/test_golden_scalar_campaigns.py regen
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import runtime
from repro.experiments import registry

GOLDEN_PATH = Path(__file__).with_name("golden_scalar_campaigns.json")
EXPERIMENTS = ("ablation_table", "workload_table")


def _digest(record):
    text = json.dumps(record.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:10]


def _run(experiment_id):
    """Every variant's records of one ``--fast`` run, in campaign order."""
    context = runtime.RunContext(runtime.RunConfig(smoke=True))
    with runtime.activate(context):
        result = registry.load_all().get(experiment_id).run(context)
    return {
        variant: stats.records for variant, stats in sorted(result.stats.items())
    }


def _freeze():
    return {
        experiment_id: {
            variant: [_digest(record) for record in records]
            for variant, records in _run(experiment_id).items()
        }
        for experiment_id in EXPERIMENTS
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("experiment_id", EXPERIMENTS)
def test_fast_records_reproduce_golden_fixture(golden, experiment_id):
    expected = golden[experiment_id]
    runs = _run(experiment_id)
    assert sorted(runs) == sorted(expected)
    for variant, records in runs.items():
        digests = [_digest(record) for record in records]
        assert len(digests) == len(expected[variant]), variant
        for index, (got, want) in enumerate(zip(digests, expected[variant])):
            assert got == want, (
                f"{experiment_id}/{variant} record {index} diverged from the "
                f"committed golden fixture: {records[index].to_json()}; if the "
                "change is an intentional semantic change, regenerate with "
                "`PYTHONPATH=src python "
                "tests/experiments/test_golden_scalar_campaigns.py regen`"
            )


if __name__ == "__main__":
    if sys.argv[1:] != ["regen"]:
        sys.exit("usage: python tests/experiments/test_golden_scalar_campaigns.py regen")
    GOLDEN_PATH.write_text(json.dumps(_freeze(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
