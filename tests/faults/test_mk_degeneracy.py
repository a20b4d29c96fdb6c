"""Hard-deadline degeneracy gate for the weakly-hard recovery policy.

ISSUE 8, satellite 1: the (m,k) = (0,1) constraint is the hard-deadline
case — a zero miss budget must leave every byte of the classic TEM
pipeline untouched.  This suite proves it differentially: the weakly-hard
trial path (:func:`repro.experiments.weakly_hard._mk_trial` /
``_mk_batch_runner``) run with a zero budget must reproduce
``golden_campaign_e5.json`` — the frozen outcome counts, mechanism
histogram and deterministic metrics view of the classic E5 campaign —
**exactly**, under every execution schedule: serial, two lease-owned
shard runners (``--jobs 2``), the vectorised lockstep engine
(``batch_size=16``) and shard runners with a journal of their own.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.weakly_hard import (
    _mk_batch_runner,
    _mk_trial,
    mk_fault_payloads,
)
from repro.harness import CampaignSupervisor, SupervisorConfig
from repro.obs import metrics

EXPERIMENTS = 150
SEED = 2005
MAX_COPIES = 3
GOLDEN_PATH = Path(__file__).with_name("golden_campaign_e5.json")

#: The journal-less schedules; the journaled sharded run is below.
MODES = {
    "serial": dict(workers=0),
    "jobs2": dict(workers=2),
    "batch16": dict(workers=0, batch_size=16, batch_runner=_mk_batch_runner),
}


def _payloads():
    # Zero miss budget: identical faults to e5_fault_payloads (same seed),
    # empty window prefixes, no extra random draws.
    return mk_fault_payloads(
        EXPERIMENTS,
        seed=SEED,
        max_copies=MAX_COPIES,
        max_misses=0,
        window_jobs=1,
    )


def _freeze(result):
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
    out = {}
    for name, mode in MODES.items():
        with metrics.capture():
            out[name] = CampaignSupervisor(
                _mk_trial,
                SupervisorConfig(
                    master_seed=SEED,
                    campaign=f"e5-golden-n{EXPERIMENTS}",
                    **mode,
                ),
            ).run(payloads)
    return out


def test_payloads_carry_the_e5_fault_stream(payloads):
    from repro.experiments.coverage_table import e5_fault_payloads

    e5 = e5_fault_payloads(EXPERIMENTS, seed=SEED, max_copies=MAX_COPIES)
    assert [(p[0], p[4]) for p in payloads] == e5
    assert all(p[1] == 0 and p[2] == 1 and p[3] == () for p in payloads)


@pytest.mark.parametrize("name", sorted(MODES))
def test_zero_budget_reproduces_golden_fixture(runs, golden, name):
    frozen = _freeze(runs[name])
    assert frozen == golden, (
        f"{name}: the (0,1) weakly-hard path diverged from the classic "
        "hard-deadline golden fixture — the zero-budget degeneracy is "
        "broken"
    )


def test_record_streams_identical_across_modes(runs):
    serial = [r.to_json() for r in runs["serial"].statistics().records]
    for name in ("jobs2", "batch16"):
        assert [r.to_json() for r in runs[name].statistics().records] == serial, name


def test_sharded_zero_budget_reproduces_golden_fixture(
    tmp_path, payloads, golden, runs
):
    with metrics.capture():
        result = CampaignSupervisor(
            _mk_trial,
            SupervisorConfig(
                workers=2,
                master_seed=SEED,
                campaign=f"e5-golden-n{EXPERIMENTS}",
                journal_path=tmp_path / "e14-degeneracy.jsonl",
            ),
        ).run(payloads)
    assert _freeze(result) == golden
    serial = [r.to_json() for r in runs["serial"].statistics().records]
    assert [r.to_json() for r in result.statistics().records] == serial


def test_no_mk_metrics_leak_at_zero_budget(runs):
    # The weakly-hard counter must never fire on the degenerate path —
    # its very presence in the stable view would break the fixture.
    for name, result in runs.items():
        counters = metrics.stable_view(result.metrics_snapshot())["counters"]
        assert "tem.mk_accepted_misses" not in counters, name
