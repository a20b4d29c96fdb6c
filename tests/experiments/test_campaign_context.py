"""The active run context reaches every campaign front-end.

None of the six campaign front-ends takes a timeout, progress, profile or
chaos keyword: the campaign supervisor and the shard coordinator read
them from ``runtime.current().config``.  Each front-end is called here at
a tiny size with no harness keyword at all, under an activated
:class:`repro.runtime.RunConfig`:

* ``profile=True`` (plus the collector the runner enables for
  ``--profile``) must record at least one hot trial;
* ``chaos="die:1"`` with ``workers=2`` must take at least one shard over
  and still return exactly the records of the serial run.
"""

import pytest

from repro import runtime
from repro.experiments.ablation_table import compute_ablation_table
from repro.experiments.coverage_table import run_coverage_campaign
from repro.experiments.simulation_study import run_simulation_study
from repro.experiments.weakly_hard import (
    run_mk_campaign,
    run_weakly_hard_experiment,
)
from repro.experiments.workload_table import compute_workload_table
from repro.obs import metrics
from repro.obs import profile as obs_profile


def _records(stats):
    return [record.to_json() for record in stats.records]


#: front-end name -> (call with ``workers``, the records of its result).
FRONT_ENDS = {
    "run_coverage_campaign": (
        lambda workers: run_coverage_campaign(experiments=24, workers=workers),
        lambda result: _records(result.stats),
    ),
    "compute_ablation_table": (
        lambda workers: compute_ablation_table(experiments=6, workers=workers),
        lambda result: {k: _records(v) for k, v in result.stats.items()},
    ),
    "compute_workload_table": (
        lambda workers: compute_workload_table(experiments=6, workers=workers),
        lambda result: {k: _records(v) for k, v in result.stats.items()},
    ),
    "run_mk_campaign": (
        lambda workers: run_mk_campaign(
            12, max_misses=1, window_jobs=4, workers=workers
        ),
        lambda result: _records(result[0]),
    ),
    "run_weakly_hard_experiment": (
        lambda workers: run_weakly_hard_experiment(
            experiments=12, workers=workers
        ),
        lambda result: [_records(result.hard_stats), _records(result.mk_stats)],
    ),
    "run_simulation_study": (
        lambda workers: run_simulation_study(replicas=4, workers=workers),
        lambda result: [result.empirical, result.completed],
    ),
}


def _activate(**fields):
    return runtime.activate(runtime.RunContext(runtime.RunConfig(**fields)))


@pytest.mark.parametrize("name", sorted(FRONT_ENDS))
def test_profile_reaches_the_campaign(name):
    call, _ = FRONT_ENDS[name]
    with _activate(profile=True), obs_profile.enabled() as collector:
        call(0)
    assert collector.hottest(), f"{name} recorded no hot trial"


@pytest.mark.parametrize("name", sorted(FRONT_ENDS))
def test_chaos_reaches_the_campaign(name):
    call, records = FRONT_ENDS[name]
    with _activate(chaos="die:1"), metrics.capture() as captured:
        chaotic = call(2)
    serial = call(0)
    counters = captured.snapshot().get("counters", {})
    assert counters.get("harness.lease_takeovers", 0) >= 1, name
    assert records(chaotic) == records(serial)
