"""``--chaos`` reaches every sharded campaign experiment.

E8a, E11 and E12 run one shard-runner campaign per node type, ablation
variant or workload.  Run at ``jobs=2`` with a ``die`` event inside their
trial range, each must take at least one shard over and still return
exactly the chaos-free serial result.
"""

import pytest

from repro import runtime
from repro.experiments import registry
from repro.obs import metrics

#: Smoke sizes times this: 15 E8a replicas, 75 E11 and 50 E12 trials.
SCALE = 0.25
CHAOS = "die:10"


def _run(exp_id, **overrides):
    config = runtime.RunConfig(smoke=True, scale=SCALE, **overrides)
    exp = registry.load_all().get(exp_id)
    context = runtime.RunContext(config)
    with runtime.activate(context), metrics.capture() as captured:
        result = exp.run(context)
    return exp.to_dict(result), captured.snapshot().get("counters", {})


@pytest.mark.parametrize(
    "exp_id", ["simulation_study", "ablation_table", "workload_table"]
)
def test_chaos_takes_shards_over_and_results_match_serial(exp_id):
    chaotic, counters = _run(exp_id, jobs=2, chaos=CHAOS)
    serial, _ = _run(exp_id)
    assert counters.get("harness.lease_takeovers", 0) >= 1
    assert chaotic == serial
