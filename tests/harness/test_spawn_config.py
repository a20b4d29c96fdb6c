"""Regression: shard runners activate the coordinator's run configuration.

A forked runner inherits the parent's module state wholesale, so an
activated run context would "just work" by accident of ``fork`` — and
would also leak the coordinator's parallel and interactive knobs into
every runner.  The coordinator therefore hands its effective
:class:`repro.runtime.RunConfig`, with ``jobs=0`` and ``progress=False``,
to each runner, which activates a matching context before touching a
trial.  The probes below see those stripped knobs, which fork
inheritance alone could not explain.
"""

import pytest

from repro import runtime
from repro.faults.outcomes import ExperimentRecord, OutcomeClass
from repro.harness import CampaignSupervisor, SupervisorConfig


def _config_probe_trial(payload, seed):
    """Record the run configuration the runner process actually resolves."""
    config = runtime.current().config
    return ExperimentRecord(
        OutcomeClass.NO_EFFECT,
        f"root_seed={config.root_seed} smoke={config.smoke} "
        f"jobs={config.jobs} progress={config.progress}",
    )


def _run_in_runners(workers=2, trials=6):
    result = CampaignSupervisor(
        _config_probe_trial,
        SupervisorConfig(
            workers=workers,
            master_seed=1,
            campaign="runner-config-probe",
        ),
    ).run(list(range(trials)))
    records = result.statistics().records
    assert len(records) == trials
    assert result.statistics().harness_failures == 0
    return {record.fault_description for record in records}


@pytest.mark.parametrize("smoke", [False, True])
def test_spawned_workers_inherit_context_mode(smoke):
    """Every shard runner runs with the coordinator's context config —
    also non-default values — minus the parallel/interactive knobs."""
    seed = 4711 + int(smoke)
    context = runtime.RunContext(runtime.RunConfig(
        root_seed=seed, smoke=smoke, jobs=2, progress=True,
    ))
    with runtime.activate(context):
        probes = _run_in_runners()
    assert probes == {f"root_seed={seed} smoke={smoke} jobs=0 progress=False"}


def test_spawned_workers_follow_transient_override():
    """A context activated only around the campaign — over an ambient one
    with different settings — is what the runners see."""
    outer = runtime.RunContext(runtime.RunConfig(root_seed=1))
    with runtime.activate(outer):
        with runtime.activate(runtime.RunContext(runtime.RunConfig(root_seed=99))):
            probes = _run_in_runners()
    assert probes == {"root_seed=99 smoke=False jobs=0 progress=False"}
