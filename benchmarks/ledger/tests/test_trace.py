import importlib

import pytest

from ledger import trace


def _spans(*rows):
    spans = trace.Spans()
    for name, start, end, parent, *rest in rows:
        spans.add(name, start, end, parent, *rest)
    return spans


def test_covered_merges_overlaps_and_clips():
    assert trace.covered([], 0.0, 10.0) == 0.0
    assert trace.covered([(1, 4), (3, 6)], 0, 10) == 5
    assert trace.covered([(1, 2), (1, 2), (5, 7)], 0, 10) == 3
    assert trace.covered([(-5, 2), (8, 20)], 0, 10) == 4
    assert trace.covered([(11, 12)], 0, 10) == 0


def test_self_time_is_duration_minus_child_coverage():
    spans = _spans(
        ("experiments.root", 0.0, 10.0, -1),
        ("cpu.a", 1.0, 4.0, 0),
        ("cpu.b", 3.0, 6.0, 0),     # overlaps a: counted once
        ("core.c", 2.0, 3.0, 1),    # grandchild: only a loses it
        ("sim.d", 9.0, 12.0, 0),    # spills past its parent: clipped
    )
    assert trace.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_ledger_averages_per_traced_rep_and_measures_coverage():
    spans = _spans(
        ("experiments.run_multicore_trial", 0.0, 1.0, -1, 0),
        ("sim.Simulator.run", 0.1, 0.9, 0, 0),
        ("experiments.run_multicore_trial", 2.0, 3.0, -1, 1),
        ("sim.Simulator.run", 2.2, 3.0, 2, 1),
    )
    reps = [
        {"rep": r, "ops": 4, "wall_s": 1.0, "cpu_self_s": 1.0, "cpu_children_s": 0.0,
         "counts": {"sim.events": 10}}
        for r in (0, 1)
    ]
    fast = [dict(rep, wall_s=0.5) for rep in reps]
    ledger = trace.Ledger(spans, {0: (0.0, 1.0), 1: (2.0, 3.0)}, reps, fast)
    metrics = trace.layer_metrics(ledger)
    assert metrics["sim.run_self_ms"]["value"] == pytest.approx(800.0)
    assert metrics["experiments.self_ms"]["value"] == pytest.approx(200.0)
    assert metrics["sim.events_per_op"]["value"] == pytest.approx(2.5)
    assert metrics["layer_coverage"]["value"] == pytest.approx(0.8)
    assert metrics["trace_overhead"]["value"] == pytest.approx(1.0)
    assert metrics["cpu.run_self_ms"]["value"] == 0.0


def test_every_traced_span_has_exactly_one_time_metric():
    owners = {}
    for metric in trace.PER_LAYER:
        for span in metric.spans:
            assert span not in owners, f"{span} in {owners.get(span)} and {metric.name}"
            owners[span] = metric.name
    assert set(owners) == {target.span for target in trace.TARGETS}
    for metric in trace.PER_LAYER:
        if metric.spans:
            assert metric.unit == "ms" and metric.name.split(".")[0] in {
                span.split(".")[0] for span in metric.spans
            }


def test_tracer_wraps_and_restores_real_targets():
    from repro.experiments import multicore_tem
    from repro.kernel.resources import ResourceProtocol
    from repro.kernel.task import TemMode
    from repro.sim.simulator import Simulator

    originals = {
        (t.sites[0], t.path): _lookup(t.sites[0], t.path) for t in trace.TARGETS
    }
    trial = multicore_tem.multicore_trials(1, 5)[0]
    tracer = trace.Tracer()
    tracer.install(rep=3)
    try:
        assert Simulator.run is not originals[("repro.sim.simulator", ("Simulator", "run"))]
        outcome, _ = multicore_tem.run_multicore_trial(
            trial, TemMode.SPATIAL, ResourceProtocol.LOCK, seed=1
        )
    finally:
        tracer.uninstall()
    for (site, path), original in originals.items():
        assert _lookup(site, path) is original
    spans = tracer.spans
    names = set(spans.names)
    assert {"experiments.run_multicore_trial", "sim.Simulator.run",
            "kernel.Scheduler.add_task"} <= names
    assert set(spans.reps) == {3}
    for index, parent in enumerate(spans.parents):
        assert spans.starts[index] <= spans.ends[index]
        if parent >= 0:
            assert spans.starts[parent] <= spans.starts[index]
            assert spans.ends[index] <= spans.ends[parent]
    # Untraced again: the same call records nothing more.
    before = len(spans)
    assert multicore_tem.run_multicore_trial(
        trial, TemMode.SPATIAL, ResourceProtocol.LOCK, seed=1
    )[0] == outcome
    assert len(spans) == before


def _lookup(site, path):
    owner = importlib.import_module(site)
    for attr in path[:-1]:
        owner = getattr(owner, attr)
    return vars(owner)[path[-1]]
