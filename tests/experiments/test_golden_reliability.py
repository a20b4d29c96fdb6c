"""Golden-value regression gate for the reliability figures (E1-E4).

``golden_reliability.json`` freezes the ``repr`` of every value that
Figures 12, 13 and 14 and the R(1 y)/MTTF table compute, so any change to
the CTMC solvers, the sweep solver or the BBW models that moves one of
them by a single ulp fails this test, which then prints the first value
that differs.  Two kinds of parameter set are pinned:

* ``paper``: the published parameters at each driver's default point
  counts;
* ``seed<k>``: seeded parameter sets drawn the way the ``reliability_sweep``
  ledger workload draws them, with 50-point Figure 12/13 grids and a
  6 x 8 (coverage x rate scale) Figure 14 grid.

Regenerate (only when an intentional numerical change is made)::

    PYTHONPATH=src python tests/experiments/test_golden_reliability.py regen
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import runtime
from repro.experiments import figure12, figure13, figure14, mttf_table
from repro.models import BbwParameters

GOLDEN_PATH = Path(__file__).with_name("golden_reliability.json")
SEEDS = (2101, 2102, 2103)
SEEDED_COVERAGES, SEEDED_SCALES, SEEDED_POINTS = 6, 8, 50


def _seeded_inputs(seed):
    """Base parameters and Figure 14 axes, drawn as the ledger draws them."""
    rng = np.random.default_rng(seed)
    params = (
        BbwParameters.paper()
        .with_coverage(float(rng.uniform(0.95, 0.999)))
        .with_transient_scale(float(10 ** rng.uniform(0.0, 0.5)))
    )
    coverages = sorted(float(c) for c in rng.uniform(0.9, 0.9999, SEEDED_COVERAGES))
    scales = sorted(float(10 ** s) for s in rng.uniform(0.0, 3.0, SEEDED_SCALES))
    return params, coverages, scales


def _study(name):
    """``(f12, f13, f14, table)`` of one named parameter set."""
    with runtime.activate(runtime.RunContext(runtime.RunConfig())):
        if name == "paper":
            return (
                figure12.compute_figure12(),
                figure13.compute_figure13(),
                figure14.compute_figure14(),
                mttf_table.compute_mttf_table(),
            )
        params, coverages, scales = _seeded_inputs(int(name[len("seed"):]))
        return (
            figure12.compute_figure12(params, points=SEEDED_POINTS),
            figure13.compute_figure13(params, points=SEEDED_POINTS),
            figure14.compute_figure14(params, rate_scales=scales, coverages=coverages),
            mttf_table.compute_mttf_table(params),
        )


def _values(name):
    """Every computed value of one study as ``[path, repr]`` pairs, in order."""
    f12, f13, f14, table = _study(name)
    pairs = []
    for figure, result in (("figure12", f12), ("figure13", f13)):
        pairs += [(f"{figure}.times_hours[{i}]", t) for i, t in enumerate(result.times_hours)]
        for key in sorted(result.curves):
            pairs += [
                (f"{figure}.curves[{key}][{i}]", v)
                for i, v in enumerate(result.curves[key])
            ]
        pairs += [
            (f"{figure}.r_one_year[{key}]", result.r_one_year[key])
            for key in sorted(result.r_one_year)
        ]
    pairs.append(("figure12.improvement_degraded", f12.improvement_degraded))
    for node_type in sorted(f14.reliability):
        pairs += [
            (f"figure14.reliability[{node_type}][{point}]", value)
            for point, value in sorted(f14.reliability[node_type].items())
        ]
    for key in sorted(table.r_one_year):
        label = "/".join(key)
        pairs.append((f"mttf_table.r_one_year[{label}]", table.r_one_year[key]))
        pairs.append((f"mttf_table.mttf_years[{label}]", table.mttf_years[key]))
        pairs += [
            (f"mttf_table.subsystem_mttf_years[{label}][{sub}]", years)
            for sub, years in sorted(table.subsystem_mttf_years[key].items())
        ]
    return [[path, repr(value)] for path, value in pairs]


SETS = ("paper", *(f"seed{seed}" for seed in SEEDS))


def _freeze():
    return {name: _values(name) for name in SETS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", SETS)
def test_reliability_values_reproduce_golden_fixture(golden, name):
    expected = golden[name]
    got = _values(name)
    for (path, value), (want_path, want) in zip(got, expected):
        assert (path, value) == (want_path, want), (
            f"{name}: {path} = {value} differs from the committed golden "
            f"fixture ({want_path} = {want}); if the change is an intentional "
            "numerical change, regenerate with `PYTHONPATH=src python "
            "tests/experiments/test_golden_reliability.py regen`"
        )
    assert len(got) == len(expected), name


if __name__ == "__main__":
    if sys.argv[1:] != ["regen"]:
        sys.exit("usage: python tests/experiments/test_golden_reliability.py regen")
    # One ``[path, repr]`` pair per line, so a diff of the fixture reads
    # value by value.
    sections = [
        json.dumps(name) + ": [\n" + ",\n".join(json.dumps(pair) for pair in pairs) + "\n]"
        for name, pairs in _freeze().items()
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(sections) + "\n}\n")
    print(f"wrote {GOLDEN_PATH}")
