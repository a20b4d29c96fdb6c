"""Tests of the experiment drivers (E1-E8) and the ASCII renderer."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    compute_figure12,
    compute_figure13,
    compute_figure14,
    compute_mttf_table,
    compute_schedulability,
    run_coverage_campaign,
    run_mission_replica,
    run_simulation_study,
    run_tem_scenarios,
    series_rows,
    wheel_node_task_set,
)
from repro.experiments.asciiplot import render_chart, render_table
from repro.experiments.multicore_tem import run_multicore_experiment
from repro.experiments.simulation_study import compare_braking_under_faults
from repro.experiments.weakly_hard import run_weakly_hard_experiment
from repro.faults.outcomes import OutcomeClass
from repro.models import BbwParameters


class TestAsciiPlot:
    def test_chart_renders_markers_and_legend(self):
        text = render_chart({"a": [(0, 0), (1, 1)], "b": [(0, 1), (1, 0)]})
        assert "*" in text and "o" in text
        assert "a" in text and "b" in text

    def test_chart_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            render_chart({})
        with pytest.raises(ConfigurationError):
            render_chart({"a": []})

    def test_table_alignment_and_validation(self):
        text = render_table(["x", "value"], [(1, 0.5), (2, 0.25)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "0.5000" in text
        with pytest.raises(ConfigurationError):
            render_table(["a"], [(1, 2)])


class TestFigureDrivers:
    def test_figure12_series_rows_cover_grid(self):
        result = compute_figure12(points=6)
        rows = series_rows(result)
        assert len(rows) == 6
        assert rows[0][1:] == (1.0, 1.0, 1.0, 1.0)
        assert result.render()  # renders without error

    def test_figure13_contains_all_subsystems(self):
        result = compute_figure13(points=5)
        assert set(result.curves) == {
            "CU fs", "CU nlft",
            "WN fs/full", "WN fs/degraded", "WN nlft/full", "WN nlft/degraded",
        }
        assert result.render()

    def test_figure14_grid_complete(self):
        result = compute_figure14(rate_scales=(1.0, 10.0), coverages=(0.9, 0.99))
        assert len(result.reliability["fs"]) == 4
        assert len(result.series("nlft", 0.9)) == 2
        assert result.render()

    def test_mttf_table_renders_with_anchors(self):
        table = compute_mttf_table()
        text = table.render()
        assert "paper" in text
        assert "+5" in text or "+6" in text  # improvement percentages


class TestTemScenarios:
    def test_all_four_scenarios_match_figure3(self):
        results = run_tem_scenarios()
        assert results["i"].copies_run == 2
        assert results["i"].outcome == "ok"
        for scenario in ("ii", "iii", "iv"):
            assert results[scenario].copies_run == 3
            assert results[scenario].outcome == "masked"
            assert results[scenario].delivered


class TestSchedulability:
    def test_wheel_node_set_is_ft_schedulable(self):
        result = compute_schedulability()
        assert result.schedulable_plain
        assert result.schedulable_ft
        assert result.max_faults_tolerated >= 1
        assert result.tem_utilization > result.plain_utilization

    def test_ft_response_times_exceed_plain(self):
        result = compute_schedulability()
        for row in result.rows:
            if row.plain_response is not None and row.ft_response is not None:
                assert row.ft_response >= row.plain_response

    def test_task_set_has_critical_band_on_top(self):
        tasks = sorted(wheel_node_task_set(), key=lambda t: t.priority)
        critical_flags = [t.is_critical for t in tasks]
        # Once criticality drops it never comes back (criticality bands).
        assert critical_flags == sorted(critical_flags, reverse=True)

    def test_render(self):
        assert "utilization" in compute_schedulability().render()


class TestRtaReportNumbers:
    """The report figures response-time analysis derives, pinned exactly:
    any change to the analysis that moves one of them changes the
    reproduction's results."""

    def test_e7_response_times(self):
        result = compute_schedulability()
        assert [row.plain_response for row in result.rows] == [
            600, 1000, 1300, 3300, 6900,
        ]
        assert [row.ft_response for row in result.rows] == [
            1840, 2660, 3280, 6500, 9500,
        ]
        assert result.max_faults_tolerated == 6

    def test_e14_headroom(self):
        result = run_weakly_hard_experiment(experiments=12)
        assert (result.hard_headroom, result.mk_headroom) == (6, 7)

    def test_e15_schedulable_utilisation(self):
        result = run_multicore_experiment(trials=4)
        assert [
            (row.cores, row.placement, row.tem_mode, row.utilisation)
            for row in result.utilisation
        ] == [
            (1, "partitioned", "temporal", 0.44279998540878296),
            (1, "global", "temporal", 0.44279998540878296),
            (2, "partitioned", "temporal", 0.7980499267578125),
            (2, "global", "temporal", 0.7257999181747437),
            (2, "partitioned", "spatial", 1.0000499486923218),
            (4, "partitioned", "temporal", 1.328399896621704),
            (4, "global", "temporal", 1.0654997825622559),
            (4, "partitioned", "spatial", 2.0000498294830322),
        ]


class TestCoverageCampaign:
    @pytest.fixture(scope="class")
    def result(self):
        return run_coverage_campaign(experiments=600, seed=77)

    def test_every_table1_mechanism_fires(self, result):
        """With the full stack the *outermost* layer of each EDM class
        fires: the MMU (address checking) shadows the CPU decoder's
        illegal-opcode/bus-error checks, and ECC corrects single-bit code
        flips before they can decode badly — the ablation tests show the
        shadowed mechanisms taking over when the outer layer is removed."""
        mechanisms = result.stats.mechanism_counts()
        for expected in ("comparison", "address_error", "execution_time",
                         "ecc_correct", "kernel_check", "control_flow"):
            assert mechanisms.get(expected, 0) > 0, f"{expected} never fired"

    def test_paper_taxonomy_ordering(self, result):
        """Masked >> omission ~ fail-silent; coverage high."""
        stats = result.stats
        assert stats.p_tem is not None and stats.p_tem > 0.6
        assert stats.p_omission is not None and stats.p_omission < 0.2
        assert stats.p_fail_silent is not None and stats.p_fail_silent < 0.2
        assert stats.coverage is not None and stats.coverage > 0.95

    def test_omissions_occur_under_deadline_pressure(self, result):
        assert result.stats.count(OutcomeClass.OMISSION) > 0

    def test_render(self, result):
        text = result.render()
        assert "C_D" in text and "P_T" in text


class TestSimulationStudy:
    def test_single_replica_runs(self):
        outcome = run_mission_replica(
            "nlft", BbwParameters.paper(), mission_hours=1_000.0, seed=3
        )
        # 1000 h is short: most replicas survive both criteria.
        assert outcome.failed_degraded_at is None or outcome.failed_degraded_at >= 0

    def test_monte_carlo_agrees_with_markov_models(self):
        study = run_simulation_study(replicas=150, mission_hours=8_760.0, seed=21)
        for key, simulated in study.empirical.items():
            analytical = study.analytical[key]
            # Binomial 3-sigma bound at n = 150.
            sigma = (max(analytical * (1 - analytical), 0.002) / 150) ** 0.5
            assert abs(simulated - analytical) < 4 * sigma + 0.02, (
                f"{key}: simulated {simulated} vs analytical {analytical}"
            )

    def test_nlft_beats_fs_in_simulation(self):
        study = run_simulation_study(replicas=120, mission_hours=8_760.0, seed=5)
        assert study.empirical["nlft/degraded"] > study.empirical["fs/degraded"]
        assert study.render()


@pytest.mark.slow
class TestBrakingComparison:
    def test_nlft_retains_more_wheels_than_fs(self):
        comparison = compare_braking_under_faults(seed=13)
        fs = comparison.summaries["fs"]
        nlft = comparison.summaries["nlft"]
        assert nlft["masked_total"] > 0
        assert fs["fail_silent_total"] >= nlft["fail_silent_total"]
        assert nlft["stopped"] and fs["stopped"]
        assert comparison.render()
