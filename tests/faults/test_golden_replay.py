"""Differential gate for golden-trace replay (``TemInjectionHarness.settle_or_run``).

A live transient flip is not simulated from the start: the trial replays
the golden copies before the fault's arrival, resumes the arrival copy
from the golden checkpoint at the arrival step, and goes back to golden
replies once the memory words and ECC error bits equal the golden ones
after the same copy.  That is only sound if the record, the metrics
stable view (counters and timer counts) and the (m,k) window it leaves
behind are exactly what :meth:`TemInjectionHarness.run_experiment` —
which simulates every fault from step 0 — gives.  This suite checks every
fault, dead or live, of the campaigns' own lists: E5 (the 2000-trial
seed-2005 list), the E11 TEM variants, the E12 workloads and the E14
``--fast`` lists with their windows.

The pinned cases name the boundaries a replay can get wrong: an arrival
at a copy's first and last step, a PC flip, an ECC-corrected code flip
whose correction happens in the next copy (so the error bits, not the
words, keep the copy on the CPU), and a copy that ends in an exception
and reconverges one copy later.
"""

import pytest

from repro.experiments.ablation_table import VARIANTS, ablation_faults
from repro.experiments.ablation_table import _cached_harness as ablation_harness
from repro.experiments.coverage_table import _cached_harness
from repro.experiments.weakly_hard import _mk_window, mk_fault_payloads
from repro.experiments.workload_table import _cached_harness as workload_harness
from repro.experiments.workload_table import workload_faults
from repro.cpu.programs import PROGRAMS
from repro.faults.campaign import _GoldenJob, _SteppedTem
from repro.faults.types import FaultTarget
from tests.faults.test_liveness import SEED, _captured, _e5_faults, _fault


def _mismatches(harness, faults, windows=None):
    """The faults whose replayed reply differs from the simulated one."""
    mismatched = []
    for index, fault in enumerate(faults):
        run_window = replay_window = None
        if windows is not None:
            run_window, replay_window = windows(index), windows(index)
        simulated = _captured(lambda: harness.run_experiment(fault, run_window))
        replayed = _captured(lambda: harness.settle_or_run(fault, replay_window))
        if run_window is not None:
            simulated += (run_window.state(), run_window.misses)
            replayed += (replay_window.state(), replay_window.misses)
        if replayed != simulated:
            mismatched.append((fault.describe(), simulated, replayed))
    return mismatched


class TestCampaignLists:
    def test_e5_full_list(self):
        assert _mismatches(_cached_harness(3), _e5_faults(2000)) == []

    @pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "no_tem"])
    def test_e11_tem_variants(self, variant):
        faults = ablation_faults(300, 424_242)
        assert _mismatches(ablation_harness(variant), faults) == []

    @pytest.mark.parametrize("index,name", enumerate(sorted(PROGRAMS)))
    def test_e12_workloads(self, index, name):
        faults = workload_faults(name, 200, 1999 + index)
        assert _mismatches(workload_harness(name), faults) == []

    @pytest.mark.parametrize("budget", [(0, 1), (1, 4)])
    def test_e14_fast_lists_with_windows(self, budget):
        payloads = mk_fault_payloads(
            150, seed=SEED, max_misses=budget[0], window_jobs=budget[1],
            prefill_miss_rate=0.35,
        )
        assert _mismatches(
            _cached_harness(3),
            [payload[4] for payload in payloads],
            windows=lambda index: _mk_window(payloads[index]),
        ) == []


def _replayed(harness, fault, monkeypatch):
    """*fault*'s replayed record, and the copies the replay ran on the CPU."""
    copy, simulated = [], []
    execute_copy, run_copy = _GoldenJob.execute_copy, _SteppedTem.run_copy

    def spy_execute(job, copy_index):
        copy.append(copy_index)
        return execute_copy(job, copy_index)

    def spy_run(stepper, steps_this_copy):
        simulated.append(copy[-1])
        return run_copy(stepper, steps_this_copy)

    monkeypatch.setattr(_GoldenJob, "execute_copy", spy_execute)
    monkeypatch.setattr(_SteppedTem, "run_copy", spy_run)
    record = harness.settle_or_run(fault)
    monkeypatch.undo()
    return record, simulated


class TestPinnedCases:
    """Each case: the replayed record equals the simulated one, and the
    copies run on the CPU are the ones the replay rule names."""

    @pytest.fixture(scope="class")
    def harness(self):
        return _cached_harness(3)

    def _check(self, harness, fault, monkeypatch, expected, simulated):
        record, ran = _replayed(harness, fault, monkeypatch)
        assert not harness.is_dead(fault)
        assert _captured(lambda: harness.settle_or_run(fault)) == _captured(
            lambda: harness.run_experiment(fault)
        )
        assert (
            record.outcome.value, record.detection_mechanisms, record.copies_run
        ) == expected
        assert ran == simulated

    def test_arrival_at_a_copy_start(self, harness, monkeypatch):
        """Copy 2's first step: copy 1 replays, copy 2 resumes after its
        own ``prepare``, traps, and already matches the golden memory."""
        fault = _fault("A0", 10, harness.golden_steps)
        self._check(
            harness, fault, monkeypatch, ("masked", ("address_error",), 3), [1]
        )

    def test_arrival_at_the_last_step_of_a_copy(self, harness, monkeypatch):
        """A PC flip on copy 1's HALT sends it into a loop that exhausts the
        copy budget without writing memory, so copy 2 replays.  Copy 3 is
        then refused by the deadline check, which must count copy 1's 118
        real steps, not the golden 34."""
        fault = _fault("PC", 2, harness.golden_steps - 1, FaultTarget.PC)
        self._check(
            harness, fault, monkeypatch, ("omission", ("execution_time",), 2), [0]
        )

    def test_pc_flip(self, harness, monkeypatch):
        fault = _fault("PC", 7, 32, FaultTarget.PC)
        self._check(
            harness, fault, monkeypatch, ("masked", ("address_error",), 3), [0, 1]
        )

    def test_ecc_corrected_code_flip(self, harness, monkeypatch):
        """The flipped code word is not fetched again in copy 1, so copy 1
        ends with golden words but a latent error bit; copy 2 fetches the
        word and ECC corrects it."""
        fault = next(
            f for f in _e5_faults(2000)
            if f.describe() == "transient mem[0xe] bit0 @step 31"
        )
        self._check(
            harness, fault, monkeypatch, ("no_effect", ("ecc_correct",), 2), [0, 1]
        )

    def test_exception_then_reconvergence_one_copy_later(self, harness, monkeypatch):
        """Copy 1 traps before it stores its outputs; copy 2 runs on the CPU
        and leaves the golden memory, so copy 3 replays."""
        fault = _fault("A0", 11, 27)
        self._check(
            harness, fault, monkeypatch, ("masked", ("address_error",), 3), [0, 1]
        )
