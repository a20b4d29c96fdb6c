"""Soundness differential for pre-injection liveness (``faults.liveness``).

A fault :meth:`TemInjectionHarness.is_dead` calls dead is settled without
the CPU (:meth:`TemInjectionHarness.settle`).  That is only sound if the
settled record, the metrics it records and the (m,k) window it leaves
behind are exactly what :meth:`TemInjectionHarness.run_experiment` — which
still simulates every fault — gives for the same fault.  This suite checks
that for every dead fault of the campaigns' own fault lists: E5 (the
2000-trial list and the ``--fast`` one), the E11 TEM variants, the E12
workloads, the E14 ``--fast`` lists with their windows, and the workloads
that move the TEM gates (copy cap, deadline check, signature check, MMU),
among them ``copy2_refused``, whose fault-free job is one copy and an
omission rather than two golden copies.

The copy-start cases are pinned: a fault arriving at a copy's first step
is injected after that copy's ``prepare``, so ``prepare``'s writes must
not kill it.
"""

import pytest

from repro.experiments.ablation_table import VARIANTS, ablation_faults
from repro.experiments.ablation_table import _cached_harness as ablation_harness
from repro.experiments.coverage_table import (
    _cached_harness,
    _tem_batch_replies,
    e5_fault_payloads,
)
from repro.experiments.weakly_hard import _mk_window, mk_fault_payloads
from repro.experiments.workload_table import _cached_harness as workload_harness
from repro.experiments.workload_table import workload_faults
from repro.cpu.programs import PROGRAMS
from repro.faults.campaign import TemInjectionHarness
from repro.faults.types import Fault, FaultTarget, FaultType
from repro.obs import metrics as obs_metrics
from tests.faults.test_batch_campaign import _VARIANTS as GATE_VARIANTS

SEED = 2005


def _captured(run):
    with obs_metrics.capture() as registry:
        record = run()
    return record.to_json(), obs_metrics.stable_view(registry.snapshot())


def _check(harness, faults, windows=None):
    """The dead faults whose settled reply differs from the simulated one,
    and how many faults were dead."""
    unsound, dead = [], 0
    for index, fault in enumerate(faults):
        if not harness.is_dead(fault):
            continue
        dead += 1
        run_window = settle_window = None
        if windows is not None:
            run_window, settle_window = windows(index), windows(index)
        simulated = _captured(lambda: harness.run_experiment(fault, run_window))
        settled = _captured(lambda: harness.settle(fault, settle_window))
        if windows is not None and run_window is not None:
            simulated += (run_window.state(), run_window.misses)
            settled += (settle_window.state(), settle_window.misses)
        if settled != simulated:
            unsound.append((fault.describe(), simulated, settled))
    return unsound, dead


def _e5_faults(experiments):
    return [fault for _, fault in e5_fault_payloads(experiments, seed=SEED)]


class TestCampaignLists:
    def test_e5_fast_list(self):
        unsound, dead = _check(_cached_harness(3), _e5_faults(300))
        assert unsound == []
        assert dead > 150

    def test_e5_full_list(self):
        """The 2000-trial seed-2005 list: 1396 dead faults, none unsound."""
        unsound, dead = _check(_cached_harness(3), _e5_faults(2000))
        assert unsound == []
        assert dead == 1396

    @pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "no_tem"])
    def test_e11_tem_variants(self, variant):
        unsound, dead = _check(ablation_harness(variant), ablation_faults(300, 424_242))
        assert unsound == []
        assert dead > 0

    @pytest.mark.parametrize("index,name", enumerate(sorted(PROGRAMS)))
    def test_e12_workloads(self, index, name):
        faults = workload_faults(name, 200, 1999 + index)
        unsound, dead = _check(workload_harness(name), faults)
        assert unsound == []
        assert dead > 0

    @pytest.mark.parametrize("budget", [(0, 1), (1, 4)])
    def test_e14_fast_lists_with_windows(self, budget):
        payloads = mk_fault_payloads(
            150, seed=SEED, max_misses=budget[0], window_jobs=budget[1],
            prefill_miss_rate=0.35,
        )
        unsound, dead = _check(
            _cached_harness(3),
            [payload[4] for payload in payloads],
            windows=lambda index: _mk_window(payloads[index]),
        )
        assert unsound == []
        assert dead > 0

    @pytest.mark.parametrize("variant", sorted(GATE_VARIANTS))
    def test_tem_gate_variants(self, variant):
        harness = TemInjectionHarness(GATE_VARIANTS[variant]())
        unsound, dead = _check(harness, _e5_faults(300))
        assert unsound == []
        assert dead > 0

    def test_copy2_refused_settles_to_an_omission(self):
        """The fault-free job here is copy 1 and a refused copy 2: a dead
        fault settles to that omission, not to two golden copies, although
        the golden trace holds every copy a faulty job may run."""
        harness = TemInjectionHarness(GATE_VARIANTS["copy2_refused"]())
        assert len(harness.golden_copies) == harness.workload.max_copies > 1
        fault = next(f for f in _e5_faults(300) if harness.is_dead(f))
        record = harness.settle(fault)
        assert (record.outcome.value, record.copies_run) == ("omission", 1)


class TestBatchReplies:
    def test_settled_items_match_the_simulated_batch(self):
        """``_tem_batch_replies`` settles dead items before it builds the
        lockstep executor; its replies equal the scalar path's."""
        faults = _e5_faults(300)
        harness = _cached_harness(3)
        replies = _tem_batch_replies([(3, fault, None) for fault in faults])
        expected = [_captured(lambda: harness.run_experiment(f)) for f in faults]
        assert [
            (record.to_json(), obs_metrics.stable_view(snap))
            for record, snap in replies
        ] == expected


def _fault(register, bit, step, target=None):
    if target is None:
        target = (
            FaultTarget.ADDRESS_REGISTER if register.startswith("A")
            else FaultTarget.DATA_REGISTER
        )
    return Fault(FaultType.TRANSIENT, target, register=register, bit=bit, at_step=step)


class TestCopyStarts:
    @pytest.fixture(scope="class")
    def harness(self):
        return _cached_harness(3)

    def test_a0_flip_at_step_zero_is_live(self, harness):
        """From the seed-2005 list: copy 1's ``prepare`` writes A0 before
        the flip arrives, so the flip reaches the first LOAD."""
        fault = next(
            f for f in _e5_faults(2000)
            if f.describe() == "transient A0 bit10 @step 0"
        )
        assert not harness.is_dead(fault)
        record = harness.run_experiment(fault)
        assert (
            record.outcome.value, record.detection_mechanisms, record.copies_run
        ) == ("masked", ("address_error",), 3)

    def test_a0_flip_at_copy_two_start_is_live(self, harness):
        assert not harness.is_dead(_fault("A0", 10, harness.golden_steps))

    def test_a0_flip_before_copy_two_is_dead(self, harness):
        """The last step of copy 1 (HALT): copy 2's ``prepare`` resets A0
        before anything reads it."""
        fault = _fault("A0", 10, harness.golden_steps - 1)
        assert harness.is_dead(fault)
        assert _captured(lambda: harness.settle(fault)) == _captured(
            lambda: harness.run_experiment(fault)
        )

    @pytest.mark.parametrize("step", ["zero", "copy_two"])
    def test_pc_flips_at_copy_starts_are_live(self, harness, step):
        at = 0 if step == "zero" else harness.golden_steps
        assert not harness.is_dead(_fault("PC", 3, at, FaultTarget.PC))

    def test_flip_after_the_job_is_dead(self, harness):
        """Copy 2 ends at step 2 * golden_steps; a later arrival never
        lands, whatever it targets (bar PC)."""
        assert harness.is_dead(_fault("D0", 0, 2 * harness.golden_steps))

    def test_permanent_faults_are_live(self, harness):
        fault = Fault(
            FaultType.PERMANENT, FaultTarget.SP, register="SP",
            at_step=2 * harness.golden_steps,
        )
        assert not harness.is_dead(fault)
