"""Tests of the machine-level TEM injection harness."""

import numpy as np
import pytest

from repro.core.tem import TemOutcome
from repro.errors import ConfigurationError
from repro.faults import (
    Fault,
    FaultTarget,
    FaultType,
    OutcomeClass,
    TemInjectionHarness,
    TemWorkload,
    random_fault_list,
)
from tests.conftest import TINY_CHECKPOINTS


@pytest.fixture
def harness(machine_executable_factory) -> TemInjectionHarness:
    workload = TemWorkload(
        executable_factory=machine_executable_factory,
        inputs=(10, 4),
        signature_checkpoints=TINY_CHECKPOINTS,
        max_copies=4,
    )
    return TemInjectionHarness(workload)


def register_fault(register="D0", bit=5, at_step=2, fault_type=FaultType.TRANSIENT):
    target = {
        "PC": FaultTarget.PC, "SP": FaultTarget.SP,
    }.get(register, FaultTarget.DATA_REGISTER)
    return Fault(
        fault_type=fault_type, target=target, register=register, bit=bit,
        at_step=at_step,
    )


class TestHarnessBasics:
    def test_golden_run(self, harness):
        assert harness.golden == ((10 + 4) * 3,)
        assert harness.golden_steps > 0

    def test_faulty_workload_rejected(self):
        from repro.cpu.assembler import assemble
        from repro.cpu.machine import Machine
        from repro.kernel.task import MachineExecutable

        crashing = assemble("MOVEI D1, 0\nDIV D0, D0, D1\nHALT\n")

        def broken_factory():
            return MachineExecutable(Machine(), crashing, output_count=1)

        # The golden run must be clean; a program that traps is rejected.
        workload = TemWorkload(executable_factory=broken_factory)
        with pytest.raises(ConfigurationError):
            TemInjectionHarness(workload)


class TestSingleExperiments:
    def test_data_register_fault_is_masked(self, harness):
        # Corrupt D0 right after its LOAD in copy 1: wrong result, caught by
        # the comparison, masked by the third copy.
        record = harness.run_experiment(register_fault("D0", bit=9, at_step=2))
        assert record.outcome in (OutcomeClass.MASKED, OutcomeClass.NO_EFFECT)

    def test_pc_fault_triggers_edm_and_recovery(self, harness):
        record = harness.run_experiment(register_fault("PC", bit=13, at_step=3))
        assert record.outcome in (OutcomeClass.MASKED, OutcomeClass.NO_EFFECT)
        if record.outcome is OutcomeClass.MASKED:
            assert record.detection_mechanisms

    def test_fault_after_job_end_has_no_effect(self, harness):
        record = harness.run_experiment(register_fault("D0", at_step=10_000))
        assert record.outcome is OutcomeClass.NO_EFFECT

    def test_flag_bit_faults_do_not_produce_undetected_wrong(self, harness):
        # Sweep SR bits at several steps: everything must end masked,
        # omitted or without effect — never a silently wrong delivery.
        for step in range(0, harness.golden_steps):
            fault = Fault(
                fault_type=FaultType.TRANSIENT, target=FaultTarget.STATUS_REGISTER,
                register="SR", bit=1, at_step=step,
            )
            record = harness.run_experiment(fault)
            assert record.outcome is not OutcomeClass.UNDETECTED_WRONG


class TestPermanentFaults:
    def test_stuck_at_pc_causes_repeated_errors_and_suspicion(self, harness):
        """A stuck-at fault that derails control flow aborts every copy;
        the repeated detected errors trip the permanent-fault suspicion
        (Section 2.5: 'Errors that are repeated for some time are
        considered to be caused by permanent faults')."""
        fault = register_fault("PC", bit=13, at_step=1, fault_type=FaultType.PERMANENT)
        outcomes, tripped = harness.run_job_sequence(fault, jobs=12)
        assert tripped, "permanent fault must trip the suspicion heuristic"
        assert any(o is not TemOutcome.OK for o in outcomes)

    def test_correlated_stuck_at_data_fault_evades_comparison(self, harness):
        """TEM targets *transient* faults: a stuck-at bit that corrupts
        data identically in every copy produces matching (wrong) results
        that the comparison accepts.  This is the documented limitation
        that motivates the paper's hardware EDMs and the non-unity
        coverage C_D in the reliability models."""
        fault = register_fault("D0", bit=0, at_step=2, fault_type=FaultType.PERMANENT)
        record = harness.run_experiment(fault)
        assert record.outcome in (OutcomeClass.UNDETECTED_WRONG, OutcomeClass.NO_EFFECT)

    def test_clean_sequence_never_trips(self, harness):
        fault = register_fault("D0", at_step=10_000_000)  # never injected
        outcomes, tripped = harness.run_job_sequence(fault, jobs=10)
        assert not tripped
        assert all(o is TemOutcome.OK for o in outcomes)


class TestCampaignRun:
    def test_campaign_aggregates_and_is_deterministic(self, harness, tiny_program):
        rng = np.random.default_rng(99)
        faults = random_fault_list(
            rng, 120, max_step=harness.golden_steps * 2,
            code_range=(0, tiny_program.size), data_range=(0x1800, 0x1902),
        )
        stats = harness.run_campaign(faults)
        assert stats.total == 120
        assert stats.effective > 0
        assert stats.count(OutcomeClass.MASKED) > 0
        # Re-running the identical fault list reproduces every outcome.
        stats2 = harness.run_campaign(faults)
        assert stats.outcome_counts() == stats2.outcome_counts()

    def test_high_coverage_on_this_workload(self, harness, tiny_program):
        rng = np.random.default_rng(5)
        faults = random_fault_list(
            rng, 200, max_step=harness.golden_steps * 2,
            code_range=(0, tiny_program.size), data_range=(0x1800, 0x1902),
        )
        stats = harness.run_campaign(faults)
        assert stats.coverage is not None and stats.coverage > 0.9


class TestTemplateClones:
    def test_factory_runs_once_and_trials_leave_the_template_pristine(
        self, machine_executable_factory
    ):
        calls = []

        def factory():
            calls.append(1)
            return machine_executable_factory()

        harness = TemInjectionHarness(TemWorkload(
            executable_factory=factory, inputs=(10, 4), max_copies=4,
        ))
        template = harness.template.machine
        before = (template.memory.state_digest(), template.save_context(),
                  template.instruction_count, template.mmu.violations)
        harness.run_experiment(register_fault("PC", bit=13, at_step=3))
        harness.run_single_experiment(register_fault("D0", bit=9, at_step=2))
        harness.run_job_sequence(
            register_fault("D1", bit=0, at_step=1, fault_type=FaultType.PERMANENT),
            jobs=3,
        )
        assert len(calls) == 1
        assert (template.memory.state_digest(), template.save_context(),
                template.instruction_count, template.mmu.violations) == before
