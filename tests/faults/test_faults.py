"""Tests of fault types, generators, injectors and outcome statistics."""

import numpy as np
import pytest

from repro.cpu.machine import Machine
from repro.errors import ConfigurationError
from repro.faults import (
    CampaignStatistics,
    ExperimentRecord,
    Fault,
    FaultTarget,
    FaultType,
    MachineFaultInjector,
    OutcomeClass,
    PoissonInjector,
    memory_scan,
    random_fault,
    random_fault_list,
    register_scan,
    wilson_interval,
)
from repro.sim import Simulator
from repro.units import US_PER_SECOND


class TestFaultRecords:
    def test_register_target_requires_register(self):
        with pytest.raises(ConfigurationError):
            Fault(fault_type=FaultType.TRANSIENT, target=FaultTarget.PC)

    def test_memory_target_requires_address(self):
        with pytest.raises(ConfigurationError):
            Fault(fault_type=FaultType.TRANSIENT, target=FaultTarget.DATA_MEMORY)

    def test_bit_range_checked(self):
        with pytest.raises(ConfigurationError):
            Fault(
                fault_type=FaultType.TRANSIENT, target=FaultTarget.PC,
                register="PC", bit=40,
            )

    def test_describe_is_compact(self):
        fault = Fault(
            fault_type=FaultType.TRANSIENT, target=FaultTarget.DATA_REGISTER,
            register="D3", bit=7, at_step=12,
        )
        assert "D3" in fault.describe() and "bit7" in fault.describe()


class TestGenerators:
    def test_random_faults_are_well_formed(self):
        rng = np.random.default_rng(0)
        faults = random_fault_list(rng, 200, max_step=50, code_range=(0, 20),
                                   data_range=(100, 200))
        assert len(faults) == 200
        for fault in faults:
            assert 0 <= fault.at_step < 50
            if fault.address is not None:
                assert 0 <= fault.address < 200

    def test_random_faults_cover_target_classes(self):
        rng = np.random.default_rng(1)
        faults = random_fault_list(rng, 500, max_step=10, code_range=(0, 20),
                                   data_range=(100, 200))
        targets = {fault.target for fault in faults}
        assert FaultTarget.DATA_REGISTER in targets
        assert FaultTarget.PC in targets
        assert FaultTarget.DATA_MEMORY in targets

    def test_random_fault_deterministic_per_seed(self):
        a = random_fault(np.random.default_rng(7), 10, (0, 5), (10, 20))
        b = random_fault(np.random.default_rng(7), 10, (0, 5), (10, 20))
        assert a == b

    def test_register_scan_cross_product(self):
        faults = list(register_scan(["D0", "PC"], bits=[0, 1], steps=[5]))
        assert len(faults) == 4
        assert {f.target for f in faults} == {FaultTarget.DATA_REGISTER, FaultTarget.PC}

    def test_memory_scan_classifies_code_vs_data(self):
        faults = list(memory_scan([1, 100], bits=[0], steps=[0], code_limit=50))
        assert faults[0].target is FaultTarget.CODE_MEMORY
        assert faults[1].target is FaultTarget.DATA_MEMORY


class TestMachineFaultInjector:
    def test_register_flip_applied(self):
        machine = Machine()
        injector = MachineFaultInjector(machine)
        injector.apply(Fault(
            fault_type=FaultType.TRANSIENT, target=FaultTarget.DATA_REGISTER,
            register="D2", bit=4,
        ))
        assert machine.registers["D2"] == 16

    def test_memory_flip_applied(self):
        machine = Machine()
        injector = MachineFaultInjector(machine)
        injector.apply(Fault(
            fault_type=FaultType.TRANSIENT, target=FaultTarget.DATA_MEMORY,
            address=0x1800, bit=0,
        ))
        assert machine.memory.peek(0x1800) == 1

    def test_permanent_fault_reasserted(self):
        machine = Machine()
        injector = MachineFaultInjector(machine)
        injector.apply(Fault(
            fault_type=FaultType.PERMANENT, target=FaultTarget.DATA_REGISTER,
            register="D0", bit=3, stuck_value=1,
        ))
        machine.registers["D0"] = 0  # software overwrites the register
        injector.reassert_permanent()
        assert machine.registers["D0"] == 8  # stuck-at-1 wins
        assert injector.has_permanent

    def test_abstract_target_rejected(self):
        injector = MachineFaultInjector(Machine())
        with pytest.raises(ConfigurationError):
            injector.apply(Fault(fault_type=FaultType.TRANSIENT, target=FaultTarget.KERNEL))

    def test_clear(self):
        machine = Machine()
        injector = MachineFaultInjector(machine)
        injector.apply(Fault(
            fault_type=FaultType.PERMANENT, target=FaultTarget.DATA_REGISTER,
            register="D0", bit=0,
        ))
        injector.clear()
        assert not injector.has_permanent
        assert injector.injected == []


class TestPoissonInjector:
    def test_arrival_rate_statistically_correct(self):
        sim = Simulator()
        rng = np.random.default_rng(3)
        hits = []
        injector = PoissonInjector(
            sim, rng, rate_per_hour=3600.0,  # 1 per second per victim
            victims=[lambda ft: hits.append(ft)],
        )
        injector.start()
        sim.run(until=100 * US_PER_SECOND)
        assert 70 <= len(hits) <= 130  # ~100 expected

    def test_victims_chosen_uniformly(self):
        sim = Simulator()
        rng = np.random.default_rng(4)
        counts = [0, 0]
        injector = PoissonInjector(
            sim, rng, rate_per_hour=3600.0,
            victims=[lambda ft: counts.__setitem__(0, counts[0] + 1),
                     lambda ft: counts.__setitem__(1, counts[1] + 1)],
        )
        injector.start()
        sim.run(until=200 * US_PER_SECOND)
        total = sum(counts)
        assert total > 200
        assert abs(counts[0] - counts[1]) < 0.3 * total

    def test_stop_halts_arrivals(self):
        sim = Simulator()
        hits = []
        injector = PoissonInjector(
            sim, np.random.default_rng(5), 3600.0, [lambda ft: hits.append(1)]
        )
        injector.start()
        sim.run(until=10 * US_PER_SECOND)
        count = len(hits)
        injector.stop()
        sim.run(until=50 * US_PER_SECOND)
        assert len(hits) == count

    def test_zero_rate_never_fires(self):
        sim = Simulator()
        injector = PoissonInjector(
            sim, np.random.default_rng(6), 0.0, [lambda ft: pytest.fail("fired")]
        )
        injector.start()
        sim.run(until=US_PER_SECOND)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            PoissonInjector(sim, np.random.default_rng(0), -1.0, [lambda ft: None])
        with pytest.raises(ConfigurationError):
            PoissonInjector(sim, np.random.default_rng(0), 1.0, [])


class TestCampaignStatistics:
    def make_stats(self) -> CampaignStatistics:
        stats = CampaignStatistics()
        for outcome, count in (
            (OutcomeClass.NO_EFFECT, 50),
            (OutcomeClass.MASKED, 36),
            (OutcomeClass.OMISSION, 2),
            (OutcomeClass.FAIL_SILENT, 2),
            (OutcomeClass.UNDETECTED_WRONG, 10),
        ):
            for i in range(count):
                stats.add(ExperimentRecord(outcome=outcome, fault_description=f"{i}"))
        return stats

    def test_counts(self):
        stats = self.make_stats()
        assert stats.total == 100
        assert stats.effective == 50
        assert stats.detected == 40

    def test_coverage_is_detected_over_effective(self):
        stats = self.make_stats()
        assert stats.coverage == pytest.approx(0.8)

    def test_conditional_probabilities(self):
        stats = self.make_stats()
        assert stats.p_tem == pytest.approx(36 / 40)
        assert stats.p_omission == pytest.approx(2 / 40)
        assert stats.p_fail_silent == pytest.approx(2 / 40)

    def test_empty_campaign_yields_none(self):
        stats = CampaignStatistics()
        assert stats.coverage is None
        assert stats.p_tem is None

    def test_mechanism_counts(self):
        stats = CampaignStatistics()
        stats.add(ExperimentRecord(
            outcome=OutcomeClass.MASKED, fault_description="x",
            detection_mechanisms=("comparison", "ecc_correct"),
        ))
        stats.add(ExperimentRecord(
            outcome=OutcomeClass.MASKED, fault_description="y",
            detection_mechanisms=("comparison",),
        ))
        assert stats.mechanism_counts() == {"comparison": 2, "ecc_correct": 1}

    def test_summary_renders(self):
        text = self.make_stats().summary()
        assert "coverage" in text and "P_T" in text

    def test_counts_follow_direct_record_changes(self):
        """``records`` stays the only source of truth: counts reflect a
        list handed to the constructor and direct appends, never a cache."""
        records = self.make_stats().records
        stats = CampaignStatistics(records=records)
        assert stats.outcome_counts()["masked"] == 36
        assert stats.detected == 40
        records.append(ExperimentRecord(OutcomeClass.HUNG, "late"))
        stats.records.append(ExperimentRecord(OutcomeClass.HARNESS_CRASH, "lost"))
        assert stats.outcome_counts()["hung"] == 1
        assert stats.count(OutcomeClass.HARNESS_CRASH) == 1
        assert (stats.total, stats.valid, stats.effective, stats.detected) == (
            102, 101, 51, 41,
        )
        assert stats.p_omission == pytest.approx(3 / 41)


class TestWilsonInterval:
    def test_interval_contains_point_estimate(self):
        low, high = wilson_interval(80, 100)
        assert low < 0.8 < high

    def test_extreme_proportions_stay_in_unit_interval(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0 and high < 0.15
        low, high = wilson_interval(50, 50)
        assert low > 0.85 and high == 1.0

    def test_zero_trials(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_narrows_with_more_trials(self):
        small = wilson_interval(8, 10)
        large = wilson_interval(800, 1000)
        assert (large[1] - large[0]) < (small[1] - small[0])
