"""The weakly-hard miss-budget seam in the core layer.

The TEM ``accept_miss`` hook skips a recovery copy when the (m,k)
window still has budget; the harness hands it
:meth:`~repro.kernel.task.MKWindow.can_accept_miss`.  The load-bearing
property is degeneracy — ``accept_miss=None`` and an always-False
predicate must be byte-for-byte the classic hard path.
"""

from repro.core.tem import (
    MK_BUDGET_MISS,
    TemOutcome,
    run_tem_direct,
)
from repro.kernel.task import MKWindow, WeaklyHardConstraint

#: Copy scripts: scenario (iv) of the paper — EDM abort in the first
#: copy, clean re-execution afterwards.  The hard path masks with three
#: copies; a budgeted path may omit after the first.
EDM_THEN_CLEAN = [(None, "ecc"), ((7,), None), ((7,), None), ((7,), None)]


def run(script, accept_miss=None):
    return run_tem_direct(
        lambda i: script[i], max_copies=3, accept_miss=accept_miss
    )


class TestAcceptMissHook:
    def test_budget_skips_recovery_after_detection(self):
        report = run(EDM_THEN_CLEAN, accept_miss=lambda: True)
        assert report.outcome is TemOutcome.OMISSION
        assert report.copies_run == 1
        assert report.detection_mechanisms == ["ecc", MK_BUDGET_MISS]
        assert report.omission_reason.startswith(MK_BUDGET_MISS)

    def test_hard_path_masks_the_same_script(self):
        report = run(EDM_THEN_CLEAN)
        assert report.outcome is TemOutcome.MASKED
        assert report.copies_run == 3

    def test_false_predicate_is_bit_identical_to_none(self):
        hard = run(EDM_THEN_CLEAN)
        gated = run(EDM_THEN_CLEAN, accept_miss=lambda: False)
        assert gated == hard
        assert MK_BUDGET_MISS not in gated.detection_mechanisms

    def test_clean_job_never_consults_the_budget(self):
        def explode():
            raise AssertionError("accept_miss consulted without an error")

        report = run([((1,), None), ((1,), None)], accept_miss=explode)
        assert report.outcome is TemOutcome.OK

    def test_initial_copies_always_run(self):
        # The budget can only waive *recovery* copies: the two initial
        # copies of scenario (ii) run even with an always-accept budget.
        script = [((1,), None), ((2,), None), ((1,), None), ((1,), None)]
        report = run(script, accept_miss=lambda: True)
        assert report.copies_run >= 2

    def test_window_predicate_end_to_end(self):
        # Wire a real MKWindow as the predicate: first miss fits a (1,4)
        # budget, and once recorded the very next faulty job must take
        # the full recovery path again.
        window = MKWindow(WeaklyHardConstraint(max_misses=1, window_jobs=4))

        first = run(EDM_THEN_CLEAN, accept_miss=window.can_accept_miss)
        window.record(first.outcome is TemOutcome.OMISSION)
        assert first.outcome is TemOutcome.OMISSION

        second = run(EDM_THEN_CLEAN, accept_miss=window.can_accept_miss)
        window.record(second.outcome is TemOutcome.OMISSION)
        assert second.outcome is TemOutcome.MASKED
        assert window.violations == 0

