"""Property suite for the weakly-hard (m,k) sliding miss window.

ISSUE 8, satellite 2.  Two invariant families, Hypothesis-driven:

1. **The contract itself** — for any generated hit/miss sequence driven
   through :class:`~repro.kernel.task.MKWindow`, and for the sequence a
   miss-budget policy actually *admits* (misses only when
   ``can_accept_miss()``), no window of k consecutive jobs ever contains
   more than m misses.  For arbitrary sequences, every excess miss is
   flagged as a violation — never silently passed.

2. **Checkpoint/resume** — splitting a sequence at any point and
   resuming a fresh window (:meth:`MKWindow.resume`) from the last
   ``k - 1`` outcomes yields bit-identical accounting (violations, counters, final state)
   to the unsplit run, for any number of split points.  This is the
   invariant the sharded/journaled campaign paths rely on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.kernel.task import MKWindow, WeaklyHardConstraint

import pytest

constraints = st.tuples(
    st.integers(min_value=1, max_value=8),  # k
    st.integers(min_value=0, max_value=7),  # m (filtered to m < k)
).filter(lambda mk: mk[1] < mk[0]).map(
    lambda mk: WeaklyHardConstraint(max_misses=mk[1], window_jobs=mk[0])
)

sequences = st.lists(st.booleans(), min_size=0, max_size=60)


def windows_of(bits, k):
    """Every window of up to k consecutive jobs (trailing partials too)."""
    return [bits[max(0, end - k):end] for end in range(1, len(bits) + 1)]


class TestContract:
    @given(constraint=constraints, misses=sequences)
    @settings(max_examples=300, deadline=None)
    def test_no_admitted_sequence_exceeds_budget(self, constraint, misses):
        # The budget-aware policy: a miss is only *taken* when the window
        # can absorb it (the TEM accept_miss hook); otherwise the job is
        # recovered (a hit).  The admitted sequence must satisfy (m,k).
        window = MKWindow(constraint)
        admitted = []
        for wants_miss in misses:
            missed = wants_miss and window.can_accept_miss()
            violated = window.record(missed)
            assert not violated
            admitted.append(missed)
        for view in windows_of(admitted, constraint.window_jobs):
            assert sum(view) <= constraint.max_misses, (admitted, view)
        assert window.violations == 0

    @given(constraint=constraints, misses=sequences)
    @settings(max_examples=300, deadline=None)
    def test_every_excess_miss_is_flagged(self, constraint, misses):
        # Arbitrary (unfiltered) sequences: record() must flag exactly
        # the misses that push a k-window beyond m.
        window = MKWindow(constraint)
        k, m = constraint.window_jobs, constraint.max_misses
        flagged = [window.record(missed) for missed in misses]
        for index, missed in enumerate(misses):
            view = misses[max(0, index - k + 1):index + 1]
            expect = bool(missed) and sum(view) > m
            assert flagged[index] == expect, (index, misses)
        assert window.violations == sum(flagged)
        assert window.jobs == len(misses)
        assert window.misses == sum(misses)

    @given(misses=sequences)
    @settings(max_examples=100, deadline=None)
    def test_hard_window_never_accepts(self, misses):
        window = MKWindow(WeaklyHardConstraint(max_misses=0, window_jobs=1))
        for missed in misses:
            assert not window.can_accept_miss()
            assert window.record(missed) == bool(missed)

    @given(constraint=constraints)
    @settings(max_examples=100, deadline=None)
    def test_budget_bound_matches_max_misses_in(self, constraint):
        # Greedy all-miss driving can never beat the analytic window bound.
        window = MKWindow(constraint)
        jobs = 4 * constraint.window_jobs
        taken = 0
        for _ in range(jobs):
            missed = window.can_accept_miss()
            window.record(missed)
            taken += int(missed)
        assert taken <= constraint.max_misses_in(jobs)


class TestCheckpointResume:
    @given(
        constraint=constraints,
        misses=sequences,
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_split_resume_is_bit_identical(self, constraint, misses, data):
        splits = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=len(misses)),
                    min_size=0,
                    max_size=4,
                )
            )
        )
        whole = MKWindow(constraint)
        flagged_whole = [whole.record(missed) for missed in misses]

        flagged_split = []
        jobs = misses_seen = violations = 0
        window = MKWindow(constraint)
        previous = 0
        for cut in splits + [len(misses)]:
            for missed in misses[previous:cut]:
                flagged_split.append(window.record(missed))
            previous = cut
            # Checkpoint: persist only the last k - 1 outcomes plus the
            # running totals, then resume into a brand-new object — the
            # exact shape a journal entry carries across a shard restart.
            state = [int(m) for m in misses[max(0, cut - constraint.window_jobs + 1):cut]]
            jobs, misses_seen, violations = (
                window.jobs, window.misses, window.violations,
            )
            window = MKWindow.resume(constraint, state)
            window.jobs, window.misses, window.violations = (
                jobs, misses_seen, violations,
            )

        assert flagged_split == flagged_whole
        assert window._history == whole._history
        assert (window.jobs, window.misses, window.violations) == (
            whole.jobs, whole.misses, whole.violations,
        )


class TestConstraintValidation:
    @pytest.mark.parametrize("m,k", [(-1, 4), (4, 4), (5, 4), (0, 0), (0, -1)])
    def test_invalid_constraints_rejected(self, m, k):
        with pytest.raises(ConfigurationError):
            WeaklyHardConstraint(max_misses=m, window_jobs=k)

    def test_max_misses_in_partial_windows(self):
        constraint = WeaklyHardConstraint(max_misses=2, window_jobs=5)
        assert constraint.max_misses_in(0) == 0
        assert constraint.max_misses_in(1) == 1
        assert constraint.max_misses_in(5) == 2
        assert constraint.max_misses_in(7) == 4
        assert constraint.max_misses_in(10) == 4
        hard = WeaklyHardConstraint(max_misses=0, window_jobs=1)
        assert hard.is_hard
        assert hard.max_misses_in(1000) == 0
