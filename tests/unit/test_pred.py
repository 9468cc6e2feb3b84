"""Unit tests for prefix-reducibility (Definition 10)."""

import pytest

from repro.core.pred import PredResult, check_pred, is_prefix_reducible
from repro.core.schedule import ProcessSchedule
from repro.scenarios.paper import paper_conflicts, process_p1, process_p2


class TestPredDecision:
    def test_fig7_is_pred(self, fig7):
        """Examples 7 and 9: S'' and all its prefixes are reducible."""
        result = check_pred(fig7.schedule)
        assert result.is_pred
        assert result.prefixes_checked == len(fig7.schedule) + 1

    def test_fig4a_is_not_pred(self, fig4a):
        """Example 8: the prefix S_t1 is not reducible, so S_t2 is not PRED."""
        result = check_pred(fig4a.schedule)
        assert not result.is_pred
        assert result.violating_prefix_length == fig4a.t1
        assert result.violation is not None
        assert not result.violation.is_reducible

    def test_red_is_not_prefix_closed(self, fig4a):
        """The schedule itself reduces (Example 6) although it is not PRED —
        the paper's reason for introducing prefix-reducibility."""
        from repro.core.reduction import is_reducible

        assert is_reducible(fig4a.schedule)
        assert not is_prefix_reducible(fig4a.schedule)

    def test_stop_early_vs_full_scan(self, fig4a):
        early = check_pred(fig4a.schedule, stop_early=True)
        full = check_pred(fig4a.schedule, stop_early=False)
        assert early.violating_prefix_length == full.violating_prefix_length
        assert full.prefixes_checked == len(fig4a.schedule) + 1
        assert early.prefixes_checked <= full.prefixes_checked

    def test_empty_schedule_is_pred(self, p1):
        assert is_prefix_reducible(ProcessSchedule([p1]))

    def test_quasi_commit_is_pred(self, fig9):
        """Example 10: a31 after P1's pivot — correct interleaving."""
        assert is_prefix_reducible(fig9.schedule)

    def test_inverted_quasi_commit_is_not_pred(self, fig9_incorrect):
        result = check_pred(fig9_incorrect.schedule)
        assert not result.is_pred
        assert result.violating_prefix_length == 3

    def test_str_outputs(self, fig7, fig4a):
        assert "PRED" in str(check_pred(fig7.schedule))
        assert "not PRED" in str(check_pred(fig4a.schedule))


class TestPrefixSemantics:
    def test_prefix_of_pred_schedule_is_pred(self, fig7):
        """PRED is prefix closed by definition."""
        for length in range(len(fig7.schedule) + 1):
            assert is_prefix_reducible(fig7.schedule.prefix(length))

    def test_extension_of_violating_prefix_stays_violating(self, fig4a):
        violating = check_pred(fig4a.schedule).violating_prefix_length
        for length in range(violating, len(fig4a.schedule) + 1):
            assert not is_prefix_reducible(fig4a.schedule.prefix(length))

    def test_serial_execution_is_always_pred(self, p1, p2):
        schedule = ProcessSchedule([p1, p2], paper_conflicts())
        for name in ("a21", "a22", "a23", "a24", "a25"):
            schedule.record("P2", name)
        schedule.record_commit("P2")
        for name in ("a11", "a12", "a13", "a14"):
            schedule.record("P1", name)
        schedule.record_commit("P1")
        assert is_prefix_reducible(schedule)
