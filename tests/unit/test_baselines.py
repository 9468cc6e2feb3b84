"""Unit tests for the baseline schedulers."""

import pytest

from repro.baselines import (
    FlatScheduler,
    LockingScheduler,
    OptimisticScheduler,
    SerialScheduler,
)
from repro.scenarios.paper import paper_conflicts, process_p1, process_p2
from repro.subsystems.failures import CountedFailures, FailurePlan


def submit_both(scheduler):
    scheduler.submit(process_p1())
    scheduler.submit(process_p2())
    return scheduler


class TestSerial:
    def test_runs_processes_in_order(self):
        scheduler = submit_both(SerialScheduler(conflicts=paper_conflicts()))
        history = scheduler.run()
        events = [str(event) for event in history.events]
        assert events.index("C(P1)") < events.index("P2.a21")

    def test_history_always_serializable(self):
        scheduler = submit_both(SerialScheduler(conflicts=paper_conflicts()))
        assert scheduler.run().is_serializable()

    def test_failure_uses_alternative(self):
        scheduler = SerialScheduler(conflicts=paper_conflicts())
        scheduler.submit(process_p1(), failures=FailurePlan.fail_once(["s14"]))
        history = scheduler.run()
        text = [str(event) for event in history.events]
        assert "P1.a13^-1" in text and "P1.a15" in text

    def test_abort_counted(self):
        scheduler = SerialScheduler(conflicts=paper_conflicts())
        scheduler.submit(process_p1(), failures=FailurePlan.fail_once(["s12"]))
        scheduler.run()
        assert scheduler.stats.aborts == 1


class TestLocking:
    def test_conflicting_work_serialised(self):
        scheduler = submit_both(LockingScheduler(conflicts=paper_conflicts()))
        history = scheduler.run()
        assert history.is_serializable()
        assert scheduler.stats.deferred > 0

    def test_locks_released_at_termination(self):
        scheduler = submit_both(LockingScheduler(conflicts=paper_conflicts()))
        scheduler.run()
        assert scheduler._owned == {}

    def test_no_conflicts_interleaves_freely(self):
        scheduler = LockingScheduler()
        scheduler.submit(process_p1())
        scheduler.submit(process_p2())
        history = scheduler.run()
        events = [str(event) for event in history.events]
        first_p1 = events.index("P1.a11")
        first_p2 = events.index("P2.a21")
        assert abs(first_p1 - first_p2) == 1  # round-robin interleaving


class TestFlat:
    def test_failure_triggers_restart(self):
        scheduler = FlatScheduler(conflicts=paper_conflicts())
        scheduler.submit(process_p1(), failures=CountedFailures({"s14": 1}))
        history = scheduler.run()
        assert scheduler.stats.restarts == 1
        text = [str(event) for event in history.events]
        assert "A(P1)" in text
        assert any(event.startswith("P1~r1.") for event in text)
        assert "C(P1~r1)" in text

    def test_restart_limit_respected(self, monkeypatch):
        monkeypatch.setattr(FlatScheduler, "MAX_RESTARTS", 2)
        scheduler = FlatScheduler(conflicts=paper_conflicts())
        scheduler.submit(
            process_p1(), failures=CountedFailures({"s14": 100})
        )
        scheduler.run()
        assert scheduler.stats.restarts == 2

    def test_no_alternatives_ever_used(self):
        scheduler = FlatScheduler(conflicts=paper_conflicts())
        scheduler.submit(process_p1(), failures=CountedFailures({"s14": 1}))
        history = scheduler.run()
        # flat never runs the alternative branch of the failed attempt
        aborted_attempt_events = [
            str(event)
            for event in history.events
            if str(event).startswith("P1.")
        ]
        assert "P1.a15" not in aborted_attempt_events

    def test_success_needs_no_restart(self):
        scheduler = submit_both(FlatScheduler(conflicts=paper_conflicts()))
        scheduler.run()
        assert scheduler.stats.restarts == 0


class TestOptimistic:
    def test_clean_run_commits_everything(self):
        scheduler = submit_both(OptimisticScheduler(conflicts=paper_conflicts()))
        history = scheduler.run()
        assert history.committed_processes() == frozenset({"P1", "P2"})
        assert scheduler.stats.violations_detected == 0

    def test_validation_detects_cycle_and_counts_violation(self):
        scheduler = OptimisticScheduler(conflicts=paper_conflicts())
        scheduler.submit(process_p1(), failures=FailurePlan.fail_once(["s14"]))
        scheduler.submit(process_p2())
        scheduler.run()
        # The a15/a25 conflict inverts the serialization order built by
        # a11/a21 and a12/a24; commit-time validation fires.
        assert scheduler.stats.aborts + scheduler.stats.violations_detected > 0

    def test_stats_dict_shape(self):
        scheduler = submit_both(OptimisticScheduler(conflicts=paper_conflicts()))
        scheduler.run()
        stats = scheduler.stats.as_dict()
        assert set(stats) == {
            "dispatched",
            "deferred",
            "aborts",
            "restarts",
            "violations_detected",
        }


class TestCommonDriver:
    def test_instance_ids_and_termination_flags(self):
        scheduler = submit_both(SerialScheduler(conflicts=paper_conflicts()))
        assert scheduler.instance_ids() == ["P1", "P2"]
        assert not scheduler.is_terminated("P1")
        scheduler.run()
        assert scheduler.is_terminated("P1")
        assert scheduler.all_terminated()

    def test_duplicate_submission_gets_fresh_id(self):
        scheduler = SerialScheduler(conflicts=paper_conflicts())
        first = scheduler.submit(process_p1())
        second = scheduler.submit(process_p1())
        assert first == "P1"
        assert second != "P1"

    def test_timeline_access(self):
        scheduler = submit_both(SerialScheduler(conflicts=paper_conflicts()))
        scheduler.run()
        assert scheduler.timeline_length() == len(scheduler.history())
        assert str(scheduler.timeline_event(0)) == "P1.a11"
