"""Unit tests for process schedules (Definition 7)."""

import pytest

from repro.core.activity import Direction
from repro.core.conflict import ExplicitConflicts, NoConflicts
from repro.core.schedule import (
    AbortEvent,
    ActivityEvent,
    CommitEvent,
    GroupAbortEvent,
    ProcessSchedule,
)
from repro.errors import InvalidScheduleError, UnknownProcessError
from repro.scenarios.paper import paper_conflicts, process_p1, process_p2


class TestConstruction:
    def test_duplicate_process_rejected(self):
        with pytest.raises(InvalidScheduleError):
            ProcessSchedule([process_p1(), process_p1()])

    def test_unknown_process_rejected(self, p1):
        schedule = ProcessSchedule([p1])
        with pytest.raises(UnknownProcessError):
            schedule.record("P9", "a11")

    def test_record_builds_events_with_forward_conflict_service(self, p1):
        schedule = ProcessSchedule([p1])
        schedule.record("P1", "a13")
        schedule.record_compensation("P1", "a13")
        forward, inverse = [event for _, event in schedule.activity_events()]
        assert forward.service == "s13"
        assert inverse.service == "s13~inv"
        assert inverse.conflict_service == "s13"
        assert inverse.is_compensation

    def test_compensation_of_pivot_rejected(self, p1):
        schedule = ProcessSchedule([p1])
        with pytest.raises(InvalidScheduleError):
            schedule.record_compensation("P1", "a12")

    def test_termination_events(self, p1, p2):
        schedule = ProcessSchedule([p1, p2])
        schedule.record("P1", "a11").record_commit("P1")
        schedule.record("P2", "a21").record_abort("P2")
        assert schedule.committed_processes() == frozenset({"P1"})
        assert schedule.aborted_processes() == frozenset({"P2"})

    def test_group_abort_marks_processes_aborted(self, p1, p2):
        schedule = ProcessSchedule([p1, p2])
        schedule.record("P1", "a11").record("P2", "a21")
        schedule.record_group_abort(["P1", "P2"])
        assert schedule.aborted_processes() == frozenset({"P1", "P2"})
        assert schedule.active_processes() == ()

    def test_active_processes_in_first_appearance_order(self, p1, p2):
        schedule = ProcessSchedule([p1, p2])
        schedule.record("P2", "a21").record("P1", "a11")
        assert schedule.active_processes() == ("P2", "P1")


class TestPrefixes:
    def test_prefix_lengths(self, fig4a):
        schedule = fig4a.schedule
        assert len(schedule.prefix(0)) == 0
        assert len(schedule.prefix(3)) == 3

    def test_prefix_out_of_range(self, fig4a):
        with pytest.raises(InvalidScheduleError):
            fig4a.schedule.prefix(99)

    def test_prefix_shares_processes_and_conflicts(self, fig4a):
        prefix = fig4a.schedule.prefix(2)
        assert {p.process_id for p in prefix.processes()} == {"P1", "P2"}
        assert prefix.conflicts is fig4a.schedule.conflicts


class TestConflictsAndSerializability:
    def test_fig4a_is_serializable(self, fig4a):
        assert fig4a.schedule.is_serializable()
        assert fig4a.schedule.serialization_order() == ["P1", "P2"]

    def test_fig4b_is_not_serializable(self, fig4b):
        """Example 3: cyclic dependencies between P1 and P2."""
        assert not fig4b.schedule.is_serializable()
        assert fig4b.schedule.cycles() == [("P1", "P2", "P1")]

    def test_conflicting_pairs_of_fig4a(self, fig4a):
        pairs = [
            (str(left), str(right))
            for _, left, _, right in fig4a.schedule.conflicting_pairs()
        ]
        assert ("P1.a11", "P2.a21") in pairs
        assert ("P1.a12", "P2.a24") in pairs

    def test_no_conflicts_means_serializable(self, p1, p2):
        schedule = ProcessSchedule([p1, p2], NoConflicts())
        schedule.record("P1", "a11").record("P2", "a21").record("P1", "a12")
        assert schedule.is_serializable()

    def test_intra_process_pairs_excluded_by_default(self, p1):
        conflicts = ExplicitConflicts([("s11", "s12")])
        schedule = ProcessSchedule([p1], conflicts)
        schedule.record("P1", "a11").record("P1", "a12")
        assert list(schedule.conflicting_pairs()) == []
        assert len(list(schedule.conflicting_pairs(inter_process_only=False))) == 1

    def test_serialization_order_restricted_to_participants(self, p1, p2):
        schedule = ProcessSchedule([p1, p2], paper_conflicts())
        schedule.record("P1", "a11")
        assert schedule.serialization_order() == ["P1"]


class TestLegalityAndReplay:
    def test_fig4a_is_legal(self, fig4a):
        assert fig4a.schedule.is_legal()

    def test_wrong_order_is_illegal(self, p1):
        schedule = ProcessSchedule([p1])
        schedule.record("P1", "a12")  # before a11
        assert not schedule.is_legal()

    def test_activity_after_termination_is_illegal(self, p1):
        schedule = ProcessSchedule([p1])
        for name in ("a11", "a12", "a13", "a14"):
            schedule.record("P1", name)
        schedule.record("P1", "a15")  # path already complete
        assert not schedule.is_legal()

    def test_replay_infers_branch_switch(self, p1):
        schedule = ProcessSchedule([p1])
        schedule.record("P1", "a11").record("P1", "a12").record("P1", "a15")
        state = schedule.instance_state("P1")
        trace = [str(step) for step in state.trace()]
        assert trace == ["a11", "a12", "a13(failed)", "a15"]

    def test_replay_infers_compensated_switch(self, p1):
        schedule = ProcessSchedule([p1])
        schedule.record("P1", "a11").record("P1", "a12").record("P1", "a13")
        schedule.record_compensation("P1", "a13").record("P1", "a15")
        trace = [str(step) for step in schedule.instance_state("P1").trace()]
        assert trace == ["a11", "a12", "a13", "a14(failed)", "a13^-1", "a15"]

    def test_replay_infers_abort_completion(self, p1):
        """Compensation while a retriable is expected implies an abort."""
        schedule = ProcessSchedule([p1])
        schedule.record("P1", "a11").record("P1", "a12").record("P1", "a13")
        schedule.record_compensation("P1", "a13")
        schedule.record("P1", "a15").record("P1", "a16")
        state = schedule.instance_state("P1")
        assert state.committed_sequence() == ("a11", "a12", "a15", "a16")

    def test_replay_infers_full_backward_abort(self, p1):
        schedule = ProcessSchedule([p1])
        schedule.record("P1", "a11")
        schedule.record_compensation("P1", "a11")
        state = schedule.instance_state("P1")
        assert state.committed_sequence() == ()

    def test_unexplainable_compensation_is_illegal(self, p1):
        schedule = ProcessSchedule([p1])
        schedule.record("P1", "a11")
        schedule.record_compensation("P1", "a13")  # a13 never committed
        assert not schedule.is_legal()


class TestRendering:
    def test_str_lists_events(self, fig4a):
        text = str(fig4a.schedule)
        assert text.startswith("P1.a11 P2.a21")

    def test_event_strs(self):
        assert str(CommitEvent("P1")) == "C(P1)"
        assert str(AbortEvent("P2")) == "A(P2)"
        assert str(GroupAbortEvent(("P1", "P2"))) == "A(P1, P2)"
