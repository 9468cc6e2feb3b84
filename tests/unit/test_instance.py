"""Unit tests for the runtime process instance (§3.1 semantics)."""

import pytest

from repro.core.flex import build_process, choice, comp, pivot, retr, seq
from repro.core.instance import (
    ActionType,
    InstanceStatus,
    ProcessInstance,
    RecoveryState,
)
from repro.errors import AlreadyTerminatedError, InvalidProcessError
from repro.scenarios.paper import process_p1


def started(process, *names):
    instance = ProcessInstance(process)
    for name in names:
        action = instance.next_action()
        assert action.activity == name, f"expected {name}, got {action}"
        instance.on_committed(name)
    return instance


class TestHappyPath:
    def test_runs_preferred_path(self, drive):
        instance = drive(ProcessInstance(process_p1()))
        assert instance.status is InstanceStatus.COMMITTED
        assert instance.committed_sequence() == ("a11", "a12", "a13", "a14")

    def test_action_repeats_until_reported(self):
        instance = ProcessInstance(process_p1())
        first = instance.next_action()
        second = instance.next_action()
        assert first == second

    def test_out_of_order_report_rejected(self):
        instance = ProcessInstance(process_p1())
        with pytest.raises(InvalidProcessError):
            instance.on_committed("a13")

    def test_report_after_termination_rejected(self, drive):
        instance = drive(ProcessInstance(process_p1()))
        with pytest.raises(AlreadyTerminatedError):
            instance.on_committed("a11")


class TestRecoveryState:
    def test_b_rec_before_pivot(self):
        instance = started(process_p1(), "a11")
        assert instance.recovery_state() is RecoveryState.B_REC

    def test_f_rec_after_pivot(self):
        instance = started(process_p1(), "a11", "a12")
        assert instance.recovery_state() is RecoveryState.F_REC

    def test_hardened_view_keeps_b_rec(self):
        """A prepared-but-uncommitted pivot does not enter F-REC."""
        instance = started(process_p1(), "a11", "a12")
        assert instance.recovery_state(hardened=frozenset()) is RecoveryState.B_REC
        assert (
            instance.recovery_state(hardened=frozenset({"a12"}))
            is RecoveryState.F_REC
        )


class TestCompletion:
    def test_example2_b_rec_completion(self):
        """Example 2: before a12 commits, C(P1) = {a11^-1}."""
        instance = started(process_p1(), "a11")
        completion = instance.completion()
        assert completion.compensations == ("a11",)
        assert completion.forward == ()
        assert completion.state is RecoveryState.B_REC

    def test_example2_f_rec_completion(self):
        """Example 2: after a13, C(P1) = {a13^-1 ≪ a15 ≪ a16}."""
        instance = started(process_p1(), "a11", "a12", "a13")
        completion = instance.completion()
        assert completion.compensations == ("a13",)
        assert completion.forward == ("a15", "a16")
        assert completion.state is RecoveryState.F_REC

    def test_completion_empty_after_final_pivot(self):
        instance = started(process_p1(), "a11", "a12", "a13", "a14")
        completion = instance.completion()
        assert completion.is_empty
        assert completion.terminal_status is InstanceStatus.COMMITTED

    def test_completion_activity_ids_ordering(self):
        instance = started(process_p1(), "a11", "a12", "a13")
        ids = instance.completion().activity_ids("P1")
        assert [str(i) for i in ids] == ["P1.a13^-1", "P1.a15", "P1.a16"]

    def test_hypothetical_completion_for_pivot(self):
        instance = started(process_p1(), "a11")
        hypothetical = instance.hypothetical_completion("a12")
        assert hypothetical.state is RecoveryState.F_REC
        assert hypothetical.forward == ("a15", "a16")
        assert hypothetical.compensations == ()

    def test_hypothetical_completion_for_compensatable(self):
        instance = started(process_p1(), "a11", "a12")
        hypothetical = instance.hypothetical_completion("a13")
        assert hypothetical.compensations == ("a13",)
        assert hypothetical.forward == ("a15", "a16")


class TestFailureHandling:
    def test_branch_switch_after_pivot_failure(self, drive):
        instance = drive(ProcessInstance(process_p1()), failing={"a14"})
        assert instance.status is InstanceStatus.COMMITTED
        effects = [str(step) for step in instance.trace()]
        assert effects == ["a11", "a12", "a13", "a14(failed)", "a13^-1", "a15", "a16"]

    def test_branch_head_failure_switches_without_compensation(self, drive):
        instance = drive(ProcessInstance(process_p1()), failing={"a13"})
        assert instance.committed_sequence() == ("a11", "a12", "a15", "a16")

    def test_backward_recovery_when_no_alternative(self, drive):
        instance = drive(ProcessInstance(process_p1()), failing={"a12"})
        assert instance.status is InstanceStatus.ABORTED
        assert instance.committed_sequence() == ()

    def test_retriable_failure_increments_attempt(self):
        instance = started(process_p1(), "a11", "a12")
        instance.on_failed("a13")  # switch to retriable branch
        action = instance.next_action()
        assert action.activity == "a15" and action.attempt == 1
        instance.on_failed("a15")
        action = instance.next_action()
        assert action.activity == "a15" and action.attempt == 2

    def test_switching_status_during_compensations(self):
        instance = started(process_p1(), "a11", "a12", "a13")
        instance.on_failed("a14")
        assert instance.status is InstanceStatus.SWITCHING
        action = instance.next_action()
        assert action.type is ActionType.COMPENSATE
        assert action.activity == "a13"


class TestAbort:
    def test_abort_in_b_rec_compensates_everything(self, drive):
        instance = started(process_p1(), "a11")
        completion = instance.request_abort()
        assert completion.compensations == ("a11",)
        drive(instance)
        assert instance.status is InstanceStatus.ABORTED

    def test_abort_in_f_rec_forward_recovers(self, drive):
        instance = started(process_p1(), "a11", "a12", "a13")
        instance.request_abort()
        drive(instance)
        assert instance.status is InstanceStatus.COMMITTED
        assert instance.committed_sequence() == ("a11", "a12", "a15", "a16")

    def test_abort_with_unhardened_pivot_is_backward(self, drive):
        instance = started(process_p1(), "a11", "a12")
        completion = instance.request_abort(hardened=frozenset())
        assert completion.state is RecoveryState.B_REC
        assert completion.compensations == ("a11",)
        drive(instance)
        assert instance.status is InstanceStatus.ABORTED

    def test_abort_after_logical_completion_allowed(self, drive):
        """Until C_i is recorded the process counts as active (Def 8)."""
        instance = drive(ProcessInstance(process_p1()))
        assert instance.status is InstanceStatus.COMMITTED
        completion = instance.request_abort()
        assert completion.is_empty
        assert instance.status is InstanceStatus.COMMITTED

    def test_empty_abort_of_fresh_instance(self):
        instance = ProcessInstance(process_p1())
        completion = instance.request_abort()
        assert completion.is_empty
        assert instance.status is InstanceStatus.ABORTED


class TestNestedStructures:
    def test_nested_choice_completion(self):
        process = build_process(
            "N",
            seq(
                comp("a"),
                pivot("b"),
                choice(
                    seq(
                        comp("c"),
                        pivot("d"),
                        choice(seq(comp("e"), pivot("f")), seq(retr("g"))),
                    ),
                    seq(retr("h")),
                ),
            ),
        )
        instance = started(process, "a", "b", "c", "d", "e")
        completion = instance.completion()
        # anchor is d; e compensated; forward = inner lowest branch (g)
        assert completion.compensations == ("e",)
        assert completion.forward == ("g",)

    def test_double_failure_cascades_to_outer_alternative(self, drive):
        process = build_process(
            "N",
            seq(
                comp("a"),
                pivot("b"),
                choice(
                    seq(
                        comp("c"),
                        pivot("d"),
                        choice(seq(comp("e"), pivot("f")), seq(retr("g"))),
                    ),
                    seq(retr("h")),
                ),
            ),
        )
        instance = drive(ProcessInstance(process), failing={"d"})
        # d fails before committing -> compensate c, take outer branch h
        assert instance.committed_sequence() == ("a", "b", "h")

    def test_inner_failure_inner_alternative(self, drive):
        process = build_process(
            "N",
            seq(
                comp("a"),
                pivot("b"),
                choice(
                    seq(
                        comp("c"),
                        pivot("d"),
                        choice(seq(comp("e"), pivot("f")), seq(retr("g"))),
                    ),
                    seq(retr("h")),
                ),
            ),
        )
        instance = drive(ProcessInstance(process), failing={"f"})
        assert instance.committed_sequence() == ("a", "b", "c", "d", "g")
