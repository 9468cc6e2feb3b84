"""Park-and-wake: one test per wake source, and what never parks.

A process deferred by a graph rule is parked on the blockers the
verdict was derived from; ``step()`` answers ``False`` without
re-running admission until a blocker, the process itself or the
conflict relation moves.
"""

import pytest

from repro.core.conflict import ExplicitConflicts
from repro.core.flex import build_process, choice, comp, pivot, retr, seq
from repro.core.scheduler import (
    PARKING_RULES,
    SchedulerRules,
    TransactionalProcessScheduler,
)
from repro.subsystems.failures import FailurePlan
from repro.subsystems.twophase import TwoPhaseCoordinator


def blocker_process(pid="X"):
    """``x0 x1ᵖ (x2 x3ᵖ | x4ʳ)`` — the paper's ``P_1`` shape."""
    return build_process(
        pid,
        seq(
            comp("x0", service="sx0"),
            pivot("x1", service="sx1"),
            choice(
                seq(comp("x2", service="sx2"), pivot("x3", service="sx3")),
                seq(retr("x4", service="sx4")),
            ),
        ),
    )


def waiter_process(pid="W"):
    """One pivot on ``sw`` (conflicts with ``sx2`` where declared)."""
    return build_process(pid, seq(pivot("w1", service="sw")))


def parked_pair(failures=None, **kwargs):
    """``X`` executed ``x0 x1 x2``; ``W``'s pivot conflicts with ``x2``
    and is parked on ``X`` by R3 (Lemma 1)."""
    conflicts = ExplicitConflicts([("sx2", "sw")])
    scheduler = TransactionalProcessScheduler(conflicts=conflicts, **kwargs)
    scheduler.submit(blocker_process(), failures=failures)
    scheduler.submit(waiter_process())
    for _ in range(3):
        assert scheduler.step("X")
    assert not scheduler.step("W")
    assert scheduler.decisions["W"].rule == "R3-lemma1"
    assert scheduler.is_parked("W")
    return scheduler, conflicts


def evaluations(scheduler):
    """Admission evaluations that deferred, and polls answered parked."""
    return scheduler.stats["deferred"], int(scheduler.perf.parked_skips)


class TestParking:
    def test_parked_process_is_not_re_evaluated(self):
        scheduler, _ = parked_pair()
        assert scheduler.parked_on("W") == ("X",)
        deferred, skips = evaluations(scheduler)
        for _ in range(5):
            assert not scheduler.step("W")
        assert evaluations(scheduler) == (deferred, skips + 5)
        assert scheduler.perf.wakeups == 0

    def test_explain_names_the_blockers_that_will_wake_it(self):
        scheduler, _ = parked_pair()
        explanation = scheduler.explain("W")
        assert explanation.parked_on == ("X",)
        assert "parked: re-evaluated when any of X moves" in explanation.render()

    def test_perf_snapshot_exports_the_counters(self):
        scheduler, _ = parked_pair()
        snapshot = scheduler.perf_snapshot()
        assert {"parked_skips", "wakeups", "stale_parks"} <= set(snapshot)
        assert snapshot["stale_parks"] == 0

    def test_run_reaches_the_same_end_with_no_stale_park(self):
        scheduler, _ = parked_pair()
        scheduler.run()
        assert scheduler.all_terminated()
        assert scheduler.perf.stale_parks == 0


class TestStallRefresh:
    """The refresh re-polls every parked process before a victim is
    chosen; ``stale_parks`` counts those that progress although their
    park still held — a wake-up that was missed."""

    def test_a_missed_wake_up_is_counted(self):
        scheduler, _ = parked_pair()
        while not scheduler.is_terminated("X"):
            assert scheduler.step("X")
        # As if X's moves had gone unnoticed: W is parked on X as X
        # stands now, although nothing blocks it any more.
        waiter, blocker = scheduler.managed("W"), scheduler.managed("X")
        waiter.park = (scheduler.conflicts.version, ((blocker, blocker.stamp),))
        assert scheduler.is_parked("W")
        scheduler.resolve_stall()
        assert scheduler.perf.stale_parks == 1
        assert waiter.log_positions  # w1 ran

    def test_a_blocker_that_moved_this_round_is_not_a_missed_wake_up(self):
        scheduler, conflicts = parked_pair()
        conflicts.retract("sx2", "sw")  # the version moves: W would wake
        scheduler.resolve_stall()
        assert scheduler.managed("W").log_positions
        assert scheduler.perf.stale_parks == 0


class TestWakeSources:
    def test_blocker_commits(self):
        scheduler, _ = parked_pair()
        # Every move of X wakes W once; W re-parks while X is active.
        assert scheduler.step("X")  # x3
        assert not scheduler.is_parked("W")
        assert scheduler.perf.wakeups == 1
        assert not scheduler.step("W")
        assert scheduler.is_parked("W")
        assert scheduler.step("X")  # C(X)
        assert scheduler.is_terminated("X")
        assert not scheduler.is_parked("W")
        assert scheduler.step("W")  # w1 runs: nobody left to wait for
        assert scheduler.stats["dispatched"] == 5

    def test_blocker_compensates_the_conflicting_event(self):
        """The edge goes away although the blocker stays active."""
        scheduler, _ = parked_pair(failures=FailurePlan.fail_once(["sx3"]))
        assert scheduler.step("X")  # x3 fails: X switches alternatives
        assert not scheduler.step("W")
        assert scheduler.decisions["W"].rule == "R6-recovery-priority"
        assert scheduler.is_parked("W")
        assert scheduler.step("X")  # x2⁻¹: the conflicting event is gone
        assert not scheduler.is_terminated("X")
        assert not scheduler.is_parked("W")
        assert scheduler.step("W")

    def test_blocker_prepared_group_is_vetoed(self):
        """A 2PC veto rolls the blocker's prepared pivot back."""
        votes = iter([False])
        scheduler = TransactionalProcessScheduler(
            conflicts=ExplicitConflicts([("sx1", "sw")]),
            rules=SchedulerRules(eager_hardening=False),
            coordinator=TwoPhaseCoordinator(
                vote=lambda participant: next(votes, True)
            ),
        )
        scheduler.submit(
            build_process(
                "X", seq(comp("x0", service="sx0"), pivot("x1", service="sx1"))
            )
        )
        scheduler.submit(waiter_process())
        assert scheduler.step("X") and scheduler.step("X")  # x1 is prepared
        assert not scheduler.step("W")
        assert scheduler.parked_on("W") == ("X",)
        # C(X) hardens the group first: vetoed, rolled back, X aborts.
        assert not scheduler.step("X")
        assert scheduler.managed("X").abort_pending
        assert not scheduler.is_terminated("X")
        assert not scheduler.is_parked("W")
        assert scheduler.step("W")

    def test_blocker_switches_alternatives_lazily(self):
        """``next_action()`` performs the branch switch the first time
        anyone asks — a driver's gate, say — not when the scheduler
        records something.  The waiter must see that move too, and a
        driver that passes it over asleep must be told."""
        conflicts = ExplicitConflicts([("sx0", "sw")])
        scheduler = TransactionalProcessScheduler(conflicts=conflicts)
        scheduler.submit(
            blocker_process(), failures=FailurePlan.fail_once(["sx3"])
        )
        scheduler.submit(waiter_process())
        for _ in range(5):  # x0 x1 x2, x3 fails, x2⁻¹
            assert scheduler.step("X")
        assert not scheduler.step("W")
        assert scheduler.decisions["W"].rule == "R6-recovery-priority"
        assert scheduler.is_parked("W") and "W" in scheduler.asleep
        scheduler.managed("X").instance.next_action()
        assert "W" not in scheduler.asleep
        assert not scheduler.is_parked("W")
        assert not scheduler.step("W")
        assert scheduler.decisions["W"].rule == "R3-lemma1"

    def test_blocker_is_aborted(self):
        scheduler, _ = parked_pair()
        scheduler.abort("X")
        assert not scheduler.is_parked("W")
        assert scheduler.perf.wakeups == 1
        assert not scheduler.step("W")
        assert scheduler.decisions["W"].rule == "R6-recovery-priority"

    def test_own_cascade_abort(self):
        """The waiter is unparked by what happens to itself."""
        conflicts = ExplicitConflicts([("sa", "sb")])
        scheduler = TransactionalProcessScheduler(conflicts=conflicts)
        scheduler.submit(
            build_process(
                "X", seq(comp("x1", service="sa"), pivot("x2", service="sf"))
            ),
            failures=FailurePlan.fail_once(["sf"]),
        )
        scheduler.submit(
            build_process(
                "W", seq(comp("w1", service="sb"), pivot("w2", service="sw"))
            )
        )
        assert scheduler.step("X") and scheduler.step("W")  # x1 < w1: X → W
        assert not scheduler.step("W")
        assert scheduler.parked_on("W") == ("X",)
        assert scheduler.step("X")  # x2 fails: X recovers backward
        assert not scheduler.step("W") and scheduler.is_parked("W")
        # x1⁻¹ needs w1 compensated first (Lemma 2): W is cascaded.
        assert scheduler.step("X")
        assert scheduler.managed("W").abort_pending
        assert scheduler.parked_on("W") == ()
        assert not scheduler.is_parked("W")
        # R5 triggers cascades, so X itself is polled, never parked.
        assert scheduler.decisions["X"].rule == "R5-lemma2"
        assert not scheduler.is_parked("X")
        scheduler.run()
        assert scheduler.perf.stale_parks == 0

    def test_conflict_declared_mid_wait(self):
        scheduler, conflicts = parked_pair()
        deferred, _ = evaluations(scheduler)
        conflicts.declare("unrelated-a", "unrelated-b")
        assert not scheduler.is_parked("W")
        assert scheduler.perf.wakeups == 1
        assert not scheduler.step("W")
        assert scheduler.stats["deferred"] == deferred + 1
        assert scheduler.is_parked("W")


class TestVerdictsDoNotDependOnWhoAsked:
    """Parking changes *when* admission is asked.  A verdict may
    therefore depend on the state only — not on a cache that happens to
    have been filled by an earlier question."""

    @pytest.mark.parametrize("asked_in_between", [True, False])
    def test_completion_view_is_pinned_across_an_abort(self, asked_in_between):
        # Lazy hardening keeps X's pivot prepared, so aborting X drops it
        # from the instance without growing the trace the completion
        # memo is keyed on.
        scheduler = TransactionalProcessScheduler(
            conflicts=ExplicitConflicts([("sx0", "sy0"), ("sy1", "sx2")]),
            rules=SchedulerRules(eager_hardening=False),
        )
        scheduler.submit(
            build_process(
                "X",
                seq(
                    comp("x0", service="sx0"),
                    pivot("x1", service="sx1"),
                    retr("x2", service="sx2"),
                ),
            )
        )
        scheduler.submit(
            build_process(
                "Y", seq(comp("y0", service="sy0"), comp("y1", service="sy1"))
            )
        )
        assert scheduler.step("X") and scheduler.step("Y")  # x0 < y0: X → Y
        assert scheduler.step("X")  # x1: C(X) would now run x2 forward
        if asked_in_between:
            assert not scheduler.step("Y")
            assert scheduler.decisions["Y"].rule == "R2-cycle-prevention"
        scheduler.abort("X")
        assert not scheduler.step("Y")
        assert scheduler.decisions["Y"].rule == "R2-cycle-prevention"


class TestWhatStaysPolled:
    @pytest.mark.parametrize("rule", sorted(PARKING_RULES))
    def test_empty_blocker_set_is_never_parked(self, rule):
        scheduler, _ = parked_pair()
        waiter = scheduler.managed("W")
        scheduler._defer(waiter, set(), "no named blocker", rule=rule)
        assert waiter.park is None and not scheduler.is_parked("W")

    @pytest.mark.parametrize(
        "rule", ["R5-lemma2", "lock-wait", "breaker-open", "unavailable"]
    )
    def test_other_rules_are_never_parked(self, rule):
        scheduler, _ = parked_pair()
        waiter = scheduler.managed("W")
        scheduler._defer(waiter, {"X"}, "polled", rule=rule)
        assert waiter.park is None

    def test_unmanaged_blocker_is_never_parked(self):
        scheduler, _ = parked_pair()
        waiter = scheduler.managed("W")
        scheduler._defer(
            waiter, {"X", "txn-17"}, "names a non-process", rule="R3-lemma1"
        )
        assert waiter.park is None
