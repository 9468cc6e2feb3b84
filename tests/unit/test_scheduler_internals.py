"""Unit tests for scheduler internals: rules, hardening, locks, WAL."""

import pytest

from repro.core.flex import build_process, comp, pivot, retr, seq
from repro.core.pred import is_prefix_reducible
from repro.core.scheduler import (
    ManagedStatus,
    SchedulerRules,
    TransactionalProcessScheduler,
)
from repro.scenarios.paper import paper_conflicts, process_p1, process_p2
from repro.subsystems.services import counter_service
from repro.subsystems.subsystem import Subsystem, SubsystemRegistry
from repro.subsystems.twophase import TwoPhaseCoordinator
from repro.subsystems.wal import InMemoryWAL


class TestRulesDefaults:
    def test_all_rules_on_by_default(self):
        rules = SchedulerRules()
        assert rules.defer_non_compensatable
        assert rules.cycle_prevention
        assert rules.cascading_aborts
        assert rules.commit_ordering
        assert rules.eager_hardening
        assert rules.guard_hardening
        assert not rules.paranoid

    def test_rules_are_immutable(self):
        with pytest.raises(AttributeError):
            SchedulerRules().paranoid = True


class TestHardening:
    def test_pivot_prepared_until_hardened(self):
        scheduler = TransactionalProcessScheduler(conflicts=paper_conflicts())
        scheduler.submit(process_p1())
        scheduler.step("P1")  # a11
        managed = scheduler.managed("P1")
        assert not managed.is_hardened
        scheduler.step("P1")  # a12 executes prepared, then eager-hardens
        assert managed.is_hardened
        assert "a12" in managed.hardened

    def test_no_eager_hardening_defers_to_commit(self):
        scheduler = TransactionalProcessScheduler(
            conflicts=paper_conflicts(),
            rules=SchedulerRules(eager_hardening=False),
        )
        scheduler.submit(process_p1())
        scheduler.step("P1")  # a11
        scheduler.step("P1")  # a12 prepared
        managed = scheduler.managed("P1")
        assert not managed.is_hardened
        assert len(managed.prepared) == 1
        scheduler.run()
        assert managed.status is ManagedStatus.COMMITTED
        assert managed.prepared == []

    def test_successors_wait_for_prepared_group(self):
        """The prepared-group gate is observable when an active conflict
        predecessor blocks hardening (here with the Lemma-1 execution
        deferral disabled so the pivot executes prepared at all)."""
        scheduler = TransactionalProcessScheduler(
            conflicts=paper_conflicts(),
            rules=SchedulerRules(defer_non_compensatable=False),
        )
        scheduler.submit(process_p1())
        scheduler.submit(process_p2())
        scheduler.step("P2")            # a21 (conflicts with a11)
        scheduler.step("P1")            # a11: edge P2 → P1
        scheduler.step("P1")            # a12 prepared; guard blocks harden
        managed = scheduler.managed("P1")
        assert [p.activity_name for p in managed.prepared] == ["a12"]
        progressed = scheduler.step("P1")  # a13 must wait for the group
        assert not progressed
        assert managed.status is ManagedStatus.WAITING
        assert "prepared group" in managed.waiting_reason


class TestTwoPhaseCommitVeto:
    def test_vetoed_group_aborts_the_process(self):
        scheduler = TransactionalProcessScheduler(conflicts=paper_conflicts())
        scheduler.submit(process_p2())
        # replace the coordinator with a vetoing one
        scheduler._coordinator = TwoPhaseCoordinator(vote=lambda p: False)
        history = scheduler.run()
        managed = scheduler.managed("P2")
        assert managed.status is ManagedStatus.ABORTED
        # vetoed invocations were rolled back: no trace in the history
        events = [str(event) for event in history.events]
        assert "P2.a23" not in events


    def test_vetoed_lazy_harden_at_the_gate_ends_the_step(self):
        """Without eager hardening the R4 gate commits the prepared
        group itself; when that 2PC is vetoed the abort it begins is the
        step's progress — the stale forward action must not run."""
        votes = iter([False])
        scheduler = TransactionalProcessScheduler(
            rules=SchedulerRules(eager_hardening=False),
            coordinator=TwoPhaseCoordinator(
                vote=lambda participant: next(votes, True)
            ),
        )
        recorded = []
        scheduler.add_listener(
            lambda kind, payload: kind == "activity"
            and recorded.append((payload["activity"], payload["direction"]))
        )
        scheduler.submit(
            build_process("P", seq(comp("a"), pivot("b"), retr("c")))
        )
        history = scheduler.run()  # used to die: out-of-order report for 'c'
        assert scheduler.all_terminated()
        assert scheduler.managed("P").status is ManagedStatus.ABORTED
        # b ran prepared and was rolled back by the veto; c never ran.
        assert recorded == [("a", 1), ("b", 1), ("a", -1)]
        assert [str(event) for event in history.events] == [
            "P.a", "P.a^-1", "A(P)"
        ]
        assert is_prefix_reducible(history)


class TestLockIntegrationWithRealServices:
    def build_registry(self):
        sub = Subsystem("bank", initial_state={"account": 0})
        sub.register(counter_service("credit", "account"))
        return SubsystemRegistry([sub])

    def make_process(self, pid):
        return build_process(
            pid,
            seq(
                comp("c", service="credit", subsystem="bank"),
                pivot("p", service="noop_p", subsystem="bank"),
            ),
        )

    def test_semantic_conflicts_derived_from_registry(self):
        registry = self.build_registry()
        scheduler = TransactionalProcessScheduler(registry=registry)
        assert scheduler.conflicts.conflicts("credit", "credit")

    def test_conflicting_processes_serialise_on_store(self):
        registry = self.build_registry()
        scheduler = TransactionalProcessScheduler(registry=registry)
        scheduler.submit(self.make_process("A"))
        scheduler.submit(self.make_process("B"))
        history = scheduler.run()
        assert registry.get("bank").store.get("account") == 2
        assert history.committed_processes() == frozenset({"A", "B"})
        assert is_prefix_reducible(history)


class TestHistoryConsistency:
    def test_timeline_matches_history(self):
        scheduler = TransactionalProcessScheduler(conflicts=paper_conflicts())
        scheduler.submit(process_p1())
        scheduler.run()
        history = scheduler.history()
        assert scheduler.timeline_length() == len(history)
        for index in range(scheduler.timeline_length()):
            assert str(scheduler.timeline_event(index)) == str(
                history.events[index]
            )

    def test_history_is_legal_projection(self):
        scheduler = TransactionalProcessScheduler(conflicts=paper_conflicts())
        scheduler.submit(process_p1())
        scheduler.submit(process_p2())
        scheduler.run()
        scheduler.history().validate()

    def test_rolled_back_events_absent_from_history(self):
        scheduler = TransactionalProcessScheduler(conflicts=paper_conflicts())
        scheduler.submit(process_p2())
        scheduler.step("P2")  # a21
        scheduler.step("P2")  # a22
        scheduler.step("P2")  # a23 prepared (hardened eagerly though)
        scheduler.abort("P2", "test")
        history = scheduler.run()
        # a23 hardened before the abort -> P2 forward-recovers; had it
        # been rolled back it would be absent.  Either way the history
        # replays cleanly.
        history.validate()


class TestWalContents:
    def test_wal_sequences_protocol_records(self):
        wal = InMemoryWAL()
        scheduler = TransactionalProcessScheduler(
            conflicts=paper_conflicts(), wal=wal
        )
        scheduler.submit(process_p1())
        scheduler.run()
        kinds = [record["type"] for record in wal.records()]
        first_activity = kinds.index("activity_commit")
        assert kinds.index("process_submit") < first_activity
        # A local group behind the log is one record: its decision.
        assert kinds.index("2pc_commit") > first_activity
        assert not {"2pc_begin", "2pc_end", "hardened"} & set(kinds)
        assert kinds[-1] == "process_commit"

    def test_only_the_anchors_are_forced(self):
        """P1 commits through compensatable steps, a pivot and
        retriables: its stores write behind the log, so only the
        termination is forced; the direct commits and each all-local
        group's decision ride on it, and every store commit waits for
        it."""
        forced = []

        class Spy(InMemoryWAL):
            def append(self, record, force=False):
                if force:
                    forced.append((record["type"], record.get("prepared")))
                return super().append(record, force)

        wal = Spy()
        scheduler = TransactionalProcessScheduler(
            conflicts=paper_conflicts(), wal=wal
        )
        scheduler.submit(process_p1())
        scheduler.run()
        assert set(forced) == {("process_commit", None)}
        assert wal.unforced == 0  # the termination covers the rest
        assert all(
            not subsystem.store._queued  # every commit installed by it
            for subsystem in scheduler.registry.subsystems()
        )
        assert 0 < wal.forces == len(forced) < wal.appends == len(wal)

    def test_forces_per_commit_is_readable_from_the_registry(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        wal = InMemoryWAL()
        scheduler = TransactionalProcessScheduler(
            conflicts=paper_conflicts(), wal=wal, metrics=registry
        )
        scheduler.submit(process_p1())
        scheduler.run()
        snapshot = registry.snapshot()
        assert snapshot["wal.appends"] == wal.appends == len(wal)
        assert snapshot["wal.forces"] == wal.forces
        assert "repro_wal_forces" in registry.to_prometheus()
        # No log, no group: the names stay out of the way.
        bare = TransactionalProcessScheduler(conflicts=paper_conflicts())
        assert "wal" not in bare.counters()

    def test_abort_requested_logged(self):
        wal = InMemoryWAL()
        scheduler = TransactionalProcessScheduler(
            conflicts=paper_conflicts(), wal=wal
        )
        scheduler.submit(process_p1())
        scheduler.step("P1")
        scheduler.abort("P1", "unit test")
        scheduler.run()
        records = [
            record
            for record in wal.records()
            if record["type"] == "abort_requested"
        ]
        assert records and records[0]["reason"] == "unit test"
