"""End-to-end integration tests for the PRED scheduler."""

import pytest

from repro.core.pred import is_prefix_reducible
from repro.core.recoverability import is_process_recoverable
from repro.core.scheduler import (
    ManagedStatus,
    SchedulerRules,
    TransactionalProcessScheduler,
)
from repro.errors import NotWellFormedError, SchedulerError
from repro.scenarios.paper import paper_conflicts, process_p1, process_p2
from repro.subsystems.failures import FailurePlan, ProbabilisticFailures
from repro.subsystems.subsystem import SubsystemRegistry
from repro.subsystems.wal import InMemoryWAL


def paranoid_scheduler(**kwargs):
    return TransactionalProcessScheduler(
        conflicts=paper_conflicts(),
        rules=SchedulerRules(paranoid=True),
        **kwargs,
    )


class TestBasicRuns:
    def test_single_process_commits(self):
        scheduler = paranoid_scheduler()
        scheduler.submit(process_p1())
        history = scheduler.run()
        assert history.committed_processes() == frozenset({"P1"})

    def test_two_processes_both_commit(self):
        scheduler = paranoid_scheduler()
        scheduler.submit(process_p1())
        scheduler.submit(process_p2())
        history = scheduler.run()
        assert history.committed_processes() == frozenset({"P1", "P2"})
        assert is_prefix_reducible(history)
        assert is_process_recoverable(history)

    def test_many_instances_of_same_template(self):
        scheduler = paranoid_scheduler()
        ids = [scheduler.submit(process_p1()) for _ in range(3)]
        assert len(set(ids)) == 3
        history = scheduler.run()
        assert len(history.committed_processes()) == 3

    def test_malformed_process_rejected_at_submit(self):
        from repro.core.process import ProcessBuilder

        bad = (
            ProcessBuilder("bad")
            .retriable("r")
            .pivot("p")
            .precede("r", "p")
            .build()
        )
        scheduler = paranoid_scheduler()
        with pytest.raises(NotWellFormedError):
            scheduler.submit(bad)

    def test_duplicate_instance_id_rejected(self):
        scheduler = paranoid_scheduler()
        scheduler.submit(process_p1(), instance_id="X")
        with pytest.raises(SchedulerError):
            scheduler.submit(process_p2(), instance_id="X")

    def test_statuses_reporting(self):
        scheduler = paranoid_scheduler()
        scheduler.submit(process_p1())
        assert scheduler.statuses() == {"P1": ManagedStatus.ACTIVE}
        scheduler.run()
        assert scheduler.statuses() == {"P1": ManagedStatus.COMMITTED}


class TestFailureHandling:
    @pytest.mark.parametrize(
        "failing, p1_commits, p2_commits",
        [
            # branch head fails → alternative
            (["s13"], True, True),
            # pivot in branch fails → compensate + alternative
            (["s14"], True, True),
            # state-determining pivot fails → P1 aborts backward, and
            # compensating a11 cascades into P2 which read from it
            (["s12"], False, False),
        ],
    )
    def test_failures_resolved_per_flex_semantics(
        self, failing, p1_commits, p2_commits
    ):
        scheduler = paranoid_scheduler()
        scheduler.submit(process_p1(), failures=FailurePlan.fail_once(failing))
        scheduler.submit(process_p2())
        history = scheduler.run()
        committed = history.committed_processes()
        assert ("P1" in committed) == p1_commits
        assert ("P2" in committed) == p2_commits
        assert is_prefix_reducible(history)

    def test_retriable_failures_retried(self):
        scheduler = paranoid_scheduler()
        scheduler.submit(
            process_p2(), failures=FailurePlan.fail_times("s24", 3)
        )
        history = scheduler.run()
        assert history.committed_processes() == frozenset({"P2"})

    def test_probabilistic_failures_converge(self):
        scheduler = TransactionalProcessScheduler(conflicts=paper_conflicts())
        policy = ProbabilisticFailures(rate=0.3, seed=9)
        scheduler.submit(process_p1(), failures=policy)
        scheduler.submit(process_p2(), failures=policy)
        history = scheduler.run()
        assert scheduler.all_terminated()
        assert is_prefix_reducible(history)


class TestAborts:
    def test_requested_abort_backward(self):
        scheduler = paranoid_scheduler()
        scheduler.submit(process_p1())
        scheduler.step("P1")  # a11
        scheduler.abort("P1", "user request")
        history = scheduler.run()
        assert scheduler.statuses()["P1"] is ManagedStatus.ABORTED
        events = [str(event) for event in history.events]
        assert events == ["P1.a11", "P1.a11^-1", "A(P1)"]

    def test_requested_abort_forward(self):
        scheduler = paranoid_scheduler()
        scheduler.submit(process_p1())
        for _ in range(3):  # a11, a12 (+harden), a13
            scheduler.step("P1")
        scheduler.abort("P1", "user request")
        history = scheduler.run()
        # F-REC abort: the process ends committed via its forward path.
        assert scheduler.statuses()["P1"] is ManagedStatus.COMMITTED
        events = [str(event) for event in history.events]
        assert "P1.a13^-1" in events and "P1.a15" in events

    def test_abort_after_termination_rejected(self):
        from repro.errors import ProcessAbortedError

        scheduler = paranoid_scheduler()
        scheduler.submit(process_p1())
        scheduler.run()
        with pytest.raises(ProcessAbortedError):
            scheduler.abort("P1")


class TestWalIntegration:
    def test_wal_records_protocol_steps(self):
        wal = InMemoryWAL()
        scheduler = paranoid_scheduler(wal=wal)
        scheduler.submit(process_p1())
        scheduler.run()
        kinds = [record["type"] for record in wal.records()]
        assert "process_submit" in kinds
        assert "activity_commit" in kinds
        assert "2pc_commit" in kinds and "2pc_begin" not in kinds
        decision = wal.records()[kinds.index("2pc_commit")]
        assert decision["process"] == "P1" and decision["participants"]
        assert kinds[-1] == "process_commit"

    def test_closed_scheduler_rejects_submissions(self):
        from repro.errors import SchedulerClosedError

        scheduler = paranoid_scheduler()
        scheduler.crash()
        with pytest.raises(SchedulerClosedError):
            scheduler.submit(process_p1())


class TestInterleavingControl:
    def test_custom_interleaving_changes_order(self):
        order_log = []

        def reversed_order(ids):
            order_log.append(tuple(ids))
            return list(reversed(ids))

        scheduler = TransactionalProcessScheduler(
            conflicts=paper_conflicts(), interleaving=reversed_order
        )
        scheduler.submit(process_p1())
        scheduler.submit(process_p2())
        history = scheduler.run()
        assert order_log  # the hook ran
        events = [str(event) for event in history.events]
        assert events[0].startswith("P2.")
        assert is_prefix_reducible(history)
