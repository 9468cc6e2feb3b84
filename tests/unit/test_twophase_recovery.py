"""2PC decision replay from the WAL across crashes (X13 satellite).

The coordinator logs its decision *before* phase 2; restart recovery's
in-doubt resolution replays that log:

* a logged ``2pc_commit`` re-applies the commit to every prepared leg;
* a group with no logged decision is presumed aborted and rolled back;
* a veto logged before the crash leaves no in-doubt residue — the
  abort needs no decision record (presumed abort covers it);
* a leg this node voted YES on for a *remote* coordinator is held
  prepared for the termination protocol, never presumed aborted;
* a decided leg a store lost is redone from its decision record, once.
"""

import pytest

from repro.core.scheduler import TransactionalProcessScheduler
from repro.subsystems.recovery import analyze_wal, recover
from repro.subsystems.services import counter_service
from repro.subsystems.subsystem import Subsystem, SubsystemRegistry
from repro.subsystems.twophase import Participant, TwoPhaseCoordinator
from repro.subsystems.wal import InMemoryWAL


class CoordinatorCrash(RuntimeError):
    pass


@pytest.fixture
def world():
    left = Subsystem("left", initial_state={"x": 0})
    left.register(counter_service("inc_x", "x"))
    right = Subsystem("right", initial_state={"y": 0})
    right.register(counter_service("inc_y", "y"))
    return left, right, SubsystemRegistry([left, right])


def prepare_group(left, right):
    a = left.invoke("inc_x", hold=True)
    b = right.invoke("inc_y", hold=True)
    return [Participant(left, a.txn_id), Participant(right, b.txn_id)]


def crash_at(boundary_name):
    def hook(name):
        if name == boundary_name:
            raise CoordinatorCrash(name)

    return hook


def run_to_crash(coordinator, participants, group_id):
    with pytest.raises(CoordinatorCrash):
        coordinator.commit_group(participants, group_id=group_id)


class TestDecisionReplay:
    def test_logged_commit_is_reapplied_on_recovery(self, world):
        left, right, registry = world
        wal = InMemoryWAL()
        coordinator = TwoPhaseCoordinator(
            wal=wal, boundary=crash_at("decision_logged")
        )
        participants = prepare_group(left, right)
        run_to_crash(coordinator, participants, "harden:P1")
        # crash after the decision record, before phase 2: nothing
        # committed yet, but the decision is durable
        assert left.store.get("x") == 0
        assert "harden:P1#1" in analyze_wal(wal).decided_groups

        report = recover(wal, registry, {})
        assert report.re_committed_in_doubt == 2
        assert left.store.get("x") == 1
        assert right.store.get("y") == 1
        assert left.prepared_transactions() == []
        assert right.prepared_transactions() == []

    def test_partial_phase_two_completed_by_recovery(self, world):
        left, right, registry = world
        wal = InMemoryWAL()
        participants = prepare_group(left, right)
        coordinator = TwoPhaseCoordinator(
            wal=wal, boundary=crash_at(f"committed:{participants[0]}")
        )
        run_to_crash(coordinator, participants, "harden:P1")
        # first leg committed pre-crash, second still prepared
        assert left.store.get("x") == 1
        assert right.store.get("y") == 0

        report = recover(wal, registry, {})
        assert report.re_committed_in_doubt == 1
        assert right.store.get("y") == 1
        assert right.prepared_transactions() == []

    def test_unlogged_group_is_presumed_aborted(self, world):
        left, right, registry = world
        wal = InMemoryWAL()
        coordinator = TwoPhaseCoordinator(
            wal=wal, boundary=crash_at("votes_collected")
        )
        run_to_crash(coordinator, prepare_group(left, right), "harden:P1")

        report = recover(wal, registry, {})
        assert report.rolled_back_in_doubt == 2
        assert report.re_committed_in_doubt == 0
        assert left.store.get("x") == 0
        assert right.store.get("y") == 0
        assert left.prepared_transactions() == []
        assert right.prepared_transactions() == []

    def test_veto_then_crash_leaves_no_in_doubt_residue(self, world):
        left, right, registry = world
        wal = InMemoryWAL()
        coordinator = TwoPhaseCoordinator(
            wal=wal,
            vote=lambda participant: participant.subsystem.name != "right",
            boundary=crash_at("abort_logged"),
        )
        run_to_crash(coordinator, prepare_group(left, right), "harden:P1")
        # crash after logging the veto, before rolling anyone back:
        # both legs still prepared on disk-equivalent state
        assert len(left.prepared_transactions()) == 1

        report = recover(wal, registry, {})
        assert report.rolled_back_in_doubt == 2
        assert report.held_in_doubt == ()
        assert left.prepared_transactions() == []
        assert right.prepared_transactions() == []
        assert left.store.get("x") == 0

    def test_recovery_is_idempotent(self, world):
        left, right, registry = world
        wal = InMemoryWAL()
        coordinator = TwoPhaseCoordinator(
            wal=wal, boundary=crash_at("decision_logged")
        )
        run_to_crash(coordinator, prepare_group(left, right), "harden:P1")
        recover(wal, registry, {})
        report = recover(wal, registry, {})
        assert report.re_committed_in_doubt == 0
        assert report.rolled_back_in_doubt == 0
        assert left.store.get("x") == 1


class TestVotedLegsHeld:
    def test_voted_leg_is_held_not_presumed_aborted(self, world):
        left, right, registry = world
        wal = InMemoryWAL()
        txn = left.invoke("inc_x", hold=True)
        # this node voted YES for a remote coordinator's group; the
        # remote decision is unknown at recovery time
        wal.append(
            {
                "type": "2pc_vote",
                "group": "harden:P9#1",
                "participants": [f"left:{txn.txn_id}"],
            }
        )
        report = recover(wal, registry, {})
        assert report.held_in_doubt == (("left", txn.txn_id),)
        assert len(left.prepared_transactions()) == 1
        assert report.rolled_back_in_doubt == 0

    def test_txn_filter_skips_foreign_transactions(self, world):
        left, right, registry = world
        wal = InMemoryWAL()
        left.invoke("inc_x", hold=True, txn_id="s1@left/t7")
        report = recover(
            wal,
            registry,
            {},
            txn_filter=lambda name, txn_id: not txn_id.startswith("s1@"),
        )
        # a peer shard owns the prepared transaction: recovery must not
        # resolve it
        assert report.rolled_back_in_doubt == 0
        assert len(left.prepared_transactions()) == 1


class TestGroupIdIsolation:
    def test_group_ids_are_per_instance(self):
        first = TwoPhaseCoordinator()
        second = TwoPhaseCoordinator()
        assert first.commit_group([]).group_id == "2pc#1"
        assert first.commit_group([]).group_id == "2pc#2"
        assert second.commit_group([]).group_id == "2pc#1"

    def test_group_ids_namespaced_by_shard(self):
        coordinator = TwoPhaseCoordinator(shard_id="s3")
        assert coordinator.commit_group([]).group_id == "s3:2pc#1"

    def test_group_ids_are_seeded_past_the_log(self):
        """A coordinator restarted over its log never hands out an id
        the log has seen — without reading a single record."""
        wal = InMemoryWAL()
        before = TwoPhaseCoordinator(wal=wal)
        used = {before.commit_group([], group_id="harden:P1").group_id}
        used.add(before.commit_group([], group_id="harden:P1").group_id)
        wal.checkpoint(analyze_wal(wal).to_dict())  # compaction keeps LSNs
        after = TwoPhaseCoordinator(wal=wal)
        fresh = after.commit_group([], group_id="harden:P1").group_id
        assert len(used) == 2 and fresh not in used

    def test_every_group_takes_an_lsn(self, world):
        """Behind the log a group is one record, and a vetoed group logs
        its abort as that record: without it, a coordinator restarted
        over the log would count from an LSN no group had passed."""
        left, right, _ = world
        wal = InMemoryWAL()
        for subsystem in (left, right):
            subsystem.store.write_behind(wal)

        def ids(coordinator, times):
            return {
                coordinator.commit_group(
                    prepare_group(left, right), group_id="harden:P1"
                ).group_id
                for _ in range(times)
            }

        used = ids(TwoPhaseCoordinator(wal=wal, vote=lambda leg: False), 2)
        used |= ids(TwoPhaseCoordinator(wal=wal), 1)
        assert len(wal.records()) == len(used) == 3
        assert not used & ids(TwoPhaseCoordinator(wal=wal), 3)

    def test_a_group_is_decided_by_its_own_vote(self, world):
        """A process's second harden group crashes between its begin
        record and a vote that would have been a veto.  The first
        group's commit decision is not this one's: the leg rolls back
        and its activity is presumed aborted.  (While local groups
        shared ``harden:<pid>``, recovery committed the leg.)"""
        left, right, registry = world
        wal = InMemoryWAL()

        def held(activity):
            wal.append(
                {
                    "type": "activity_commit",
                    "process": "P1",
                    "activity": activity,
                    "direction": 1,
                    "service": "svc",
                    "prepared": True,
                }
            )

        held("a1")
        first = Participant(left, left.invoke("inc_x", hold=True).txn_id)
        assert TwoPhaseCoordinator(wal=wal).commit_group(
            [first], group_id="harden:P1"
        ).committed
        held("a2")
        second = Participant(right, right.invoke("inc_y", hold=True).txn_id)
        coordinator = TwoPhaseCoordinator(
            wal=wal, vote=lambda leg: False, boundary=crash_at("begin_logged")
        )
        run_to_crash(coordinator, [second], "harden:P1")

        assert analyze_wal(wal).presumed_aborted == [("P1", "a2")]
        report = recover(wal, registry, {})
        assert (report.re_committed_in_doubt, report.rolled_back_in_doubt) == (0, 1)
        assert (left.store.get("x"), right.store.get("y")) == (1, 0)
        assert right.prepared_transactions() == []


def lose_stores(registry):
    """The power cut's store half: every store back to its last sync."""
    for subsystem in registry.subsystems():
        subsystem.store.lose_unsynced()


def commit(wal, left, right, group):
    participants = prepare_group(left, right)
    assert TwoPhaseCoordinator(wal=wal).commit_group(
        participants, group_id=group
    ).committed


class TestRedo:
    """Stores sync only at checkpoints; a decision carries its legs'
    writes, and recovery redoes what a store lost by version."""

    def test_leg_decided_after_a_checkpoint_is_redone(self, world):
        left, right, registry = world
        wal = InMemoryWAL()
        commit(wal, left, right, "harden:P1")
        TransactionalProcessScheduler(registry=registry, wal=wal).checkpoint()
        commit(wal, left, right, "harden:P2")
        lose_stores(registry)
        assert (left.store.get("x"), left.store.version("x")) == (1, 1)

        recover(wal, registry, {})
        for store, key in ((left.store, "x"), (right.store, "y")):
            assert (store.get(key), store.version(key)) == (2, 2)

    def test_log_without_redo_leaves_the_store_authoritative(self, world):
        """A log written before decisions carried redo recovers as it
        always did: the stores are what they are."""

        class Unredone(InMemoryWAL):
            def append(self, record, force=False):
                record = {k: v for k, v in record.items() if k != "redo"}
                return super().append(record, force)

        left, right, registry = world
        wal = Unredone()
        commit(wal, left, right, "harden:P1")
        assert not any("redo" in record for record in wal.records())
        lose_stores(registry)
        report = recover(wal, registry, {})
        assert report.noop
        assert registry.snapshot() == {"left": {"x": 0}, "right": {"y": 0}}

    def test_still_prepared_leg_is_committed_once(self, world):
        """The earlier group's commit of ``x`` is lost with the store;
        the later group is decided with its leg still prepared.  Redo
        reinstalls the first commit and leaves the leg to in-doubt
        resolution, which commits it once: ``x`` ends at version 2, not
        3 (redone as well)."""
        left, right, registry = world
        wal = InMemoryWAL()
        commit(wal, left, right, "harden:P1")
        run_to_crash(
            TwoPhaseCoordinator(wal=wal, boundary=crash_at("decision_logged")),
            prepare_group(left, right),
            "harden:P2",
        )
        lose_stores(registry)

        report = recover(wal, registry, {})
        assert report.re_committed_in_doubt == 2
        for store, key in ((left.store, "x"), (right.store, "y")):
            assert (store.get(key), store.version(key)) == (2, 2)
        assert recover(wal, registry, {}).noop
