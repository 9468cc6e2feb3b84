"""Unit tests for the two-phase commit coordinator (Lemma 1)."""

import json

import pytest

from repro.fed.messages import FederationNetwork
from repro.fed.twopc import CrossShardCoordinator
from repro.subsystems.services import counter_service
from repro.subsystems.subsystem import Subsystem
from repro.subsystems.twophase import (
    Participant,
    TwoPhaseCoordinator,
    boundaries,
)
from repro.subsystems.wal import InMemoryWAL


def make_subsystems():
    left = Subsystem("left", initial_state={"x": 0})
    left.register(counter_service("inc_x", "x"))
    right = Subsystem("right", initial_state={"y": 0})
    right.register(counter_service("inc_y", "y"))
    return left, right


@pytest.fixture
def subsystems():
    return make_subsystems()


def prepare_group(left, right):
    a = left.invoke("inc_x", hold=True)
    b = right.invoke("inc_y", hold=True)
    return [Participant(left, a.txn_id), Participant(right, b.txn_id)]


class TestCommit:
    def test_group_commits_atomically(self, subsystems):
        left, right = subsystems
        coordinator = TwoPhaseCoordinator()
        outcome = coordinator.commit_group(prepare_group(left, right))
        assert outcome.committed
        assert left.store.get("x") == 1
        assert right.store.get("y") == 1
        assert left.prepared_transactions() == []

    def test_empty_group_trivially_commits(self):
        outcome = TwoPhaseCoordinator().commit_group([])
        assert outcome.committed
        assert outcome.participants == ()

    def test_group_id_assigned_and_custom(self, subsystems):
        left, right = subsystems
        coordinator = TwoPhaseCoordinator()
        outcome = coordinator.commit_group(
            prepare_group(left, right), group_id="harden:P1"
        )
        assert outcome.group_id == "harden:P1#1"  # its first attempt


class TestVeto:
    def test_veto_rolls_back_everyone(self, subsystems):
        left, right = subsystems
        coordinator = TwoPhaseCoordinator(
            vote=lambda participant: participant.subsystem.name != "right"
        )
        outcome = coordinator.commit_group(prepare_group(left, right))
        assert not outcome.committed
        assert outcome.veto is not None and "right" in outcome.veto
        assert left.store.get("x") == 0
        assert right.store.get("y") == 0
        assert left.prepared_transactions() == []
        assert right.prepared_transactions() == []

    def test_unprepared_participant_aborts_group(self, subsystems):
        left, right = subsystems
        participants = prepare_group(left, right)
        # commit one participant out-of-band: it is no longer prepared
        left.commit_prepared(participants[0].txn_id)
        outcome = TwoPhaseCoordinator().commit_group(participants)
        assert not outcome.committed
        # the other participant must have been rolled back
        assert right.store.get("y") == 0


class TestLogging:
    def test_decision_logged_before_phase_two(self, subsystems):
        left, right = subsystems
        wal = InMemoryWAL()
        coordinator = TwoPhaseCoordinator(wal=wal)
        coordinator.commit_group(prepare_group(left, right), group_id="g1")
        kinds = [record["type"] for record in wal.records()]
        assert kinds == ["2pc_begin", "2pc_commit", "2pc_end"]
        begin = wal.records()[0]
        assert begin["group"] == "g1#1"
        assert len(begin["participants"]) == 2

    def test_a_group_behind_the_log_is_its_decision(self, subsystems):
        """Every leg's store writes behind the log and no peer acts on
        the decision: it is the group's one record, unforced, naming
        the legs and the process, with their redo."""
        left, right = subsystems
        wal = InMemoryWAL()
        for subsystem in subsystems:
            subsystem.store.write_behind(wal)
        outcome = TwoPhaseCoordinator(wal=wal).commit_group(
            prepare_group(left, right), group_id="harden:P1"
        )
        assert outcome.committed and outcome.one_record
        (decision,) = wal.records()
        assert decision["type"] == "2pc_commit" and decision["process"] == "P1"
        assert len(decision["participants"]) == len(decision["redo"]) == 2
        assert wal.unforced == 1 and left.store.get("x") == 1  # queued

    def test_one_store_written_through_keeps_the_protocol(self, subsystems):
        left, right = subsystems
        wal = InMemoryWAL()
        left.store.write_behind(wal)
        outcome = TwoPhaseCoordinator(wal=wal).commit_group(
            prepare_group(left, right)
        )
        assert not outcome.one_record
        kinds = [record["type"] for record in wal.records()]
        assert kinds == ["2pc_begin", "2pc_commit", "2pc_end"]
        assert "participants" not in wal.records()[1] and wal.unforced == 1

    def test_abort_logged(self, subsystems):
        left, right = subsystems
        wal = InMemoryWAL()
        coordinator = TwoPhaseCoordinator(wal=wal, vote=lambda p: False)
        coordinator.commit_group(prepare_group(left, right), group_id="g2")
        kinds = [record["type"] for record in wal.records()]
        assert kinds == ["2pc_begin", "2pc_abort"]


def local_coordinator(**seams):
    return TwoPhaseCoordinator(shard_id="s0", **seams)


def cross_shard_coordinator(**seams):
    """The distributed coordinator with every subsystem on its own shard."""
    return CrossShardCoordinator(
        network=FederationNetwork(),
        owner_of=lambda subsystem: "s0",
        shard_id="s0",
        **seams,
    )


class TestOneProtocolBody:
    """An all-local group is one protocol whoever coordinates it: the
    same records, byte for byte, across the same boundaries."""

    LEGS = ["left:t1", "right:t2"]

    def drive(self, make, vote):
        left, right = make_subsystems()
        a = left.invoke("inc_x", hold=True, txn_id="t1")
        b = right.invoke("inc_y", hold=True, txn_id="t2")
        wal, crossed = InMemoryWAL(), []
        outcome = make(wal=wal, vote=vote, boundary=crossed.append).commit_group(
            [Participant(left, a.txn_id), Participant(right, b.txn_id)],
            group_id="harden:P1",
        )
        assert left.prepared_transactions() == right.prepared_transactions() == []
        stores = (left.store.get("x"), right.store.get("y"))
        return outcome, crossed, [json.dumps(r) for r in wal.records()], stores

    @pytest.mark.parametrize(
        "vote, crossed, stores",
        [
            (None, boundaries(LEGS), (1, 1)),
            (
                lambda leg: leg.subsystem.name != "right",
                ["begin_logged", "vote:left:t1", "votes_collected", "abort_logged"],
                (0, 0),
            ),
        ],
        ids=["commit", "veto"],
    )
    def test_both_coordinators_write_the_same_bytes(self, vote, crossed, stores):
        local = self.drive(local_coordinator, vote)
        cross = self.drive(cross_shard_coordinator, vote)
        assert local == cross
        assert local[1] == crossed and local[3] == stores
        assert local[0].group_id == "harden:P1#1"
