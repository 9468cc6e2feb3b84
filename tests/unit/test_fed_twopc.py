"""Unit tests for the cross-shard 2PC (coordinator + participant agent).

The crash sweep drives the coordinator to a crash at every message
boundary of the cross-shard protocol, then runs the recovery path a
restarted shard would run (coordinator ``rebuild`` from the WAL, local
in-doubt resolution via :func:`recover`, decision resend) and asserts
the federation invariant: both shards converge on the same outcome,
no prepared transaction leaks, and every leg is resolved exactly once.
"""

import pytest

from repro.fed.messages import FederationNetwork, MessageFaultPolicy
from repro.fed.twopc import (
    CrossShardCoordinator,
    DecisionLedger,
    ShardCommitAgent,
)
from repro.subsystems.recovery import analyze_wal, recover
from repro.subsystems.services import counter_service
from repro.subsystems.subsystem import Subsystem, SubsystemRegistry
from repro.subsystems.twophase import Participant, boundaries
from repro.subsystems.wal import InMemoryWAL


class CoordinatorCrash(RuntimeError):
    pass


def crash_at(boundary_name):
    def hook(name):
        if name == boundary_name:
            raise CoordinatorCrash(name)

    return hook


class World:
    """Two shards: s0 (coordinator, grpA) and s1 (participant, grpB)."""

    def __init__(self, boundary=None, vote=None):
        self.home = Subsystem("grpA", initial_state={"x": 0})
        self.home.register(counter_service("inc_x", "x"))
        self.remote = Subsystem("grpB", initial_state={"y": 0})
        self.remote.register(counter_service("inc_y", "y"))
        self.ledger = DecisionLedger()
        self.ledger.bind(self.home)
        self.ledger.bind(self.remote)
        self.owners = {"grpA": "s0", "grpB": "s1"}
        self.network = FederationNetwork(MessageFaultPolicy())
        self.wal0 = InMemoryWAL()
        self.wal1 = InMemoryWAL()
        self.registry0 = SubsystemRegistry([self.home, self.remote])
        self.registry1 = SubsystemRegistry([self.home, self.remote])
        self.agent = ShardCommitAgent(
            "s1", self.wal1, self.registry1, ledger=self.ledger
        )
        self.network.bind("s1", rpc=self.agent.handle)
        self.coordinator = self.make_coordinator(
            boundary=boundary, vote=vote
        )

    def make_coordinator(self, boundary=None, vote=None):
        return CrossShardCoordinator(
            shard_id="s0",
            wal=self.wal0,
            network=self.network,
            owner_of=self.owners.__getitem__,
            vote=vote,
            boundary=boundary,
        )

    def prepare(self):
        a = self.home.invoke("inc_x", hold=True, txn_id="s0@grpA/t1")
        b = self.remote.invoke("inc_y", hold=True, txn_id="s1@grpB/t1")
        return [
            Participant(self.home, a.txn_id),
            Participant(self.remote, b.txn_id),
        ]

    def prepared_anywhere(self):
        return (
            self.home.prepared_transactions()
            + self.remote.prepared_transactions()
        )


class TestCrossCommit:
    def test_cross_group_commits_both_shards(self):
        world = World()
        outcome = world.coordinator.commit_group(
            world.prepare(), group_id="harden:P1"
        )
        assert outcome.committed
        assert outcome.group_id == "harden:P1#1"
        assert world.home.store.get("x") == 1
        assert world.remote.store.get("y") == 1
        assert world.prepared_anywhere() == []
        assert world.coordinator.pending == {}
        assert "harden:P1#1" in world.agent.applied
        # participant made its YES durable before it travelled back
        assert "s1@grpB/t1" in analyze_wal(world.wal1).voted_txns

    def test_incarnations_distinguish_retries(self):
        world = World()
        participants = world.prepare()
        # first attempt vetoed by the local vote function
        vetoing = world.make_coordinator(vote=lambda p: False)
        first = vetoing.commit_group(participants, group_id="harden:P1")
        assert not first.committed
        # retry after re-preparing is a *different* group id
        retry = world.prepare()
        second = world.make_coordinator().commit_group(
            retry, group_id="harden:P1"
        )
        assert second.committed
        assert first.group_id != second.group_id

    def test_remote_veto_rolls_back_everywhere(self):
        world = World()
        participants = world.prepare()
        # the remote leg disappears before the vote: agent votes NO
        world.remote.rollback_prepared("s1@grpB/t1")
        outcome = world.coordinator.commit_group(
            participants, group_id="harden:P1"
        )
        assert not outcome.committed
        assert outcome.veto == "shard:s1"
        assert world.home.store.get("x") == 0
        assert world.prepared_anywhere() == []


class TestUnreachableShard:
    def test_unreachable_participant_vetoes(self):
        world = World()
        participants = world.prepare()
        world.network.mark_down("s1")
        outcome = world.coordinator.commit_group(
            participants, group_id="harden:P1"
        )
        assert not outcome.committed
        assert outcome.veto == "shard-unreachable:s1"
        # local leg rolled back immediately; remote leg pending abort
        assert world.home.prepared_transactions() == []
        assert len(world.remote.prepared_transactions()) == 1
        assert world.coordinator.pending

    def test_abort_resend_carries_legs(self):
        """The participant never saw the vote request, yet the abort
        resend resolves its prepared leg — decisions carry legs."""
        world = World()
        participants = world.prepare()
        world.network.mark_down("s1")
        world.coordinator.commit_group(participants, group_id="harden:P1")
        world.network.mark_up("s1")
        # breaker may be open after the failed votes; step past it
        now = 10.0
        for _ in range(8):
            if not world.coordinator.pending:
                break
            world.coordinator.resend(now)
            now += 5.0
        assert world.coordinator.pending == {}
        assert world.remote.prepared_transactions() == []
        assert world.remote.store.get("y") == 0


class TestDecisionIdempotence:
    def test_duplicate_decision_suppressed(self):
        world = World()
        world.coordinator.commit_group(
            world.prepare(), group_id="harden:P1"
        )
        before = world.remote.store.get("y")
        response = world.agent.handle(
            {
                "op": "decision",
                "group": "harden:P1#1",
                "commit": True,
                "legs": ["grpB:s1@grpB/t1"],
            }
        )
        assert response.get("duplicate")
        assert world.remote.store.get("y") == before
        assert world.ledger.commits["s1@grpB/t1"] == 1

    def test_query_answers_from_decisions_seen(self):
        world = World()
        world.coordinator.commit_group(
            world.prepare(), group_id="harden:P1"
        )
        assert world.agent.answer_query("harden:P1#1") == {
            "known": True,
            "commit": True,
        }
        assert world.agent.answer_query("harden:P9#1") == {"known": False}


class TestCoordinatorCrashSweep:
    #: The base protocol's list for the coordinator's own leg, plus the
    #: one thing a peer adds to it: ``vote:<shard>``.
    BOUNDARIES = boundaries(["grpA:s0@grpA/t1"], peers=["s1"])

    def test_a_cross_shard_commit_crosses_exactly_these(self):
        crossed = []
        world = World(boundary=crossed.append)
        world.coordinator.commit_group(world.prepare(), group_id="harden:P1")
        assert crossed == self.BOUNDARIES
        assert set(crossed) - set(boundaries(["grpA:s0@grpA/t1"])) == {"vote:s1"}

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_crash_then_recovery_converges(self, boundary):
        world = World(boundary=crash_at(boundary))
        participants = world.prepare()
        with pytest.raises(CoordinatorCrash):
            world.coordinator.commit_group(
                participants, group_id="harden:P1"
            )

        # the restarted shard: fresh coordinator rebuilt from the WAL,
        # local in-doubt resolution, then decision resend
        recovered = world.make_coordinator()
        recovered.rebuild()
        recover(
            world.wal0,
            world.registry0,
            {},
            txn_filter=lambda name, txn: txn.startswith("s0@"),
            coordinator=recovered,
        )
        recovered.resend(1.0)

        decided = analyze_wal(world.wal0).decided_groups
        expect_commit = self.BOUNDARIES.index(boundary) >= self.BOUNDARIES.index(
            "decision_logged"
        )
        assert ("harden:P1#1" in decided) == expect_commit
        expected = 1 if expect_commit else 0
        assert world.home.store.get("x") == expected
        assert world.remote.store.get("y") == expected
        assert world.prepared_anywhere() == []
        assert recovered.pending == {}
        # every leg resolved exactly once, never doubly applied
        for txn in ("s0@grpA/t1", "s1@grpB/t1"):
            resolutions = (
                world.ledger.commits[txn] + world.ledger.rollbacks[txn]
            )
            assert resolutions == 1, (boundary, txn, resolutions)

    def test_incarnation_counter_survives_crashes(self):
        world = World(boundary=crash_at("votes_collected"))
        with pytest.raises(CoordinatorCrash):
            world.coordinator.commit_group(
                world.prepare(), group_id="harden:P1"
            )
        recovered = world.make_coordinator()
        recovered.rebuild()
        recovered.resend(1.0)
        outcome = recovered.commit_group(
            world.prepare(), group_id="harden:P1"
        )
        assert outcome.committed
        # the pre-crash attempt consumed incarnation #1
        assert outcome.group_id == "harden:P1#2"


class TestAgentRebuild:
    def test_voted_leg_reenters_in_doubt_after_crash(self):
        world = World(boundary=crash_at("votes_collected"))
        with pytest.raises(CoordinatorCrash):
            world.coordinator.commit_group(
                world.prepare(), group_id="harden:P1"
            )
        # the participant shard also crashes: a fresh agent rebuilds
        # its in-doubt table from the recovered WAL scan
        fresh = ShardCommitAgent(
            "s1", world.wal1, world.registry1, ledger=world.ledger
        )
        report = recover(
            world.wal1, world.registry1, {}, txn_filter=lambda name, txn: False
        )
        assert report.held_in_doubt == (("grpB", "s1@grpB/t1"),)
        fresh.rebuild(report, now=2.0)
        assert fresh.has_in_doubt()
        overdue = fresh.in_doubt(now=10.0, timeout=5.0)
        assert [group.group_id for group in overdue] == ["harden:P1#1"]
        # the coordinator's authority resolves it: begun + undecided
        recovered = world.make_coordinator()
        recovered.rebuild()
        assert recovered.decision_for("harden:P1#1") is False
        fresh.apply_decision("harden:P1#1", False, via="s0")
        assert not fresh.has_in_doubt()
        assert world.remote.prepared_transactions() == []
