"""The force-point table is minimal *and* sufficient (DESIGN.md §3b).

Writers force exactly the records a durable store effect or an
acknowledged outcome depends on.  *Sufficient*: the crash sweep — every
LSN, every surviving cut of the log, the stores intact or back at their
last sync, their write-behind queues gone — is clean.  *Minimal*:
un-force any one kind in a test double of the log (or skip recovery's
redo) and the same sweep, not a hand-picked crash point, finds a
violation.  The direct ``activity_commit`` and an all-local group's
``2pc_commit`` need no force because their stores write behind the log:
a store double that writes through instead shows that is what they
rely on.  The cross-shard kinds are swept over the coordinator's
message boundaries instead, with both shards losing power.
"""

from dataclasses import replace

import pytest

from repro.errors import InvalidScheduleError
from repro.sim import crashpoints
from repro.sim.crashpoints import CrashPointSpec, run_crashpoints
from repro.sim.workload import WorkloadSpec
from repro.subsystems import backend, recovery
from repro.subsystems.recovery import analyze_wal, recover
from repro.subsystems.wal import InMemoryWAL
from tests.unit import test_fed_twopc
from tests.unit.test_fed_twopc import CoordinatorCrash, World, crash_at

SPEC = CrashPointSpec(
    workload=WorkloadSpec(
        processes=3, prefix_range=(1, 2), service_pool=6, conflict_rate=0.1
    ),
    abort_rate=0.2,
    recovery_stride=0,
    seed=2,
)


def unforcing(*kinds):
    """A log that ignores the force on records of ``kinds``."""

    class Unforcing(InMemoryWAL):
        def append(self, record, force=False):
            if record["type"] in kinds:
                force = False
            return super().append(record, force)

    return Unforcing


def violations(monkeypatch, log_class, spec=SPEC):
    monkeypatch.setattr(crashpoints, "InMemoryWAL", log_class)
    return run_crashpoints(spec, file_faults=False).failures


class WriteThrough(backend.MemoryBackend):
    """A store that follows the log but installs each commit when it is
    applied — what the stores were before they wrote behind it."""

    def _commit(self, writes):
        self._install(writes)


class TestSingleScheduler:
    def test_the_table_is_sufficient(self, monkeypatch):
        """Clean with second crashes during recovery swept as well —
        and without forcing any direct commit or local decision: behind
        the log their store commits wait for the next anchor's force."""
        forced = []

        class Spy(InMemoryWAL):
            def append(self, record, force=False):
                if force:
                    forced.append(record["type"])
                return super().append(record, force)

        spec = replace(SPEC, recovery_stride=6)
        assert violations(monkeypatch, Spy, spec) == []
        assert "process_commit" in forced
        assert not {"activity_commit", "2pc_commit"} & set(forced)

    def test_a_local_group_is_its_decision_alone(self, monkeypatch):
        """Behind the log, every group the sweep commits logs one
        record — the decision, naming its legs and process — and the
        sweep is clean without a begin, an end or a ``hardened``."""
        kinds, decisions = set(), []

        class Spy(InMemoryWAL):
            def append(self, record, force=False):
                kinds.add(record["type"])
                if record["type"] == "2pc_commit":
                    decisions.append(record)
                return super().append(record, force)

        assert violations(monkeypatch, Spy) == []
        assert decisions and not {"2pc_begin", "2pc_end", "hardened"} & kinds
        assert all(d["participants"] and d["process"] for d in decisions)

    @pytest.mark.parametrize(
        "rewrite, symptom",
        [
            # No legs: a crash right after the decision leaves them
            # prepared, and in-doubt resolution rolls back what the
            # history keeps as committed.
            (lambda record: {**record, "participants": []}, ("ledger=store rows",)),
            # No redo: a store cut back to its last sync stays short.
            (
                lambda record: {**record, "redo": []},
                ("stores at their last sync", "ledger=store rows"),
            ),
        ],
        ids=["legs", "redo"],
    )
    def test_each_part_of_the_decision_is_needed(
        self, monkeypatch, rewrite, symptom
    ):
        class Rewriting(InMemoryWAL):
            def append(self, record, force=False):
                if record["type"] == "2pc_commit":
                    record = rewrite(record)
                return super().append(record, force)

        found = violations(monkeypatch, Rewriting)
        assert any(
            all(part in note for part in symptom) for note in found
        ), found[:3]

    def test_the_decision_is_needed(self, monkeypatch):
        """Without it, the log presumes every group's legs aborted while
        their processes went on past them: the history read back from
        it is not even a schedule of the processes."""

        class Undecided(InMemoryWAL):
            def append(self, record, force=False):
                if record["type"] == "2pc_commit":
                    return self.next_lsn - 1  # never written
                return super().append(record, force)

        with pytest.raises(InvalidScheduleError, match="must compensate"):
            violations(monkeypatch, Undecided)

    def test_write_behind_is_needed(self, monkeypatch):
        """With stores that install each commit as it is applied, the
        same sweep finds a store row whose record the cut took: a
        direct commit or a local group's legs ahead of the log."""
        monkeypatch.setattr(backend, "MemoryBackend", WriteThrough)
        found = violations(monkeypatch, InMemoryWAL)
        assert any("ledger=store rows" in note for note in found), found[:3]

    @pytest.mark.parametrize(
        "log_class, symptom",
        [
            # An acknowledged outcome the log no longer knows.
            (unforcing("process_commit"), "outcomes_kept=False"),
            (unforcing("process_abort"), "outcomes_kept=False"),
            # recover() returned, and a power cut re-opens the recovery.
            (unforcing("recovery_end"), "durable=False"),
        ],
        ids=[
            "process_commit",
            "process_abort",
            "recovery_end",
        ],
    )
    def test_every_force_is_needed(self, monkeypatch, log_class, symptom):
        found = violations(monkeypatch, log_class)
        assert any(symptom in note for note in found), found[:3]

    def test_redo_is_needed(self, monkeypatch):
        """Stores sync only at checkpoints: without the redo pass, the
        cut that takes every store back to its last sync leaves them
        short of the surviving history."""
        monkeypatch.setattr(recovery, "_redo", lambda analysis, registry: None)
        found = violations(monkeypatch, InMemoryWAL)
        assert any(
            "stores at their last sync" in note and "ledger=store rows" in note
            for note in found
        ), found[:3]


class TestCrossShard:
    """Coordinator s0 crashes at each message boundary; both shards
    lose power; each recovers from what its log kept."""

    BOUNDARIES = ["begin_logged", "vote:s1", "votes_collected", "decision_logged"]

    def converge(self, boundary):
        world = World(boundary=crash_at(boundary))
        with pytest.raises(CoordinatorCrash):
            world.coordinator.commit_group(
                world.prepare(), group_id="harden:P1"
            )
        world.wal0.lose_tail()
        world.wal1.lose_tail()

        coordinator = world.make_coordinator()
        coordinator.rebuild()
        recover(
            world.wal0,
            world.registry0,
            {},
            txn_filter=lambda name, txn: txn.startswith("s0@"),
            coordinator=coordinator,
        )
        report = recover(
            world.wal1,
            world.registry1,
            {},
            txn_filter=lambda name, txn: txn.startswith("s1@"),
        )
        world.agent.groups.clear()
        world.agent.rebuild(report, now=1.0)
        coordinator.resend(1.0)
        # The termination protocol's question, asked of the coordinator.
        for group in list(world.agent.groups):
            verdict = coordinator.decision_for(group)
            assert verdict is not None, f"{group} is nobody's to answer"
            world.agent.apply_decision(group, verdict, via="s0")
        return world, coordinator

    def test_a_decision_with_peers_needs_its_force(self, monkeypatch):
        """The coordinator's own store writes behind its log, so its leg
        needs no forced decision — but the peer commits its leg on the
        decision it was sent.  Un-forced, a crash after the hand-off
        loses the decision: the coordinator presumes abort, its queued
        leg is gone, and the group commits half."""

        class Unforced(InMemoryWAL):
            def append(self, record, force=False):
                if record["type"] == "2pc_commit" and "role" not in record:
                    force = False
                return super().append(record, force)

        def half_committed(boundary):
            world = World(boundary=crash_at(boundary))
            world.home.store.write_behind(world.wal0)
            with pytest.raises(CoordinatorCrash):
                world.coordinator.commit_group(
                    world.prepare(), group_id="harden:P1"
                )
            world.home.store.lose_unflushed()
            world.wal0.lose_tail()
            world.wal1.lose_tail()
            coordinator = world.make_coordinator()
            coordinator.rebuild()
            recover(
                world.wal0,
                world.registry0,
                {},
                txn_filter=lambda name, txn: txn.startswith("s0@"),
                coordinator=coordinator,
            )
            return world.home.store.get("x") != world.remote.store.get("y")

        assert not half_committed("end_logged")
        monkeypatch.setattr(test_fed_twopc, "InMemoryWAL", Unforced)
        assert half_committed("end_logged")

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_the_table_is_sufficient(self, boundary):
        world, coordinator = self.converge(boundary)
        assert world.home.store.get("x") == world.remote.store.get("y")
        assert world.prepared_anywhere() == []
        assert coordinator.pending == {}
        retry = coordinator.commit_group(world.prepare(), group_id="harden:P1")
        assert retry.group_id != "harden:P1#1"  # never reused

    def test_the_vote_force_is_needed(self, monkeypatch):
        """Un-forced, the sweep finds the boundary where the participant
        forgets its YES, presumes abort, and the group commits half."""
        monkeypatch.setattr(
            test_fed_twopc, "InMemoryWAL", unforcing("2pc_vote")
        )
        broken = []
        for boundary in self.BOUNDARIES:
            world, _ = self.converge(boundary)
            if world.home.store.get("x") != world.remote.store.get("y"):
                broken.append(boundary)
        assert broken == ["decision_logged"]

    def test_the_cross_shard_begin_force_is_needed(self, monkeypatch):
        """Un-forced, the coordinator forgets a group a participant
        still holds a vote on: it cannot answer for it, and a retry
        would reuse its incarnation."""
        monkeypatch.setattr(
            test_fed_twopc, "InMemoryWAL", unforcing("2pc_begin")
        )
        orphaned = []
        for boundary in self.BOUNDARIES:
            try:
                self.converge(boundary)
            except AssertionError as error:
                orphaned.append((boundary, str(error)))
        assert [boundary for boundary, _ in orphaned] == [
            "vote:s1",
            "votes_collected",
        ]
        assert all("nobody's to answer" in text for _, text in orphaned)
