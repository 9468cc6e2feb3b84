"""The force-point table is minimal *and* sufficient (DESIGN.md §3b).

Writers force exactly the records a durable store effect or an
acknowledged outcome depends on.  *Sufficient*: the crash sweep — every
LSN, every surviving cut of the log, the stores intact or back at their
last sync — is clean.  *Minimal*: un-force any one kind in a test
double of the log (or skip recovery's redo) and the same sweep, not a
hand-picked crash point, finds a violation.  The cross-shard kinds are
swept over the coordinator's message boundaries instead, with both
shards losing power.
"""

from dataclasses import replace

import pytest

from repro.sim import crashpoints
from repro.sim.crashpoints import CrashPointSpec, run_crashpoints
from repro.sim.workload import WorkloadSpec
from repro.subsystems import recovery
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


def unforcing(*kinds, held=None):
    """A log that ignores the force on records of ``kinds`` (and, with
    ``held``, only on ``activity_commit`` records so flagged)."""

    class Unforcing(InMemoryWAL):
        def append(self, record, force=False):
            if record["type"] in kinds and (
                held is None or record.get("prepared") is held
            ):
                force = False
            return super().append(record, force)

    return Unforcing


def violations(monkeypatch, log_class, spec=SPEC):
    monkeypatch.setattr(crashpoints, "InMemoryWAL", log_class)
    return run_crashpoints(spec, file_faults=False).failures


class TestSingleScheduler:
    def test_the_table_is_sufficient(self, monkeypatch):
        """Clean with second crashes during recovery swept as well —
        and without forcing a held invocation: those ride on their
        group's decision."""
        forced_held = []

        class Spy(InMemoryWAL):
            def append(self, record, force=False):
                if record["type"] == "activity_commit" and force:
                    forced_held.append(record["prepared"])
                return super().append(record, force)

        spec = replace(SPEC, recovery_stride=6)
        assert violations(monkeypatch, Spy, spec) == []
        assert forced_held and not any(forced_held)

    @pytest.mark.parametrize(
        "log_class, symptom",
        [
            # The store has the row, the surviving history has no event.
            (unforcing("activity_commit", held=False), "ledger=store rows"),
            # Legs committed in their stores under a decision that is gone.
            (unforcing("2pc_commit"), "ledger=store rows"),
            # An acknowledged outcome the log no longer knows.
            (unforcing("process_commit"), "outcomes_kept=False"),
            (unforcing("process_abort"), "outcomes_kept=False"),
            # recover() returned, and a power cut re-opens the recovery.
            (unforcing("recovery_end"), "durable=False"),
        ],
        ids=[
            "activity_commit",
            "2pc_commit",
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
