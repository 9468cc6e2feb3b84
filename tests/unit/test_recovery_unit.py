"""Unit tests for WAL analysis and recovery internals."""

import pytest

from repro.core.scheduler import TransactionalProcessScheduler
from repro.errors import UnknownProcessError
from repro.scenarios.paper import paper_conflicts, process_p1, process_p2
from repro.subsystems.recovery import analyze_wal, recover
from repro.subsystems.wal import InMemoryWAL


def logged_run(rounds=None):
    wal = InMemoryWAL()
    scheduler = TransactionalProcessScheduler(
        conflicts=paper_conflicts(), wal=wal
    )
    scheduler.submit(process_p1())
    scheduler.submit(process_p2())
    if rounds is None:
        scheduler.run()
    else:
        for _ in range(rounds):
            scheduler.step_round()
    return wal, scheduler


class TestAnalyzeWal:
    def test_started_processes_listed_in_order(self):
        wal, _ = logged_run(rounds=1)
        analysis = analyze_wal(wal)
        assert analysis.started == ["P1", "P2"]

    def test_committed_processes_not_active(self):
        wal, _ = logged_run()
        analysis = analyze_wal(wal)
        assert set(analysis.committed) == {"P1", "P2"}
        assert analysis.active == []

    def test_events_exclude_rolled_back(self):
        wal, scheduler = logged_run(rounds=2)
        scheduler.abort("P1", "test")
        scheduler.run()
        analysis = analyze_wal(wal)
        rolled_back = {
            (record["process"], record["activity"])
            for record in wal.records()
            if record["type"] == "activity_rollback"
        }
        surviving = {(pid, name) for pid, name, _ in analysis.events}
        assert not (rolled_back & surviving)

    def test_prepared_without_decision_presumed_aborted(self):
        wal, scheduler = logged_run(rounds=2)
        scheduler.crash()
        analysis = analyze_wal(wal)
        # any prepared pivot whose harden group never logged a commit
        # decision must be listed as presumed aborted OR covered by a
        # decided group
        for pid, name in analysis.presumed_aborted:
            assert pid in analysis.started

    def test_txn_group_mapping_populated(self):
        wal, _ = logged_run()
        analysis = analyze_wal(wal)
        assert analysis.txn_groups  # at least the harden groups
        assert all(
            group.startswith("harden:")
            for group in analysis.txn_groups.values()
        )


class TestRecoverValidation:
    def test_unknown_process_in_wal_rejected(self):
        wal, scheduler = logged_run(rounds=1)
        scheduler.crash()
        with pytest.raises(UnknownProcessError):
            recover(
                wal,
                scheduler.registry,
                {"P1": process_p1()},  # P2 missing from the repository
                conflicts=paper_conflicts(),
            )

    def test_recovery_report_fields(self):
        wal, scheduler = logged_run(rounds=2)
        scheduler.crash()
        report = recover(
            wal,
            scheduler.registry,
            {"P1": process_p1(), "P2": process_p2()},
            conflicts=paper_conflicts(),
        )
        assert set(report.group_aborted) <= {"P1", "P2"}
        assert report.analysis.started == ["P1", "P2"]
        assert report.history.is_legal()

    def test_recovery_brackets_itself_in_the_log(self):
        wal, scheduler = logged_run(rounds=2)
        scheduler.crash()
        report = recover(
            wal,
            scheduler.registry,
            {"P1": process_p1(), "P2": process_p2()},
            conflicts=paper_conflicts(),
        )
        kinds = [record["type"] for record in wal.records()]
        assert "recovery_begin" in kinds
        assert "recovery_end" in kinds
        assert kinds.index("recovery_begin") < kinds.index("recovery_end")
        begin = next(
            record
            for record in wal.records()
            if record["type"] == "recovery_begin"
        )
        assert begin["processes"] == list(report.group_aborted)
        assert begin["attempt"] == 1
        assert begin["resumed"] is False

    def test_recover_twice_is_a_noop(self):
        wal, scheduler = logged_run(rounds=2)
        scheduler.crash()
        repository = {"P1": process_p1(), "P2": process_p2()}
        first = recover(
            wal, scheduler.registry, repository, conflicts=paper_conflicts()
        )
        length_after_first = len(wal)
        second = recover(
            wal, first.scheduler.registry, repository,
            conflicts=paper_conflicts(),
        )
        assert second.noop
        assert second.group_aborted == ()
        assert len(wal) == length_after_first

    def test_recovery_replay_does_not_duplicate_log(self):
        wal, scheduler = logged_run(rounds=2)
        pre_crash = [
            record
            for record in wal.records()
            if record["type"] in ("process_submit", "activity_commit")
        ]
        scheduler.crash()
        recover(
            wal,
            scheduler.registry,
            {"P1": process_p1(), "P2": process_p2()},
            conflicts=paper_conflicts(),
        )
        replayed = [
            record
            for record in wal.records()
            if record["type"] in ("process_submit", "activity_commit")
            and record["lsn"] <= pre_crash[-1]["lsn"]
        ]
        assert replayed == pre_crash


class TestCheckpointing:
    def test_scan_resumes_from_checkpoint(self):
        wal, scheduler = logged_run(rounds=2)
        full = analyze_wal(wal)
        scheduler.checkpoint()
        scheduler.crash()
        resumed = analyze_wal(wal)
        assert resumed.started == full.started
        assert resumed.committed == full.committed
        assert resumed.events == full.events
        assert resumed.records_scanned < len(full.started) + len(
            full.events
        ) + 1

    def test_auto_checkpoint_bounds_log_length(self):
        from repro.subsystems.wal import CHECKPOINT

        wal = InMemoryWAL()
        scheduler = TransactionalProcessScheduler(
            conflicts=paper_conflicts(), wal=wal, checkpoint_interval=4
        )
        scheduler.submit(process_p1())
        scheduler.submit(process_p2())
        scheduler.run()
        kinds = [record["type"] for record in wal.records()]
        assert CHECKPOINT in kinds
        # Compaction keeps the retained log near the interval: the
        # checkpoint record plus at most interval-1 scheduler appends
        # plus directly-logged 2PC records in between.
        assert len(wal) < 4 + 8

    def test_recovery_after_checkpoint_still_terminates_all(self):
        wal, scheduler = logged_run(rounds=2)
        scheduler.checkpoint()
        scheduler.crash()
        report = recover(
            wal,
            scheduler.registry,
            {"P1": process_p1(), "P2": process_p2()},
            conflicts=paper_conflicts(),
        )
        final = analyze_wal(wal)
        assert final.active == []
        assert report.history.is_legal()

    def test_checkpoint_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            TransactionalProcessScheduler(checkpoint_interval=0)

    def test_scan_state_roundtrips(self):
        from repro.subsystems.recovery import WalScanState

        wal, scheduler = logged_run(rounds=2)
        state = analyze_wal(wal)
        clone = WalScanState.from_dict(state.to_dict())
        assert clone == state
        assert clone.entries and clone.txn_groups and clone.decided_groups
        assert clone.timeline == state.timeline


class TestOneFold:
    """The scan state is the one reader: what it keeps, what it writes."""

    #: The keys a single scheduler's checkpoint has always had (minus
    #: ``rolled_back`` and ``ended_groups``, which nothing read).
    LEGACY_KEYS = {
        "started",
        "committed",
        "aborted",
        "timeline",
        "txn_groups",
        "decided_groups",
        "voted_txns",
        "recovery_begun",
        "recovery_ended",
        "recovery_pending",
    }

    def test_single_scheduler_checkpoint_gains_no_key(self):
        wal, scheduler = logged_run(rounds=3)
        scheduler.checkpoint()
        assert set(wal.records()[0]["state"]) == self.LEGACY_KEYS

    def test_checkpoint_of_an_older_build_still_loads(self):
        from repro.subsystems.recovery import WalScanState

        wal, _ = logged_run(rounds=2)
        payload = analyze_wal(wal).to_dict()
        payload["rolled_back"] = [["P1", "a12"]]  # written before PR 20
        assert WalScanState.from_dict(payload) == analyze_wal(wal)

    def test_loading_a_checkpoint_never_aliases_its_record(self):
        wal, scheduler = logged_run(rounds=2)
        scheduler.checkpoint()
        snapshot = repr(wal.records()[0]["state"])
        wal.append({"type": "process_submit", "process": "late"})
        wal.append({"type": "process_commit", "process": "late"})
        analysis = analyze_wal(wal)
        assert "late" in analysis.started and "late" in analysis.committed
        assert repr(wal.records()[0]["state"]) == snapshot

    def test_a_later_decision_never_rewrites_a_checkpoint(self):
        """A held event awaiting a decision of its own is checkpointed;
        folding the decision that follows resolves it in the scan, not
        in the record — or cutting that decision off the log would
        leave the checkpoint claiming the event was covered."""
        wal = InMemoryWAL()
        for record in (
            {"type": "process_submit", "process": "P"},
            {"type": "activity_commit", "process": "P", "activity": "a1",
             "direction": 1, "prepared": True},
            {"type": "2pc_begin", "group": "harden:P#1",
             "participants": ["s:t1"]},
            {"type": "2pc_commit", "group": "harden:P#1"},
            {"type": "activity_commit", "process": "P", "activity": "a2",
             "direction": 1, "prepared": True},
        ):
            wal.append(record)
        wal.checkpoint(analyze_wal(wal).to_dict())
        snapshot = repr(wal.records()[0]["state"])
        wal.append({"type": "2pc_begin", "group": "harden:P#2",
                    "participants": ["s:t2"]})
        wal.append({"type": "2pc_commit", "group": "harden:P#2"})
        assert ("P", "a2", 1) in analyze_wal(wal).events
        assert repr(wal.records()[0]["state"]) == snapshot
        wal.lose_tail()
        assert analyze_wal(wal).presumed_aborted == [("P", "a2")]

    def test_sequence_numbers_ride_on_timeline_entries(self):
        import itertools

        wal = InMemoryWAL()
        wal.sequence = itertools.count(10)
        scheduler = TransactionalProcessScheduler(
            conflicts=paper_conflicts(), wal=wal
        )
        scheduler.submit(process_p1())
        scheduler.submit(process_p2())
        scheduler.step_round()
        scheduler.step_round()
        analysis = analyze_wal(wal)
        by_seq = {record["seq"]: record for record in wal.records()}
        for entry in analysis.timeline:
            record = by_seq[entry.seq]
            assert record["process"] == entry.process
            assert record.get("activity") == entry.activity
        seqs = [entry.seq for entry in analysis.timeline]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        # ... and survive pruning and the checkpoint round trip.
        scheduler.checkpoint()
        resumed = analyze_wal(wal)
        assert resumed == analysis.prune()
        assert resumed.timeline == analysis.timeline != []

    def test_plain_log_entries_carry_no_sequence_number(self):
        wal, _ = logged_run()
        analysis = analyze_wal(wal)
        assert analysis.timeline
        assert all(entry.seq is None for entry in analysis.timeline)
        assert all(len(entry) in (2, 3, 5) for entry in analysis.entries)

    def test_two_phase_roles_are_folded_per_role(self):
        wal = InMemoryWAL()
        for record in (
            # a local group: no coordinator named, no role state kept
            {"type": "2pc_begin", "group": "harden:P0",
             "participants": ["a:a/t1"]},
            {"type": "2pc_commit", "group": "harden:P0"},
            {"type": "2pc_end", "group": "harden:P0"},
            # coordinator role: decided and ended / decided / interrupted
            {"type": "2pc_begin", "group": "harden:P1#1", "coordinator": "s0",
             "shards": ["s0", "s1"], "participants": ["a:a/t2", "b:s0@b/t1"]},
            {"type": "2pc_commit", "group": "harden:P1#1"},
            {"type": "2pc_end", "group": "harden:P1#1"},
            {"type": "2pc_begin", "group": "harden:P2#2", "coordinator": "s0",
             "shards": ["s0", "s1"], "participants": ["b:s0@b/t2"]},
            {"type": "2pc_abort", "group": "harden:P2#2", "veto": "shard:s1"},
            {"type": "2pc_begin", "group": "harden:P3#3", "coordinator": "s0",
             "shards": ["s0", "s1"], "participants": ["b:s0@b/t3"]},
            # participant role: voted, then applied someone else's decision
            {"type": "2pc_vote", "group": "harden:Q#1", "coordinator": "s1",
             "participants": ["a:s1@a/t1"]},
            {"type": "2pc_commit", "group": "harden:Q#1",
             "role": "participant"},
            {"type": "2pc_end", "group": "harden:Q#1", "role": "participant"},
            {"type": "2pc_abort", "group": "harden:R#2",
             "role": "participant"},
        ):
            wal.append(record)
        analysis = analyze_wal(wal)
        groups = analysis.coordinated_by("s0")
        assert list(groups) == ["harden:P1#1", "harden:P2#2", "harden:P3#3"]
        assert groups["harden:P1#1"] == (["a:a/t2", "b:s0@b/t1"], True, True)
        assert groups["harden:P2#2"] == (["b:s0@b/t2"], False, False)
        assert groups["harden:P3#3"] == (["b:s0@b/t3"], None, False)
        assert analysis.coordinated_by("s1") == {}
        assert analysis.applied == {"harden:Q#1": True, "harden:R#2": False}
        assert analysis.voted_txns == {"s1@a/t1": "harden:Q#1"}
        assert analysis.group_legs == {
            "harden:P0": {"a/t1"},
            "harden:P1#1": {"a/t2", "s0@b/t1"},
            "harden:P2#2": {"s0@b/t2"},
            "harden:P3#3": {"s0@b/t3"},
            "harden:Q#1": {"s1@a/t1"},
        }
        assert analysis.decided_groups == {
            "harden:P0", "harden:P1#1", "harden:Q#1"
        }
        # only a federated log writes the role keys into a checkpoint
        assert set(analysis.to_dict()) == self.LEGACY_KEYS | {
            "coordinated", "verdicts", "applied", "ended"
        }
