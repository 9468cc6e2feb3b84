"""Unit tests for write-ahead logs."""

import json
import os

import pytest

from repro.errors import LogCorruptionError
from repro.subsystems.wal import CHECKPOINT, FileWAL, InMemoryWAL, _encode

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")


class TestInMemoryWAL:
    def test_append_assigns_lsns(self):
        wal = InMemoryWAL()
        assert wal.append({"type": "a"}) == 0
        assert wal.append({"type": "b"}) == 1
        assert [record["lsn"] for record in wal.records()] == [0, 1]

    def test_records_are_copies(self):
        wal = InMemoryWAL()
        wal.append({"type": "a"})
        wal.records().clear()
        assert len(wal) == 1

    def test_iteration_and_len(self):
        wal = InMemoryWAL()
        wal.append({"type": "a"})
        wal.append({"type": "b"})
        assert [record["type"] for record in wal] == ["a", "b"]
        assert len(wal) == 2

    def test_truncate(self):
        wal = InMemoryWAL()
        wal.append({"type": "a"})
        wal.truncate()
        assert len(wal) == 0

    def test_truncate_restarts_lsns(self):
        wal = InMemoryWAL()
        wal.append({"type": "a"})
        wal.truncate()
        assert wal.append({"type": "b"}) == 0

    def test_append_does_not_mutate_input(self):
        wal = InMemoryWAL()
        record = {"type": "a"}
        wal.append(record)
        assert "lsn" not in record

    def test_checkpoint_compacts(self):
        wal = InMemoryWAL()
        for index in range(5):
            wal.append({"type": "a", "index": index})
        lsn = wal.checkpoint({"snapshot": True})
        assert lsn == 5
        records = wal.records()
        assert len(records) == 1
        assert records[0]["type"] == CHECKPOINT
        assert records[0]["state"] == {"snapshot": True}

    def test_lsns_monotone_across_checkpoint(self):
        wal = InMemoryWAL()
        wal.append({"type": "a"})
        wal.checkpoint({})
        assert wal.append({"type": "b"}) == 2


class TestSharedSequence:
    """A counter handed to several logs numbers their records on one
    line (``seq``); a log without one writes no such field."""

    def test_no_sequence_no_field(self, tmp_path):
        memory, on_disk = InMemoryWAL(), FileWAL(str(tmp_path / "wal.jsonl"))
        with on_disk:
            for wal in (memory, on_disk):
                wal.append({"type": "a"})
                wal.checkpoint({})
                assert all("seq" not in record for record in wal.records())

    def test_one_counter_orders_the_records_of_many_logs(self, tmp_path):
        import itertools

        left, right = InMemoryWAL(), FileWAL(str(tmp_path / "wal.jsonl"))
        left.sequence = right.sequence = itertools.count(1)
        with right:
            left.append({"type": "a"})
            right.append({"type": "b"})
            right.append({"type": "c"})
            left.append({"type": "d"})
            merged = sorted(
                left.records() + right.records(), key=lambda r: r["seq"]
            )
            assert [r["type"] for r in merged] == ["a", "b", "c", "d"]
            assert [r["seq"] for r in merged] == [1, 2, 3, 4]
            # LSNs stay per log
            assert [r["lsn"] for r in merged] == [0, 0, 1, 1]
        with FileWAL(str(tmp_path / "wal.jsonl")) as reopened:
            assert [r["seq"] for r in reopened.records()] == [2, 3]


class TestFileWAL:
    def test_append_and_reopen(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = FileWAL(path)
        wal.append({"type": "a", "value": 1})
        wal.append({"type": "b"})
        wal.close()
        reopened = FileWAL(path)
        assert [record["type"] for record in reopened.records()] == ["a", "b"]
        assert reopened.records()[0]["value"] == 1

    def test_append_after_reopen_continues_lsn(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        with FileWAL(path) as wal:
            wal.append({"type": "a"})
        with FileWAL(path) as reopened:
            assert reopened.append({"type": "b"}) == 1

    def test_missing_file_starts_empty(self, tmp_path):
        wal = FileWAL(str(tmp_path / "absent.jsonl"))
        assert len(wal) == 0

    def test_legacy_v1_lines_are_rejected(self, tmp_path):
        # A line without a checksum prefix is unverifiable bytes, not an
        # older format: mid-log it is typed corruption ...
        path = tmp_path / "legacy.jsonl"
        path.write_text('{"type": "a", "lsn": 0}\n{"type": "b", "lsn": 1}\n')
        with pytest.raises(LogCorruptionError) as caught:
            FileWAL(str(path))
        assert caught.value.offset == 0 and caught.value.lsn == 0
        # ... and at the tail it is salvaged away like any torn append.
        good = _encode({"type": "a", "lsn": 0})
        path.write_text(f'{good}\n{{"type": "b", "lsn": 1}}\n')
        with FileWAL(str(path)) as wal:
            assert [record["type"] for record in wal.records()] == ["a"]
            assert wal.salvaged is not None
            assert wal.append({"type": "c"}) == 1

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        first, second = _encode({"type": "a"}), _encode({"type": "b"})
        path.write_text(f"{first}\n\n{second}\n")
        wal = FileWAL(str(path))
        assert len(wal) == 2

    def test_appends_are_checksummed(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = FileWAL(str(path))
        wal.append({"type": "a"})
        wal.close()
        line = path.read_text().strip()
        prefix, payload = line.split(" ", 1)
        assert len(prefix) == 8
        int(prefix, 16)  # valid hex
        assert json.loads(payload)["type"] == "a"

    # -- torn tail vs mid-log corruption ---------------------------------

    def test_torn_tail_is_salvaged(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        wal = FileWAL(str(path))
        wal.append({"type": "a"})
        wal.append({"type": "b"})
        wal.close()
        # Tear the last record mid-payload, as a crash mid-append would.
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        reopened = FileWAL(str(path))
        assert [record["type"] for record in reopened.records()] == ["a"]
        assert reopened.salvaged is not None
        assert reopened.salvaged["dropped_bytes"] > 0
        # The file itself was repaired: a further reopen is clean.
        reopened.close()
        again = FileWAL(str(path))
        assert [record["type"] for record in again.records()] == ["a"]
        assert again.salvaged is None

    def test_append_after_salvage_continues_lsn(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        wal = FileWAL(str(path))
        wal.append({"type": "a"})
        wal.append({"type": "b"})
        wal.close()
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        with FileWAL(str(path)) as reopened:
            assert reopened.append({"type": "c"}) == 1

    def test_torn_record_before_intact_ones_raises(self, tmp_path):
        """Salvage is for the tail only: a torn record followed by an
        intact one cannot be a crash mid-append."""
        path = tmp_path / "torn.jsonl"
        torn = _encode({"type": "a", "lsn": 0})
        intact = _encode({"type": "b", "lsn": 1})
        path.write_text(f"{torn[:-5]}\n{intact}\n")
        with pytest.raises(LogCorruptionError) as excinfo:
            FileWAL(str(path))
        assert excinfo.value.offset == 0

    def test_mid_log_corruption_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('not-json\n{"type": "ok"}\n')
        with pytest.raises(LogCorruptionError):
            FileWAL(str(path))

    def test_mid_log_bit_flip_raises(self, tmp_path):
        path = tmp_path / "flip.jsonl"
        wal = FileWAL(str(path))
        wal.append({"type": "a", "value": 123})
        wal.append({"type": "b"})
        wal.close()
        raw = bytearray(path.read_bytes())
        # Flip one bit inside the FIRST record's payload.
        raw[20] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(LogCorruptionError):
            FileWAL(str(path))

    def test_checksum_mismatch_reports_lsn_and_offset(self, tmp_path):
        path = tmp_path / "flip.jsonl"
        wal = FileWAL(str(path))
        wal.append({"type": "a"})
        wal.append({"type": "b", "value": 42})
        wal.append({"type": "c"})
        wal.close()
        raw = path.read_bytes()
        first_line_len = raw.index(b"\n") + 1
        corrupted = bytearray(raw)
        corrupted[first_line_len + 20] ^= 0x01  # second record's payload
        path.write_bytes(bytes(corrupted))
        with pytest.raises(LogCorruptionError) as excinfo:
            FileWAL(str(path))
        error = excinfo.value
        assert error.lsn == 1
        assert error.offset == first_line_len
        assert "checksum mismatch" in str(error)
        assert f"offset {first_line_len}" in str(error)

    def test_tail_without_type_salvaged(self, tmp_path):
        path = tmp_path / "bad2.jsonl"
        line = _encode({"no_type": 1})
        path.write_text(f"{line}\n")
        wal = FileWAL(str(path))
        assert len(wal) == 0
        assert wal.salvaged is not None

    def test_mid_log_record_without_type_raises(self, tmp_path):
        path = tmp_path / "bad3.jsonl"
        bad = _encode({"no_type": 1})
        good = _encode({"type": "ok", "lsn": 1})
        path.write_text(f"{bad}\n{good}\n")
        with pytest.raises(LogCorruptionError):
            FileWAL(str(path))

    # -- persistent handle ------------------------------------------------

    def test_handle_held_across_appends(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = FileWAL(path)
        wal.append({"type": "a"})
        handle = wal._handle
        assert handle is not None
        wal.append({"type": "b"})
        assert wal._handle is handle
        wal.close()
        assert wal._handle is None

    def test_append_after_close_reopens(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = FileWAL(path)
        wal.append({"type": "a"})
        wal.close()
        wal.append({"type": "b"})
        wal.close()
        assert len(FileWAL(path)) == 2

    def test_context_manager_closes(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        with FileWAL(path) as wal:
            wal.append({"type": "a"})
        assert wal._handle is None

    def test_fsync_policy_appends(self, tmp_path):
        path = tmp_path / "synced.jsonl"
        wal = FileWAL(str(path), fsync=True)
        wal.append({"type": "a"}, force=True)
        assert b'"type":"a"' in path.read_bytes()
        assert wal.fsyncs == 1
        wal.close()

    # -- truncate / checkpoint -------------------------------------------

    def test_truncate_then_reopen_is_empty(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = FileWAL(path)
        wal.append({"type": "a"})
        wal.append({"type": "b"})
        wal.truncate()
        wal.close()
        with FileWAL(path) as reopened:
            assert len(reopened) == 0
            assert reopened.append({"type": "c"}) == 0

    def test_checkpoint_compacts_file(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = FileWAL(str(path))
        for index in range(10):
            wal.append({"type": "a", "index": index})
        wal.checkpoint({"snapshot": 1})
        wal.close()
        lines = [
            line for line in path.read_text().splitlines() if line.strip()
        ]
        assert len(lines) == 1
        with FileWAL(str(path)) as reopened:
            records = reopened.records()
            assert len(records) == 1
            assert records[0]["type"] == CHECKPOINT
            assert records[0]["lsn"] == 10
            assert reopened.append({"type": "b"}) == 11

    def test_checkpoint_file_survives_reopen_lsn(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = FileWAL(path)
        for _ in range(3):
            wal.append({"type": "a"})
        wal.checkpoint({})
        wal.append({"type": "b"})
        wal.close()
        with FileWAL(path) as reopened:
            assert reopened.append({"type": "c"}) == 5

    def test_compaction_leaves_no_tmp_file(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = FileWAL(str(path))
        wal.append({"type": "a"})
        wal.checkpoint({})
        wal.close()
        assert not os.path.exists(str(path) + ".compact")


class TestForceContract:
    """The writer declares durability, the log executes it: a forced
    append covers the whole unforced prefix, and ``lose_tail`` is what
    a power cut leaves — on both logs alike."""

    @pytest.fixture(params=["memory", "file", "file+fsync"])
    def wal(self, request, tmp_path):
        if request.param == "memory":
            log = InMemoryWAL()
        else:
            log = FileWAL(
                str(tmp_path / "wal.jsonl"), fsync=request.param != "file"
            )
        yield log
        log.close()

    def test_forced_append_survives_a_power_cut(self, wal):
        wal.append({"type": "a"}, force=True)
        assert wal.unforced == 0
        assert wal.lose_tail() == 0
        assert [record["type"] for record in wal.records()] == ["a"]

    def test_unforced_append_is_readable_then_lost(self, wal):
        wal.append({"type": "a"}, force=True)
        wal.append({"type": "b"})
        assert [record["type"] for record in wal.records()] == ["a", "b"]
        assert wal.unforced == 1
        assert wal.lose_tail() == 1
        assert [record["type"] for record in wal.records()] == ["a"]

    def test_one_force_covers_the_whole_unforced_prefix(self, wal):
        for kind in "abc":
            wal.append({"type": kind})
        assert wal.unforced == 3
        wal.append({"type": "d"}, force=True)
        assert wal.unforced == 0
        assert wal.lose_tail() == 0
        assert len(wal) == 4

    def test_a_power_cut_may_keep_a_prefix_of_the_tail(self, wal):
        wal.append({"type": "a"}, force=True)
        for kind in "bcd":
            wal.append({"type": kind})
        assert wal.lose_tail(keep=2) == 1
        assert [record["type"] for record in wal.records()] == ["a", "b", "c"]
        # What survived a power cut is on the platter: nothing to lose.
        assert wal.lose_tail() == 0
        assert len(wal) == 3

    def test_lost_lsns_are_handed_out_again(self, wal):
        assert wal.append({"type": "a"}, force=True) == 0
        assert wal.append({"type": "b"}) == 1
        wal.lose_tail()
        assert wal.append({"type": "c"}) == 1

    def test_nothing_forced_means_everything_lost(self, wal):
        wal.append({"type": "a"})
        wal.append({"type": "b"})
        assert wal.lose_tail() == 2
        assert wal.records() == []
        assert wal.append({"type": "c"}) == 0

    def test_sync_forces_everything_appended(self, wal):
        wal.append({"type": "a"})
        wal.sync()
        assert wal.lose_tail() == 0
        assert len(wal) == 1

    def test_checkpoint_is_a_force(self, wal):
        wal.append({"type": "a"})
        wal.checkpoint({"snapshot": 1})
        wal.append({"type": "b"})
        assert wal.lose_tail() == 1
        assert [record["type"] for record in wal.records()] == [CHECKPOINT]

    def test_appends_and_forces_are_counted(self, wal):
        wal.append({"type": "a"})
        wal.append({"type": "b"}, force=True)
        wal.append({"type": "c"})
        wal.sync()
        wal.checkpoint({})
        assert (wal.appends, wal.forces) == (4, 3)

    def test_append_event_says_what_happened_to_that_append(self, wal):
        from repro.obs.bus import MemorySink, TraceBus

        bus = TraceBus()
        seen = bus.subscribe(MemorySink()).events
        wal.trace = bus
        wal.append({"type": "a"})
        wal.append({"type": "b"}, force=True)
        really_fsyncs = getattr(wal, "fsync", False)
        appends = [e.data for e in seen if e.kind == "wal_append"]
        assert [data["force"] for data in appends] == [False, True]
        if isinstance(wal, FileWAL):
            assert [data["fsync"] for data in appends] == [
                False,
                really_fsyncs,
            ]


class TestFileForceContract:
    """What the contract means for the bytes on disk."""

    def test_forced_and_unforced_bytes(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = FileWAL(str(path), fsync=True)
        wal.append({"type": "a"}, force=True)
        wal.append({"type": "b"})
        # Both reached the operating system; only one reached the disk.
        assert b'"type":"a"' in path.read_bytes()
        assert b'"type":"b"' in path.read_bytes()
        wal.lose_tail()
        assert b'"type":"a"' in path.read_bytes()
        assert b'"type":"b"' not in path.read_bytes()
        assert wal._handle is None
        with FileWAL(str(path)) as reopened:
            assert reopened.salvaged is None
            assert [r["type"] for r in reopened.records()] == ["a"]

    def test_cut_lands_on_a_record_boundary(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = FileWAL(path)
        wal.append({"type": "a", "text": "\u00e9\u00e8 multi-byte"}, force=True)
        for index in range(4):
            wal.append({"type": "b", "text": "\u00fc" * index})
        wal.lose_tail(keep=3)
        with FileWAL(path) as reopened:
            assert reopened.salvaged is None
            assert reopened.records() == wal.records()
            assert len(reopened) == 4

    def test_a_reopened_log_is_durable(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        with FileWAL(path) as wal:
            wal.append({"type": "a"})
        with FileWAL(path) as reopened:
            assert reopened.unforced == 0
            assert reopened.lose_tail() == 0
            assert len(reopened) == 1

    def test_fsyncs_counts_real_fsync_calls_only(self, tmp_path, monkeypatch):
        calls = []
        real = os.fsync

        def counting(fd):
            calls.append(os.path.isdir(f"/proc/self/fd/{fd}"))
            real(fd)

        monkeypatch.setattr(os, "fsync", counting)
        wal = FileWAL(str(tmp_path / "wal.jsonl"), fsync=True)
        wal.append({"type": "a"})
        wal.append({"type": "b"})
        assert (wal.fsyncs, len(calls)) == (0, 0)
        wal.append({"type": "c"}, force=True)
        assert (wal.fsyncs, len(calls)) == (1, 1)
        wal.sync()
        assert (wal.fsyncs, len(calls)) == (2, 2)
        # A checkpoint appends unforced; the rewrite is the force: the
        # new file, then the directory that holds the rename.
        wal.checkpoint({})
        assert (wal.fsyncs, len(calls)) == (4, 4)
        assert calls[-2:] == [False, True]
        wal.close()

        lazy = FileWAL(str(tmp_path / "lazy.jsonl"))
        before = len(calls)
        lazy.append({"type": "a"}, force=True)
        assert (lazy.fsyncs, len(calls) - before) == (0, 0)
        assert lazy.unforced == 0  # the contract holds, minus the I/O
        lazy.close()

    def test_checkpoint_survives_a_power_cut(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = FileWAL(path, fsync=True)
        for index in range(5):
            wal.append({"type": "a", "index": index})
        wal.checkpoint({"snapshot": 1})
        wal.append({"type": "b"})
        wal.lose_tail()
        with FileWAL(path) as reopened:
            assert [r["type"] for r in reopened.records()] == [CHECKPOINT]
            assert reopened.append({"type": "c"}) == 6


class TestCrashingWALForwardsTheContract:
    def test_force_and_tail_loss_reach_the_inner_log(self):
        from repro.sim.crashpoints import CrashingWAL

        inner = InMemoryWAL()
        wal = CrashingWAL(inner)
        wal.append({"type": "a"}, force=True)
        wal.append({"type": "b"})
        assert inner.unforced == 1
        assert (wal.appends, wal.forces) == (2, 1)
        assert wal.lose_tail() == 1
        assert len(inner) == 1


class TestFlushPolicyUnderCrash:
    """A power cut at every LSN, every surviving cut, on real files.

    The log is a ``FileWAL(fsync=True)``, the stores are sqlite files
    that sync only at checkpoints — and this run has none, so the cut
    takes every store back to empty: all they held lives on only as
    redo in the log.  The crash image is what :func:`power_cut` leaves
    on disk, read back by a *new* ``FileWAL`` as a reboot would.  Two
    claims: nothing forced is ever lost, and recovery from every
    surviving cut certifies, is idempotent and leaves the stores holding
    exactly the surviving history's effects.
    """

    def _spec(self):
        from repro.sim.crashpoints import CrashPointSpec
        from repro.sim.workload import WorkloadSpec

        return CrashPointSpec(
            workload=WorkloadSpec(
                processes=2, prefix_range=(1, 2), service_pool=4
            ),
            seed=5,
            backend="sqlite",
            abort_rate=0.0,
        )

    def _sweep(self, tmp_path):
        """Crash the workload at a stride of LSNs and cut the log at
        every surviving length.  Returns per-cut ``(forced, keep,
        survivors, verdict)`` tuples."""
        from repro.sim.crashpoints import (
            CrashingWAL,
            baseline_lsns,
            build_crash_world,
            drive_to_crash,
            power_cut,
            recover_and_certify,
        )
        from repro.subsystems.backend import BackendHub

        spec = self._spec()
        total = baseline_lsns(spec, ledger=True)
        assert total > 4
        outcomes = []
        for crash_lsn in range(1, total, max(1, total // 8)):
            keep = 0
            while True:
                path = str(tmp_path / f"wal-{crash_lsn}-{keep}.jsonl")
                with BackendHub("sqlite") as hub:
                    live = FileWAL(path, fsync=True)
                    scheduler, repository, workload, failures = (
                        build_crash_world(
                            spec,
                            CrashingWAL(live, crash_lsn=crash_lsn),
                            hub=hub,
                            ledger=True,
                        )
                    )
                    assert drive_to_crash(scheduler, workload, failures)
                    scheduler.crash()
                    written = live.records()
                    unforced = live.unforced
                    power_cut(live, scheduler.registry, keep)
                    stores = scheduler.registry.snapshot().values()
                    assert not any(stores), "no checkpoint, no synced row"

                    image = FileWAL(path)
                    assert image.salvaged is None
                    survivors = image.records()
                    assert survivors == written[: len(survivors)]
                    _, verdict = recover_and_certify(
                        image,
                        scheduler.registry,
                        repository,
                        workload,
                        ledger=True,
                    )
                    image.close()
                    scheduler.registry.close()
                outcomes.append(
                    (len(written) - unforced, keep, len(survivors), verdict)
                )
                if keep >= unforced:
                    break
                keep += 1
        return outcomes

    def test_fsync_always_loses_nothing(self, tmp_path):
        """Nothing forced is ever lost — and nothing more than asked
        for survives."""
        outcomes = self._sweep(tmp_path)
        assert outcomes
        for forced, keep, survivors, _ in outcomes:
            assert survivors == forced + keep
        # The crash class is genuinely lossy somewhere in the sweep.
        assert any(keep > 0 for _, keep, _, _ in outcomes)

    def test_every_surviving_cut_certifies(self, tmp_path):
        for _, keep, _, verdict in self._sweep(tmp_path):
            assert verdict.certification.certified, (keep, verdict.describe())
            assert verdict.idempotent, (keep, verdict.describe())
            assert verdict.in_doubt_clear and verdict.durable
            assert not verdict.ledger, (keep, verdict.ledger)
