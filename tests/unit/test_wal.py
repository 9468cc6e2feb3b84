"""Unit tests for write-ahead logs."""

import json
import os
import shutil

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

    def test_salvage_disabled_raises_on_torn_tail(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        wal = FileWAL(str(path))
        wal.append({"type": "a"})
        wal.close()
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 5])
        with pytest.raises(LogCorruptionError):
            FileWAL(str(path), salvage=False)

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
        wal.close()
        raw = path.read_bytes()
        first_line_len = raw.index(b"\n") + 1
        corrupted = bytearray(raw)
        corrupted[first_line_len + 20] ^= 0x01  # second record's payload
        path.write_bytes(bytes(corrupted))
        with pytest.raises(LogCorruptionError) as excinfo:
            FileWAL(str(path), salvage=False)
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

    # -- persistent handle / flush policy --------------------------------

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

    def test_flush_never_defers_durability(self, tmp_path):
        path = tmp_path / "buffered.jsonl"
        wal = FileWAL(str(path), flush="never")
        wal.append({"type": "a"})
        # Small record, still sitting in the userspace buffer.
        assert path.read_bytes() == b""
        wal.sync()
        assert b'"type":"a"' in path.read_bytes()
        wal.close()

    def test_invalid_flush_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            FileWAL(str(tmp_path / "wal.jsonl"), flush="sometimes")

    def test_fsync_policy_appends(self, tmp_path):
        path = tmp_path / "synced.jsonl"
        wal = FileWAL(str(path), fsync=True)
        wal.append({"type": "a"})
        assert b'"type":"a"' in path.read_bytes()
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


class TestFlushPolicyUnderCrash:
    """``flush="never"`` vs ``fsync=True`` under crash-at-every-LSN.

    The crash image is the on-disk WAL file copied *before* the live
    handle is flushed or closed — exactly the bytes a machine that lost
    power at that instant would find on reboot.  With ``fsync=True``
    every appended record is on disk, so the image is complete.  With
    ``flush="never"`` the tail sits in the userspace buffer and is
    genuinely gone, possibly torn mid-record; recovery must still
    certify from the surviving prefix (salvage truncates the tear)
    against the sqlite stores, which were fsynced independently and may
    be ahead of the log.
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

    def _sweep(self, tmp_path, **wal_kwargs):
        """Crash the workload at a stride of LSNs; recover from the
        unflushed on-disk image.  Returns per-point (lost, certified,
        idempotent) tuples."""
        from repro.sim.crashpoints import (
            CrashingWAL,
            baseline_lsns,
            build_crash_world,
            drive_to_crash,
            recover_and_certify,
        )
        from repro.subsystems.backend import BackendHub

        spec = self._spec()
        total = baseline_lsns(spec, ledger=True)
        assert total > 4
        stride = max(1, total // 5)
        outcomes = []
        for index, crash_lsn in enumerate(range(1, total, stride)):
            live_path = str(tmp_path / f"live-{index}.jsonl")
            image_path = str(tmp_path / f"image-{index}.jsonl")
            hub = BackendHub("sqlite")
            try:
                live = FileWAL(live_path, **wal_kwargs)
                scheduler, repository, workload, failures = build_crash_world(
                    spec,
                    CrashingWAL(live, crash_lsn=crash_lsn),
                    hub=hub,
                    ledger=True,
                )
                assert drive_to_crash(scheduler, workload, failures)
                scheduler.crash()
                # Take the crash image BEFORE flush/close: only bytes
                # the OS already has.  Then release the live handle.
                shutil.copyfile(live_path, image_path)
                live_count = len(live)
                live.close()

                image = FileWAL(image_path)
                lost = live_count - len(image.records())
                assert lost >= 0
                _, verdict = recover_and_certify(
                    image, scheduler.registry, repository, workload
                )
                image.close()
                scheduler.registry.close()
                outcomes.append(
                    (
                        lost,
                        verdict.certification.certified,
                        verdict.idempotent,
                    )
                )
            finally:
                hub.close()
        return outcomes

    def test_fsync_always_loses_nothing(self, tmp_path):
        outcomes = self._sweep(tmp_path, fsync=True)
        assert outcomes
        for lost, certified, idempotent in outcomes:
            assert lost == 0  # every append hit the platter
            assert certified
            assert idempotent

    def test_flush_never_certifies_from_surviving_prefix(self, tmp_path):
        outcomes = self._sweep(tmp_path, flush="never")
        assert outcomes
        for lost, certified, idempotent in outcomes:
            assert certified
            assert idempotent
        # The policy is genuinely lossy: at least one crash image was
        # missing buffered records — and recovery still certified.
        assert any(lost > 0 for lost, _, _ in outcomes)
