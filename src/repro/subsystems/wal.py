"""Write-ahead logging for scheduler crash recovery.

The transactional process scheduler logs every state transition before
acting on it: process admission, activity start/commit/compensation,
2PC decisions and process terminations.  After a crash, restart recovery
(:mod:`repro.subsystems.recovery`) replays the log to reconstruct which
processes were active and which activities had committed, then performs
the group abort of Definition 8 2(b).

Two log implementations share one interface:

* :class:`InMemoryWAL` — survives a *simulated* scheduler crash (the
  scheduler object is discarded, the log object is handed to recovery),
  the default for tests and benchmarks;
* :class:`FileWAL` — durable on-disk log, re-openable across real
  process restarts.

Records are plain dictionaries with a ``type`` key; every append gets a
monotonically increasing log sequence number (``lsn``).  A log that has
been given a shared :attr:`WriteAheadLog.sequence` additionally numbers
each record from it (``seq``): a federation hands every shard's log the
same counter, so ``seq`` orders records *across* logs — it is what the
merged cross-shard history is sorted by.  A single scheduler's log has
no such counter and its records carry no ``seq``.

Interpreting records is the business of one module,
:mod:`repro.subsystems.recovery`; this one only frames, numbers, stores
and checks them.

On-disk format (WAL v2)
-----------------------

Each record is one line::

    <crc32 hex, 8 chars> <canonical compact JSON>\\n

The checksum covers the JSON payload bytes.  Loading distinguishes two
corruption shapes:

* **torn tail** — the *last* record of the file is partial, fails its
  checksum or does not parse.  That is the signature of a crash during
  an append; the salvage policy truncates the torn record and the log
  reopens with every durable record intact (``FileWAL.salvaged``
  reports what was dropped).
* **mid-log corruption** — a damaged record *followed by intact
  records* cannot be a torn append; loading raises a typed
  :class:`~repro.errors.LogCorruptionError` carrying the LSN and byte
  offset of the damage.

A line without a valid checksum prefix is damage like any other: nothing
has written the unchecksummed v1 format since the checksum was
introduced, and accepting such a line would let arbitrary bytes through
the corruption check.

Durability
----------

The *writer* of a record says whether it must be durable before the
call returns: ``append(record, force=True)``.  A force covers the whole
unforced prefix — the log is only ever durable up to a prefix of what
was appended — and :meth:`WriteAheadLog.lose_tail` is what a power cut
does to it: everything past the last force is gone, except for as many
of the unforced records as the operating system happened to write out.
The log never looks at a record to decide; which records are recovery
anchors is the writers' knowledge (DESIGN.md §3b has the table).

Checkpoints
-----------

``checkpoint(state)`` appends a ``{"type": "checkpoint", "state": …}``
record and then *compacts* the log: records preceding the checkpoint
are dropped (the checkpoint's state subsumes them), so replay cost
after a crash is bounded by the distance to the last checkpoint rather
than the total history length.  The compaction is a force.  LSNs keep
increasing monotonically across compactions; :meth:`truncate` is the
full reset (empty log, LSNs restart at zero).
"""

from __future__ import annotations

import json
import logging
import os
import zlib
from typing import Dict, Iterator, List, Optional

from repro.errors import LogCorruptionError

__all__ = ["WriteAheadLog", "InMemoryWAL", "FileWAL", "CHECKPOINT"]

#: Record type of checkpoint records (shared with recovery's analysis).
CHECKPOINT = "checkpoint"

#: Module logger; the ``repro`` package logger carries a NullHandler,
#: so nothing prints unless the embedding application configures
#: logging.
logger = logging.getLogger(__name__)


def _encode(record: Dict[str, object]) -> str:
    """Canonical v2 line for a record (without the trailing newline)."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {payload}"


class WriteAheadLog:
    """Interface of an append-only record log."""

    #: Optional structured trace bus (see :mod:`repro.obs.bus`); the
    #: scheduler's :meth:`attach_trace` wires it.  Emission is guarded
    #: on ``trace.enabled``, so an unattached or disabled bus costs one
    #: attribute test per append.
    trace: Optional[object] = None

    #: Optional counter shared with other logs; when set, every record
    #: is numbered from it at append time (``seq``), which orders the
    #: records of all those logs on one line.
    sequence: Optional[Iterator[int]] = None

    #: Appends and forces (forced appends, explicit syncs, checkpoint
    #: compactions) so far — ``scheduler.counters()`` reports both, so
    #: "forces per commit" is readable from the metrics registry.
    appends = 0
    forces = 0

    #: The retained records and how many of them, counted from the
    #: front, a force has covered.
    _records: List[Dict[str, object]]
    _durable = 0

    def _emit(self, kind: str, **data: object) -> None:
        trace = self.trace
        if trace is not None and trace.enabled:  # type: ignore[attr-defined]
            trace.emit(kind, **data)  # type: ignore[attr-defined]

    def _stamped(self, record: Dict[str, object], lsn: int) -> Dict[str, object]:
        """A copy of ``record`` carrying its numbers."""
        stamped = dict(record)
        stamped["lsn"] = lsn
        if self.sequence is not None:
            stamped["seq"] = next(self.sequence)
        return stamped

    def _appended(self, force: bool) -> None:
        """Count one append; a forced one makes the whole log durable."""
        self.appends += 1
        if force:
            self._forced()

    def _forced(self) -> None:
        self.forces += 1
        self._durable = len(self._records)

    def _infer_next_lsn(self) -> int:
        # LSNs are monotone, so the last record decides; hand-written
        # records without an ``lsn`` fall back to the count.
        if self._records:
            last = self._records[-1].get("lsn")
            if isinstance(last, int):
                return last + 1
        return len(self._records)

    def append(self, record: Dict[str, object], force: bool = False) -> int:
        """Append a record; returns its log sequence number.

        With ``force`` the record — and every record appended before
        it — is durable when the call returns; without, it is ordered
        behind its predecessors and becomes durable with the next force.
        """
        raise NotImplementedError

    def records(self) -> List[Dict[str, object]]:
        """All retained records in append order (each includes its ``lsn``)."""
        return list(self._records)

    @property
    def next_lsn(self) -> int:
        """The LSN the next append gets — past every surviving record's."""
        return self._next_lsn

    @property
    def unforced(self) -> int:
        """Retained records no force has covered yet."""
        return len(self._records) - self._durable

    def lose_tail(self, keep: int = 0) -> int:
        """What a power cut keeps: drop the records no force covered.

        ``keep`` of them survive anyway, oldest first (the operating
        system had written that much out on its own) — the surviving
        log is always a prefix.  Returns how many records were lost;
        their LSNs are handed out again, as after any reopen.
        """
        cut = min(self._durable + keep, len(self._records))
        lost = len(self._records) - cut
        del self._records[cut:]
        self._durable = cut
        self._next_lsn = self._infer_next_lsn()
        return lost

    def checkpoint(self, state: Dict[str, object]) -> int:
        """Append a checkpoint record and compact the log up to it.

        ``state`` is the serialized WAL scan state (see
        :meth:`repro.subsystems.recovery.WalScanState.to_dict`); records
        before the checkpoint are discarded.  Returns the checkpoint's
        LSN.
        """
        raise NotImplementedError

    def truncate(self) -> None:
        """Discard all records and restart LSNs at zero."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (no-op for in-memory logs)."""

    def sync(self) -> None:
        """Force durability of all appended records."""
        self._forced()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __iter__(self) -> Iterator[Dict[str, object]]:
        return iter(self.records())

    def __len__(self) -> int:
        return len(self.records())


class InMemoryWAL(WriteAheadLog):
    """Log kept in memory; survives simulated crashes, not real ones."""

    def __init__(self) -> None:
        self._records: List[Dict[str, object]] = []
        self._next_lsn = 0

    def append(self, record: Dict[str, object], force: bool = False) -> int:
        lsn = self._next_lsn
        self._next_lsn += 1
        self._records.append(self._stamped(record, lsn))
        self._appended(force)
        self._emit(
            "wal_append",
            lsn=lsn,
            record_type=record.get("type"),
            process=record.get("process"),
            force=force,
        )
        return lsn

    def checkpoint(self, state: Dict[str, object]) -> int:
        lsn = self.append({"type": CHECKPOINT, "state": state})
        # Compact: the checkpoint subsumes everything before it.
        dropped = len(self._records) - 1
        self._records = [self._records[-1]]
        self._forced()
        self._emit("wal_checkpoint", lsn=lsn, compacted=dropped)
        return lsn

    def truncate(self) -> None:
        """Discard all records (checkpointing support)."""
        dropped = len(self._records)
        self._records.clear()
        self._next_lsn = self._durable = 0
        self._emit("wal_truncate", dropped=dropped)


class FileWAL(WriteAheadLog):
    """Checksummed JSON-lines log on disk, re-openable across restarts.

    The file handle is opened once and held for the WAL's lifetime
    (:meth:`close` releases it; appending after close reopens).  Every
    append is flushed to the operating system, so a crash of *this
    process* loses nothing.  With ``fsync=True`` a *forced* append
    additionally fsyncs — one fsync, covering the record and the whole
    unforced prefix before it — which is what survives a power cut, at
    real I/O cost; unforced appends never fsync.  With ``fsync=False``
    forces are tracked (:meth:`lose_tail` honours them) and cost
    nothing: the file format without the durability.
    """

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = path
        self.fsync = fsync
        #: Details of the torn-tail truncation performed on load, if
        #: any: ``{"offset": int, "dropped_bytes": int, "reason": str}``.
        self.salvaged: Optional[Dict[str, object]] = None
        #: Real ``os.fsync`` calls this log performed (benchmark X14's
        #: honest durability-cost metric).
        self.fsyncs = 0
        self._records: List[Dict[str, object]] = []
        self._next_lsn = 0
        self._handle = None
        if os.path.exists(path):
            self._load()

    # -- loading -----------------------------------------------------------

    def _load(self) -> None:
        with open(self.path, "rb") as handle:
            raw = handle.read()
        offset = 0
        lines: List[tuple] = []  # (byte offset, line bytes)
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline == -1:
                lines.append((offset, raw[offset:]))
                break
            lines.append((offset, raw[offset:newline]))
            offset = newline + 1
        content = [(off, line) for off, line in lines if line.strip()]
        for index, (off, line) in enumerate(content):
            is_tail = index == len(content) - 1
            try:
                record = self._parse_line(line, off)
            except LogCorruptionError as error:
                if is_tail:
                    self._salvage(off, len(raw) - off, str(error))
                    return
                raise
            # A checksum-valid tail record merely missing its newline is
            # kept; _open() restores the newline before the next append.
            self._records.append(record)
        self._next_lsn = self._infer_next_lsn()
        self._durable = len(self._records)

    def _parse_line(self, line: bytes, offset: int) -> Dict[str, object]:
        lsn = self._infer_next_lsn()
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise LogCorruptionError(
                f"{self.path}: undecodable bytes at offset {offset} "
                f"(lsn {lsn}): {error}",
                lsn=lsn,
                offset=offset,
            ) from error
        if not (len(text) > 9 and text[8] == " " and _is_hex8(text[:8])):
            raise LogCorruptionError(
                f"{self.path}: no checksum prefix at offset {offset} "
                f"(lsn {lsn})",
                lsn=lsn,
                offset=offset,
            )
        payload = text[9:]
        expected = int(text[:8], 16)
        actual = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
        if actual != expected:
            raise LogCorruptionError(
                f"{self.path}: checksum mismatch at offset {offset} "
                f"(lsn {lsn}): recorded {expected:08x}, "
                f"computed {actual:08x}",
                lsn=lsn,
                offset=offset,
            )
        try:
            record = json.loads(payload)
        except json.JSONDecodeError as error:
            raise LogCorruptionError(
                f"{self.path}: unparsable record at offset {offset} "
                f"(lsn {lsn}): {error}",
                lsn=lsn,
                offset=offset,
            ) from error
        if not isinstance(record, dict) or "type" not in record:
            raise LogCorruptionError(
                f"{self.path}: record without type at offset {offset} "
                f"(lsn {lsn})",
                lsn=lsn,
                offset=offset,
            )
        return record

    def _salvage(self, offset: int, dropped: int, reason: str) -> None:
        with open(self.path, "r+b") as handle:
            handle.truncate(offset)
        self.salvaged = {
            "offset": offset,
            "dropped_bytes": dropped,
            "reason": reason,
        }
        self._next_lsn = self._infer_next_lsn()
        self._durable = len(self._records)
        # Salvage happens during construction, before any trace bus can
        # be attached — the stdlib logger is the right channel here.
        logger.warning(
            "%s: salvaged torn WAL tail at offset %d (%d bytes dropped): %s",
            self.path,
            offset,
            dropped,
            reason,
        )

    # -- the persistent handle ---------------------------------------------

    def _open(self):
        if self._handle is None:
            # Repair a missing trailing newline before appending, so a
            # record accepted off a newline-less tail never merges with
            # the next append.
            if os.path.exists(self.path):
                with open(self.path, "rb") as probe:
                    probe.seek(0, os.SEEK_END)
                    size = probe.tell()
                    if size:
                        probe.seek(size - 1)
                        needs_newline = probe.read(1) != b"\n"
                    else:
                        needs_newline = False
                if needs_newline:
                    with open(self.path, "ab") as repair:
                        repair.write(b"\n")
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None

    def sync(self) -> None:
        """Fsync everything appended so far, whatever ``fsync`` says."""
        handle = self._open()
        handle.flush()
        os.fsync(handle.fileno())
        self.fsyncs += 1
        self._forced()
        self._emit("wal_sync", lsn=self._next_lsn - 1)

    def lose_tail(self, keep: int = 0) -> int:
        """Truncate the file to what a power cut keeps; leaves it closed."""
        self.close()
        cut = min(self._durable + keep, len(self._records))
        gone = sum(
            len(_encode(record).encode("utf-8")) + 1
            for record in self._records[cut:]
        )
        if gone:
            with open(self.path, "r+b") as handle:
                handle.truncate(os.path.getsize(self.path) - gone)
        return super().lose_tail(keep)

    # -- appending ----------------------------------------------------------

    def append(self, record: Dict[str, object], force: bool = False) -> int:
        lsn = self._next_lsn
        self._next_lsn += 1
        stamped = self._stamped(record, lsn)
        handle = self._open()
        handle.write(_encode(stamped))
        handle.write("\n")
        handle.flush()
        fsynced = force and self.fsync
        if fsynced:
            os.fsync(handle.fileno())
            self.fsyncs += 1
        self._records.append(stamped)
        self._appended(force)
        self._emit(
            "wal_append",
            lsn=lsn,
            record_type=record.get("type"),
            process=record.get("process"),
            force=force,
            fsync=fsynced,
        )
        return lsn

    # -- checkpointing -------------------------------------------------------

    def checkpoint(self, state: Dict[str, object]) -> int:
        # Unforced: the compaction below is the force.
        lsn = self.append({"type": CHECKPOINT, "state": state})
        dropped = len(self._records) - 1
        self._records = [self._records[-1]]
        self._rewrite()
        self._emit("wal_checkpoint", lsn=lsn, compacted=dropped)
        return lsn

    def truncate(self) -> None:
        """Empty the log on disk; a reopened truncated log has no records."""
        dropped = len(self._records)
        self._records = []
        self._next_lsn = 0
        self._rewrite()
        self._emit("wal_truncate", dropped=dropped)

    def _rewrite(self) -> None:
        """Atomically and durably replace the file with the retained
        records: the new file is fsynced before the rename and the
        directory after it, or the rename itself could be lost.

        Restores the handle to its prior open/closed state — a closed
        WAL stays closed after a compaction, so lifecycle tests can
        assert no handle survives ``close()``.
        """
        was_open = self._handle is not None
        self.close()
        tmp_path = f"{self.path}.compact"
        with open(tmp_path, "w", encoding="utf-8") as tmp:
            for record in self._records:
                tmp.write(_encode(record))
                tmp.write("\n")
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp_path, self.path)
        directory = os.open(os.path.dirname(self.path) or ".", os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
        self.fsyncs += 2
        self._forced()
        if was_open:
            self._open()


def _is_hex8(text: str) -> bool:
    if len(text) != 8:
        return False
    try:
        int(text, 16)
    except ValueError:
        return False
    return True
