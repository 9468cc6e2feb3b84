"""Pluggable storage backends behind the subsystem store.

The paper's architecture (§2.3, DESIGN.md §1) demands nothing of a
subsystem beyond atomic invocations, compensation/retriability, and 2PC
participation — the *implementation* of its resource store is a free
substitution point.  This module makes that substitution real: a
:class:`StoreBackend` ABC with three interchangeable implementations
of a subsystem's versioned store
(:attr:`~repro.subsystems.subsystem.Subsystem.store`):

* :class:`MemoryBackend` — the seed's in-memory dictionary, bit-for-bit
  the same semantics and the fast default;
* :class:`SqliteBackend` — a real ``sqlite3`` file on a write-ahead
  journal, every commit fsynced (``PRAGMA journal_mode=WAL``,
  ``synchronous=FULL``), plus injectable disk faults
  (:class:`~repro.subsystems.failures.DiskFaultPolicy`): fsync failures
  that abort the committing transaction, torn writes at a chosen byte
  offset, and short reads on reopen — both detected as typed
  :class:`~repro.errors.StoreCorruptionError`, never silently served;
* :class:`ProcPoolBackend` — the store lives in a separate OS process
  (one shared :class:`ProcWorkerHost` worker per run, holding the same
  sqlite files), so crash-stop chaos becomes a **real** ``SIGKILL``:
  committed state survives on disk, in-flight calls fail with
  :class:`~repro.errors.StorageFault`, and recovery replays the WAL
  against whatever the dead worker made durable.

:class:`BackendHub` is the factory the harnesses and the CLI thread
through :class:`~repro.subsystems.subsystem.SubsystemRegistry`: one hub
per run owns the storage directory, the worker host, and the close path
for every backend it created.

All three backends implement one contract (exercised by the backend
conformance suite in ``tests/unit/test_backends.py``): per-key version
counters starting at 0 for seeded entries and 1 for first writes,
batch-atomic ``apply``, and value snapshots for effect-freeness
assertions.  Durable backends require JSON-serializable values — the
price of leaving the process.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sqlite3
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import StorageFault, StoreCorruptionError, SubsystemError
from repro.subsystems.failures import DiskFaultPolicy

__all__ = [
    "BACKEND_KINDS",
    "check_backend_kind",
    "StoreBackend",
    "MemoryBackend",
    "SqliteBackend",
    "ProcWorkerHost",
    "ProcPoolBackend",
    "BackendHub",
    "tear_file",
]

#: Backend names accepted by the CLI's ``--backend`` flag, the
#: harness specs and :class:`BackendHub`.
BACKEND_KINDS = ("memory", "sqlite", "procpool")


def check_backend_kind(kind: str) -> None:
    """Reject a backend name no :class:`BackendHub` could serve."""
    if kind not in BACKEND_KINDS:
        raise ValueError(
            f"unknown backend {kind!r}; expected one of "
            f"{', '.join(BACKEND_KINDS)}"
        )

#: The 16-byte magic every intact sqlite store file starts with.
SQLITE_HEADER = b"SQLite format 3\x00"


class StoreBackend:
    """Contract of a subsystem's versioned store.

    One key-value namespace with per-key version counters.  ``apply``
    installs a committed write batch atomically — either every write
    becomes (durably, for real backends) visible with its version
    bumped, or none does and :class:`~repro.errors.StorageFault` is
    raised.  ``seed`` installs initial state at version 0 without
    overwriting surviving durable entries (reopen keeps the disk's
    truth).
    """

    #: Backend kind name (one of :data:`BACKEND_KINDS`).
    kind: str = "abstract"
    #: Whether :meth:`kill` delivers a real crash fault.
    killable: bool = False
    #: fsyncs this backend performed for committed batches.
    fsyncs: int = 0
    #: Injectable disk faults (durable backends only).
    faults: Optional[DiskFaultPolicy] = None

    # -- data plane -------------------------------------------------------

    def get(self, key: str, default: object = None) -> object:
        raise NotImplementedError

    def exists(self, key: str) -> bool:
        raise NotImplementedError

    def version(self, key: str) -> int:
        raise NotImplementedError

    def apply(self, writes: Mapping[str, object]) -> None:
        raise NotImplementedError

    def delete(self, key: str) -> None:
        raise NotImplementedError

    def snapshot(self) -> Dict[str, object]:
        raise NotImplementedError

    def keys(self) -> Iterator[str]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def seed(self, initial: Mapping[str, object]) -> None:
        raise NotImplementedError

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Release connections/handles (idempotent)."""

    def sync(self) -> None:
        """Force durability of applied batches (no-op in memory)."""

    def ensure_alive(self) -> None:
        """Bring the backend back after a crash fault (respawn/reopen)."""

    def kill(self) -> bool:
        """Deliver a real crash fault if the backend supports one.

        Returns ``True`` when something was actually killed; the
        in-memory backend has no process or handle to lose and returns
        ``False`` (its crash-stop stays simulated).
        """
        return False

    def __enter__(self) -> "StoreBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class _MemoryEntry:
    __slots__ = ("value", "version")

    def __init__(self, value: object, version: int = 0) -> None:
        self.value = value
        self.version = version


class MemoryBackend(StoreBackend):
    """The seed's in-memory store, unchanged semantics, no durability."""

    kind = "memory"

    def __init__(self) -> None:
        self._entries: Dict[str, _MemoryEntry] = {}

    def get(self, key: str, default: object = None) -> object:
        entry = self._entries.get(key)
        return default if entry is None else entry.value

    def exists(self, key: str) -> bool:
        return key in self._entries

    def version(self, key: str) -> int:
        entry = self._entries.get(key)
        return 0 if entry is None else entry.version

    def apply(self, writes: Mapping[str, object]) -> None:
        for key, value in writes.items():
            entry = self._entries.get(key)
            if entry is None:
                self._entries[key] = _MemoryEntry(value, version=1)
            else:
                entry.value = value
                entry.version += 1

    def delete(self, key: str) -> None:
        self._entries.pop(key, None)

    def snapshot(self) -> Dict[str, object]:
        return {key: entry.value for key, entry in self._entries.items()}

    def keys(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def seed(self, initial: Mapping[str, object]) -> None:
        for key, value in initial.items():
            if key not in self._entries:
                self._entries[key] = _MemoryEntry(value, version=0)


# ---------------------------------------------------------------------------
# Shared sqlite plumbing (used in-process and inside the worker process)
# ---------------------------------------------------------------------------

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS kv ("
    "key TEXT PRIMARY KEY, value TEXT NOT NULL, version INTEGER NOT NULL)"
)

_UPSERT = (
    "INSERT INTO kv(key, value, version) VALUES (?, ?, 1) "
    "ON CONFLICT(key) DO UPDATE SET "
    "value = excluded.value, version = kv.version + 1"
)


def _encode_value(value: object) -> str:
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as error:
        raise StorageFault(
            f"value is not JSON-serializable for a durable store "
            f"backend: {error}"
        ) from error


def _decode_value(text: str) -> object:
    return json.loads(text)


def verify_store_file(path: str, faults: Optional[DiskFaultPolicy] = None) -> None:
    """Header check a store file before (re)opening it.

    A missing or empty file is a fresh store; anything else must start
    with the sqlite magic.  An armed short-read fault truncates what the
    check sees — modelling a reopen racing a still-syncing file — which
    must surface as :class:`~repro.errors.StoreCorruptionError`, not as
    a silently-empty store.
    """
    if not os.path.exists(path):
        return
    if os.path.getsize(path) == 0:
        return
    want = len(SQLITE_HEADER)
    with open(path, "rb") as handle:
        header = handle.read(want)
    if faults is not None and faults.take_short_read():
        header = header[: want // 2]
    if len(header) < want:
        raise StoreCorruptionError(
            f"{path}: short read — got {len(header)} of {want} header "
            f"bytes; refusing to serve a partial store",
            path=path,
        )
    if header != SQLITE_HEADER:
        raise StoreCorruptionError(
            f"{path}: bad store header (torn write?); refusing to open",
            path=path,
        )


def _connect(path: str) -> sqlite3.Connection:
    """Open a store connection whose every commit is durable.

    ``isolation_level=None`` puts the connection in autocommit mode;
    :func:`_apply_writes` brackets batches with explicit
    ``BEGIN IMMEDIATE``/``COMMIT`` so each applied batch is exactly one
    durable sqlite transaction.  On the write-ahead journal with
    ``synchronous=FULL`` that costs one fsync, of the ``-wal`` file (a
    rollback journal costs three, plus creating and unlinking it).

    The order below is deliberate.  The mode switch runs under the
    default sync: it writes the database header, which must be durable
    before any WAL frame is trusted (sqlite discards the WAL of a
    zero-length database).  The schema is idempotent and explains
    nothing by itself, so it is created unsynced — the first real
    commit's fsync of the ``-wal`` file covers its frames — which
    keeps opening a fresh store at one fsync.
    """
    preexisting = os.path.exists(path) and os.path.getsize(path) > 0
    try:
        conn = sqlite3.connect(path, isolation_level=None)
        conn.execute("PRAGMA journal_mode=WAL")
        if preexisting:
            row = conn.execute("PRAGMA integrity_check").fetchone()
            if row is None or row[0] != "ok":
                conn.close()
                raise StoreCorruptionError(
                    f"{path}: integrity_check failed: "
                    f"{row[0] if row else 'no result'!r}",
                    path=path,
                )
        conn.execute("PRAGMA synchronous=OFF")
        conn.execute(_SCHEMA)
        conn.execute("PRAGMA synchronous=FULL")
        return conn
    except sqlite3.DatabaseError as error:
        raise StoreCorruptionError(
            f"{path}: store file unreadable: {error}", path=path
        ) from error


def _apply_writes(conn: sqlite3.Connection, writes: Mapping[str, object]) -> None:
    """One atomic, durable batch; rolls back and re-raises on any error."""
    encoded = [(key, _encode_value(value)) for key, value in writes.items()]
    conn.execute("BEGIN IMMEDIATE")
    try:
        for key, text in encoded:
            conn.execute(_UPSERT, (key, text))
    except BaseException:
        conn.execute("ROLLBACK")
        raise
    conn.execute("COMMIT")


def _seed_rows(conn: sqlite3.Connection, initial: Mapping[str, object]) -> None:
    conn.execute("BEGIN IMMEDIATE")
    try:
        for key, value in initial.items():
            # Durable state wins on reopen: seeding never overwrites.
            conn.execute(
                "INSERT OR IGNORE INTO kv(key, value, version) "
                "VALUES (?, ?, 0)",
                (key, _encode_value(value)),
            )
    except BaseException:
        conn.execute("ROLLBACK")
        raise
    conn.execute("COMMIT")


def tear_file(path: str, offset: int, length: int = 32) -> int:
    """Damage a closed store file at ``offset`` (a torn write).

    Inverts up to ``length`` bytes starting at ``offset`` — the
    deterministic signature of a power cut mid-sector-write.  Returns
    how many bytes were damaged (0 when the offset is past EOF).
    """
    size = os.path.getsize(path)
    if offset >= size:
        return 0
    with open(path, "r+b") as handle:
        handle.seek(offset)
        original = handle.read(min(length, size - offset))
        handle.seek(offset)
        handle.write(bytes(byte ^ 0xFF for byte in original))
    return len(original)


class SqliteBackend(StoreBackend):
    """Durable store on a real ``sqlite3`` file: one applied batch is
    one transaction, durable (one fsync of the write-ahead journal)
    when :meth:`apply` returns.  Closing the last connection folds the
    journal back, so a cleanly closed store is the one file."""

    kind = "sqlite"

    def __init__(
        self,
        path: str,
        faults: Optional[DiskFaultPolicy] = None,
    ) -> None:
        self.path = path
        self.faults = faults
        self.fsyncs = 0
        self._conn: Optional[sqlite3.Connection] = None
        self._open()

    def _open(self) -> sqlite3.Connection:
        if self._conn is None:
            verify_store_file(self.path, self.faults)
            self._conn = _connect(self.path)
        return self._conn

    # -- data plane -------------------------------------------------------

    def get(self, key: str, default: object = None) -> object:
        row = self._open().execute(
            "SELECT value FROM kv WHERE key = ?", (key,)
        ).fetchone()
        return default if row is None else _decode_value(row[0])

    def exists(self, key: str) -> bool:
        row = self._open().execute(
            "SELECT 1 FROM kv WHERE key = ?", (key,)
        ).fetchone()
        return row is not None

    def version(self, key: str) -> int:
        row = self._open().execute(
            "SELECT version FROM kv WHERE key = ?", (key,)
        ).fetchone()
        return 0 if row is None else int(row[0])

    def apply(self, writes: Mapping[str, object]) -> None:
        conn = self._open()
        if not writes:
            return  # a read-only commit writes nothing, fsyncs nothing
        if self.faults is not None and self.faults.take_fsync_failure():
            # The batch never reached BEGIN: nothing to roll back, no
            # effects remain — atomicity holds under the injected fault.
            raise StorageFault(
                f"{self.path}: injected fsync failure — commit could not "
                f"be made durable"
            )
        try:
            _apply_writes(conn, writes)
        except sqlite3.DatabaseError as error:
            raise StorageFault(
                f"{self.path}: store commit failed: {error}"
            ) from error
        self.fsyncs += 1

    def delete(self, key: str) -> None:
        self._open().execute("DELETE FROM kv WHERE key = ?", (key,))

    def snapshot(self) -> Dict[str, object]:
        rows = self._open().execute("SELECT key, value FROM kv").fetchall()
        return {key: _decode_value(text) for key, text in rows}

    def keys(self) -> Iterator[str]:
        rows = self._open().execute("SELECT key FROM kv").fetchall()
        return iter([key for (key,) in rows])

    def __len__(self) -> int:
        row = self._open().execute("SELECT COUNT(*) FROM kv").fetchone()
        return int(row[0])

    def seed(self, initial: Mapping[str, object]) -> None:
        if initial:
            _seed_rows(self._open(), initial)

    # -- lifecycle / faults ----------------------------------------------

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def ensure_alive(self) -> None:
        self._open()

    def tear(self, offset: Optional[int] = None, length: int = 32) -> int:
        """Apply the armed (or given) torn-write fault to the closed file.

        The next reopen must either detect the damage
        (:class:`~repro.errors.StoreCorruptionError`) or — when the torn
        bytes landed in dead space — serve exactly the committed state.
        """
        if offset is None and self.faults is not None:
            offset = self.faults.take_torn_write()
        if offset is None:
            raise SubsystemError("no torn-write offset armed or given")
        self.close()
        return tear_file(self.path, offset, length)


# ---------------------------------------------------------------------------
# Process-external backend: the store lives in another OS process
# ---------------------------------------------------------------------------

#: Per-worker-process connection cache (path -> connection).  Lives in
#: the *worker* interpreter; a respawned worker starts empty.
_WORKER_CONNS: Dict[str, sqlite3.Connection] = {}


def _worker_connection(path: str) -> sqlite3.Connection:
    conn = _WORKER_CONNS.get(path)
    if conn is None:
        verify_store_file(path)
        conn = _connect(path)
        _WORKER_CONNS[path] = conn
    return conn


def _worker_op(path: str, op: str, payload: object) -> object:
    """Single dispatch point executed inside the worker process."""
    if op == "close":
        conn = _WORKER_CONNS.pop(path, None)
        if conn is not None:
            conn.close()
        return None
    conn = _worker_connection(path)
    if op == "get":
        row = conn.execute(
            "SELECT value FROM kv WHERE key = ?", (payload,)
        ).fetchone()
        return (False, None) if row is None else (True, _decode_value(row[0]))
    if op == "version":
        row = conn.execute(
            "SELECT version FROM kv WHERE key = ?", (payload,)
        ).fetchone()
        return 0 if row is None else int(row[0])
    if op == "apply":
        _apply_writes(conn, payload)  # type: ignore[arg-type]
        return None
    if op == "delete":
        conn.execute("DELETE FROM kv WHERE key = ?", (payload,))
        return None
    if op == "snapshot":
        rows = conn.execute("SELECT key, value FROM kv").fetchall()
        return {key: _decode_value(text) for key, text in rows}
    if op == "keys":
        rows = conn.execute("SELECT key FROM kv").fetchall()
        return [key for (key,) in rows]
    if op == "len":
        return int(conn.execute("SELECT COUNT(*) FROM kv").fetchone()[0])
    if op == "seed":
        _seed_rows(conn, payload)  # type: ignore[arg-type]
        return None
    raise SubsystemError(f"unknown worker op {op!r}")  # pragma: no cover


class ProcWorkerHost:
    """One real OS worker process shared by every procpool store.

    Models the *storage node*: all procpool backends of a run dispatch
    to the same single-worker :class:`ProcessPoolExecutor`, so killing
    the worker (a real ``SIGKILL``) downs every store at once — exactly
    the crash-stop fault the simulated harnesses inject, made physical.
    ``kill_to_recovered`` records the honest wall-clock seconds from
    each kill to the respawned worker answering again (benchmark X14).
    """

    def __init__(self) -> None:
        methods = multiprocessing.get_all_start_methods()
        self._mp_context = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        self._pool: Optional[ProcessPoolExecutor] = None
        self.pid: Optional[int] = None
        self.spawns = 0
        self.kills = 0
        self._killed_at: Optional[float] = None
        #: Wall-clock seconds from SIGKILL to first answer after respawn.
        self.kill_to_recovered: List[float] = []

    def ensure_alive(self, probe: bool = False) -> int:
        """Spawn (or respawn) the worker; returns its OS pid.

        With ``probe=True`` an existing pool is round-tripped first, so
        a worker killed *externally* (a raw ``SIGKILL`` from outside the
        host, exactly what the real-kill harness throws) is detected and
        respawned instead of a stale pid being reported.  Recovery and
        restore paths probe; the per-operation fast path does not — it
        already surfaces a dead worker through
        :class:`~concurrent.futures.process.BrokenProcessPool`.
        """
        if probe and self._pool is not None:
            try:
                self.pid = self._pool.submit(os.getpid).result()
            except BrokenProcessPool:
                self._discard()
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=1, mp_context=self._mp_context
            )
            self.pid = self._pool.submit(os.getpid).result()
            self.spawns += 1
            if self._killed_at is not None:
                self.kill_to_recovered.append(
                    time.monotonic() - self._killed_at
                )
                self._killed_at = None
        assert self.pid is not None
        return self.pid

    def call(self, fn: Callable, *args: object) -> object:
        self.ensure_alive()
        assert self._pool is not None
        try:
            return self._pool.submit(fn, *args).result()
        except BrokenProcessPool as error:
            # The worker died under us (external SIGKILL): the in-flight
            # operation is NOT retried — whether its commit reached the
            # disk is decided by the sqlite journal on respawn, exactly
            # like a crashed database server.
            pid = self.pid
            self._discard()
            raise StorageFault(
                f"storage worker process (pid {pid}) died mid-call"
            ) from error

    def kill(self) -> bool:
        """Really SIGKILL the worker process (crash-stop, made physical)."""
        if self._pool is None or self.pid is None:
            return False
        self.kills += 1
        self._killed_at = time.monotonic()
        os.kill(self.pid, signal.SIGKILL)
        self._discard()
        return True

    def _discard(self) -> None:
        if self._killed_at is None:
            self._killed_at = time.monotonic()
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
        self.pid = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self.pid = None

    @property
    def alive(self) -> bool:
        return self._pool is not None


class ProcPoolBackend(StoreBackend):
    """Store held by an external worker process (real crash faults).

    Every operation is a real IPC round-trip into the shared
    :class:`ProcWorkerHost`; the worker keeps the data in the same
    sqlite file format as :class:`SqliteBackend`, so committed state
    survives a worker ``SIGKILL`` and recovery replays the WAL against
    the surviving on-disk state.
    """

    kind = "procpool"
    killable = True

    def __init__(
        self,
        path: str,
        host: ProcWorkerHost,
        faults: Optional[DiskFaultPolicy] = None,
    ) -> None:
        self.path = path
        self.host = host
        self.faults = faults
        self.fsyncs = 0

    def _call(self, op: str, payload: object = None) -> object:
        return self.host.call(_worker_op, self.path, op, payload)

    def get(self, key: str, default: object = None) -> object:
        found, value = self._call("get", key)  # type: ignore[misc]
        return value if found else default

    def exists(self, key: str) -> bool:
        found, _ = self._call("get", key)  # type: ignore[misc]
        return bool(found)

    def version(self, key: str) -> int:
        return int(self._call("version", key))  # type: ignore[arg-type]

    def apply(self, writes: Mapping[str, object]) -> None:
        if not writes:
            return  # a read-only commit writes nothing, fsyncs nothing
        if self.faults is not None and self.faults.take_fsync_failure():
            raise StorageFault(
                f"{self.path}: injected fsync failure — commit could not "
                f"be made durable"
            )
        try:
            self._call("apply", dict(writes))
        except StorageFault:
            raise
        except sqlite3.DatabaseError as error:
            raise StorageFault(
                f"{self.path}: store commit failed in worker: {error}"
            ) from error
        self.fsyncs += 1

    def delete(self, key: str) -> None:
        self._call("delete", key)

    def snapshot(self) -> Dict[str, object]:
        return dict(self._call("snapshot"))  # type: ignore[arg-type]

    def keys(self) -> Iterator[str]:
        return iter(list(self._call("keys")))  # type: ignore[arg-type]

    def __len__(self) -> int:
        return int(self._call("len"))  # type: ignore[arg-type]

    def seed(self, initial: Mapping[str, object]) -> None:
        if initial:
            self._call("seed", dict(initial))

    def ensure_alive(self) -> None:
        self.host.ensure_alive(probe=True)

    def kill(self) -> bool:
        return self.host.kill()

    def close(self) -> None:
        """Close this store's connection in the worker, which folds its
        write-ahead journal back into the store file.  The shared host
        outlives individual stores; the hub closes it."""
        if self.host.alive:
            try:
                self._call("close")
            except StorageFault:
                pass  # the worker died under us: nothing left to close


class BackendHub:
    """Factory and lifecycle owner for one run's store backends.

    ``backend_for(name)`` is the ``backend_factory`` that
    :class:`~repro.subsystems.subsystem.SubsystemRegistry` consults when
    a subsystem is (auto-)provisioned.  Durable backends share one
    storage ``directory`` (a temporary one by default, removed on
    :meth:`close`) and, for ``procpool``, one :class:`ProcWorkerHost`.
    Reusing a hub across a crash/recover cycle reuses the same store
    paths — the surviving on-disk state.
    """

    def __init__(
        self,
        kind: str = "memory",
        directory: Optional[str] = None,
        faults: Optional[DiskFaultPolicy] = None,
    ) -> None:
        check_backend_kind(kind)
        self.kind = kind
        self.faults = faults
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if kind != "memory" and directory is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-store-")
            directory = self._tmp.name
        self.directory = directory
        self.host: Optional[ProcWorkerHost] = (
            ProcWorkerHost() if kind == "procpool" else None
        )
        self._created: List[StoreBackend] = []

    def path_for(self, name: str) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, f"{name}.store.sqlite")

    def backend_for(self, name: str) -> StoreBackend:
        """Create the backend for subsystem ``name`` (one per subsystem)."""
        if self.kind == "memory":
            backend: StoreBackend = MemoryBackend()
        elif self.kind == "sqlite":
            backend = SqliteBackend(self.path_for(name), faults=self.faults)
        else:
            assert self.host is not None
            backend = ProcPoolBackend(
                self.path_for(name), self.host, faults=self.faults
            )
        self._created.append(backend)
        return backend

    @property
    def fsyncs(self) -> int:
        """Store fsyncs across every backend this hub created."""
        return sum(backend.fsyncs for backend in self._created)

    def close(self) -> None:
        for backend in self._created:
            backend.close()
        self._created.clear()
        if self.host is not None:
            self.host.close()
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def __enter__(self) -> "BackendHub":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
