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
  journal (``PRAGMA journal_mode=WAL``, ``synchronous=NORMAL``): a
  commit reaches the operating system, :meth:`StoreBackend.sync` makes
  every commit so far durable, plus injectable disk faults
  (:class:`~repro.subsystems.failures.DiskFaultPolicy`): fsync failures
  that abort the committing transaction and short reads on reopen; a
  torn write (:func:`tear_file`) and a short read are both detected as
  typed :class:`~repro.errors.StoreCorruptionError`, never silently
  served;
* :class:`ProcPoolBackend` — the same sqlite store run in a separate OS
  process (one shared :class:`ProcWorkerHost` worker per run), so
  crash-stop chaos becomes a **real** ``SIGKILL``: committed state
  survives on disk, in-flight calls fail with
  :class:`~repro.errors.StorageFault`, and recovery replays the WAL
  against whatever the dead worker made durable.

The sqlite data plane is written once (:class:`_SqliteStore`, DESIGN.md
§3o): the two durable kinds differ only in *where* it runs.

:class:`BackendHub` is the factory the harnesses and the CLI thread
through :class:`~repro.subsystems.subsystem.SubsystemRegistry`: one hub
per run owns the storage directory, the worker host, and the close path
for every backend it created.

All three backends implement one contract (exercised by the backend
conformance suite in ``tests/unit/test_backends.py``): per-key version
counters starting at 0 for seeded entries and 1 for first writes,
batch-atomic ``apply``, ``redo`` by version, ``sync``, and value
snapshots for effect-freeness assertions.  Durable backends require
JSON-serializable values — the price of leaving the process.
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
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import StorageFault, StoreCorruptionError
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
    becomes visible with its version bumped, or none does and
    :class:`~repro.errors.StorageFault` is raised.  ``sync`` makes every
    commit so far durable; until then a power cut (``lose_unsynced``)
    may take it back, and ``redo`` reinstalls it from the log by
    ``version`` (DESIGN.md §3b).  ``seed`` installs initial state at
    version 0, durably, without overwriting surviving entries (reopen
    keeps the disk's truth).
    """

    #: Backend kind name (one of :data:`BACKEND_KINDS`).
    kind: str = "abstract"
    #: fsyncs this backend performed: syncs and closing syncs.
    fsyncs: int = 0
    #: Injectable disk faults (durable backends only).
    faults: Optional[DiskFaultPolicy] = None

    # -- data plane -------------------------------------------------------

    def get(self, key: str, default: object = None) -> object:
        raise NotImplementedError

    def version(self, key: str) -> int:
        raise NotImplementedError

    def apply(self, writes: Mapping[str, object]) -> None:
        raise NotImplementedError

    def redo(self, writes: Sequence[Sequence[object]]) -> None:
        """Install each logged ``[key, value, version]`` whose key is at
        a lower version here, in order — idempotent, so recovery may
        redo a log as often as it restarts."""
        raise NotImplementedError

    def snapshot(self) -> Dict[str, object]:
        raise NotImplementedError

    def seed(self, initial: Mapping[str, object]) -> None:
        raise NotImplementedError

    # -- durability -------------------------------------------------------

    def sync(self) -> None:
        """Make every commit so far durable."""

    def lose_unsynced(self) -> None:
        """What a power cut does to the store: every commit since the
        last sync is gone (the crash model, DESIGN.md §3b)."""

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Release connections/handles (idempotent); a clean close syncs."""

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
    """The seed's in-memory store, unchanged semantics, no durability.

    A simulated power cut (:meth:`lose_unsynced`) leaves what the last
    :meth:`sync` copied: commits pay nothing for it.
    """

    kind = "memory"

    def __init__(self) -> None:
        self._entries: Dict[str, _MemoryEntry] = {}
        #: ``key -> (value, version)`` as the last sync saw them.
        self._synced: Dict[str, Tuple[object, int]] = {}

    def get(self, key: str, default: object = None) -> object:
        entry = self._entries.get(key)
        return default if entry is None else entry.value

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

    def redo(self, writes: Sequence[Sequence[object]]) -> None:
        for key, value, version in writes:
            if self.version(key) < version:
                self._entries[key] = _MemoryEntry(value, version)

    def snapshot(self) -> Dict[str, object]:
        return {key: entry.value for key, entry in self._entries.items()}

    def seed(self, initial: Mapping[str, object]) -> None:
        for key, value in initial.items():
            if key not in self._entries:
                self._entries[key] = _MemoryEntry(value, version=0)
                self._synced[key] = (value, 0)

    def sync(self) -> None:
        self._synced = {k: (e.value, e.version) for k, e in self._entries.items()}

    def lose_unsynced(self) -> None:
        self._entries = {k: _MemoryEntry(*kept) for k, kept in self._synced.items()}


# ---------------------------------------------------------------------------
# The sqlite data plane (run in-process and inside the storage worker)
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

# Durable state wins on reopen: seeding never overwrites.
_SEED = "INSERT OR IGNORE INTO kv(key, value, version) VALUES (?, ?, 0)"

# Redo by version: a logged write lands only where the store is behind.
_REDO = (
    "INSERT INTO kv(key, value, version) VALUES (?, ?, ?) "
    "ON CONFLICT(key) DO UPDATE SET "
    "value = excluded.value, version = excluded.version "
    "WHERE kv.version < excluded.version"
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
    """Open a store connection whose commits are ordered, not synced.

    ``isolation_level=None`` puts the connection in autocommit mode;
    :meth:`_SqliteStore._batch` brackets batches with explicit
    ``BEGIN IMMEDIATE``/``COMMIT`` so each applied batch is exactly one
    sqlite transaction.  On the write-ahead journal at
    ``synchronous=NORMAL`` a commit writes the ``-wal`` file and fsyncs
    nothing: a killed process keeps it, a power cut may not.  A
    checkpoint of the journal (:meth:`_SqliteStore.sync`, or closing the
    last connection) syncs; the log's redo covers the rest (DESIGN.md §3b).

    The mode switch runs under the default sync: it writes the database
    header, which must be durable before any WAL frame is trusted
    (sqlite discards the WAL of a zero-length database).  The idempotent
    schema goes in unsynced: four fsyncs to open a fresh store, not six.
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
        conn.execute("PRAGMA synchronous=NORMAL")
        return conn
    except sqlite3.DatabaseError as error:
        raise StoreCorruptionError(
            f"{path}: store file unreadable: {error}", path=path
        ) from error


class _SqliteStore:
    """The sqlite data plane: one store file behind one connection.

    Written once and run in two places — :class:`SqliteBackend` holds
    one in-process, and the storage worker holds one per path for
    :class:`ProcPoolBackend`, which names its operations to
    :func:`_worker_op`.  It knows no fault policy and counts nothing:
    the rules around a commit are :meth:`SqliteBackend.apply`'s, kept in
    the calling process.  Opened only through :func:`_open_store`.
    """

    __slots__ = ("conn",)

    conn: sqlite3.Connection

    def get(self, key: str) -> Tuple[bool, object]:
        """``(found, value)`` — the caller supplies its own default."""
        row = self.conn.execute(
            "SELECT value FROM kv WHERE key = ?", (key,)
        ).fetchone()
        return (False, None) if row is None else (True, _decode_value(row[0]))

    def version(self, key: str) -> int:
        row = self.conn.execute(
            "SELECT version FROM kv WHERE key = ?", (key,)
        ).fetchone()
        return 0 if row is None else int(row[0])

    def snapshot(self) -> Dict[str, object]:
        rows = self.conn.execute("SELECT key, value FROM kv").fetchall()
        return {key: _decode_value(text) for key, text in rows}

    def apply(self, writes: Mapping[str, object]) -> None:
        self._batch(_UPSERT, writes.items())

    def redo(self, writes: Sequence[Sequence[object]]) -> None:
        self._batch(_REDO, writes)

    def seed(self, initial: Mapping[str, object]) -> None:
        self._batch(_SEED, initial.items())

    def _batch(self, statement: str, entries: Iterable[Sequence]) -> None:
        """One atomic transaction over ``(key, value, …)`` rows; rolls back
        and re-raises on any error (nothing begins if a value won't encode)."""
        rows = [(key, _encode_value(value), *rest) for key, value, *rest in entries]
        self.conn.execute("BEGIN IMMEDIATE")
        try:
            self.conn.executemany(statement, rows)
        except BaseException:
            self.conn.execute("ROLLBACK")
            raise
        self.conn.execute("COMMIT")

    def sync(self) -> None:
        """Checkpoint the journal into the store file: both fsynced."""
        busy, _, _ = self.conn.execute("PRAGMA wal_checkpoint(FULL)").fetchone()
        if busy:
            raise sqlite3.OperationalError("journal checkpoint blocked")

    def close(self) -> None:
        self.conn.close()


def _open_store(
    path: str, faults: Optional[DiskFaultPolicy] = None
) -> _SqliteStore:
    """Header-check ``path`` and open its store: the one way in."""
    verify_store_file(path, faults)
    store = _SqliteStore()
    store.conn = _connect(path)
    return store


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
    one transaction, in the write-ahead journal when :meth:`apply`
    returns and durable from the next :meth:`sync`.  Closing the last
    connection folds the journal back (a sync), so a cleanly closed
    store is the one file.

    The data plane runs in-process here (:meth:`_run`); the commit
    rules — an empty batch is no commit, an armed fsync fault refuses
    the batch before it begins, a sqlite error is a
    :class:`~repro.errors.StorageFault` — are this class's, whichever
    process runs the store.  The file is opened (and header-checked)
    at construction.
    """

    kind = "sqlite"

    def __init__(
        self,
        path: str,
        faults: Optional[DiskFaultPolicy] = None,
    ) -> None:
        self.path = path
        self.faults = faults
        self.fsyncs = 0
        self._store: Optional[_SqliteStore] = None
        self.ensure_alive()

    def _run(self, op: str, *args: object) -> object:
        """Run data-plane operation ``op`` on this path's store."""
        if self._store is None:
            self.ensure_alive()
        return getattr(self._store, op)(*args)

    # -- data plane -------------------------------------------------------

    def get(self, key: str, default: object = None) -> object:
        found, value = self._run("get", key)  # type: ignore[misc]
        return value if found else default

    def version(self, key: str) -> int:
        return self._run("version", key)  # type: ignore[return-value]

    def apply(self, writes: Mapping[str, object]) -> None:
        if not writes:
            return  # a read-only commit writes nothing
        if self.faults is not None and self.faults.take_fsync_failure():
            # The batch never reached BEGIN: nothing to roll back, no
            # effects remain — atomicity holds under the injected fault.
            raise StorageFault(
                f"{self.path}: injected fsync failure — commit refused"
            )
        self._write("apply", writes)

    def redo(self, writes: Sequence[Sequence[object]]) -> None:
        if writes:
            self._write("redo", list(writes))

    def snapshot(self) -> Dict[str, object]:
        return self._run("snapshot")  # type: ignore[return-value]

    def seed(self, initial: Mapping[str, object]) -> None:
        if initial:
            self._write("seed", initial)
            self.sync()

    def _write(self, op: str, *args: object) -> None:
        try:
            self._run(op, *args)
        except sqlite3.DatabaseError as error:
            raise StorageFault(
                f"{self.path}: store {op} failed: {error}"
            ) from error

    # -- durability -------------------------------------------------------

    def sync(self) -> None:
        self._write("sync")
        self.fsyncs += 1

    def lose_unsynced(self) -> None:
        """The store file as the last sync (a checkpoint of the journal
        into it) left it; the journal is gone."""
        if not os.path.exists(self.path):
            return  # never opened: nothing committed
        with open(self.path, "rb") as handle:
            synced = handle.read()
        self.close()  # folds the journal in: the synced bytes go back
        for suffix in ("-wal", "-shm"):
            if os.path.exists(self.path + suffix):
                os.remove(self.path + suffix)
        with open(self.path, "wb") as handle:
            handle.write(synced)

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        if self._store is not None:
            self._store.close()
            self._store = None
            self.fsyncs += 1

    def ensure_alive(self) -> None:
        if self._store is None:
            self._store = _open_store(self.path, self.faults)


# ---------------------------------------------------------------------------
# Process-external backend: the same store, run in another OS process
# ---------------------------------------------------------------------------

#: The storage worker's open stores, by path.  Lives in the *worker*
#: interpreter; a respawned worker starts empty.
_WORKER_STORES: Dict[str, _SqliteStore] = {}


def _worker_op(path: str, op: str, args: Tuple[object, ...]) -> object:
    """The storage worker's one entry point: run ``op`` on ``path``'s
    store, opening it on first use (with no fault policy — faults are
    consumed in the calling process, never shipped here)."""
    if op == "close":
        store = _WORKER_STORES.pop(path, None)
        if store is not None:
            store.close()
        return store is not None
    store = _WORKER_STORES.get(path)
    if store is None:
        store = _WORKER_STORES[path] = _open_store(path)
    return getattr(store, op)(*args)


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


class ProcPoolBackend(SqliteBackend):
    """The sqlite store, run in the storage worker (real crash faults).

    Every operation is a real IPC round-trip into the shared
    :class:`ProcWorkerHost`: the operation's name and its arguments,
    never the fault policy, which stays (and is consumed) here.  Data
    plane and commit rules are :class:`SqliteBackend`'s; this class is
    transport and lifecycle only.  Committed state survives a worker
    ``SIGKILL`` on disk and recovery replays the WAL against it.
    Constructing one spawns nothing: the worker starts on first use.
    """

    kind = "procpool"

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

    def _run(self, op: str, *args: object) -> object:
        return self.host.call(_worker_op, self.path, op, args)

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
                if self._run("close"):
                    self.fsyncs += 1
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
        """Store syncs (closing ones too) across the backends created."""
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
