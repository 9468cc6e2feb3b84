"""Backend conformance suite: one contract, three implementations.

Every :class:`~repro.subsystems.backend.StoreBackend` must expose
*identical* store, version and compensation semantics — the scheduler's
decisions may never depend on which backend holds the state.  The same
parametrized assertions therefore run over ``memory``, ``sqlite`` and
``procpool``; backend-specific behaviour (durability, disk faults, real
kills) lives in its own classes below.

The whole module runs with ``ResourceWarning`` promoted to an error:
backends own real file handles, sqlite connections and worker
processes, and every test must release them deterministically.
"""

import contextlib
import gc
import json
import os
import signal
import sqlite3
import warnings

import pytest

from repro.errors import StorageFault, StoreCorruptionError
from repro.subsystems.backend import (
    BACKEND_KINDS,
    BackendHub,
    MemoryBackend,
    ProcWorkerHost,
    SqliteBackend,
    tear_file,
)
from repro.subsystems.failures import DiskFaultPolicy
from repro.subsystems.services import counter_service
from repro.subsystems.subsystem import Subsystem, SubsystemRegistry
from repro.subsystems.wal import InMemoryWAL

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")


@pytest.fixture(params=list(BACKEND_KINDS))
def hub(request):
    with BackendHub(request.param) as hub:
        yield hub


@pytest.fixture
def backend(hub):
    backend = hub.backend_for("store")
    yield backend


class TestConformance:
    """Identical data-plane semantics across every backend kind."""

    def test_kind_matches_hub(self, hub, backend):
        assert backend.kind == hub.kind
        assert backend.kind in BACKEND_KINDS

    def test_empty_store(self, backend):
        assert backend.snapshot() == {}
        assert backend.get("ghost") is None
        assert backend.get("ghost", "fallback") == "fallback"

    def test_seed_installs_at_version_zero(self, backend):
        backend.seed({"a": 1, "b": None})
        assert backend.snapshot() == {"a": 1, "b": None}
        assert backend.version("a") == 0
        assert backend.get("a") == 1
        assert backend.get("b") == None

    def test_seed_durable_state_wins(self, backend):
        backend.apply({"a": "durable"})
        backend.seed({"a": "template", "b": 2})
        assert backend.get("a") == "durable"
        assert backend.get("b") == 2

    def test_apply_bumps_versions(self, backend):
        assert backend.version("k") == 0
        backend.apply({"k": "v1"})
        assert backend.version("k") == 1
        assert backend.get("k") == "v1"
        backend.apply({"k": "v2"})
        assert backend.version("k") == 2
        assert backend.get("k") == "v2"

    def test_apply_batch_is_joint(self, backend):
        backend.apply({"x": 1, "y": [1, 2], "z": {"n": True}})
        assert backend.snapshot() == {"x": 1, "y": [1, 2], "z": {"n": True}}
        assert backend.version("x") == 1
        assert backend.version("y") == 1

    def test_redo_installs_only_where_behind(self, backend):
        backend.apply({"a": "one"})
        backend.apply({"a": "two"})
        logged = [["a", "one", 1], ["b", "lost", 1], ["c", "ahead", 3]]
        backend.redo(logged)
        assert backend.snapshot() == {"a": "two", "b": "lost", "c": "ahead"}
        assert [backend.version(key) for key in "abc"] == [2, 1, 3]
        backend.redo(logged)  # idempotent
        assert [backend.version(key) for key in "abc"] == [2, 1, 3]

    def test_power_cut_keeps_what_was_synced(self, backend):
        """Seeds are durable at once, commits from the next sync on."""
        backend.seed({"s": 0})
        backend.apply({"a": 1})
        backend.sync()
        backend.apply({"a": 2, "b": 3})
        backend.lose_unsynced()
        assert backend.snapshot() == {"s": 0, "a": 1}
        assert backend.version("a") == 1
        backend.redo([["a", 2, 2], ["b", 3, 1]])
        assert backend.snapshot() == {"s": 0, "a": 2, "b": 3}

    def test_empty_apply_is_noop(self, backend):
        before = backend.fsyncs
        backend.apply({})
        assert backend.snapshot() == {}
        assert backend.fsyncs == before

    def test_keys_and_len(self, backend):
        backend.apply({"a": 1})
        backend.apply({"b": 2})
        assert sorted(backend.snapshot()) == ["a", "b"]

    def test_value_types_roundtrip(self, backend):
        values = {
            "none": None,
            "bool": True,
            "int": 7,
            "float": 2.5,
            "str": "text",
            "list": [1, "two", None],
            "dict": {"nested": [True, {"k": 1}]},
        }
        backend.apply(values)
        assert backend.snapshot() == values

    def test_compensation_restores_store(self, hub):
        """Definition 2: compensation right after the forward service is
        effect-free on the store — identically on every backend."""
        registry = SubsystemRegistry(backend_factory=hub.backend_for)
        subsystem = registry.provision("sub")
        subsystem.register(counter_service("inc", key="parts"))
        before = subsystem.store.snapshot()
        subsystem.invoke("inc")
        assert subsystem.store.get("parts") == 1
        subsystem.invoke("inc~inv")
        after = subsystem.store.snapshot()
        assert after.get("parts", 0) == 0
        assert set(after) >= set(before)
        registry.close()

    def test_subsystem_invoke_identical(self, hub):
        """A held (prepared) transaction commits the same way everywhere."""
        registry = SubsystemRegistry(backend_factory=hub.backend_for)
        subsystem = registry.provision("sub")
        subsystem.register(counter_service("inc", key="parts"))
        invocation = subsystem.invoke("inc", hold=True)
        subsystem.commit_prepared(invocation.transaction.txn_id)
        invocation = subsystem.invoke("inc", hold=True)
        subsystem.rollback_prepared(invocation.transaction.txn_id)
        assert subsystem.store.get("parts") == 1
        registry.close()


class TestMemoryBackend:
    def test_not_killable(self):
        backend = MemoryBackend()
        assert backend.kill() is False
        backend.ensure_alive()
        backend.close()

    def test_fsyncs_stay_zero(self):
        backend = MemoryBackend()
        backend.apply({"a": 1})
        backend.sync()
        assert backend.fsyncs == 0


#: The commit rules are written once (``SqliteBackend.apply``) and must
#: hold wherever the store runs: in-process and in the storage worker.
DURABLE_KINDS = ("sqlite", "procpool")


@contextlib.contextmanager
def durable_store(kind, tmp_path, faults=None):
    """One store of ``kind`` in ``tmp_path/kind``, closed with its hub."""
    directory = tmp_path / kind
    directory.mkdir(exist_ok=True)
    with BackendHub(kind, directory=str(directory), faults=faults) as hub:
        yield hub.backend_for("kv")


class TestSqliteBackend:
    def test_durable_across_reopen(self, tmp_path):
        for kind in DURABLE_KINDS:
            with durable_store(kind, tmp_path) as backend:
                backend.apply({"a": 1, "b": "two"})
                expected = backend.snapshot()
            with durable_store(kind, tmp_path) as reopened:
                assert reopened.snapshot() == expected, kind
                assert reopened.version("a") == 1, kind

    def test_write_ahead_journal_synced_at_sync_points(self, tmp_path):
        """Durability is not a knob: every store opens on the
        write-ahead journal at ``synchronous=NORMAL`` — commits are
        ordered, a sync (a checkpoint of the journal) makes them
        durable."""
        with SqliteBackend(str(tmp_path / "kv.store.sqlite")) as backend:
            conn = backend._store.conn
            assert conn.execute("PRAGMA journal_mode").fetchone() == ("wal",)
            assert conn.execute("PRAGMA synchronous").fetchone() == (1,)
        with pytest.raises(TypeError):
            SqliteBackend(str(tmp_path / "x.sqlite"), synchronous="FULL")

    def test_commit_survives_an_unclean_exit(self, tmp_path):
        """A committed batch is on disk when ``apply`` returns — in the
        journal, which a process that never closed its connection
        leaves behind and the next open replays."""
        path = str(tmp_path / "kv.store.sqlite")
        crashed = SqliteBackend(path)
        crashed.apply({"a": 1})
        image = str(tmp_path / "image.sqlite")
        for suffix in ("", "-wal"):
            with open(path + suffix, "rb") as source:
                with open(image + suffix, "wb") as copy:
                    copy.write(source.read())
        crashed.close()
        with SqliteBackend(image) as reopened:
            assert reopened.snapshot() == {"a": 1}
            assert reopened.version("a") == 1

    def test_fsync_counted_per_sync(self, tmp_path):
        """N applies + 1 sync = 1 fsync; a clean close is one more."""
        for kind in DURABLE_KINDS:
            with durable_store(kind, tmp_path) as backend:
                assert backend.fsyncs == 0, kind
                backend.apply({"a": 1})
                backend.apply({"b": 2})
                backend.apply({})  # read-only commit: nothing at all
                assert backend.fsyncs == 0, kind
                backend.sync()
                assert backend.fsyncs == 1, kind
                backend.close()
                assert backend.fsyncs == 2, kind

    def test_fsync_fault_aborts_then_heals(self, tmp_path):
        for kind in DURABLE_KINDS:
            faults = DiskFaultPolicy(fail_fsync=1)
            with durable_store(kind, tmp_path, faults) as backend:
                with pytest.raises(StorageFault):
                    backend.apply({"a": 1})
                assert backend.snapshot() == {}, kind
                backend.apply({"a": 2})  # budget consumed: healed
                assert backend.get("a") == 2, kind
            assert faults.delivered["fsync"] == 1, kind

    def test_suspended_faults_never_fire(self, tmp_path):
        path = str(tmp_path / "kv.store.sqlite")
        faults = DiskFaultPolicy(fail_fsync=1)
        faults.suspended = True
        with SqliteBackend(path, faults=faults) as backend:
            backend.apply({"a": 1})
        assert faults.delivered["fsync"] == 0

    def test_torn_write_detected_or_harmless(self, tmp_path):
        path = str(tmp_path / "kv.store.sqlite")
        with SqliteBackend(path) as backend:
            backend.apply({"a": list(range(64))})
            expected = backend.snapshot()
        assert tear_file(path, 7) > 0
        try:
            with SqliteBackend(path) as damaged:
                served = damaged.snapshot()
        except StoreCorruptionError as error:
            assert error.path == path
        else:  # pragma: no cover - depends on sqlite page layout
            assert served == expected

    def test_short_read_raises_then_heals(self, tmp_path):
        path = str(tmp_path / "kv.store.sqlite")
        with SqliteBackend(path) as backend:
            backend.apply({"a": 1})
        faults = DiskFaultPolicy(short_read=True)
        with pytest.raises(StoreCorruptionError):
            SqliteBackend(path, faults=faults)
        with SqliteBackend(path, faults=faults) as healed:
            assert healed.get("a") == 1

    def test_unencodable_value_is_storage_fault(self, tmp_path):
        for kind in DURABLE_KINDS:
            with durable_store(kind, tmp_path) as backend:
                with pytest.raises(StorageFault):
                    backend.apply({"a": object()})
                assert backend.snapshot() == {}, kind


class TestProcPoolBackend:
    def test_state_lives_in_worker_process(self):
        with BackendHub("procpool") as hub:
            backend = hub.backend_for("store")
            backend.apply({"a": 1})
            assert hub.host is not None
            assert hub.host.pid != os.getpid()
            assert backend.get("a") == 1

    def test_kill_and_respawn_changes_pid(self):
        with BackendHub("procpool") as hub:
            backend = hub.backend_for("store")
            backend.apply({"a": 1})
            first = hub.host.pid
            assert backend.kill() is True
            backend.ensure_alive()
            assert hub.host.pid != first
            # Committed state survived the SIGKILL on disk.
            assert backend.get("a") == 1
            assert hub.host.kill_to_recovered

    def test_external_sigkill_detected_by_probe(self):
        with BackendHub("procpool") as hub:
            backend = hub.backend_for("store")
            backend.apply({"a": 1})
            victim = hub.host.ensure_alive()
            os.kill(victim, signal.SIGKILL)
            backend.ensure_alive()  # probes, discards, respawns
            assert hub.host.pid != victim
            assert backend.get("a") == 1

    def test_host_spawn_counters(self):
        host = ProcWorkerHost()
        try:
            pid = host.ensure_alive()
            assert host.spawns == 1
            assert host.ensure_alive() == pid
            assert host.spawns == 1
        finally:
            host.close()


def on_disk(path):
    """The rows a second connection reads from a store file."""
    with contextlib.closing(sqlite3.connect(path)) as conn:
        return dict(conn.execute("SELECT key, value FROM kv").fetchall())


def force(wal):
    wal.append({"type": "probe"}, force=True)


class TestWriteBehind:
    """Behind a log a store installs commits at the log's forces only
    (DESIGN.md §3b) — identically on every backend kind."""

    def test_reads_see_the_queue_until_a_force_installs_it(self, backend):
        wal = InMemoryWAL()
        backend.write_behind(wal)
        backend.seed({"s": 0})
        backend.apply({"a": 1})
        backend.apply({"a": 2, "b": 3})
        assert backend.get("a") == 2 and backend.version("a") == 2
        assert backend.snapshot() == {"s": 0, "a": 2, "b": 3}
        wal.append({"type": "probe"})  # unforced: installs nothing
        backend.sync()
        backend.lose_unsynced()
        assert backend.snapshot() == {"s": 0}
        backend.apply({"a": 1})
        backend.apply({"a": 2, "b": 3})
        force(wal)
        backend.lose_unsynced()  # installed, not synced: a cut takes it
        assert backend.snapshot() == {"s": 0}
        backend.apply({"a": 1})
        force(wal)
        backend.sync()
        backend.lose_unsynced()
        assert backend.snapshot() == {"s": 0, "a": 1}
        assert backend.version("a") == 1

    def test_a_crash_drops_the_queue_and_redo_restores_it(self, backend):
        wal = InMemoryWAL()
        backend.write_behind(wal)
        backend.apply({"a": 1})
        force(wal)
        backend.apply({"a": 2, "b": 3})
        backend.lose_unflushed()
        assert backend.snapshot() == {"a": 1}
        assert backend.version("a") == 1
        backend.redo([["a", 2, 2], ["b", 3, 1]])
        assert backend.snapshot() == {"a": 2, "b": 3}

    def test_moving_to_another_log_carries_the_queue(self, backend):
        first, second = InMemoryWAL(), InMemoryWAL()
        backend.write_behind(first)
        backend.apply({"a": 1})
        backend.write_behind(second)
        force(first)
        assert first.stores_behind == [] and backend.snapshot() == {"a": 1}
        backend.lose_unflushed()
        assert backend.snapshot() == {}

    def test_a_shared_store_writes_through(self, backend):
        backend.shared = True
        wal = InMemoryWAL()
        backend.write_behind(wal)
        assert backend.behind is None and wal.stores_behind == []
        backend.apply({"a": 1})
        backend.lose_unflushed()
        assert backend.snapshot() == {"a": 1}

    def test_a_refused_batch_is_never_queued(self, tmp_path):
        for kind in DURABLE_KINDS:
            faults = DiskFaultPolicy(fail_fsync=1)
            with durable_store(kind, tmp_path, faults) as backend:
                backend.write_behind(InMemoryWAL())
                with pytest.raises(StorageFault):
                    backend.apply({"a": 1})  # the fsync fault, at apply
                with pytest.raises(StorageFault):
                    backend.apply({"a": object()})  # would never install
                assert backend.snapshot() == {} and not backend._queued, kind

    def test_the_store_file_follows_the_log_force(self, tmp_path):
        for kind in DURABLE_KINDS:
            with durable_store(kind, tmp_path) as backend:
                wal = InMemoryWAL()
                backend.write_behind(wal)
                backend.apply({"a": 1})
                assert on_disk(backend.path) == {}, kind
                force(wal)
                assert on_disk(backend.path) == {"a": "1"}, kind

    def test_a_failed_flush_keeps_the_queue_whole(self, tmp_path):
        """A sqlite error in the middle of the flush's transaction rolls
        all of it back: nothing half-installed, the queue intact, and
        the next force installs it."""
        for kind in DURABLE_KINDS:
            with durable_store(kind, tmp_path) as backend:
                wal = InMemoryWAL()
                backend.write_behind(wal)
                assert backend.snapshot() == {}  # opens the file
                with contextlib.closing(sqlite3.connect(backend.path)) as conn:
                    conn.execute(
                        "CREATE TRIGGER fail BEFORE INSERT ON kv "
                        "WHEN NEW.key = 'b' BEGIN "
                        "SELECT RAISE(ABORT, 'disk I/O error'); END"
                    )
                    conn.commit()
                    backend.apply({"a": 1})
                    backend.apply({"b": 2})
                    force(wal)  # the force holds; the flush is refused
                    with pytest.raises(StorageFault):
                        backend.flush()
                    assert on_disk(backend.path) == {}, kind
                    assert len(backend._queued) == 2, kind
                    assert backend.snapshot() == {"a": 1, "b": 2}, kind
                    conn.execute("DROP TRIGGER fail")
                    conn.commit()
                force(wal)
                assert on_disk(backend.path) == {"a": "1", "b": "2"}, kind
                assert not backend._queued, kind
                assert backend.version("b") == 1, kind

    def test_a_worker_sigkill_between_forces_loses_nothing(self):
        """The queue is the scheduler's memory, not the worker's: a
        SIGKILL between forces costs the next flush one refusal."""
        with BackendHub("procpool") as hub:
            backend = hub.backend_for("store")
            wal = InMemoryWAL()
            backend.write_behind(wal)
            backend.apply({"a": 1})
            force(wal)
            backend.apply({"b": 2})
            os.kill(hub.host.ensure_alive(), signal.SIGKILL)
            assert backend.get("b") == 2  # read from the queue
            force(wal)  # the dead worker refuses: kept
            force(wal)  # respawned: installed
            assert not backend._queued
            backend.lose_unflushed()
            assert backend.snapshot() == {"a": 1, "b": 2}
            assert on_disk(backend.path) == {"a": "1", "b": "2"}

    def test_a_run_survives_worker_kills_between_forces(self):
        """A ledger run over the worker's store, the worker SIGKILLed (a
        crash-stop, then restored) at every activity, a direct commit
        still queued: every acknowledged invocation keeps its one row on disk,
        none gains one."""
        from repro.sim.crashpoints import (
            CrashPointSpec,
            build_crash_world,
            ledger_mismatch,
        )

        spec = CrashPointSpec(abort_rate=0.0, seed=3, backend="procpool")
        with BackendHub("procpool") as hub:
            scheduler, _, workload, failures = build_crash_world(
                spec, InMemoryWAL(), hub=hub, ledger=True
            )
            (subsystem,) = scheduler.registry.subsystems()
            store = subsystem.store
            queued_at_kill = []

            def kill(kind, payload):
                if kind == "activity":
                    queued_at_kill.append(bool(store._queued))
                    subsystem.crash_for(0.0)  # the real SIGKILL
                    subsystem.restore()

            scheduler.add_listener(kill)
            for process in workload.processes:
                scheduler.submit(process, failures=failures)
            history = scheduler.run()
            assert hub.host.kills == len(queued_at_kill) > 2
            assert sum(queued_at_kill) > 2  # held ones queue nothing
            assert ledger_mismatch(scheduler.registry, history) == ""
            assert not store._queued
            assert len(on_disk(store.path)) == len(store.snapshot()) > 0

    def test_a_clean_close_installs_the_queue(self, tmp_path):
        """Closing the log first is a clean shutdown: a run whose every
        flush the store refused ends with commits queued, and the
        close's force installs them — a second connection reads every
        committed row, and restart recovery finds nothing to do."""
        from repro.sim.crashpoints import CrashPointSpec, build_crash_world
        from repro.subsystems.recovery import analyze_wal, recover
        from repro.subsystems.wal import FileWAL

        log = str(tmp_path / "scheduler.wal")
        spec = CrashPointSpec(abort_rate=0.0, seed=3, backend="sqlite")
        with BackendHub("sqlite", directory=str(tmp_path)) as hub:
            wal = FileWAL(log, fsync=True)
            scheduler, repository, workload, failures = build_crash_world(
                spec, wal, hub=hub, ledger=True
            )
            (subsystem,) = scheduler.registry.subsystems()
            store = subsystem.store
            assert store.snapshot() == {}  # opens the file
            with contextlib.closing(sqlite3.connect(store.path)) as conn:
                conn.execute(
                    "CREATE TRIGGER fail BEFORE INSERT ON kv BEGIN "
                    "SELECT RAISE(ABORT, 'disk I/O error'); END"
                )
                conn.commit()
                for process in workload.processes:
                    scheduler.submit(process, failures=failures)
                scheduler.run()  # every flush refused: the queue kept
                conn.execute("DROP TRIGGER fail")
                conn.commit()
            committed = store.snapshot()
            assert store.queued and on_disk(store.path) == {}
            wal.close()
            scheduler.registry.close()
            rows = on_disk(store.path)
            assert {key: json.loads(text) for key, text in rows.items()} == committed
            with FileWAL(log) as reopened:
                redo = analyze_wal(reopened).redo
                report = recover(
                    reopened,
                    scheduler.registry,
                    repository,
                    conflicts=workload.conflicts,
                )
                assert report.noop and len(reopened) == len(wal.records())
            assert redo and all(
                store.version(key) >= version
                for _, _, writes in redo
                for key, _, version in writes
            )
            assert store.snapshot() == committed


class TestLifecycle:
    """Close paths release every OS resource (ResourceWarning-strict)."""

    def test_hub_close_is_idempotent(self):
        for kind in BACKEND_KINDS:
            hub = BackendHub(kind)
            hub.backend_for("a")
            hub.backend_for("b")
            hub.close()
            hub.close()

    def test_registry_close_closes_backends(self):
        with BackendHub("sqlite") as hub:
            registry = SubsystemRegistry(backend_factory=hub.backend_for)
            registry.provision("one")
            registry.provision("two")
            registry.close()
            registry.close()

    @pytest.mark.parametrize("kind", ["sqlite", "procpool"])
    def test_closed_store_is_one_file(self, kind, tmp_path):
        """The write-ahead journal adds ``-wal``/``-shm`` files while a
        store is open; every close path folds them back — also in the
        worker process, also after a kill and respawn."""
        directory = str(tmp_path)
        with BackendHub(kind, directory=directory) as hub:
            backend = hub.backend_for("store")
            backend.apply({"a": 1})
            assert len(os.listdir(directory)) > 1
            if kind == "procpool":
                backend.kill()
                backend.ensure_alive()
                backend.apply({"b": 2})
            backend.close()
            assert os.listdir(directory) == ["store.store.sqlite"]
            assert backend.get("a") == 1  # reopens on demand
        assert os.listdir(directory) == ["store.store.sqlite"]
        with SqliteBackend(hub.path_for("store")) as reopened:
            assert reopened.get("a") == 1
        assert os.listdir(directory) == ["store.store.sqlite"]
        assert tear_file(hub.path_for("store"), 7) > 0

    def test_subsystem_context_manager(self):
        with Subsystem("sub", initial_state={"a": 1}) as subsystem:
            assert subsystem.store.get("a") == 1

    def test_no_resource_warnings_after_gc(self, tmp_path):
        path = str(tmp_path / "kv.store.sqlite")
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with SqliteBackend(path) as backend:
                backend.apply({"a": 1})
            del backend
            with BackendHub("procpool") as hub:
                hub.backend_for("store").apply({"b": 2})
            del hub
            gc.collect()
