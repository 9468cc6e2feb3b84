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

import gc
import os
import signal
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
        assert len(backend) == 0
        assert list(backend.keys()) == []
        assert backend.snapshot() == {}
        assert not backend.exists("ghost")
        assert backend.get("ghost") is None
        assert backend.get("ghost", "fallback") == "fallback"

    def test_seed_installs_at_version_zero(self, backend):
        backend.seed({"a": 1, "b": None})
        assert backend.exists("a")
        assert backend.exists("b")
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

    def test_empty_apply_is_noop(self, backend):
        before = backend.fsyncs
        backend.apply({})
        assert backend.snapshot() == {}
        assert backend.fsyncs == before

    def test_delete(self, backend):
        backend.apply({"a": 1})
        backend.delete("a")
        assert not backend.exists("a")
        backend.delete("a")  # idempotent

    def test_keys_and_len(self, backend):
        backend.apply({"a": 1})
        backend.apply({"b": 2})
        assert len(backend) == 2
        assert sorted(backend.keys()) == ["a", "b"]

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
        assert not backend.killable
        assert backend.kill() is False
        backend.ensure_alive()
        backend.close()

    def test_fsyncs_stay_zero(self):
        backend = MemoryBackend()
        backend.apply({"a": 1})
        assert backend.fsyncs == 0


class TestSqliteBackend:
    def test_durable_across_reopen(self, tmp_path):
        path = str(tmp_path / "kv.store.sqlite")
        with SqliteBackend(path) as backend:
            backend.apply({"a": 1, "b": "two"})
            expected = backend.snapshot()
        with SqliteBackend(path) as reopened:
            assert reopened.snapshot() == expected
            assert reopened.version("a") == 1

    def test_write_ahead_journal_fully_synced(self, tmp_path):
        """Durability is not a knob: every store opens on the
        write-ahead journal with every commit fsynced."""
        with SqliteBackend(str(tmp_path / "kv.store.sqlite")) as backend:
            conn = backend._open()
            assert conn.execute("PRAGMA journal_mode").fetchone() == ("wal",)
            assert conn.execute("PRAGMA synchronous").fetchone() == (2,)
        with pytest.raises(TypeError):
            SqliteBackend(str(tmp_path / "x.sqlite"), synchronous="OFF")

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

    def test_fsync_counted_per_commit(self, tmp_path):
        path = str(tmp_path / "kv.store.sqlite")
        with SqliteBackend(path) as backend:
            assert backend.fsyncs == 0
            backend.apply({"a": 1})
            backend.apply({"b": 2})
            backend.apply({})  # read-only commit: no fsync
            assert backend.fsyncs == 2

    def test_fsync_fault_aborts_then_heals(self, tmp_path):
        path = str(tmp_path / "kv.store.sqlite")
        faults = DiskFaultPolicy(fail_fsync=1)
        with SqliteBackend(path, faults=faults) as backend:
            with pytest.raises(StorageFault):
                backend.apply({"a": 1})
            assert not backend.exists("a")
            backend.apply({"a": 2})  # budget consumed: healed
            assert backend.get("a") == 2
        assert faults.delivered["fsync"] == 1

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
        path = str(tmp_path / "kv.store.sqlite")
        with SqliteBackend(path) as backend:
            with pytest.raises(StorageFault):
                backend.apply({"a": object()})
            assert not backend.exists("a")


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
            assert reopened.tear(offset=7) > 0
        assert os.listdir(directory) == ["store.store.sqlite"]

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
