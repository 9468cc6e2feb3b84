"""Unit tests for versioned stores and the lock manager."""

import pytest

from repro.subsystems.backend import MemoryBackend
from repro.subsystems.resource import LockManager, LockMode, WouldBlock


def seeded(initial=None):
    """The default (in-memory) versioned store, seeded like a subsystem's."""
    store = MemoryBackend()
    store.seed(initial or {})
    return store


class TestVersionedStore:
    def test_initial_state(self):
        store = seeded({"bom": None, "count": 3})
        assert store.get("count") == 3
        assert store.exists("bom")
        assert not store.exists("ghost")
        assert store.get("ghost", "fallback") == "fallback"

    def test_apply_bumps_versions(self):
        store = seeded()
        assert store.version("k") == 0
        store.apply({"k": "v1"})
        assert store.get("k") == "v1"
        assert store.version("k") == 1
        store.apply({"k": "v2"})
        assert store.version("k") == 2

    def test_snapshot_values_only(self):
        store = seeded({"a": 1})
        store.apply({"b": 2})
        assert store.snapshot() == {"a": 1, "b": 2}

    def test_delete(self):
        store = seeded({"a": 1})
        store.delete("a")
        assert not store.exists("a")
        store.delete("a")  # idempotent

    def test_len_and_keys(self):
        store = seeded({"a": 1, "b": 2})
        assert len(store) == 2
        assert set(store.keys()) == {"a", "b"}


class TestLockMode:
    def test_compatibility(self):
        assert LockMode.SHARED.compatible(LockMode.SHARED)
        assert not LockMode.SHARED.compatible(LockMode.EXCLUSIVE)
        assert not LockMode.EXCLUSIVE.compatible(LockMode.EXCLUSIVE)


class TestLockManager:
    def test_shared_locks_coexist(self):
        locks = LockManager()
        locks.acquire("t1", "k", LockMode.SHARED)
        locks.acquire("t2", "k", LockMode.SHARED)
        assert set(locks.holders("k")) == {"t1", "t2"}

    def test_exclusive_blocks_shared(self):
        locks = LockManager()
        locks.acquire("t1", "k", LockMode.EXCLUSIVE)
        with pytest.raises(WouldBlock) as info:
            locks.acquire("t2", "k", LockMode.SHARED)
        assert info.value.holders == frozenset({"t1"})
        assert info.value.key == "k"

    def test_shared_blocks_exclusive(self):
        locks = LockManager()
        locks.acquire("t1", "k", LockMode.SHARED)
        with pytest.raises(WouldBlock):
            locks.acquire("t2", "k", LockMode.EXCLUSIVE)

    def test_reentrant_acquisition(self):
        locks = LockManager()
        locks.acquire("t1", "k", LockMode.SHARED)
        locks.acquire("t1", "k", LockMode.SHARED)
        locks.acquire("t1", "k", LockMode.EXCLUSIVE)  # upgrade, sole holder
        assert locks.holders("k") == {"t1": LockMode.EXCLUSIVE}

    def test_upgrade_blocked_by_other_shared_holder(self):
        locks = LockManager()
        locks.acquire("t1", "k", LockMode.SHARED)
        locks.acquire("t2", "k", LockMode.SHARED)
        with pytest.raises(WouldBlock):
            locks.acquire("t1", "k", LockMode.EXCLUSIVE)

    def test_exclusive_holder_rerequests_freely(self):
        locks = LockManager()
        locks.acquire("t1", "k", LockMode.EXCLUSIVE)
        locks.acquire("t1", "k", LockMode.SHARED)
        locks.acquire("t1", "k", LockMode.EXCLUSIVE)

    def test_release_all(self):
        locks = LockManager()
        locks.acquire("t1", "a", LockMode.EXCLUSIVE)
        locks.acquire("t1", "b", LockMode.SHARED)
        locks.acquire("t2", "b", LockMode.SHARED)
        locks.release_all("t1")
        assert locks.holders("a") == {}
        assert set(locks.holders("b")) == {"t2"}
        locks.acquire("t2", "a", LockMode.EXCLUSIVE)

    def test_held_by(self):
        locks = LockManager()
        locks.acquire("t1", "a", LockMode.EXCLUSIVE)
        locks.acquire("t1", "b", LockMode.SHARED)
        held = dict(locks.held_by("t1"))
        assert held == {"a": LockMode.EXCLUSIVE, "b": LockMode.SHARED}

    def test_len_counts_grants(self):
        locks = LockManager()
        locks.acquire("t1", "a", LockMode.SHARED)
        locks.acquire("t2", "a", LockMode.SHARED)
        locks.acquire("t1", "b", LockMode.EXCLUSIVE)
        assert len(locks) == 3
