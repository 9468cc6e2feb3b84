"""Unit tests for local transactions (atomicity of activity invocations)."""

import pytest

from repro.errors import AlreadyTerminatedError, NotPreparedError
from repro.subsystems.backend import MemoryBackend
from repro.subsystems.resource import LockManager, WouldBlock
from repro.subsystems.transaction import LocalTransaction, TransactionState


@pytest.fixture
def env():
    store = MemoryBackend()
    store.seed({"k": 1, "counter": 0})
    locks = LockManager()
    return store, locks


def txn(env, txn_id="t1"):
    store, locks = env
    return LocalTransaction(txn_id, store, locks)


class TestLifecycle:
    def test_commit_installs_writes(self, env):
        store, _ = env
        transaction = txn(env)
        transaction.write("k", 2)
        assert store.get("k") == 1  # buffered, not visible
        transaction.commit()
        assert store.get("k") == 2
        assert transaction.state is TransactionState.COMMITTED

    def test_rollback_discards_writes(self, env):
        store, _ = env
        transaction = txn(env)
        transaction.write("k", 99)
        transaction.rollback()
        assert store.get("k") == 1
        assert transaction.state is TransactionState.ABORTED

    def test_prepare_then_commit(self, env):
        store, locks = env
        transaction = txn(env)
        transaction.write("k", 5)
        transaction.prepare()
        assert transaction.state is TransactionState.PREPARED
        assert store.get("k") == 1
        assert locks.held_by("t1")  # locks kept while prepared
        transaction.commit()
        assert store.get("k") == 5
        assert not locks.held_by("t1")

    def test_prepare_then_rollback(self, env):
        store, locks = env
        transaction = txn(env)
        transaction.write("k", 5)
        transaction.prepare()
        transaction.rollback()
        assert store.get("k") == 1
        assert not locks.held_by("t1")

    def test_no_operations_after_prepare(self, env):
        transaction = txn(env)
        transaction.prepare()
        with pytest.raises(AlreadyTerminatedError):
            transaction.write("k", 2)
        with pytest.raises(AlreadyTerminatedError):
            transaction.read("k")

    def test_no_double_commit(self, env):
        transaction = txn(env)
        transaction.commit()
        with pytest.raises(AlreadyTerminatedError):
            transaction.commit()
        with pytest.raises(AlreadyTerminatedError):
            transaction.rollback()

    def test_require_prepared(self, env):
        transaction = txn(env)
        with pytest.raises(NotPreparedError):
            transaction.require_prepared()
        transaction.prepare()
        transaction.require_prepared()

    def test_terminal_states(self):
        assert TransactionState.COMMITTED.is_terminal
        assert TransactionState.ABORTED.is_terminal
        assert not TransactionState.PREPARED.is_terminal
        assert not TransactionState.ACTIVE.is_terminal


class TestDataOperations:
    def test_read_own_writes(self, env):
        transaction = txn(env)
        transaction.write("k", 7)
        assert transaction.read("k") == 7

    def test_read_default(self, env):
        transaction = txn(env)
        assert transaction.read("missing", "dflt") == "dflt"

    def test_increment(self, env):
        store, _ = env
        transaction = txn(env)
        assert transaction.increment("counter", 2) == 2
        assert transaction.increment("counter") == 3
        transaction.commit()
        assert store.get("counter") == 3

    def test_read_write_sets_tracked(self, env):
        transaction = txn(env)
        transaction.read("k")
        transaction.write("counter", 1)
        assert transaction.read_set == frozenset({"k"})
        assert transaction.write_set == frozenset({"counter"})


class TestLockingIntegration:
    def test_write_write_conflict_blocks(self, env):
        first = txn(env, "t1")
        second = txn(env, "t2")
        first.write("k", 2)
        with pytest.raises(WouldBlock):
            second.write("k", 3)

    def test_read_read_coexists(self, env):
        first = txn(env, "t1")
        second = txn(env, "t2")
        assert first.read("k") == second.read("k") == 1

    def test_commit_releases_for_waiter(self, env):
        first = txn(env, "t1")
        first.write("k", 2)
        first.commit()
        second = txn(env, "t2")
        second.write("k", 3)
        second.commit()
        store, _ = env
        assert store.get("k") == 3
