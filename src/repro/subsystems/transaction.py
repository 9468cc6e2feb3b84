"""Local transactions inside a transactional subsystem (paper §2.3).

Every activity invocation runs as a :class:`LocalTransaction` in its
subsystem: reads go through the lock manager, writes are buffered, and
the store is only modified at commit — so an invocation that aborts is
atomic and leaves no effects.

Besides the usual ``ACTIVE → COMMITTED/ABORTED`` lifecycle, a local
transaction supports the **prepared** state of the two-phase commit
protocol: ``prepare()`` fixes the write set and keeps all locks; the
transaction can then still ``commit()`` or ``rollback()``.  Prepared
transactions are how the subsystems provide the *deferred commit of
non-compensatable activities* that Lemma 1 requires, and the in-doubt
state crash recovery must resolve.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from repro.errors import AlreadyTerminatedError, NotPreparedError
from repro.subsystems.backend import StoreBackend
from repro.subsystems.resource import LockManager, LockMode

__all__ = ["TransactionState", "LocalTransaction", "carry_redo"]


class TransactionState(enum.Enum):
    ACTIVE = "active"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"

    @property
    def is_terminal(self) -> bool:
        return self in (TransactionState.COMMITTED, TransactionState.ABORTED)


class LocalTransaction:
    """One atomic unit of work against a subsystem's store."""

    def __init__(
        self,
        txn_id: str,
        store: StoreBackend,
        locks: LockManager,
    ) -> None:
        self.txn_id = txn_id
        self._store = store
        self._locks = locks
        self._state = TransactionState.ACTIVE
        self._writes: Dict[str, object] = {}
        self._reads: Set[str] = set()

    # -- state -----------------------------------------------------------

    @property
    def state(self) -> TransactionState:
        return self._state

    @property
    def read_set(self) -> FrozenSet[str]:
        return frozenset(self._reads)

    @property
    def write_set(self) -> FrozenSet[str]:
        return frozenset(self._writes)

    def _require_active(self) -> None:
        if self._state is not TransactionState.ACTIVE:
            raise AlreadyTerminatedError(
                f"transaction {self.txn_id!r} is {self._state.value}, not active"
            )

    # -- data operations ---------------------------------------------------

    def read(self, key: str, default: object = None) -> object:
        """Read a key under a shared lock (own writes win)."""
        self._require_active()
        if key in self._writes:
            return self._writes[key]
        self._locks.acquire(self.txn_id, key, LockMode.SHARED)
        self._reads.add(key)
        return self._store.get(key, default)

    def write(self, key: str, value: object) -> None:
        """Buffer a write under an exclusive lock."""
        self._require_active()
        self._locks.acquire(self.txn_id, key, LockMode.EXCLUSIVE)
        self._writes[key] = value

    def increment(self, key: str, amount: float = 1) -> float:
        """Read-modify-write convenience used by counter services."""
        current = self.read(key, 0)
        updated = (current or 0) + amount  # type: ignore[operator]
        self.write(key, updated)
        return updated  # type: ignore[return-value]

    # -- lifecycle -----------------------------------------------------------

    def prepare(self) -> None:
        """Enter the prepared state of 2PC: writes fixed, locks kept."""
        self._require_active()
        self._state = TransactionState.PREPARED

    def commit(self) -> None:
        """Install buffered writes and release all locks."""
        if self._state not in (TransactionState.ACTIVE, TransactionState.PREPARED):
            raise AlreadyTerminatedError(
                f"transaction {self.txn_id!r} is {self._state.value}"
            )
        self._store.apply(self._writes)
        self._state = TransactionState.COMMITTED
        self._locks.release_all(self.txn_id)

    def rollback(self) -> None:
        """Discard buffered writes and release all locks.

        Legal from both the active and the prepared state — a prepared
        transaction is exactly one that can still go either way, which
        is what makes deferred commits recoverable.
        """
        if self._state.is_terminal:
            raise AlreadyTerminatedError(
                f"transaction {self.txn_id!r} is {self._state.value}"
            )
        self._writes.clear()
        self._state = TransactionState.ABORTED
        self._locks.release_all(self.txn_id)

    def redo_entry(self, subsystem: str) -> Optional[List[object]]:
        """This commit as the log record explaining it carries it for
        recovery to redo — ``[subsystem, txn, [[key, value, version],
        …]]``, each version the key's once the commit is installed — or
        ``None`` when it writes nothing.  Exact while prepared (the
        exclusive locks hold every key at its version until the commit
        bumps it once) and right after the commit, before anything else
        runs."""
        if not self._writes:
            return None
        bump = 1 if self._state is TransactionState.PREPARED else 0
        writes = [
            [key, value, self._store.version(key) + bump]
            for key, value in self._writes.items()
        ]
        return [subsystem, self.txn_id, writes]

    def require_prepared(self) -> None:
        if self._state is not TransactionState.PREPARED:
            raise NotPreparedError(
                f"transaction {self.txn_id!r} is {self._state.value}, "
                f"expected prepared"
            )


def carry_redo(record: Dict[str, object], entries: Iterable[Optional[list]]) -> None:
    """Put in ``record`` the store commits it explains, as ``redo``
    (:meth:`LocalTransaction.redo_entry`s; ``None`` writes nothing)."""
    redo = list(filter(None, entries))
    if redo:
        record["redo"] = redo
