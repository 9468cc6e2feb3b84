"""Lock management over a subsystem's versioned store.

Each transactional subsystem (paper §2.3) owns a versioned key-value
store (a :class:`~repro.subsystems.backend.StoreBackend`: entries carry
version counters; in memory by default, durable — and killable for
real — behind ``sqlite``/``procpool``) and a :class:`LockManager`
implementing strict two-phase locking.  Local transactions buffer
writes and acquire locks; the store is only touched at commit, so an
aborted invocation is guaranteed to leave no effects (the atomicity the
paper assumes of service invocations).

Versions let tests and the simulation assert effect-freeness: a
compensated activity must leave every key it touched with the same
value it had before (versions still advance, recording that writes
happened — effect-freeness is about *values*, Definition 1 is about
return values of other activities).

The lock manager never blocks: the scheduler above is a synchronous
reactor, so a lock request that cannot be granted immediately raises
:class:`WouldBlock` carrying the holders.  The caller (the subsystem)
turns this into a deferral decision — for prepared transactions of
deferred commits this is precisely how Lemma 1's "defer conflicting
work until the pivot group commits" is realised physically.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, List, Tuple

from repro.errors import SubsystemError

__all__ = ["LockMode", "WouldBlock", "LockManager"]


class LockMode(enum.Enum):
    """Lock modes of the strict-2PL lock manager."""

    SHARED = "S"
    EXCLUSIVE = "X"

    def compatible(self, other: "LockMode") -> bool:
        return self is LockMode.SHARED and other is LockMode.SHARED


class WouldBlock(SubsystemError):
    """A lock request cannot be granted without waiting.

    Carries the ids of the transactions holding conflicting locks so
    the scheduler can wait for (or abort) them.
    """

    def __init__(self, key: str, mode: LockMode, holders: FrozenSet[str]) -> None:
        self.key = key
        self.mode = mode
        self.holders = holders
        super().__init__(
            f"lock {mode.value} on {key!r} blocked by {sorted(holders)}"
        )


class LockManager:
    """Strict two-phase locking with immediate would-block signalling."""

    def __init__(self) -> None:
        #: key -> {owner_id: mode}
        self._locks: Dict[str, Dict[str, LockMode]] = {}

    def acquire(self, owner: str, key: str, mode: LockMode) -> None:
        """Grant ``owner`` a lock or raise :class:`WouldBlock`.

        Re-entrant: an owner holding a lock may re-request it; a shared
        lock is upgraded to exclusive when no other owner holds one.
        """
        holders = self._locks.setdefault(key, {})
        held = holders.get(owner)
        if held is LockMode.EXCLUSIVE or held is mode:
            return
        others = {
            other: other_mode
            for other, other_mode in holders.items()
            if other != owner
        }
        if mode is LockMode.SHARED:
            blocking = {
                other
                for other, other_mode in others.items()
                if other_mode is LockMode.EXCLUSIVE
            }
        else:
            blocking = set(others)
        if blocking:
            raise WouldBlock(key, mode, frozenset(blocking))
        holders[owner] = mode

    def release_all(self, owner: str) -> None:
        """Release every lock held by ``owner`` (end of strict 2PL)."""
        for key in list(self._locks):
            holders = self._locks[key]
            holders.pop(owner, None)
            if not holders:
                del self._locks[key]

    def holders(self, key: str) -> Dict[str, LockMode]:
        return dict(self._locks.get(key, {}))

    def held_by(self, owner: str) -> List[Tuple[str, LockMode]]:
        return [
            (key, holders[owner])
            for key, holders in self._locks.items()
            if owner in holders
        ]

    def __len__(self) -> int:
        return sum(len(holders) for holders in self._locks.values())
