"""Shard routing by service footprint.

Processes are partitioned across scheduler shards by the services their
activities touch: every service has exactly one *owner* shard, and a
process is routed to the shard owning the majority of its footprint
(ties prefer the shard owning the first pivot — the non-compensatable
leg is the one worth keeping local to its coordinator).  A process
whose footprint spans several owners is *cross-shard*: its foreign legs
run through proxied subsystems and its pivot group commits through the
message-based cross-shard 2PC.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Set

from repro.core.activity import COMPENSATION_SUFFIX
from repro.core.process import Process

__all__ = ["ShardRouter"]


def _base(service: str) -> str:
    if service.endswith(COMPENSATION_SUFFIX):
        return service[: -len(COMPENSATION_SUFFIX)]
    return service


class ShardRouter:
    """Maps services to owner shards and processes to home shards."""

    def __init__(self, owners: Dict[str, str]) -> None:
        if not owners:
            raise ValueError("router needs at least one service owner")
        self._owners = dict(owners)
        self._shards: List[str] = sorted(set(owners.values()))

    @property
    def shard_ids(self) -> List[str]:
        return list(self._shards)

    def owner(self, service: str) -> str:
        base = _base(service)
        try:
            return self._owners[base]
        except KeyError:
            raise KeyError(f"service {base!r} has no owner shard") from None

    def footprint(self, process: Process) -> Set[str]:
        """The set of shards a process's services touch."""
        return {
            self.owner(definition.service)
            for definition in process.activities()
            if definition.service is not None
        }

    def route(self, process: Process) -> str:
        """Home shard: majority service footprint, pivot breaks ties."""
        votes: Counter = Counter()
        pivot_owner: Optional[str] = None
        for definition in process.activities():
            if definition.service is None:
                continue
            owner = self.owner(definition.service)
            votes[owner] += 1
            if pivot_owner is None and not definition.kind.is_compensatable:
                pivot_owner = owner
        if not votes:
            return self._shards[0]
        best = max(votes.values())
        leaders = sorted(shard for shard, n in votes.items() if n == best)
        if pivot_owner in leaders:
            return pivot_owner
        return leaders[0]

    def is_cross_shard(self, process: Process) -> bool:
        return len(self.footprint(process)) > 1

    def services_owned_by(self, shard_id: str) -> Set[str]:
        return {
            service
            for service, owner in self._owners.items()
            if owner == shard_id
        }

    def partition(
        self, processes: Iterable[Process]
    ) -> Dict[str, List[Process]]:
        """Group processes by home shard (every shard gets an entry)."""
        groups: Dict[str, List[Process]] = {
            shard: [] for shard in self._shards
        }
        for process in processes:
            groups[self.route(process)].append(process)
        return groups
