"""Commutativity and conflict of activities (paper §3.2, Definition 6).

Two activities *commute* when swapping them in any context leaves all
return values unchanged; otherwise they are *in conflict*.  The paper
assumes commutativity to be **perfect**: if ``a`` and ``b`` conflict,
then so do all combinations of ``a, a⁻¹`` with ``b, b⁻¹``, and likewise
for commuting pairs.  We realise perfect commutativity structurally: the
conflict relation is declared between *forward* services only, and every
occurrence (forward or compensating) is normalised to its forward
service before lookup.

Conflicts can be declared two ways:

* **explicitly**, as a symmetric set of service pairs — this is how the
  paper's abstract examples (Figures 4-9) specify which activities
  "do not commute (denoted by dashed arcs)";
* **semantically**, from read/write sets over named resources: two
  services conflict iff one writes a resource the other reads or writes.
  This matches how real subsystems derive conflicts and is what the
  simulation workloads use.

Both representations implement the same :class:`ConflictRelation`
interface so schedules, checkers and schedulers are agnostic to the
source of conflict information.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.core.activity import COMPENSATION_SUFFIX

__all__ = [
    "ConflictRelation",
    "ExplicitConflicts",
    "ReadWriteConflicts",
    "NoConflicts",
    "AllConflicts",
    "UnionConflicts",
    "normalize_service",
]


@lru_cache(maxsize=None)
def normalize_service(service: str) -> str:
    """Map a compensation service name to its forward service.

    Perfect commutativity (paper §3.2) means a compensating activity has
    exactly the conflicts of its forward activity, so conflict lookup
    always happens on forward service names.  Memoised: the service
    universe is small and fixed per run while lookups are the scheduler's
    hottest string operation.
    """
    if service.endswith(COMPENSATION_SUFFIX):
        return service[: -len(COMPENSATION_SUFFIX)]
    return service


class ConflictRelation:
    """Abstract symmetric conflict relation over service names.

    Subclasses implement :meth:`_conflicts_forward` on *normalised*
    (forward) service names; the public API applies perfect-commutativity
    normalisation and symmetry.  Mutable relations maintain a
    monotonically increasing :attr:`version` so callers that cache
    derived structures (conflict matrices, serialization graphs) can
    detect mid-run mutations and rebuild.
    """

    @property
    def version(self) -> int:
        """Mutation counter; immutable relations stay at 0 forever."""
        return getattr(self, "_version", 0)

    def _bump(self) -> None:
        """Record a mutation: advance the version, notify subscribers.

        Push-based invalidation keeps the hot lookup path free of any
        per-call version polling — derived caches (:class:`UnionConflicts`)
        are told *when* a child mutates instead of asking every time.
        """
        self._version = getattr(self, "_version", 0) + 1
        subscribers = getattr(self, "_subscribers", None)
        if subscribers:
            alive = []
            for ref in subscribers:
                parent = ref()
                if parent is not None:
                    parent._on_child_mutated()
                    alive.append(ref)
            self._subscribers = alive

    def _subscribe(self, parent: "UnionConflicts") -> None:
        subscribers = getattr(self, "_subscribers", None)
        if subscribers is None:
            subscribers = []
            self._subscribers = subscribers
        subscribers.append(weakref.ref(parent))

    def conflicts(self, service_a: str, service_b: str) -> bool:
        """``True`` iff the two services do not commute (Definition 6)."""
        return self._conflicts_forward(
            normalize_service(service_a), normalize_service(service_b)
        )

    def commute(self, service_a: str, service_b: str) -> bool:
        """``True`` iff the two services commute (Definition 6)."""
        return not self.conflicts(service_a, service_b)

    def _conflicts_forward(self, service_a: str, service_b: str) -> bool:
        raise NotImplementedError

    def conflicting(
        self, service: str, candidates: AbstractSet[str]
    ) -> Set[str]:
        """The members of ``candidates`` that conflict with ``service``.

        The set-valued form of :meth:`conflicts`, for callers that would
        otherwise enumerate pairs.  ``candidates`` holds *forward*
        service names — what footprints, foreign views and conflict
        adjacencies hold; ``service`` may be a compensation.  Relations
        with structure answer from an index instead of asking pair by
        pair.
        """
        return self._conflicting_forward(
            normalize_service(service), candidates
        )

    def _conflicting_forward(
        self, service: str, candidates: AbstractSet[str]
    ) -> Set[str]:
        return {
            other
            for other in candidates
            if self._conflicts_forward(service, other)
        }

    def __or__(self, other: "ConflictRelation") -> "ConflictRelation":
        """Union of two relations: conflict if either declares one."""
        return UnionConflicts((self, other))


class NoConflicts(ConflictRelation):
    """Every pair of services commutes — maximal parallelism."""

    def _conflicts_forward(self, service_a: str, service_b: str) -> bool:
        return False


class AllConflicts(ConflictRelation):
    """Every pair of services conflicts — the adversarial case.

    A service conflicts with itself too: the paper's examples treat
    repeated invocations of the same service as conflicting.
    """

    def _conflicts_forward(self, service_a: str, service_b: str) -> bool:
        return True


class ExplicitConflicts(ConflictRelation):
    """Conflict relation given as an explicit set of service pairs.

    ``ExplicitConflicts([("pdm_entry", "pdm_read")])`` declares that the
    two services do not commute.  Pairs are stored symmetrically; perfect
    closure over compensations is applied on lookup.
    """

    def __init__(self, pairs: Iterable[Tuple[str, str]] = ()) -> None:
        self._pairs: Set[FrozenSet[str]] = set()
        #: service -> the services it is declared to conflict with.
        self._partners: Dict[str, Set[str]] = {}
        self._version = 0
        for left, right in pairs:
            self.declare(left, right)

    def declare(self, service_a: str, service_b: str) -> "ExplicitConflicts":
        """Declare that two services conflict; returns ``self`` for chaining."""
        left = normalize_service(service_a)
        right = normalize_service(service_b)
        pair = frozenset((left, right))
        if pair not in self._pairs:
            self._pairs.add(pair)
            self._partners.setdefault(left, set()).add(right)
            self._partners.setdefault(right, set()).add(left)
            self._bump()
        return self

    def retract(self, service_a: str, service_b: str) -> "ExplicitConflicts":
        """Remove a declared conflict if present; returns ``self``."""
        left = normalize_service(service_a)
        right = normalize_service(service_b)
        pair = frozenset((left, right))
        if pair in self._pairs:
            self._pairs.discard(pair)
            self._partners[left].discard(right)
            self._partners[right].discard(left)
            self._bump()
        return self

    def _conflicts_forward(self, service_a: str, service_b: str) -> bool:
        return frozenset((service_a, service_b)) in self._pairs

    def _conflicting_forward(
        self, service: str, candidates: AbstractSet[str]
    ) -> Set[str]:
        partners = self._partners.get(service)
        return partners & candidates if partners else set()

    def pairs(self) -> Iterator[Tuple[str, str]]:
        """Iterate declared conflicting pairs (normalised, arbitrary order)."""
        for pair in self._pairs:
            members = sorted(pair)
            if len(members) == 1:
                yield (members[0], members[0])
            else:
                yield (members[0], members[1])

    def __len__(self) -> int:
        return len(self._pairs)


@dataclass(frozen=True)
class _AccessSet:
    reads: FrozenSet[str] = frozenset()
    writes: FrozenSet[str] = frozenset()


class ReadWriteConflicts(ConflictRelation):
    """Semantic conflicts derived from read/write sets over resources.

    Services are registered with the resources they read and write.  Two
    services conflict iff one writes a resource the other touches —
    the classical RW/WR/WW test lifted to semantically rich operations.
    Unregistered services are treated as conflict-free (a service that
    touches no shared resource commutes with everything).
    """

    def __init__(self) -> None:
        self._accesses: Dict[str, _AccessSet] = {}
        #: ``(readers, writers)``: resource -> the services registered as
        #: reading / writing it.  Built by the first set query after a
        #: mutation — registration is set-up, the index is run-time.
        self._index: Optional[
            Tuple[Dict[str, Set[str]], Dict[str, Set[str]]]
        ] = None
        self._version = 0

    def register(
        self,
        service: str,
        reads: Iterable[str] = (),
        writes: Iterable[str] = (),
    ) -> "ReadWriteConflicts":
        """Register (or extend) the access set of ``service``.

        Registering the same service twice unions the access sets, which
        lets scenario builders declare accesses incrementally.
        """
        name = normalize_service(service)
        current = self._accesses.get(name, _AccessSet())
        merged = _AccessSet(
            reads=current.reads | frozenset(reads),
            writes=current.writes | frozenset(writes),
        )
        # An unknown service and an empty registered access set are
        # equivalent (both conflict-free), so only a genuine change to
        # the access sets counts as a mutation.
        if merged != current:
            self._index = None
            self._bump()
        self._accesses[name] = merged
        return self

    def access_set(self, service: str) -> Tuple[FrozenSet[str], FrozenSet[str]]:
        """Return ``(reads, writes)`` of a service (empty if unknown)."""
        entry = self._accesses.get(normalize_service(service), _AccessSet())
        return entry.reads, entry.writes

    def _conflicts_forward(self, service_a: str, service_b: str) -> bool:
        left = self._accesses.get(service_a)
        right = self._accesses.get(service_b)
        if left is None or right is None:
            return False
        if left.writes & (right.reads | right.writes):
            return True
        if right.writes & left.reads:
            return True
        return False

    def _conflicting_forward(
        self, service: str, candidates: AbstractSet[str]
    ) -> Set[str]:
        entry = self._accesses.get(service)
        if entry is None:
            return set()
        if self._index is None:
            readers: Dict[str, Set[str]] = {}
            writers: Dict[str, Set[str]] = {}
            for name, access in self._accesses.items():
                for resource in access.reads:
                    readers.setdefault(resource, set()).add(name)
                for resource in access.writes:
                    writers.setdefault(resource, set()).add(name)
            self._index = (readers, writers)
        readers, writers = self._index
        partners: Set[str] = set()
        for resource in entry.writes:
            partners |= readers.get(resource, ())
        for resource in entry.writes | entry.reads:
            partners |= writers.get(resource, ())
        return partners & candidates


class UnionConflicts(ConflictRelation):
    """Union of several conflict relations.

    Useful to combine semantic (read/write) conflicts with extra
    explicitly declared ones, e.g. conflicts through an external channel
    the resource model does not capture.

    Lookups are memoised behind a per-pair boolean cache keyed on
    normalised names (both orders, since the relation is symmetric); the
    cache drops itself whenever any child relation's :attr:`version`
    moves, so mid-run ``declare``/``retract``/``register`` calls stay
    correct.  ``lookups`` / ``cache_hits`` feed the perf-counter layer
    and count pair lookups only; :meth:`conflicting` is the union of the
    children's answers.
    """

    def __init__(self, relations: Iterable[ConflictRelation]) -> None:
        flattened = []
        for relation in relations:
            if isinstance(relation, UnionConflicts):
                flattened.extend(relation._relations)
            else:
                flattened.append(relation)
        self._relations: Tuple[ConflictRelation, ...] = tuple(flattened)
        self._cache: Dict[Tuple[str, str], bool] = {}
        #: Total pair lookups / lookups answered from the cache.
        self.lookups = 0
        self.cache_hits = 0
        self._version = sum(
            relation.version for relation in self._relations
        )
        for relation in self._relations:
            relation._subscribe(self)

    def _on_child_mutated(self) -> None:
        """A child relation changed: drop the pair cache (push model)."""
        self._version += 1
        self._cache.clear()

    def _conflicts_forward(self, service_a: str, service_b: str) -> bool:
        self.lookups += 1
        key = (service_a, service_b)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        result = any(
            relation._conflicts_forward(service_a, service_b)
            for relation in self._relations
        )
        self._cache[key] = result
        self._cache[(service_b, service_a)] = result
        return result

    def _conflicting_forward(
        self, service: str, candidates: AbstractSet[str]
    ) -> Set[str]:
        # Asked of the children, past the pair cache: a set query is not
        # counted among ``lookups``.
        found: Set[str] = set()
        for relation in self._relations:
            found |= relation._conflicting_forward(service, candidates)
        return found
