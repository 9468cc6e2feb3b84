"""The process model (paper §3.1, Definition 5).

A process ``P = (A, ≪, ◁)`` consists of

* a set of activities ``A`` drawn from the global service alphabet,
* a *precedence order* ``≪`` — an irreflexive, transitive, acyclic
  partial order over ``A`` with a temporal semantics: ``a ≪ b`` means
  ``b`` may only start after ``a`` committed, and
* a *preference order* ``◁`` defined over connectors (direct-precedence
  edges) leaving the same activity, establishing *alternative execution
  paths*: if ``(h ≪ j) ◁ (h ≪ k)`` then ``k`` may only execute after
  ``j`` failed, or after ``j`` executed and was compensated together
  with everything that succeeded it.

We represent ``≪`` by its direct edges (the transitive reduction the
builder supplies) and expose the transitive closure through
:meth:`Process.precedes`.  The preference order is represented per
source activity as an ordered tuple of *alternative branches*; Def. 5's
requirement that transitively associated connectors be totally ordered
is enforced by construction (a tuple is a total order).

Successors of an activity fall in two classes:

* **alternative successors** — listed in the activity's preference
  tuple; exactly one of them executes in any single run;
* **unconditional successors** — not listed in any preference tuple;
  they follow whenever their predecessor commits (parallel AND-splits,
  §3.6 "unrestricted parallelism").

The :class:`Process` class is a *template*: pure structure, no runtime
state.  Runtime state lives in :class:`repro.core.instance.ProcessInstance`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.activity import ActivityDef, ActivityKind
from repro.errors import InvalidProcessError, UnknownActivityError

__all__ = ["Process", "ProcessBuilder"]


class Process:
    """An immutable process template ``P = (A, ≪, ◁)``.

    Instances are normally created through :class:`ProcessBuilder` or
    the :mod:`repro.core.flex` DSL; the constructor validates the
    Definition-5 requirements and pre-computes the closure structures
    used by checkers and the scheduler.

    Parameters
    ----------
    process_id:
        Unique identifier (the ``i`` in ``P_i``).
    activities:
        The activity declarations forming ``A``.
    precedence:
        Direct edges of ``≪`` as ``(before, after)`` activity-name pairs.
    preference:
        Mapping from an activity name to the ordered tuple of its
        alternative successor names (highest preference first) — the
        representation of ``◁``.
    validate:
        When ``False``, skip Definition-5 validation.  Only used by
        tests that construct deliberately malformed processes.
    """

    def __init__(
        self,
        process_id: str,
        activities: Iterable[ActivityDef],
        precedence: Iterable[Tuple[str, str]] = (),
        preference: Optional[Mapping[str, Sequence[str]]] = None,
        validate: bool = True,
    ) -> None:
        self.process_id = process_id
        self._activities: Dict[str, ActivityDef] = {}
        for definition in activities:
            if definition.name in self._activities:
                raise InvalidProcessError(
                    f"duplicate activity {definition.name!r} in process "
                    f"{process_id!r}"
                )
            self._activities[definition.name] = definition

        self._edges: Set[Tuple[str, str]] = set()
        for before, after in precedence:
            self._require(before)
            self._require(after)
            if before == after:
                raise InvalidProcessError(
                    f"precedence order must be irreflexive; got "
                    f"{before!r} ≪ {before!r} in process {process_id!r}"
                )
            self._edges.add((before, after))

        self._preference: Dict[str, Tuple[str, ...]] = {}
        for source, branches in (preference or {}).items():
            self._require(source)
            ordered = tuple(branches)
            if len(set(ordered)) != len(ordered):
                raise InvalidProcessError(
                    f"preference order of {source!r} lists a successor twice"
                )
            for branch in ordered:
                self._require(branch)
                if (source, branch) not in self._edges:
                    raise InvalidProcessError(
                        f"preference order of {source!r} refers to "
                        f"{branch!r}, but {source!r} ≪ {branch!r} is not a "
                        f"connector of process {process_id!r}"
                    )
            if len(ordered) < 2:
                raise InvalidProcessError(
                    f"preference order of {source!r} must order at least two "
                    f"alternative connectors"
                )
            self._preference[source] = ordered

        self._successors: Dict[str, Tuple[str, ...]] = {}
        self._predecessors: Dict[str, Tuple[str, ...]] = {}
        self._build_adjacency()
        self._descendants_cache: Dict[str, FrozenSet[str]] = {}

        if validate:
            self._check_acyclic()
            self._check_alternative_exclusivity()

    # -- construction helpers ------------------------------------------------

    def _require(self, name: str) -> None:
        if name not in self._activities:
            raise UnknownActivityError(
                f"activity {name!r} is not declared in process "
                f"{self.process_id!r}"
            )

    def _build_adjacency(self) -> None:
        succ: Dict[str, List[str]] = {name: [] for name in self._activities}
        pred: Dict[str, List[str]] = {name: [] for name in self._activities}
        for before, after in sorted(self._edges):
            succ[before].append(after)
            pred[after].append(before)
        self._successors = {name: tuple(values) for name, values in succ.items()}
        self._predecessors = {name: tuple(values) for name, values in pred.items()}

    def _check_acyclic(self) -> None:
        order = self._topological_order()
        if len(order) != len(self._activities):
            raise InvalidProcessError(
                f"precedence order of process {self.process_id!r} is cyclic"
            )

    def _check_alternative_exclusivity(self) -> None:
        """Alternative branches must not be reachable from one another.

        If ``j`` and ``k`` are alternative successors of ``h``, then a
        path ``j ⇝ k`` would make ``k`` both an alternative to ``j`` and
        a consequence of it — an inconsistent specification.
        """
        for source, branches in self._preference.items():
            for index, branch in enumerate(branches):
                for other in branches[index + 1 :]:
                    if self.precedes(branch, other) or self.precedes(other, branch):
                        raise InvalidProcessError(
                            f"alternative successors {branch!r} and {other!r} "
                            f"of {source!r} must be mutually unreachable in "
                            f"process {self.process_id!r}"
                        )

    def _topological_order(self) -> List[str]:
        in_degree = {name: len(self._predecessors[name]) for name in self._activities}
        frontier = sorted(name for name, degree in in_degree.items() if degree == 0)
        order: List[str] = []
        while frontier:
            current = frontier.pop(0)
            order.append(current)
            for successor in self._successors[current]:
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    frontier.append(successor)
            frontier.sort()
        return order

    # -- basic queries -------------------------------------------------------

    @property
    def activity_names(self) -> Tuple[str, ...]:
        """All activity names in deterministic (topological) order."""
        return tuple(self._topological_order())

    def __len__(self) -> int:
        return len(self._activities)

    def activity(self, name: str) -> ActivityDef:
        """Look up an activity declaration by name."""
        try:
            return self._activities[name]
        except KeyError:
            raise UnknownActivityError(
                f"activity {name!r} is not declared in process "
                f"{self.process_id!r}"
            ) from None

    def activities(self) -> Iterator[ActivityDef]:
        """Iterate activity declarations in topological order."""
        for name in self._topological_order():
            yield self._activities[name]

    def direct_successors(self, name: str) -> Tuple[str, ...]:
        self._require(name)
        return self._successors[name]

    def edges(self) -> Iterator[Tuple[str, str]]:
        """Iterate the direct connectors of ``≪`` deterministically."""
        return iter(sorted(self._edges))

    def alternatives(self, name: str) -> Tuple[str, ...]:
        """Ordered alternative successors of ``name`` (may be empty)."""
        self._require(name)
        return self._preference.get(name, ())

    def preference_sources(self) -> Iterator[str]:
        """Activities that carry a preference order (choice points)."""
        return iter(sorted(self._preference))

    def roots(self) -> Tuple[str, ...]:
        """Activities with no predecessor (the process entry points)."""
        return tuple(
            name
            for name in self._topological_order()
            if not self._predecessors[name]
        )

    # -- order queries ---------------------------------------------------

    def precedes(self, before: str, after: str) -> bool:
        """``True`` iff ``before ≪ after`` in the transitive closure."""
        self._require(before)
        self._require(after)
        return after in self.descendants(before)

    def descendants(self, name: str) -> FrozenSet[str]:
        """All activities reachable from ``name`` (exclusive)."""
        self._require(name)
        cached = self._descendants_cache.get(name)
        if cached is not None:
            return cached
        seen: Set[str] = set()
        stack = list(self._successors[name])
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._successors[current])
        result = frozenset(seen)
        self._descendants_cache[name] = result
        return result

    def unordered(self, left: str, right: str) -> bool:
        """``True`` iff the two activities are incomparable under ``≪``."""
        return (
            left != right
            and not self.precedes(left, right)
            and not self.precedes(right, left)
        )

    # -- derived structure -----------------------------------------------

    def non_compensatable_names(self) -> Tuple[str, ...]:
        """Pivot and retriable activities in topological order."""
        return tuple(
            name
            for name in self._topological_order()
            if not self._activities[name].kind.is_compensatable
        )

    def services(self) -> FrozenSet[str]:
        """The set of (forward) services invoked by this process."""
        return frozenset(
            definition.service  # type: ignore[misc]
            for definition in self._activities.values()
        )

    def branch_activities(self, source: str, branch: str) -> FrozenSet[str]:
        """Activities belonging to the alternative ``branch`` of ``source``.

        The branch consists of the branch head and everything reachable
        from it that is not reachable from a different alternative of
        the same choice point — used by recovery to decide what must be
        compensated when switching alternatives.
        """
        if branch not in self.alternatives(source):
            raise InvalidProcessError(
                f"{branch!r} is not an alternative successor of {source!r}"
            )
        return frozenset({branch} | self.descendants(branch))

    def renamed(self, process_id: str) -> "Process":
        """A copy of this template under a different process id.

        Schedulers use this to run several instances of one template
        concurrently: each instance gets its own process id so schedule
        events stay unambiguous.
        """
        if process_id == self.process_id:
            return self
        return Process(
            process_id,
            self._activities.values(),
            self._edges,
            self._preference,
            validate=False,  # structure already validated once
        )


class ProcessBuilder:
    """Fluent builder for :class:`Process` templates.

    Example
    -------
    The paper's process ``P_1`` (Figure 2)::

        p1 = (
            ProcessBuilder("P1")
            .compensatable("a1")
            .pivot("a2")
            .compensatable("a3")
            .pivot("a4")
            .retriable("a5")
            .retriable("a6")
            .precede("a1", "a2")
            .precede("a2", "a3")
            .precede("a3", "a4")
            .precede("a2", "a5")
            .precede("a5", "a6")
            .prefer("a2", ["a3", "a5"])
            .build()
        )
    """

    def __init__(self, process_id: str) -> None:
        self._process_id = process_id
        self._activities: List[ActivityDef] = []
        self._names: Set[str] = set()
        self._edges: List[Tuple[str, str]] = []
        self._preference: Dict[str, Sequence[str]] = {}

    def add(self, definition: ActivityDef) -> "ProcessBuilder":
        """Add a fully specified activity declaration."""
        if definition.name in self._names:
            raise InvalidProcessError(
                f"duplicate activity {definition.name!r} in builder for "
                f"{self._process_id!r}"
            )
        self._names.add(definition.name)
        self._activities.append(definition)
        return self

    def _add_kind(self, name: str, kind: ActivityKind, **kwargs) -> "ProcessBuilder":
        return self.add(ActivityDef(name=name, kind=kind, **kwargs))

    def compensatable(self, name: str, **kwargs) -> "ProcessBuilder":
        """Add a compensatable activity (``a^c``)."""
        return self._add_kind(name, ActivityKind.COMPENSATABLE, **kwargs)

    def pivot(self, name: str, **kwargs) -> "ProcessBuilder":
        """Add a pivot activity (``a^p``)."""
        return self._add_kind(name, ActivityKind.PIVOT, **kwargs)

    def retriable(self, name: str, **kwargs) -> "ProcessBuilder":
        """Add a retriable activity (``a^r``)."""
        return self._add_kind(name, ActivityKind.RETRIABLE, **kwargs)

    def precede(self, before: str, after: str) -> "ProcessBuilder":
        """Declare the connector ``before ≪ after``."""
        self._edges.append((before, after))
        return self

    def chain(self, *names: str) -> "ProcessBuilder":
        """Declare a chain ``n1 ≪ n2 ≪ … ≪ nk`` of connectors."""
        for before, after in zip(names, names[1:]):
            self.precede(before, after)
        return self

    def prefer(self, source: str, branches: Sequence[str]) -> "ProcessBuilder":
        """Declare the preference order ``◁`` among ``source``'s connectors.

        ``branches`` lists the alternative successors highest preference
        first: ``prefer("a2", ["a3", "a5"])`` encodes
        ``(a2 ≪ a3) ◁ (a2 ≪ a5)``.
        """
        self._preference[source] = list(branches)
        return self

    def build(self, validate: bool = True) -> Process:
        """Construct and validate the immutable :class:`Process`."""
        return Process(
            self._process_id,
            self._activities,
            self._edges,
            self._preference,
            validate=validate,
        )
