"""Process schedules and serializability (paper §3.2, Definition 7).

A process schedule ``S = (P_S, A_S, ≪_S)`` records the interleaved
execution of a set of processes: the committed activity invocations of
all processes plus their termination events.  Following the classical
treatment we represent a schedule as a *sequence* of events — one
linearisation compatible with the partial order ``≪_S``; the partial
order itself is recovered as "``a`` before ``b`` in the sequence, and
``a``,``b`` belong to the same process or conflict" (only the relative
order of conflicting activities matters, Definition 7.2).

Event kinds:

* :class:`ActivityEvent` — a committed activity invocation (forward or
  compensating).  Aborted invocation attempts leave no effects (the
  subsystems guarantee atomicity) and therefore do not appear in
  schedules.
* :class:`CommitEvent` / :class:`AbortEvent` — termination ``C_i`` /
  ``A_i`` of a process.
* :class:`GroupAbortEvent` — the set-oriented abort
  ``A(P_{n_1} … P_{n_s})`` used when completing a schedule
  (Definition 8 2b).

The schedule knows the process templates and the conflict relation, so
it can compute the serialization graph, check (conflict-)serializability
and reconstruct each process's runtime state at any prefix — the basis
for building completed process schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    Union,
)

from repro.core.activity import ActivityId, ActivityKind, Direction
from repro.core.conflict import ConflictRelation, NoConflicts
from repro.core.instance import ActionType, ProcessInstance
from repro.core.process import Process
from repro.errors import InvalidScheduleError, UnknownProcessError

__all__ = [
    "ActivityEvent",
    "CommitEvent",
    "AbortEvent",
    "GroupAbortEvent",
    "ScheduleEvent",
    "ProcessSchedule",
    "CycleWitnesses",
]


class CycleWitnesses(List[Tuple[str, ...]]):
    """Cycle witnesses of a serialization graph.

    A plain list of cycles (so existing equality comparisons keep
    working) plus a ``truncated`` flag: enumeration is bounded — on
    pathological graphs the number of simple cycles is exponential —
    and the flag records that the bound was hit, so "no cycles found"
    is distinguishable from "stopped looking".
    """

    def __init__(self, *args: Iterable[Tuple[str, ...]]) -> None:
        super().__init__(*args)
        self.truncated = False


@dataclass(frozen=True)
class ActivityEvent:
    """A committed activity invocation inside a schedule.

    ``conflict_service`` is always the *forward* service of the
    activity, also for compensations — the structural realisation of
    perfect commutativity (a compensating activity has exactly the
    conflicts of its forward activity).
    """

    activity: ActivityId
    service: str
    conflict_service: str
    kind: ActivityKind
    effect_free: bool = False

    @property
    def process_id(self) -> str:
        return self.activity.process_id

    @property
    def is_compensation(self) -> bool:
        return self.activity.is_compensation

    def __str__(self) -> str:
        return str(self.activity)


@dataclass(frozen=True)
class CommitEvent:
    """Termination event ``C_i``."""

    process_id: str

    def __str__(self) -> str:
        return f"C({self.process_id})"


@dataclass(frozen=True)
class AbortEvent:
    """Termination event ``A_i``."""

    process_id: str

    def __str__(self) -> str:
        return f"A({self.process_id})"


@dataclass(frozen=True)
class GroupAbortEvent:
    """Set-oriented abort ``A(P_{n_1}, …, P_{n_s})`` (Definition 8 2b)."""

    process_ids: Tuple[str, ...]

    def __str__(self) -> str:
        return f"A({', '.join(self.process_ids)})"


ScheduleEvent = Union[ActivityEvent, CommitEvent, AbortEvent, GroupAbortEvent]


class ProcessSchedule:
    """A process schedule over a fixed set of process templates.

    Parameters
    ----------
    processes:
        The process templates of ``P_S``.
    conflicts:
        The conflict relation over services (Definition 6); defaults to
        no conflicts.
    events:
        Optional initial event sequence (used by :meth:`prefix` and the
        completion constructor).
    """

    def __init__(
        self,
        processes: Iterable[Process],
        conflicts: Optional[ConflictRelation] = None,
        events: Iterable[ScheduleEvent] = (),
    ) -> None:
        self._processes: Dict[str, Process] = {}
        for process in processes:
            if process.process_id in self._processes:
                raise InvalidScheduleError(
                    f"duplicate process id {process.process_id!r} in schedule"
                )
            self._processes[process.process_id] = process
        self.conflicts = conflicts if conflicts is not None else NoConflicts()
        self._events: List[ScheduleEvent] = list(events)

    # -- construction --------------------------------------------------------

    def process(self, process_id: str) -> Process:
        try:
            return self._processes[process_id]
        except KeyError:
            raise UnknownProcessError(
                f"process {process_id!r} is not part of this schedule"
            ) from None

    def processes(self) -> Iterator[Process]:
        return iter(self._processes.values())

    def add_process(self, process: Process) -> "ProcessSchedule":
        """Register a further process template; returns ``self``.

        Lets incremental consumers (the scheduler's prefix certifier)
        grow ``P_S`` as processes join the history instead of rebuilding
        the schedule.  Re-adding the same template is a no-op; a
        *different* template under an existing id is rejected.
        """
        existing = self._processes.get(process.process_id)
        if existing is None:
            self._processes[process.process_id] = process
        elif existing is not process:
            raise InvalidScheduleError(
                f"duplicate process id {process.process_id!r} in schedule"
            )
        return self

    def append(self, event: ScheduleEvent) -> "ProcessSchedule":
        """Append a pre-built event; returns ``self`` for chaining."""
        self._events.append(event)
        return self

    def activity_event(
        self,
        process_id: str,
        activity_name: str,
        direction: Direction = Direction.FORWARD,
    ) -> ActivityEvent:
        """Build an :class:`ActivityEvent` from the process template."""
        process = self.process(process_id)
        definition = process.activity(activity_name)
        if direction is Direction.COMPENSATION:
            service = definition.compensation_service
            if service is None:
                raise InvalidScheduleError(
                    f"activity {activity_name!r} of {process_id!r} is "
                    f"{definition.kind.name.lower()} and has no compensation"
                )
        else:
            service = definition.service
        assert service is not None
        return ActivityEvent(
            activity=ActivityId(process_id, activity_name, direction),
            service=service,
            conflict_service=definition.service,  # type: ignore[arg-type]
            kind=definition.kind,
            effect_free=definition.effect_free,
        )

    def record(
        self,
        process_id: str,
        activity_name: str,
        direction: Direction = Direction.FORWARD,
    ) -> "ProcessSchedule":
        """Record a committed activity invocation; returns ``self``."""
        return self.append(self.activity_event(process_id, activity_name, direction))

    def record_compensation(
        self, process_id: str, activity_name: str
    ) -> "ProcessSchedule":
        """Record the compensation ``a^{-1}``; returns ``self``."""
        return self.record(process_id, activity_name, Direction.COMPENSATION)

    def record_commit(self, process_id: str) -> "ProcessSchedule":
        self.process(process_id)
        return self.append(CommitEvent(process_id))

    def record_abort(self, process_id: str) -> "ProcessSchedule":
        self.process(process_id)
        return self.append(AbortEvent(process_id))

    def record_group_abort(self, process_ids: Sequence[str]) -> "ProcessSchedule":
        for process_id in process_ids:
            self.process(process_id)
        return self.append(GroupAbortEvent(tuple(process_ids)))

    # -- basic queries --------------------------------------------------------

    @property
    def events(self) -> Tuple[ScheduleEvent, ...]:
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def activity_events(self) -> List[Tuple[int, ActivityEvent]]:
        """``(position, event)`` pairs for all activity events."""
        return [
            (index, event)
            for index, event in enumerate(self._events)
            if isinstance(event, ActivityEvent)
        ]

    def events_of(self, process_id: str) -> List[ActivityEvent]:
        """Activity events of one process, in schedule order."""
        return [
            event
            for event in self._events
            if isinstance(event, ActivityEvent) and event.process_id == process_id
        ]

    def committed_processes(self) -> FrozenSet[str]:
        return frozenset(
            event.process_id
            for event in self._events
            if isinstance(event, CommitEvent)
        )

    def aborted_processes(self) -> FrozenSet[str]:
        """Processes with an individual or group abort event."""
        aborted: Set[str] = set()
        for event in self._events:
            if isinstance(event, AbortEvent):
                aborted.add(event.process_id)
            elif isinstance(event, GroupAbortEvent):
                aborted.update(event.process_ids)
        return frozenset(aborted)

    def active_processes(self) -> Tuple[str, ...]:
        """Processes that appear in the schedule but have not terminated."""
        terminated = self.committed_processes() | self.aborted_processes()
        seen: List[str] = []
        for event in self._events:
            if isinstance(event, ActivityEvent):
                process_id = event.process_id
                if process_id not in terminated and process_id not in seen:
                    seen.append(process_id)
        return tuple(seen)

    # -- prefixes -------------------------------------------------------------

    def prefix(self, length: int) -> "ProcessSchedule":
        """The prefix of the first ``length`` events (Definition 10)."""
        if not 0 <= length <= len(self._events):
            raise InvalidScheduleError(
                f"prefix length {length} out of range 0..{len(self._events)}"
            )
        return ProcessSchedule(
            self._processes.values(),
            self.conflicts,
            self._events[:length],
        )

    def committed_projection(self) -> "ProcessSchedule":
        """The schedule restricted to committed processes ([BHG87]).

        Theorem 1's serializability claim is about this projection —
        aborted processes left only effect-free traces (their
        compensated pairs reduce away) and do not constrain the serial
        order of the committed ones.
        """
        committed = self.committed_processes()
        events = [
            event
            for event in self._events
            if (
                isinstance(event, (ActivityEvent, CommitEvent))
                and event.process_id in committed
            )
        ]
        return ProcessSchedule(self._processes.values(), self.conflicts, events)

    # -- conflicts and serializability ----------------------------------------

    def events_conflict(self, left: ActivityEvent, right: ActivityEvent) -> bool:
        """Conflict test between two activity events (Definition 6)."""
        return self.conflicts.conflicts(left.conflict_service, right.conflict_service)

    def conflicting_pairs(
        self, inter_process_only: bool = True
    ) -> Iterator[Tuple[int, ActivityEvent, int, ActivityEvent]]:
        """Ordered conflicting pairs ``(i, a, j, b)`` with ``i < j``."""
        activities = self.activity_events()
        for left_pos in range(len(activities)):
            i, left = activities[left_pos]
            for right_pos in range(left_pos + 1, len(activities)):
                j, right = activities[right_pos]
                if inter_process_only and left.process_id == right.process_id:
                    continue
                if self.events_conflict(left, right):
                    yield (i, left, j, right)

    def serialization_graph(self) -> Dict[str, Set[str]]:
        """Process-level conflict graph: ``P_i → P_j`` iff a conflicting
        activity of ``P_i`` precedes one of ``P_j``."""
        graph: Dict[str, Set[str]] = {pid: set() for pid in self._processes}
        for _, left, _, right in self.conflicting_pairs():
            if left.process_id != right.process_id:
                graph[left.process_id].add(right.process_id)
        return graph

    def is_serializable(self) -> bool:
        """Conflict-serializability: the serialization graph is acyclic."""
        return self.serialization_order() is not None

    def serialization_order(self) -> Optional[List[str]]:
        """A serial order witnessing serializability, or ``None``.

        Only processes that appear in the schedule are included; the
        order is a topological sort of the serialization graph.
        """
        graph = self.serialization_graph()
        participating = {
            event.process_id
            for event in self._events
            if isinstance(event, ActivityEvent)
        }
        in_degree = {pid: 0 for pid in participating}
        for source, targets in graph.items():
            if source not in participating:
                continue
            for target in targets:
                if target in participating:
                    in_degree[target] += 1
        frontier = sorted(pid for pid, degree in in_degree.items() if degree == 0)
        order: List[str] = []
        while frontier:
            current = frontier.pop(0)
            order.append(current)
            for target in sorted(graph.get(current, ())):
                if target not in in_degree:
                    continue
                in_degree[target] -= 1
                if in_degree[target] == 0:
                    frontier.append(target)
            frontier.sort()
        if len(order) != len(participating):
            return None
        return order

    def cycles(
        self, limit: int = 64, budget: int = 50_000
    ) -> CycleWitnesses:
        """Simple cycles of the serialization graph (witnesses).

        Bounded: at most ``limit`` witnesses are collected and at most
        ``budget`` search steps are spent (simple-path enumeration is
        exponential on dense graphs).  The returned list's
        ``truncated`` flag is set when either bound cut the search
        short — witnesses are diagnostics, so a bounded sample beats an
        exponential stall.
        """
        graph = self.serialization_graph()
        cycles = CycleWitnesses()
        seen_signatures: Set[FrozenSet[str]] = set()
        steps = [budget]

        def walk(start: str, current: str, path: List[str]) -> bool:
            """Depth-first witness search; False when a bound was hit."""
            for target in sorted(graph.get(current, ())):
                steps[0] -= 1
                if steps[0] <= 0 or len(cycles) >= limit:
                    cycles.truncated = True
                    return False
                if target == start and len(path) > 0:
                    signature = frozenset(path + [current])
                    if signature not in seen_signatures:
                        seen_signatures.add(signature)
                        cycles.append(tuple(path + [current, start]))
                elif target not in path and target != current and target > start:
                    if not walk(start, target, path + [current]):
                        return False
            return True

        for node in sorted(graph):
            if not walk(node, node, []):
                break
        return cycles

    # -- legality and state reconstruction -------------------------------------

    def instance_state(self, process_id: str) -> ProcessInstance:
        """Reconstruct the runtime state of ``process_id`` at this point.

        Replays the process's committed activity events through a fresh
        :class:`ProcessInstance`, inferring the failures that must have
        happened in between (a schedule records only effects; a failed
        invocation is visible only through the alternative path that was
        taken).  Raises :class:`InvalidScheduleError` when the observed
        events are not a legal execution of the process (Definition 7.1).
        """
        process = self.process(process_id)
        instance = ProcessInstance(process)
        for event in self.events_of(process_id):
            self.replay_event(instance, event, process_id)
        return instance

    def replay_event(
        self,
        instance: ProcessInstance,
        event: ActivityEvent,
        process_id: str,
    ) -> None:
        """Advance ``instance`` by one observed activity event.

        The single-step engine behind :meth:`instance_state`, exposed so
        incremental consumers (the scheduler's prefix certifier) can
        maintain long-lived replica states instead of re-replaying every
        prefix from scratch.  Raises :class:`InvalidScheduleError` when
        the event is not a legal continuation.
        """
        budget = len(instance.process) * 4 + 8
        abort_inferred = False
        while budget:
            budget -= 1
            action = instance.next_action()
            if action.type is ActionType.FINISHED:
                # A logically finished process counts as active until its
                # commit is recorded (Definition 8 2b): a trailing
                # compensation means it was caught by a (cascading or
                # group) abort — re-open it through its completion.
                if not abort_inferred and instance.committed_sequence():
                    abort_inferred = True
                    instance.request_abort()
                    if not instance.status.is_terminal:
                        continue
                raise InvalidScheduleError(
                    f"event {event} is not a legal continuation: process "
                    f"{process_id!r} already terminated"
                )
            expected_direction = (
                Direction.COMPENSATION
                if action.type is ActionType.COMPENSATE
                else Direction.FORWARD
            )
            if (
                action.activity == event.activity.activity_name
                and expected_direction is event.activity.direction
            ):
                instance.on_committed(action.activity)
                return
            expected_retriable = (
                action.type is ActionType.INVOKE
                and instance.definition(action.activity).kind.is_retriable
            )
            if expected_retriable:
                # A retriable activity never fails terminally, so the
                # only legal explanation for the mismatch is that the
                # process was aborted: compensations and the retriable
                # forward-recovery path follow (completion C(P)).
                if abort_inferred:
                    raise InvalidScheduleError(
                        f"event {event} cannot be explained for process "
                        f"{process_id!r} (mismatch during inferred abort)"
                    )
                abort_inferred = True
                instance.request_abort()
                continue
            if event.activity.direction is Direction.COMPENSATION:
                committed = instance.committed_sequence()
                if (
                    action.type is ActionType.INVOKE
                    and committed
                    and committed[-1] == event.activity.activity_name
                ):
                    # The observed compensation implies the expected
                    # forward activity failed and the instance is
                    # backtracking.
                    instance.on_failed(action.activity)
                    continue
                raise InvalidScheduleError(
                    f"compensation {event} is not a legal continuation of "
                    f"process {process_id!r} (expected {action})"
                )
            if action.type is ActionType.INVOKE:
                # The observed forward activity differs from the expected
                # one: the expected activity must have failed.
                instance.on_failed(action.activity)
                continue
            # expected a compensation but observed a forward activity:
            # in a schedule the compensation would have been recorded.
            raise InvalidScheduleError(
                f"event {event} observed while process {process_id!r} must "
                f"compensate {action.activity!r} first"
            )
        raise InvalidScheduleError(
            f"could not explain event {event} as a legal execution step of "
            f"process {process_id!r}"
        )

    def is_legal(self) -> bool:
        """Definition 7.1: every per-process projection is a legal
        execution respecting precedence and preference orders."""
        try:
            self.validate()
        except InvalidScheduleError:
            return False
        return True

    def validate(self) -> None:
        """Raise :class:`InvalidScheduleError` if any projection is illegal."""
        for process_id in self._processes:
            if self.events_of(process_id) or process_id in (
                self.committed_processes() | self.aborted_processes()
            ):
                self.instance_state(process_id)

    # -- rendering --------------------------------------------------------------

    def __str__(self) -> str:
        return " ".join(str(event) for event in self._events)
