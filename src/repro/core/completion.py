"""Completed process schedules ``S̃`` (paper §3.3, Definition 8).

To reason about correct recovery jointly with concurrency control, the
unified theory makes recovery-related activities explicit: every abort
activity ``A_i`` is replaced by the activities of the completion
``C(P_i)`` of the aborted process, and all processes still *active* are
treated as aborted through a set-oriented **group abort**
``A(P_{n_1}, …, P_{n_s})`` appended at the end of the schedule.

Crucially — and unlike the expanded schedule of the traditional unified
theory, which only ever adds compensations — the completion of a process
in ``F-REC`` contains *forward recovery* activities (retriable
activities that have not yet been executed).  These can introduce **new
conflicts** that are not visible in ``S`` itself, which is exactly why
no SOT-like criterion exists for transactional processes and the
completed schedule must always be considered (paper §3.5).

The ordering of completion activities follows Definition 8 rules
3(a)–3(f), instantiated deterministically:

* completion activities of each process keep their ``C(P_i)`` internal
  order and follow all original activities (rules 3(b), 3(c));
* across group-aborted processes, all *compensations* run first, in
  reverse global order of their forward counterparts — this realises
  Lemma 2 (compensations in reverse order of their activities) and
  Lemma 3 (compensations precede conflicting retriable forward-recovery
  activities);
* forward-recovery activities then run process by process following the
  serialization order established in ``S`` (rules 3(d), 3(f));
* every completed process finally commits (``A_i`` becomes ``C_i``).

A mid-schedule individual abort ``A_i`` is expanded *in place*: its
completion activities are inserted at the abort's position, which is
when they would actually have executed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.activity import Direction
from repro.core.instance import Completion, ProcessInstance
from repro.core.schedule import (
    AbortEvent,
    ActivityEvent,
    CommitEvent,
    GroupAbortEvent,
    ProcessSchedule,
    ScheduleEvent,
)

__all__ = ["CompletedSchedule", "complete_schedule"]


class CompletedSchedule(ProcessSchedule):
    """A completed process schedule ``S̃`` (Definition 8).

    Behaves like an ordinary :class:`ProcessSchedule` in which every
    process commits; additionally remembers which processes did *not*
    commit in the original schedule (``aborted_in_original``) — the
    reduction's effect-free rule only applies to those — and at which
    position the appended group abort sits, if any.
    """

    def __init__(
        self,
        original: ProcessSchedule,
        events: Iterable[ScheduleEvent],
        aborted_in_original: FrozenSet[str],
        completion_positions: FrozenSet[int],
    ) -> None:
        super().__init__(original.processes(), original.conflicts, events)
        self.original = original
        self.aborted_in_original = aborted_in_original
        #: Positions (indices) of events added by the completion.
        self.completion_positions = completion_positions

    def completion_events(self) -> List[Tuple[int, ActivityEvent]]:
        """``(position, event)`` pairs for activities added by completion."""
        return [
            (index, event)
            for index, event in enumerate(self.events)
            if index in self.completion_positions
            and isinstance(event, ActivityEvent)
        ]


def complete_schedule(
    schedule: ProcessSchedule,
    states: Optional[Mapping[str, ProcessInstance]] = None,
) -> CompletedSchedule:
    """Build the completed process schedule ``S̃`` of ``schedule``.

    Every individual abort is expanded in place; all processes active at
    the end of the schedule are aborted jointly via a group abort whose
    completions are ordered per Definition 8 / Lemmas 2-3 (see module
    docstring).  The result is a schedule in which every participating
    process commits.

    ``states`` optionally supplies pre-replayed
    :class:`~repro.core.instance.ProcessInstance` replicas per process
    id — the prefix certifier maintains them across prefixes, so the
    completion avoids re-replaying each process's events from scratch.
    A supplied state must equal what ``instance_state(pid)`` would
    reconstruct from the process's events *before its termination* (at
    the end of the schedule if it has none), which is the state an
    abort expands from; processes missing from the mapping fall back to
    reconstruction.
    """
    events: List[ScheduleEvent] = []
    completion_positions: Set[int] = set()
    aborted: Set[str] = set()

    def emit(event: ScheduleEvent, is_completion: bool) -> None:
        if is_completion:
            completion_positions.add(len(events))
        events.append(event)

    # Pass 1: copy events, expanding individual aborts in place.
    position = 0
    for event in schedule.events:
        if isinstance(event, AbortEvent):
            aborted.add(event.process_id)
            if states is not None and event.process_id in states:
                state = states[event.process_id]
            else:
                state = schedule.prefix(position).instance_state(
                    event.process_id
                )
            completion = state.completion()
            for completion_event in _completion_events(
                schedule, event.process_id, completion
            ):
                emit(completion_event, is_completion=True)
            # Definition 8 2(c): the abort activity A_i becomes C_i.
            emit(CommitEvent(event.process_id), is_completion=True)
        elif isinstance(event, GroupAbortEvent):
            # A group abort already inside S asserts that the completion
            # activities of its processes follow in S itself (this is
            # what schedulers and crash recovery record); it is kept as
            # a marker and not re-expanded — which also makes completing
            # an already-completed schedule a no-op.
            emit(event, is_completion=False)
            aborted.update(event.process_ids)
        else:
            emit(event, is_completion=False)
        position += 1

    # Pass 2: group abort of all processes still active (Definition 8 2b).
    active = tuple(
        pid for pid in schedule.active_processes() if pid not in aborted
    )
    if active:
        emit(GroupAbortEvent(active), is_completion=True)
        aborted.update(active)
        _expand_group(schedule, schedule, active, emit, states=states)

    return CompletedSchedule(
        schedule,
        events,
        frozenset(aborted),
        frozenset(completion_positions),
    )


def _completion_events(
    schedule: ProcessSchedule,
    process_id: str,
    completion: Completion,
) -> List[ActivityEvent]:
    """The completion ``C(P_i)`` as activity events in execution order."""
    built: List[ActivityEvent] = []
    for name in completion.compensations:
        built.append(
            schedule.activity_event(process_id, name, Direction.COMPENSATION)
        )
    for name in completion.forward:
        built.append(schedule.activity_event(process_id, name))
    return built


def _expand_group(
    schedule: ProcessSchedule,
    state_source: ProcessSchedule,
    process_ids: Sequence[str],
    emit,
    states: Optional[Mapping[str, ProcessInstance]] = None,
) -> None:
    """Emit the completions of a group abort (Definition 8 rules 3(d)-(f)).

    All compensations first — in reverse global order of their forward
    activities (Lemma 2), which also puts them before every retriable
    forward-recovery activity (Lemma 3) — then the forward-recovery
    paths, process by process in serialization order, then the commits.
    """
    completions: Dict[str, Completion] = {}
    for process_id in process_ids:
        if states is not None and process_id in states:
            state = states[process_id]
        else:
            state = state_source.instance_state(process_id)
        completions[process_id] = state.completion()

    # Compensations in reverse global order of their forward activities.
    forward_positions: Dict[Tuple[str, str], int] = {}
    for index, event in state_source.activity_events():
        if not event.is_compensation:
            forward_positions[
                (event.process_id, event.activity.activity_name)
            ] = index
    compensation_queue: List[Tuple[int, str, str]] = []
    for process_id, completion in completions.items():
        for name in completion.compensations:
            original_position = forward_positions.get((process_id, name), -1)
            compensation_queue.append((original_position, process_id, name))
    compensation_queue.sort(reverse=True)
    for _, process_id, name in compensation_queue:
        emit(
            schedule.activity_event(process_id, name, Direction.COMPENSATION),
            True,
        )

    # Forward-recovery activities, process by process.  Rule 3(d)
    # leaves the order of conflicting completion activities free; we
    # choose a topological order of the dependency graph that combines
    # the serialization edges of S with the *forced* edges "executed
    # activity of P conflicts with a forward-recovery activity of Q"
    # (the executed activity necessarily precedes the future one), so
    # that the free choices never close a cycle the forced edges leave
    # open.
    ordered_ids = _forward_group_order(state_source, process_ids, completions)
    for process_id in ordered_ids:
        for name in completions[process_id].forward:
            emit(schedule.activity_event(process_id, name), True)

    # Every aborted process finally commits (Definition 8 2c).
    for process_id in ordered_ids:
        emit(CommitEvent(process_id), True)


def _effective_events(schedule: ProcessSchedule) -> List[ActivityEvent]:
    """Activity events minus cancelled compensation pairs.

    An executed activity followed by its own compensation forms an
    effect-free pair (Definition 2) that the reduction removes; such
    pairs must not contribute conflict-order constraints when deciding
    the completion's free orderings.
    """
    kept: List[Optional[ActivityEvent]] = []
    last_forward: Dict[tuple, int] = {}
    for event in (event for _, event in schedule.activity_events()):
        key = (event.process_id, event.activity.activity_name)
        if event.is_compensation and key in last_forward:
            kept[last_forward.pop(key)] = None
            continue
        if not event.is_compensation:
            last_forward[key] = len(kept)
        kept.append(event)
    return [event for event in kept if event is not None]


def _forward_group_order(
    state_source: ProcessSchedule,
    process_ids: Sequence[str],
    completions: Dict[str, Completion],
) -> List[str]:
    """Order the forward-recovery groups to avoid avoidable cycles."""
    graph: Dict[str, Set[str]] = {pid: set() for pid in process_ids}
    effective = _effective_events(state_source)
    for left_index in range(len(effective)):
        left = effective[left_index]
        if left.process_id not in graph:
            continue
        for right_index in range(left_index + 1, len(effective)):
            right = effective[right_index]
            if right.process_id not in graph:
                continue
            if left.process_id == right.process_id:
                continue
            if state_source.events_conflict(left, right):
                graph[left.process_id].add(right.process_id)

    forward_services: Dict[str, List[str]] = {}
    for process_id in process_ids:
        services = []
        process = state_source.process(process_id)
        for name in completions[process_id].forward:
            service = process.activity(name).service
            assert service is not None
            services.append(service)
        forward_services[process_id] = services

    for event in effective:
        for target_pid, services in forward_services.items():
            if event.process_id == target_pid or event.process_id not in graph:
                continue
            if any(
                state_source.conflicts.conflicts(
                    event.conflict_service, service
                )
                for service in services
            ):
                graph[event.process_id].add(target_pid)

    in_degree = {pid: 0 for pid in graph}
    for source, targets in graph.items():
        for target in targets:
            in_degree[target] += 1
    frontier = sorted(pid for pid, degree in in_degree.items() if degree == 0)
    order: List[str] = []
    while frontier:
        current = frontier.pop(0)
        order.append(current)
        for target in sorted(graph[current]):
            in_degree[target] -= 1
            if in_degree[target] == 0:
                frontier.append(target)
        frontier.sort()
    if len(order) != len(graph):
        # The forced edges already form a cycle: the schedule is
        # irreducible under any choice, so any deterministic order will
        # do for the witness.
        return sorted(process_ids)
    return order
