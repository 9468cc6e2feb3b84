"""Reducibility of process schedules (paper §3.4, Definition 9).

A process schedule ``S`` is **reducible (RED)** if its completed
schedule ``S̃`` can be transformed into a *serial* process schedule by
finitely many applications of three rules:

1. **Commutativity rule** — adjacent commuting activities may be
   swapped;
2. **Compensation rule** — an adjacent pair ``⟨a, a⁻¹⟩`` may be removed
   (the pair is effect-free by Definition 2);
3. **Effect-free activity rule** — effect-free activities of processes
   that do not commit in ``S`` may be removed.

Decision procedure
------------------

Searching rewrite sequences directly is exponential; we use an exact
polynomial characterisation:

* Swapping adjacent commuting activities generates precisely the
  conflict-equivalence class of the sequence, so "transformable into a
  serial schedule by rule 1 alone" ⟺ the conflict serialization graph
  is acyclic (the classical serializability theorem).
* A pair ``(a, a⁻¹)`` can be made adjacent by rule 1 ⟺ no event
  *between* them conflicts with ``a`` (by perfect commutativity ``a`` and
  ``a⁻¹`` have identical conflicts, so an in-between conflicting event
  can never be moved out of the way, and a commuting one always can).
* Removing a pair or an effect-free activity only ever *removes*
  constraints, so greedy application to a fixpoint is confluent and
  maximal: if any rewrite sequence reaches a serial schedule, the
  fixpoint of {remove effect-free, cancel cancellable pairs} followed by
  an acyclicity check also succeeds.

Hence: ``RED(S)`` ⟺ after removing effect-free activities of aborted
processes and cancelling compensation pairs to a fixpoint, the remaining
serialization graph of ``S̃`` is acyclic.

:func:`reduce_schedule` implements the fixpoint and returns a
:class:`ReductionResult` carrying the reduced event sequence and — when
the schedule is not reducible — a conflict cycle as witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.activity import ActivityId
from repro.core.completion import CompletedSchedule, complete_schedule
from repro.core.conflict import ConflictRelation
from repro.core.instance import ProcessInstance
from repro.core.process import Process
from repro.core.schedule import (
    AbortEvent,
    ActivityEvent,
    CommitEvent,
    GroupAbortEvent,
    ProcessSchedule,
    ScheduleEvent,
)

__all__ = [
    "ReductionResult",
    "reduce_schedule",
    "is_reducible",
    "PrefixCertifier",
]


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of reducing a completed process schedule."""

    #: The completed schedule the reduction ran on.
    completed: CompletedSchedule
    #: Activity events remaining after all rule applications.
    residual: Tuple[ActivityEvent, ...]
    #: Pairs removed by the compensation rule, as forward activity ids.
    cancelled_pairs: Tuple[ActivityId, ...]
    #: Events removed by the effect-free rule.
    removed_effect_free: Tuple[ActivityId, ...]
    #: ``True`` iff the residual is conflict-equivalent to a serial
    #: schedule — i.e. the schedule is RED.
    is_reducible: bool
    #: A process-level conflict cycle witnessing irreducibility.
    witness_cycle: Optional[Tuple[str, ...]] = None
    #: A serial order of processes when reducible.
    serial_order: Optional[Tuple[str, ...]] = None

    def __str__(self) -> str:
        verdict = "RED" if self.is_reducible else "not RED"
        residual = " ".join(str(event) for event in self.residual)
        return f"[{verdict}] residual: {residual or '<empty>'}"


def reduce_schedule(schedule: ProcessSchedule) -> ReductionResult:
    """Reduce a schedule's completion ``S̃`` (Definition 9).

    Accepts either a plain schedule (it is completed first) or an
    already-completed schedule.
    """
    if isinstance(schedule, CompletedSchedule):
        completed = schedule
    else:
        completed = complete_schedule(schedule)

    events: List[ActivityEvent] = [
        event for _, event in completed.activity_events()
    ]

    # Rule 3: drop effect-free activities of processes that do not
    # commit in the original schedule S.
    removed_effect_free: List[ActivityId] = []
    aborted = completed.aborted_in_original
    kept: List[ActivityEvent] = []
    for event in events:
        if event.effect_free and event.process_id in aborted:
            removed_effect_free.append(event.activity)
        else:
            kept.append(event)
    events = kept

    # Rule 2 to a fixpoint: cancel compensation pairs that can be made
    # adjacent by rule-1 swaps.
    cancelled: List[ActivityId] = []
    changed = True
    while changed:
        changed = False
        pair = _find_cancellable_pair(completed, events)
        if pair is not None:
            forward_index, inverse_index = pair
            cancelled.append(events[forward_index].activity)
            del events[inverse_index]
            del events[forward_index]
            changed = True

    # Rule 1: the residual is serialisable iff its conflict graph over
    # processes is acyclic.
    residual_schedule = ProcessSchedule(
        completed.processes(), completed.conflicts, events
    )
    serial_order = residual_schedule.serialization_order()
    if serial_order is not None:
        return ReductionResult(
            completed=completed,
            residual=tuple(events),
            cancelled_pairs=tuple(cancelled),
            removed_effect_free=tuple(removed_effect_free),
            is_reducible=True,
            serial_order=tuple(serial_order),
        )
    cycles = residual_schedule.cycles()
    witness = cycles[0] if cycles else None
    return ReductionResult(
        completed=completed,
        residual=tuple(events),
        cancelled_pairs=tuple(cancelled),
        removed_effect_free=tuple(removed_effect_free),
        is_reducible=False,
        witness_cycle=witness,
    )


def _find_cancellable_pair(
    schedule: ProcessSchedule, events: Sequence[ActivityEvent]
) -> Optional[Tuple[int, int]]:
    """Find a compensation pair removable under the compensation rule.

    A pair is the *latest* forward occurrence of an activity before its
    compensating occurrence (compensation is LIFO within a process).
    The pair is cancellable iff no event strictly between the two
    conflicts with the activity — then rule-1 swaps can make the pair
    adjacent and rule 2 removes it.
    """
    last_forward: Dict[Tuple[str, str], int] = {}
    for index, event in enumerate(events):
        key = (event.process_id, event.activity.activity_name)
        if not event.is_compensation:
            last_forward[key] = index
            continue
        forward_index = last_forward.get(key)
        if forward_index is None:
            continue
        blocked = False
        for between in events[forward_index + 1 : index]:
            if schedule.events_conflict(events[forward_index], between):
                blocked = True
                break
        if not blocked:
            return (forward_index, index)
    return None


def is_reducible(schedule: ProcessSchedule) -> bool:
    """``True`` iff the schedule is RED (Definition 9)."""
    return reduce_schedule(schedule).is_reducible


class PrefixCertifier:
    """Certify ``RED(prefix)`` for every prefix of a growing history.

    The one prefix walk of Definition 10: :func:`~repro.core.pred.
    check_pred` feeds it a schedule's events, paranoid mode the events
    the scheduler produces.  It keeps the growing schedule and a live
    :class:`~repro.core.instance.ProcessInstance` replica per process:
    :meth:`observe` advances the moved replica by *one* event and hands
    the replicas to :func:`~repro.core.completion.complete_schedule`, so
    certifying prefix ``n`` costs the reduction of prefix ``n`` but no
    rebuild of it and no re-replay of every process.  A replica stops at
    its process's termination, as the completion does: an abort expands
    from the state at the abort.  A result's ``completed.original`` is
    the growing schedule itself.

    Events must arrive in history order.  When the owner rewrites the
    past (native rollback) it discards the certifier for a fresh one.
    """

    def __init__(self, conflicts: ConflictRelation) -> None:
        self._schedule = ProcessSchedule((), conflicts)
        self._states: Dict[str, ProcessInstance] = {}
        self._ended: Set[str] = set()

    def add_process(self, process: Process) -> None:
        """Register a process template (idempotent)."""
        self._schedule.add_process(process)

    def observe(self, event: ScheduleEvent) -> ReductionResult:
        """Append one history event and certify the new prefix."""
        self._schedule.append(event)
        if isinstance(event, GroupAbortEvent):
            self._ended.update(event.process_ids)
        elif isinstance(event, CommitEvent):
            self._ended.add(event.process_id)
        elif event.process_id not in self._ended:
            pid = event.process_id
            if pid not in self._states:
                self._states[pid] = ProcessInstance(self._schedule.process(pid))
            if isinstance(event, AbortEvent):
                self._ended.add(pid)
            else:
                self._schedule.replay_event(self._states[pid], event, pid)
        completed = complete_schedule(self._schedule, states=self._states)
        return reduce_schedule(completed)
