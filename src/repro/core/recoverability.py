"""Process-recoverability and Theorem 1 (paper §3.5, Definition 11).

Classical recoverability ("no transaction commits before transactions
it read from") must be adapted to processes, whose recovery depends on
the two states ``B-REC`` / ``F-REC``.  A schedule ``S`` is
**process-recoverable (Proc-REC)** if for every pair of conflicting
activities ``a_{i_k} ≪_S a_{j_l}`` of different processes:

1. ``C_i`` precedes ``C_j`` — commits follow the conflict order; and
2. the next non-compensatable activity of ``P_j`` following ``a_{j_l}``
   succeeds the next non-compensatable activity of ``P_i`` following
   ``a_{i_k}`` — i.e. state-determining elements also respect the
   conflict order, so a process never "out-runs" a conflicting
   predecessor into ``F-REC`` (the failure pattern of Example 8).

Conflicting pairs that the reduction *cancels* impose no constraint:
when an activity and its compensation annihilate under Definition 9's
compensation rule, nothing durable was transferred between the
processes, so neither clause applies to the pair.  Without this
carve-out Definition 11 can be outright unsatisfiable — two processes
that both execute, then both compensate, a conflicting activity (a
branch switch on each side) create conflict edges in *both* directions
among the cancelled events, so no commit order exists, yet the
schedule is PRED and Theorem 1 demands it be Proc-REC.

**Theorem 1**: PRED ⟹ serializable ∧ Proc-REC.  The checkers here are
independent of the PRED machinery so the implication can be certified
statistically over random schedules (benchmark T1 and the property
tests).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional, Tuple

from repro.core.activity import ActivityId
from repro.core.schedule import (
    ActivityEvent,
    CommitEvent,
    ProcessSchedule,
)

__all__ = [
    "ProcRecViolation",
    "ProcRecResult",
    "check_process_recoverability",
    "is_process_recoverable",
]


@dataclass(frozen=True)
class ProcRecViolation:
    """One violation of Definition 11, with the witnessing events."""

    rule: int  # 1 or 2, matching Definition 11's clauses
    first: ActivityEvent
    second: ActivityEvent
    detail: str

    def __str__(self) -> str:
        return f"Proc-REC 11.{self.rule} violated by ({self.first}, {self.second}): {self.detail}"


@dataclass(frozen=True)
class ProcRecResult:
    """Outcome of a process-recoverability check."""

    is_process_recoverable: bool
    violations: Tuple[ProcRecViolation, ...] = ()


def check_process_recoverability(schedule: ProcessSchedule) -> ProcRecResult:
    """Evaluate Definition 11 on a schedule.

    The schedule should be *complete* in the sense that conflicting
    processes eventually commit — Definition 11.1 compares commit
    positions, and a missing commit counts as "at infinity" only if the
    other commit is also missing.  For schedules with aborts or active
    processes, apply the check to the completed schedule
    (:func:`repro.core.completion.complete_schedule`), where every
    process commits.
    """
    commit_position: Dict[str, int] = {}
    for index, event in enumerate(schedule.events):
        if isinstance(event, CommitEvent):
            commit_position.setdefault(event.process_id, index)

    activities = schedule.activity_events()
    undone = _undone_forward_ids(schedule)
    violations: List[ProcRecViolation] = []

    for left_pos in range(len(activities)):
        i, left = activities[left_pos]
        if left.activity.forward in undone:
            continue
        for right_pos in range(left_pos + 1, len(activities)):
            j, right = activities[right_pos]
            if left.process_id == right.process_id:
                continue
            if not schedule.events_conflict(left, right):
                continue
            if right.activity.forward in undone:
                continue
            violation = _check_pair(schedule, commit_position, i, left, j, right)
            violations.extend(violation)

    return ProcRecResult(not violations, tuple(violations))


def _undone_forward_ids(schedule: ProcessSchedule) -> AbstractSet[ActivityId]:
    """Forward ids of activities the reduction undoes completely.

    An id qualifies when *every* forward invocation of the activity is
    cancelled against its compensation by Definition 9's compensation
    rule (a re-invocation that survives keeps the id constrained), or
    when the effect-free rule removes it.  Events of these ids transfer
    no durable effects, so Definition 11 places no requirement on pairs
    involving them.
    """
    from repro.core.reduction import reduce_schedule

    reduction = reduce_schedule(schedule)
    forward_counts = Counter(
        event.activity.forward
        for _, event in reduction.completed.activity_events()
        if not event.is_compensation
    )
    cancelled_counts = Counter(
        forward_id.forward for forward_id in reduction.cancelled_pairs
    )
    undone = {
        forward_id
        for forward_id, count in cancelled_counts.items()
        if count == forward_counts[forward_id]
    }
    undone.update(
        removed.forward for removed in reduction.removed_effect_free
    )
    return undone


def _check_pair(
    schedule: ProcessSchedule,
    commit_position: Dict[str, int],
    i: int,
    left: ActivityEvent,
    j: int,
    right: ActivityEvent,
) -> List[ProcRecViolation]:
    violations: List[ProcRecViolation] = []
    pid_i = left.process_id
    pid_j = right.process_id

    # 11.1: C_i must precede C_j.
    commit_i = commit_position.get(pid_i)
    commit_j = commit_position.get(pid_j)
    if commit_j is not None and (commit_i is None or commit_i > commit_j):
        violations.append(
            ProcRecViolation(
                rule=1,
                first=left,
                second=right,
                detail=(
                    f"C({pid_j}) at position {commit_j} precedes "
                    f"C({pid_i}) at position "
                    f"{'∞' if commit_i is None else commit_i}"
                ),
            )
        )

    # 11.2: the next non-compensatable of P_j after a_{j_l} must succeed
    # the next non-compensatable of P_i after a_{i_k}.
    next_i = _next_non_compensatable(schedule, pid_i, i)
    next_j = _next_non_compensatable(schedule, pid_j, j)
    if next_j is not None and next_i is not None and next_j[0] < next_i[0]:
        violations.append(
            ProcRecViolation(
                rule=2,
                first=left,
                second=right,
                detail=(
                    f"{next_j[1]} (position {next_j[0]}) precedes "
                    f"{next_i[1]} (position {next_i[0]})"
                ),
            )
        )
    return violations


def _next_non_compensatable(
    schedule: ProcessSchedule, process_id: str, after: int
) -> Optional[Tuple[int, ActivityEvent]]:
    """First non-compensatable forward activity of the process after
    position ``after`` in the schedule, or ``None``."""
    for index, event in schedule.activity_events():
        if index <= after or event.process_id != process_id:
            continue
        if event.is_compensation:
            continue
        if not event.kind.is_compensatable:
            return (index, event)
    return None


def is_process_recoverable(schedule: ProcessSchedule) -> bool:
    """``True`` iff the schedule satisfies Definition 11."""
    return check_process_recoverability(schedule).is_process_recoverable
