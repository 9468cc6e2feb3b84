"""Adapters: the five existing injector families driven by one plan.

Each adapter keeps the *mechanism* of its injector family (the policy
interfaces the subsystems, network and runner already consult) but
takes its *decisions* from the shared :class:`~repro.nemesis.plan.FaultPlan`
timeline:

* :class:`PlannedSubsystemFaults` — a
  :class:`~repro.subsystems.failures.FailurePolicy` answering
  ``fault_for`` from the plan's windowed ``abort``/``latency``/
  ``hang``/``crash`` actions.  A plan-level ``crash`` is a *windowed
  outage*: every attempt on the target service inside the window fails
  fast — crash-stop semantics without parking the subsystem behind a
  wall-clock the federated schedulers (which run without a resilience
  manager) could never advance past.  A per-service consecutive cap
  preserves the bounded-failure assumption guaranteed termination
  rests on (Definition 3), exactly like
  :class:`~repro.subsystems.failures.ChaosPolicy`.
* :class:`PlannedMessageFaults` — a
  :class:`~repro.fed.messages.MessageFaultPolicy` whose per-message
  drop/delay/duplicate verdicts consult the plan's active windows (and
  an explicit ``random.Random(plan.seed)`` for the probability draws)
  instead of flat rates.
* :func:`kill_schedule` / :func:`partition_schedule` — translate
  ``kill``/``partition`` actions into the exact
  ``(time, shard, downtime)`` / ``(time, a, b, duration)`` tuples the
  :class:`~repro.fed.runner.FederationRunner` already accepts.
* :func:`disk_arming` / :func:`wal_crash_triggers` — the state-driven
  families: fsync-failure arming of the run's
  :class:`~repro.subsystems.failures.DiskFaultPolicy` at plan time,
  and LSN-threshold shard crashes, both fired by the nemesis monitor's
  per-round hook.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fed.messages import MessageFaultPolicy
from repro.nemesis.plan import FaultAction, FaultPlan
from repro.subsystems.failures import FailurePolicy, Fault, FaultKind

__all__ = [
    "PlannedSubsystemFaults",
    "PlannedMessageFaults",
    "kill_schedule",
    "partition_schedule",
    "disk_arming",
    "wal_crash_triggers",
]

#: Default hang magnitude when an action does not set ``param``.
_DEFAULT_HANG = 6.0


class PlannedSubsystemFaults(FailurePolicy):
    """Subsystem-fault slices of a plan, behind the FailurePolicy API."""

    def __init__(
        self,
        plan: FaultPlan,
        clock,
        max_consecutive: int = 4,
    ) -> None:
        self._actions = plan.by_kind("abort", "latency", "hang", "crash")
        self._clock = clock
        self._max_consecutive = max_consecutive
        self._consecutive: Dict[str, int] = {}
        #: Faults delivered, by kind (coverage accounting).
        self.injected: Dict[str, int] = {
            "abort": 0,
            "latency": 0,
            "hang": 0,
            "crash": 0,
        }

    def _active_action(self, service: str, now: float) -> Optional[FaultAction]:
        for action in self._actions:
            if action.target == service and action.active(now):
                return action
        return None

    def fault_for(self, service: str, attempt: int) -> Optional[Fault]:
        action = self._active_action(service, self._clock.now)
        if action is None:
            return None
        if self._consecutive.get(service, 0) >= self._max_consecutive:
            # Bounded failures: after max_consecutive injected faults in
            # a row the next attempt must succeed, whatever the window
            # says — Definition 3's "some invocation m commits".
            self._consecutive[service] = 0
            return None
        self._consecutive[service] = self._consecutive.get(service, 0) + 1
        self.injected[action.kind] += 1
        if action.kind == "abort" or action.kind == "crash":
            # A planned crash is a windowed fail-fast outage of the
            # service: atomicity makes it indistinguishable from an
            # abort at the invocation, and the window (not a subsystem
            # down-clock) bounds it.
            return Fault(FaultKind.ABORT)
        if action.kind == "latency":
            return Fault(FaultKind.LATENCY, action.param or 1.0)
        return Fault(FaultKind.HANG, action.param or _DEFAULT_HANG)

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())


class PlannedMessageFaults(MessageFaultPolicy):
    """Message-fault slices of a plan, behind the MessageFaultPolicy API.

    Base rates stay zero; the overridden verdicts consult the plan's
    active ``msg_*`` windows with the window's own probability
    (``param``), drawn from an explicit ``random.Random(plan.seed)``.
    Partitions are *not* decided here — :func:`partition_schedule`
    turns them into runner events so healing wakes blocked work.
    """

    def __init__(self, plan: FaultPlan, clock) -> None:
        super().__init__(seed=plan.seed)
        self._plan_rng = random.Random(plan.seed * 2654435761 % 2**31)
        self._clock = clock
        self._drops = plan.by_kind("msg_drop")
        self._delays = plan.by_kind("msg_delay")
        self._dups = plan.by_kind("msg_dup")

    def _active(
        self, actions: Tuple[FaultAction, ...]
    ) -> Optional[FaultAction]:
        now = self._clock.now
        for action in actions:
            if action.active(now):
                return action
        return None

    def drop(self) -> bool:
        action = self._active(self._drops)
        if action is not None and self._plan_rng.random() < action.param:
            self.injected["drop"] += 1
            return True
        return False

    def delay(self) -> float:
        action = self._active(self._delays)
        if action is not None and self._plan_rng.random() < action.param:
            self.injected["delay"] += 1
            return self._plan_rng.uniform(*self.delay_span)
        return 0.0

    def duplicate(self) -> bool:
        action = self._active(self._dups)
        if action is not None and self._plan_rng.random() < action.param:
            self.injected["duplicate"] += 1
            return True
        return False


#: Margin keeping recovery instants clear of other chaos events, so
#: same-timestamp DES ties between a recovery and a kill/heal cannot
#: occur (plan times carry 3 decimals; 0.01 is one order above).
_RECOVERY_MARGIN = 0.01


def kill_schedule(
    plan: FaultPlan, shards: Sequence[str]
) -> List[Tuple[float, str, float]]:
    """``kill`` actions as the runner's ``(time, shard, downtime)`` rows.

    Outage windows are serialized *across all shards*: a kill that
    starts before an earlier kill's recovery instant is dropped.  Shard
    recovery drains the recovered scheduler synchronously in frozen
    virtual time, so every peer must be reachable at the recovery
    instant — the same staggered-outage assumption the federation
    chaos sweeps encode with spaced kill times.  (Killing an
    already-dead shard is also meaningless: the runner schedules one
    recovery per kill.)
    """
    known = set(shards)
    busy_until = -1.0
    rows: List[Tuple[float, str, float]] = []
    for action in sorted(plan.by_kind("kill"), key=lambda a: a.at):
        if action.target not in known:
            continue
        downtime = action.duration or 2.0
        if action.at <= busy_until + _RECOVERY_MARGIN:
            continue
        busy_until = action.at + downtime
        rows.append((action.at, action.target, downtime))
    return rows


def partition_schedule(
    plan: FaultPlan,
    shards: Sequence[str],
    avoid: Sequence[float] = (),
) -> List[Tuple[float, str, str, float]]:
    """``partition`` actions as ``(time, a, b, duration)`` runner rows.

    ``avoid`` lists recovery instants (from :func:`kill_schedule`):
    a partition whose window contains one is dropped, because the
    synchronous recovery drain at that instant needs every peer link
    up — a cross-shard compensation retried against a cut link in
    frozen virtual time would never terminate.
    """
    known = set(shards)
    rows: List[Tuple[float, str, str, float]] = []
    for action in plan.by_kind("partition"):
        a, _, b = action.target.partition("|")
        if a not in known or b not in known or a == b:
            continue
        duration = action.duration or 1.0
        if any(
            action.at - _RECOVERY_MARGIN
            <= instant
            <= action.at + duration + _RECOVERY_MARGIN
            for instant in avoid
        ):
            continue
        rows.append((action.at, a, b, duration))
    return rows


def disk_arming(plan: FaultPlan) -> List[Tuple[float, int]]:
    """``fsync_fail`` actions as ``(arm_time, count)`` monitor triggers."""
    return [
        (action.at, max(1, int(action.param)))
        for action in plan.by_kind("fsync_fail")
    ]


def wal_crash_triggers(
    plan: FaultPlan, shards: Sequence[str]
) -> List[Tuple[str, int, float]]:
    """``wal_crash`` actions as ``(shard, lsn, downtime)`` triggers."""
    known = set(shards)
    return [
        (action.target, max(1, int(action.param)), action.duration or 2.0)
        for action in plan.by_kind("wal_crash")
        if action.target in known
    ]
