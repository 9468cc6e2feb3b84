"""Shared machinery for baseline schedulers.

The benchmark suite (X2) compares the paper's PRED scheduler against
four classical disciplines:

* serial execution (one process at a time),
* conflict-locking without recovery awareness (concurrency control
  only, as in workflow-concurrency work the paper cites),
* flat-ACID execution (no alternatives: any failure aborts the whole
  process, which is then restarted),
* optimistic execution with commit-time validation.

All baselines drive the same :class:`~repro.core.instance.ProcessInstance`
state machines against the same subsystems and produce the same
:class:`~repro.core.schedule.ProcessSchedule` histories, so the offline
checkers (serializability, Proc-REC, PRED) can grade every discipline on
equal footing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.activity import ActivityDef, ActivityId, Direction
from repro.core.conflict import ConflictRelation, NoConflicts, UnionConflicts
from repro.core.instance import Action, ActionType, InstanceStatus, ProcessInstance
from repro.core.process import Process
from repro.core.schedule import (
    AbortEvent,
    ActivityEvent,
    CommitEvent,
    ProcessSchedule,
)
from repro.errors import SchedulerError, TransactionAborted, UnknownProcessError
from repro.subsystems.failures import FailurePolicy, NoFailures
from repro.subsystems.resource import WouldBlock
from repro.subsystems.services import provision_noop_services
from repro.subsystems.subsystem import Subsystem, SubsystemRegistry

__all__ = ["BaselineStats", "BaselineProcess", "BaselineScheduler"]


@dataclass
class BaselineStats:
    """Counters every baseline reports for the comparison tables."""

    dispatched: int = 0
    deferred: int = 0
    aborts: int = 0
    restarts: int = 0
    violations_detected: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "dispatched": self.dispatched,
            "deferred": self.deferred,
            "aborts": self.aborts,
            "restarts": self.restarts,
            "violations_detected": self.violations_detected,
        }


@dataclass
class BaselineProcess:
    """Per-instance state shared by all baselines."""

    instance: ProcessInstance
    failures: FailurePolicy
    template: Process
    terminated: bool = False
    committed: bool = False
    restarts: int = 0

    @property
    def process_id(self) -> str:
        return self.instance.instance_id


class BaselineScheduler:
    """Common driver: instance table, subsystem execution, history."""

    name = "baseline"
    _instance_ids = itertools.count(1)

    def __init__(
        self,
        registry: Optional[SubsystemRegistry] = None,
        conflicts: Optional[ConflictRelation] = None,
        auto_provision: bool = True,
        max_rounds: int = 100_000,
    ) -> None:
        self.registry = registry if registry is not None else SubsystemRegistry()
        explicit = conflicts if conflicts is not None else NoConflicts()
        self.conflicts: ConflictRelation = UnionConflicts(
            (explicit, self.registry.semantic_conflicts())
        )
        self._auto_provision = auto_provision
        self._max_rounds = max_rounds
        self._managed: Dict[str, BaselineProcess] = {}
        self._events: List[object] = []
        self.stats = BaselineStats()

    # -- submission ------------------------------------------------------

    def submit(
        self,
        process: Process,
        instance_id: Optional[str] = None,
        failures: Optional[FailurePolicy] = None,
    ) -> str:
        identifier = instance_id or (
            f"{process.process_id}#{next(self._instance_ids)}"
            if process.process_id in self._managed
            else process.process_id
        )
        if identifier in self._managed:
            raise SchedulerError(f"instance id {identifier!r} already in use")
        if self._auto_provision:
            provision_noop_services(process, self._subsystem_for)
        process = process.renamed(identifier)
        self._managed[identifier] = BaselineProcess(
            instance=ProcessInstance(process, instance_id=identifier),
            failures=failures or NoFailures(),
            template=process,
        )
        return identifier

    def _subsystem_for(
        self, definition: ActivityDef, create: bool = False
    ) -> Subsystem:
        name = definition.subsystem
        if name in self.registry:
            return self.registry.get(name)
        service = definition.service
        assert service is not None
        for subsystem in self.registry.subsystems():
            if subsystem.provides(service):
                return subsystem
        if create:
            return self.registry.provision(name)
        raise SchedulerError(
            f"no subsystem for activity {definition.name!r}"
        )

    def counters(self) -> Dict[str, Dict[str, int]]:
        """Counter groups, in the PRED scheduler's layout (run metrics
        are copied from this)."""
        return {"sched": self.stats.as_dict()}

    def managed(self, instance_id: str) -> BaselineProcess:
        try:
            return self._managed[instance_id]
        except KeyError:
            raise UnknownProcessError(
                f"no managed process {instance_id!r}"
            ) from None

    # -- execution helpers --------------------------------------------------

    def _execute(self, managed: BaselineProcess, action: Action) -> bool:
        """Run one instance action against its subsystem.

        Returns ``True`` on progress; feeds outcomes into the instance.
        Baselines commit every local transaction immediately — none of
        them implements deferred commits (that is the PRED scheduler's
        distinguishing feature).
        """
        assert action.activity is not None
        definition = managed.instance.definition(action.activity)
        subsystem = self._subsystem_for(definition)
        if action.type is ActionType.COMPENSATE:
            service = definition.compensation_service
            direction = Direction.COMPENSATION
        else:
            service = definition.service
            direction = Direction.FORWARD
        assert service is not None
        try:
            subsystem.invoke(
                service,
                params=definition.params,
                hold=False,
                attempt=action.attempt,
                failures=managed.failures,
            )
        except WouldBlock:
            self.stats.deferred += 1
            return False
        except TransactionAborted:
            managed.instance.on_failed(action.activity)
            return True
        self._record(managed, action.activity, direction, definition)
        managed.instance.on_committed(action.activity)
        self.stats.dispatched += 1
        return True

    def _record(
        self,
        managed: BaselineProcess,
        activity_name: str,
        direction: Direction,
        definition: ActivityDef,
    ) -> None:
        service = (
            definition.compensation_service
            if direction is Direction.COMPENSATION
            else definition.service
        )
        assert service is not None
        self._events.append(
            ActivityEvent(
                activity=ActivityId(
                    managed.process_id, activity_name, direction
                ),
                service=service,
                conflict_service=definition.service,  # type: ignore[arg-type]
                kind=definition.kind,
                effect_free=definition.effect_free,
            )
        )

    def _terminate(self, managed: BaselineProcess) -> None:
        managed.terminated = True
        if managed.instance.status is InstanceStatus.COMMITTED:
            managed.committed = True
            self._events.append(CommitEvent(managed.process_id))
        else:
            self._events.append(AbortEvent(managed.process_id))

    # -- history ---------------------------------------------------------------

    def history(self) -> ProcessSchedule:
        schedule = ProcessSchedule(
            (managed.template for managed in self._managed.values()),
            self.conflicts,
        )
        for event in self._events:
            schedule.append(event)  # type: ignore[arg-type]
        return schedule

    def all_terminated(self) -> bool:
        return all(managed.terminated for managed in self._managed.values())

    def instance_ids(self) -> List[str]:
        return list(self._managed)

    def is_terminated(self, instance_id: str) -> bool:
        return self.managed(instance_id).terminated

    # -- timeline access (used by the discrete-event simulation) -------------------

    def timeline_length(self) -> int:
        return len(self._events)

    def timeline_event(self, index: int):
        return self._events[index]

    # -- the scheduling loop ---------------------------------------------------------

    def _step_one(self, managed: BaselineProcess) -> bool:
        """Advance one instance by one action; baseline-specific."""
        raise NotImplementedError

    def _on_stall(self) -> None:
        """Called when a full round made no progress; baseline-specific."""
        raise SchedulerError(f"{self.name} baseline stalled")

    def step_instance(self, instance_id: str) -> bool:
        """Step one instance (the simulation's entry point)."""
        managed = self.managed(instance_id)
        if managed.terminated:
            return False
        return self._step_one(managed)

    def resolve_stall(self) -> None:
        """Public stall hook for external drivers."""
        self._on_stall()

    def run(self) -> ProcessSchedule:
        rounds = 0
        while not self.all_terminated():
            rounds += 1
            if rounds > self._max_rounds:
                raise SchedulerError(
                    f"{self.name} baseline did not converge"
                )
            progressed = False
            for managed in list(self._managed.values()):
                if managed.terminated:
                    continue
                if self._step_one(managed):
                    progressed = True
            if not progressed:
                self._on_stall()
        return self.history()
