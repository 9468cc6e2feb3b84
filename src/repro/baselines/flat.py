"""Flat-ACID baseline: all-or-nothing processes without alternatives.

Models the classical transaction disciplines (and process models like
ConTracts/CREW that assume every step invertible) the paper generalises:
a process is a monolithic unit of work — any activity failure rolls the
*whole* process back and restarts it from scratch.  Alternative
execution paths and forward recovery are ignored; the flexible
atomicity of guaranteed termination is exactly what this baseline
lacks.

The scheduler interleaves processes with the same conflict-locking as
:class:`~repro.baselines.locking.LockingScheduler` (so comparisons
isolate the *recovery* discipline, not the concurrency control), but on
a non-retriable failure it:

1. compensates every committed compensatable activity — a flat rollback
   that pretends pivots never happened: a failure after a committed
   pivot leaves the pivot's effects behind, which the offline checkers
   then flag as correctness violations;
2. restarts the process as a fresh instance, up to :attr:`FlatScheduler.MAX_RESTARTS`.

Benchmark X2 measures the cost: wasted work and restarts climb with the
failure rate, while the flex scheduler routes failures to cheap
alternatives (and benchmark X6 shows the violations).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.baselines.locking import LockingScheduler
from repro.core.instance import ActionType, InstanceStatus, ProcessInstance
from repro.core.schedule import ProcessSchedule
from repro.errors import SchedulerError

__all__ = ["FlatScheduler"]


class FlatScheduler(LockingScheduler):
    """All-or-nothing execution with restart-on-failure."""

    name = "flat"
    MAX_RESTARTS = 10

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: processes rolled back by a failure, due for a restart.
        self._restart_due: Dict[str, bool] = {}

    def _step_one(self, managed) -> bool:
        action = managed.instance.next_action()
        if action.type is ActionType.FINISHED:
            return self._finish_one(managed)
        assert action.activity is not None
        definition = managed.instance.definition(action.activity)

        if action.type is ActionType.INVOKE:
            service = definition.service
            assert service is not None
            blocker = self._lock_conflicting(managed.process_id, service)
            if blocker is not None:
                self.stats.deferred += 1
                return False
            before = len(managed.instance.trace())
            progressed = self._execute(managed, action)
            if progressed:
                trace = managed.instance.trace()
                failed = (
                    len(trace) > before and trace[-1].kind.name == "FAILED"
                )
                if failed and not definition.kind.is_retriable:
                    # Flat semantics: no alternatives — convert the
                    # failure into a whole-process rollback + restart.
                    self._force_flat_rollback(managed)
            return progressed
        # A compensation (part of a flat rollback).
        return self._execute(managed, action)

    def _finish_one(self, managed) -> bool:
        self._release(managed.process_id)
        restart = (
            managed.instance.status is InstanceStatus.ABORTED
            and self._restart_due.pop(managed.process_id, False)
            and managed.restarts < self.MAX_RESTARTS
        )
        self._restart_due.pop(managed.process_id, None)
        self._terminate(managed)
        if not managed.committed:
            self.stats.aborts += 1
        if restart:
            # The restart is a fresh instance under a fresh id: the
            # aborted attempt stays in the history as its own process.
            self.stats.restarts += 1
            new_id = f"{managed.process_id}~r{managed.restarts + 1}"
            fresh = self.submit(
                managed.template,
                instance_id=new_id,
                failures=managed.failures,
            )
            self.managed(fresh).restarts = managed.restarts + 1
        return True

    def _force_flat_rollback(self, managed) -> None:
        """Roll the whole process back, ignoring committed pivots.

        ``hardened=frozenset()`` makes the completion pretend no
        non-compensatable activity committed: only compensatable
        activities are compensated, and any committed pivot's effects
        are silently left behind — the flat baseline's defect.
        """
        if not managed.instance.status.is_terminal:
            managed.instance.request_abort(hardened=frozenset())
            self._restart_due[managed.process_id] = True

    def _on_stall(self) -> None:
        victims = [
            managed
            for managed in self._managed.values()
            if not managed.terminated and not managed.instance.status.is_terminal
        ]
        if not victims:
            raise SchedulerError("flat baseline stalled")
        victim = min(
            victims,
            key=lambda managed: len(managed.instance.committed_sequence()),
        )
        # flat rollback pretends everything is compensatable (B-REC), so
        # the completion only touches services the victim already holds:
        # locks are kept until termination, preserving 2PL.
        victim.instance.request_abort(hardened=frozenset())
        self._restart_due[victim.process_id] = True
        self.stats.aborts += 1
