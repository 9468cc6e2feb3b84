"""Optimistic baseline: run freely, validate at commit.

Processes execute without any admission control — every activity is
dispatched immediately.  When a process is ready to commit, the
scheduler validates that committing it keeps the committed projection of
the history conflict-serializable; a process whose commit would close a
serialization cycle is aborted instead (backward recovery when it is
still possible) and optionally restarted.

This is the classical optimistic concurrency control recipe lifted to
processes, and it exhibits the paper's core point: validation at commit
time comes *too late* for processes whose pivots have already committed
— such a process can neither commit (cycle) nor abort cleanly (no
inverse for the pivot), so the scheduler must count a correctness
violation (``stats.violations_detected``) and force it through.
Benchmark X2 charts how the violation and abort rates grow with the
conflict rate, against the PRED scheduler's zero violations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.baselines.base import BaselineProcess, BaselineScheduler
from repro.core.instance import ActionType, InstanceStatus, RecoveryState
from repro.core.schedule import CommitEvent, ProcessSchedule
from repro.errors import SchedulerError

__all__ = ["OptimisticScheduler"]


class OptimisticScheduler(BaselineScheduler):
    """Free execution with commit-time serializability validation."""

    name = "optimistic"
    #: Restarts a process gets after failing validation.
    MAX_RESTARTS = 3

    def _step_one(self, managed: BaselineProcess) -> bool:
        action = managed.instance.next_action()
        if action.type is ActionType.FINISHED:
            self._validate_and_finish(managed)
            return True
        return self._execute(managed, action)

    def _validate_and_finish(self, managed: BaselineProcess) -> None:
        if managed.instance.status is not InstanceStatus.COMMITTED:
            self._terminate(managed)
            self.stats.aborts += 1
            return
        if self._commit_is_serializable(managed.process_id):
            self._terminate(managed)
            return
        # Validation failed: abort if backward recovery is still
        # possible, otherwise the process is stuck — a violation.
        self.stats.aborts += 1
        if managed.instance.recovery_state() is RecoveryState.B_REC:
            managed.instance.request_abort()
            if managed.restarts < self.MAX_RESTARTS:
                managed.restarts += 1
                self.stats.restarts += 1
                # Drain the compensations now, then restart fresh.
                self._drain_abort(managed)
                self._terminate(managed)
                new_id = f"{managed.process_id}~r{managed.restarts}"
                fresh = self.submit(
                    managed.template,
                    instance_id=new_id,
                    failures=managed.failures,
                )
                self.managed(fresh).restarts = managed.restarts
                return
            self._drain_abort(managed)
            self._terminate(managed)
            return
        # Pivot already committed: neither commit nor clean abort is
        # correct.  Force the commit and record the violation — this is
        # the failure mode PRED scheduling prevents by construction.
        self.stats.violations_detected += 1
        self._terminate(managed)

    def _drain_abort(self, managed: BaselineProcess) -> None:
        guard = 0
        while not managed.instance.status.is_terminal:
            guard += 1
            if guard > self.MAX_ROUNDS:  # pragma: no cover - safety net
                raise SchedulerError("abort drain did not converge")
            action = managed.instance.next_action()
            if action.type is ActionType.FINISHED:
                break
            self._execute(managed, action)

    def _commit_is_serializable(self, pid: str) -> bool:
        """Would committing ``pid`` keep the committed projection acyclic?"""
        history = self.history()
        history.append(CommitEvent(pid))
        committed = history.committed_processes()
        graph = history.serialization_graph()
        # Restrict the graph to committed processes and check for a
        # cycle through ``pid``.
        seen: Set[str] = set()
        stack = [
            target for target in graph.get(pid, ()) if target in committed
        ]
        while stack:
            current = stack.pop()
            if current == pid:
                return False
            if current in seen:
                continue
            seen.add(current)
            stack.extend(
                target
                for target in graph.get(current, ())
                if target in committed
            )
        return True
