"""Runtime state of a single process execution (paper §3.1).

A :class:`ProcessInstance` is the inversion-of-control counterpart of
the reference interpreter in :mod:`repro.core.flex`: instead of running
the process to completion under a fixed failure scenario, it exposes one
action at a time (:meth:`ProcessInstance.next_action`) and is told the
outcome (:meth:`on_committed`, :meth:`on_failed`)
by whoever drives it — the transactional process scheduler, a baseline
scheduler, or a test harness.

The instance tracks the notions of §3.1:

* the **recovery state**: ``B-REC`` (backward-recoverable) until the
  state-determining activity — the first non-compensatable activity —
  has committed, ``F-REC`` (forward-recoverable) afterwards;
* the **completion** ``C(P)``: the activities recovery must execute.
  In ``B-REC`` these are the compensations of all committed activities
  in reverse order; in ``F-REC`` they are local backward recovery to the
  last committed non-compensatable activity followed by the
  lowest-preference all-retriable forward path (Example 2);
* **alternative switching**: when a non-retriable activity fails, the
  instance compensates back to the innermost choice point that still
  has a lower-preference alternative and continues there; if none
  exists it aborts by full backward recovery — which well-formedness
  guarantees is always possible at that point.

Deferred commits (Lemma 1) are modelled by the ``hardened`` parameter of
:meth:`recovery_state` and :meth:`completion`: a non-compensatable
activity whose subsystem transaction is merely *prepared* (not yet
committed through 2PC) does not put the process into ``F-REC`` — it can
still be rolled back natively, which is exactly why the paper defers
those commits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.activity import ActivityDef, ActivityId, Direction
from repro.core.flex import (
    FlexActivity,
    FlexChoice,
    FlexSeq,
    Step,
    StepKind,
)
from repro.core.process import Process
from repro.errors import (
    AlreadyTerminatedError,
    InvalidProcessError,
    NotWellFormedError,
    UnknownActivityError,
)

__all__ = [
    "RecoveryState",
    "InstanceStatus",
    "ActionType",
    "Action",
    "Completion",
    "ProcessInstance",
]


class RecoveryState(enum.Enum):
    """Recovery mode of a process (paper §3.1)."""

    B_REC = "backward-recoverable"
    F_REC = "forward-recoverable"


class InstanceStatus(enum.Enum):
    """Lifecycle status of a process instance."""

    RUNNING = "running"
    #: Switching to a lower-preference alternative: compensations of the
    #: failed branch are being executed.
    SWITCHING = "switching"
    #: An abort was requested; the completion ``C(P)`` is being executed.
    RECOVERING = "recovering"
    #: Terminated successfully (possibly through forward recovery).
    COMMITTED = "committed"
    #: Terminated by backward recovery, all effects compensated.
    ABORTED = "aborted"

    @property
    def is_terminal(self) -> bool:
        return self in (InstanceStatus.COMMITTED, InstanceStatus.ABORTED)


class ActionType(enum.Enum):
    """What the driver must do next for this instance."""

    #: Invoke the forward activity (``action.activity``).
    INVOKE = "invoke"
    #: Invoke the compensating activity ``a^{-1}``.
    COMPENSATE = "compensate"
    #: Nothing left to do: the instance reached ``status``.
    FINISHED = "finished"


@dataclass(frozen=True)
class Action:
    """One unit of work requested from the driver."""

    type: ActionType
    activity: Optional[str] = None
    #: 1-based attempt counter for the pending invocation.
    attempt: int = 1

    def __str__(self) -> str:
        if self.type is ActionType.FINISHED:
            return "<finished>"
        suffix = "^-1" if self.type is ActionType.COMPENSATE else ""
        return f"{self.type.value} {self.activity}{suffix} (attempt {self.attempt})"


@dataclass(frozen=True)
class Completion:
    """The completion ``C(P)`` of a process instance (paper §3.1).

    ``compensations`` lists activities to compensate, most recent first
    (reverse execution order); ``forward`` lists the retriable forward
    recovery path in execution order.  ``state`` records the recovery
    state the completion was computed in: a ``B-REC`` completion has an
    empty ``forward`` part and terminates the process as aborted, while
    an ``F-REC`` completion always terminates it as committed (the
    paper: once the abort activity is replaced by the completion, the
    process "can be considered as committed").
    """

    compensations: Tuple[str, ...]
    forward: Tuple[str, ...]
    state: RecoveryState = RecoveryState.B_REC

    @property
    def terminal_status(self) -> InstanceStatus:
        if self.state is RecoveryState.F_REC:
            return InstanceStatus.COMMITTED
        return InstanceStatus.ABORTED

    @property
    def is_empty(self) -> bool:
        return not self.compensations and not self.forward

    def activity_ids(self, process_id: str) -> Tuple[ActivityId, ...]:
        """The completion as schedule-level activity identities, in order."""
        ids = [
            ActivityId(process_id, name, Direction.COMPENSATION)
            for name in self.compensations
        ]
        ids.extend(ActivityId(process_id, name) for name in self.forward)
        return tuple(ids)


class _ChoiceMark:
    """Bookkeeping for an entered choice: which branch, what to undo."""

    __slots__ = ("choice", "branch_index", "committed_mark")

    def __init__(self, choice: FlexChoice, branch_index: int, committed_mark: int):
        self.choice = choice
        self.branch_index = branch_index
        self.committed_mark = committed_mark


class _Frame:
    """A sequence being executed, with the index of the next item.

    ``choice_mark`` is set on frames that execute a choice branch and
    carries the information needed to switch to the next alternative.
    """

    __slots__ = ("seq", "index", "choice_mark")

    def __init__(self, seq: FlexSeq, choice_mark: Optional[_ChoiceMark] = None):
        self.seq = seq
        self.index = 0
        self.choice_mark = choice_mark


class ProcessInstance:
    """Driver-facing state machine for one execution of a process."""

    def __init__(self, process: Process, instance_id: Optional[str] = None) -> None:
        self.process = process
        self.instance_id = instance_id or process.process_id
        self._tree = process.flex_tree
        self._frames: List[_Frame] = [_Frame(self._tree)]
        self._committed: List[ActivityDef] = []
        self._steps: List[Step] = []
        self._status = InstanceStatus.RUNNING
        #: Bumped on every status transition — including the lazy ones
        #: :meth:`next_action` performs — so an observer that derived a
        #: verdict from :attr:`status` can tell that it moved.
        self.revision = 0
        #: Called after every revision bump: the scheduler wakes what
        #: sleeps on this process (DESIGN.md §3j).
        self.on_revision: Optional[Callable[[], None]] = None
        self._attempt = 1
        #: Compensations queued by a branch switch or an abort, most
        #: recent activity first.
        self._pending_compensations: List[str] = []
        #: Forward-recovery activities queued by an abort in ``F-REC``.
        self._pending_forward: List[str] = []
        #: Set when the instance terminates through an abort request.
        self._aborted_by_request = False
        #: Branch switch to perform once pending compensations drain.
        self._pending_switch: Optional[Tuple[int, _ChoiceMark]] = None
        #: Whether a running recovery ends in forward completion.
        self._recovered_forward = False
        #: The next action, until an outcome or a transition moves it.
        self._next: Optional[Action] = None

    # -- introspection -----------------------------------------------------

    @property
    def status(self) -> InstanceStatus:
        return self._status

    def committed_sequence(self) -> Tuple[str, ...]:
        """Names of currently-committed forward activities, in order."""
        return tuple(definition.name for definition in self._committed)

    def trace(self) -> Tuple[Step, ...]:
        """Full execution trace including failures and compensations."""
        return tuple(self._steps)

    @property
    def step_count(self) -> int:
        """``len(self.trace())``, without copying the trace."""
        return len(self._steps)

    def definition(self, name: str) -> ActivityDef:
        return self.process.activity(name)

    def recovery_state(
        self, hardened: Optional[AbstractSet[str]] = None
    ) -> RecoveryState:
        """Current recovery state (paper §3.1).

        ``hardened`` restricts which non-compensatable activities count
        as committed: when the scheduler defers subsystem commits
        (Lemma 1), a prepared-but-uncommitted pivot keeps the process in
        ``B-REC``.  ``None`` means every executed activity counts.
        """
        for definition in self._committed:
            if definition.kind.is_compensatable:
                continue
            if hardened is None or definition.name in hardened:
                return RecoveryState.F_REC
        return RecoveryState.B_REC

    def completion(
        self, hardened: Optional[AbstractSet[str]] = None
    ) -> Completion:
        """Compute the completion ``C(P)`` for the current state.

        In ``B-REC``: compensations of all committed compensatable
        activities in reverse order (non-compensatable activities that
        are executed but not hardened are rolled back natively by their
        subsystem and do not appear here).

        In ``F-REC``: compensations back to the last hardened
        non-compensatable activity, then the lowest-preference retriable
        forward path from that position (Example 2).
        """
        anchor_index = -1
        for index, definition in enumerate(self._committed):
            if definition.kind.is_compensatable:
                continue
            if hardened is None or definition.name in hardened:
                anchor_index = index
        compensations = tuple(
            definition.name
            for definition in reversed(self._committed[anchor_index + 1 :])
            if definition.kind.is_compensatable
        )
        if anchor_index < 0:
            return Completion(
                compensations=compensations,
                forward=(),
                state=RecoveryState.B_REC,
            )
        anchor = self._committed[anchor_index].name
        forward = self._forward_recovery_path(anchor)
        return Completion(
            compensations=compensations,
            forward=forward,
            state=RecoveryState.F_REC,
        )

    def hypothetical_completion(
        self,
        activity_name: str,
        hardened: Optional[AbstractSet[str]] = None,
        current: Optional[Completion] = None,
    ) -> Completion:
        """The completion ``C(P)`` as if ``activity_name`` just committed.

        Used by the scheduler's admission control: before executing an
        activity it must know what recovery would have to do *afterwards*
        (paper §3.5 — the completed schedule of every prefix counts).
        A hypothetically committed non-compensatable activity counts as
        hardened, because admission is deciding whether the resulting
        state is safe at all.  ``current`` is the completion of the
        present state under ``hardened``, if the caller keeps it.
        """
        definition = self.definition(activity_name)
        if not definition.kind.is_compensatable:
            return Completion(
                compensations=(),
                forward=self._forward_recovery_path(activity_name),
                state=RecoveryState.F_REC,
            )
        if current is None:
            current = self.completion(hardened=hardened)
        return Completion(
            compensations=(activity_name,) + current.compensations,
            forward=current.forward,
            state=current.state,
        )

    def _forward_recovery_path(self, anchor: str) -> Tuple[str, ...]:
        """Retriable path from just after ``anchor`` to process end.

        Walks the structure tree, descending into the lowest-preference
        branch of any choice encountered — well-formedness guarantees
        that branch consists only of retriable activities.  A function
        of the structure, so the process keeps every path walked
        (:attr:`~repro.core.process.Process.recovery_paths`); a walk
        that fails is not kept, and names this instance each time.
        """
        paths = self.process.recovery_paths
        path = paths.get(anchor)
        if path is None:
            path = paths[anchor] = self._walk_recovery_path(anchor)
        return path

    def _walk_recovery_path(self, anchor: str) -> Tuple[str, ...]:
        path: List[str] = []

        def collect(seq: FlexSeq, start: int) -> None:
            for item in seq.items[start:]:
                if isinstance(item, FlexActivity):
                    if not item.kind.is_retriable:
                        raise NotWellFormedError(
                            f"forward recovery of {self.instance_id!r} met "
                            f"non-retriable activity {item.name!r}; process "
                            f"is not well formed"
                        )
                    path.append(item.name)
                else:
                    collect(item.branches[-1], 0)

        def locate(seq: FlexSeq) -> bool:
            for index, item in enumerate(seq.items):
                if isinstance(item, FlexActivity):
                    if item.name == anchor:
                        collect(seq, index + 1)
                        return True
                else:
                    for branch in item.branches:
                        if locate(branch):
                            return True
            return False

        if not locate(self._tree):  # pragma: no cover - anchor is committed
            raise UnknownActivityError(
                f"activity {anchor!r} not found in process "
                f"{self.process.process_id!r}"
            )
        return tuple(path)

    # -- the action interface ----------------------------------------------

    def next_action(self) -> Action:
        """The next unit of work the driver must perform.

        The same action is returned until the driver reports an outcome;
        retriable failures increment the attempt counter of the repeated
        action.  Derived once per state.
        """
        action = self._next
        if action is None:
            action = self._next = self._derive_next_action()
        return action

    def _derive_next_action(self) -> Action:
        if self._status.is_terminal:
            return Action(ActionType.FINISHED)
        if self._pending_compensations:
            return Action(
                ActionType.COMPENSATE,
                self._pending_compensations[0],
                attempt=self._attempt,
            )
        if self._status is InstanceStatus.SWITCHING:
            self._perform_switch()
            return self._derive_next_action()
        if self._status is InstanceStatus.RECOVERING:
            if self._pending_forward:
                return Action(
                    ActionType.INVOKE,
                    self._pending_forward[0],
                    attempt=self._attempt,
                )
            self._finish(
                InstanceStatus.COMMITTED
                if self._recovered_forward
                else InstanceStatus.ABORTED
            )
            return Action(ActionType.FINISHED)
        item = self._current_item()
        if item is None:
            self._finish(InstanceStatus.COMMITTED)
            return Action(ActionType.FINISHED)
        if isinstance(item, FlexChoice):
            self._enter_choice(item)
            return self._derive_next_action()
        return Action(ActionType.INVOKE, item.name, attempt=self._attempt)

    def _current_item(self) -> Optional[Union[FlexActivity, FlexChoice]]:
        while self._frames:
            frame = self._frames[-1]
            if frame.index < len(frame.seq.items):
                return frame.seq.items[frame.index]
            self._frames.pop()
        return None

    def _enter_choice(self, item: FlexChoice) -> None:
        frame = self._frames[-1]
        frame.index += 1  # the choice itself is consumed
        mark = _ChoiceMark(item, 0, len(self._committed))
        self._frames.append(_Frame(item.branches[0], choice_mark=mark))

    def on_committed(self, name: str) -> None:
        """Report that the pending invocation/compensation committed."""
        action = self._expect_pending(name)
        self._next = None
        self._attempt = 1
        if action.type is ActionType.COMPENSATE:
            self._steps.append(Step(name, StepKind.COMPENSATED))
            self._pending_compensations.pop(0)
            popped = self._committed.pop()
            if popped.name != name:  # pragma: no cover - LIFO invariant
                raise InvalidProcessError(
                    f"compensation order violated: compensated {name!r} but "
                    f"last committed activity is {popped.name!r}"
                )
            return
        self._steps.append(Step(name, StepKind.COMMITTED))
        if self._status is InstanceStatus.RECOVERING:
            self._pending_forward.pop(0)
            self._committed.append(self.definition(name))
            return
        self._committed.append(self.definition(name))
        self._frames[-1].index += 1

    def on_failed(self, name: str) -> None:
        """Report that the pending invocation aborted in its subsystem.

        Retriable activities (and compensations, which are retriable by
        definition) simply repeat with an incremented attempt counter.
        A failed compensatable or pivot activity triggers backtracking
        to the innermost choice point with a remaining alternative, or
        full backward recovery if none exists.
        """
        action = self._expect_pending(name)
        self._next = None
        definition = self.definition(name)
        self._steps.append(Step(name, StepKind.FAILED, attempts=self._attempt))
        if action.type is ActionType.COMPENSATE or definition.kind.is_retriable:
            self._attempt += 1
            return
        self._attempt = 1
        self._backtrack()

    def _expect_pending(self, name: str) -> Action:
        if self._status.is_terminal:
            raise AlreadyTerminatedError(
                f"instance {self.instance_id!r} already terminated "
                f"({self._status.value})"
            )
        action = self.next_action()
        if action.type is ActionType.FINISHED or action.activity != name:
            raise InvalidProcessError(
                f"out-of-order report for {name!r}; expected {action}"
            )
        return action

    # -- failure handling and recovery --------------------------------------

    def can_degrade(self) -> bool:
        """Is a proactive switch to a lower ◁-alternative possible now?

        ``True`` when the instance is running normally and unwinding to
        the innermost choice point with a remaining alternative crosses
        only compensatable committed activities — i.e. exactly when
        :meth:`degrade` would cleanly enter the next branch under the
        preference order rather than aborting the process.  Used by the
        scheduler's circuit-breaker degradation hook.
        """
        if self._status is not InstanceStatus.RUNNING:
            return False
        if self._pending_compensations or self._pending_switch:
            return False
        for frame in reversed(self._frames):
            mark = frame.choice_mark
            if (
                mark is not None
                and mark.branch_index + 1 < len(mark.choice.branches)
            ):
                undo = self._committed[mark.committed_mark :]
                return all(d.kind.is_compensatable for d in undo)
        return False

    def degrade(self, name: str) -> None:
        """Switch to the next ◁-alternative without invoking ``name``.

        The resilience layer's proactive counterpart of a failed
        invocation: when the circuit breaker for the pending activity's
        service is open, the scheduler refuses the doomed invocation
        and backtracks to the innermost choice point with a remaining
        alternative — the same path :meth:`on_failed` takes for a
        non-retriable failure, but available for *any* pending forward
        activity (including retriable ones whose retry budget ran dry).
        The refusal is recorded as a failed step in the trace.
        """
        action = self._expect_pending(name)
        if action.type is not ActionType.INVOKE:
            raise InvalidProcessError(
                f"cannot degrade {name!r}: only pending forward "
                f"invocations may be degraded, not {action}"
            )
        if not self.can_degrade():
            raise InvalidProcessError(
                f"instance {self.instance_id!r} has no ◁-alternative to "
                f"degrade to at {name!r}"
            )
        self._next = None
        self._steps.append(Step(name, StepKind.FAILED, attempts=self._attempt))
        self._attempt = 1
        self._backtrack()

    def _backtrack(self) -> None:
        """Unwind to the innermost choice with a remaining alternative."""
        while self._frames:
            frame = self._frames[-1]
            mark = frame.choice_mark
            if mark is not None and mark.branch_index + 1 < len(mark.choice.branches):
                undo = self._committed[mark.committed_mark :]
                if any(not d.kind.is_compensatable for d in undo):
                    raise NotWellFormedError(  # pragma: no cover - WF invariant
                        f"cannot switch alternatives of {self.instance_id!r}: "
                        f"a non-compensatable activity committed inside the "
                        f"failed branch"
                    )
                self._pending_compensations = [d.name for d in reversed(undo)]
                self._pending_switch = (mark.branch_index + 1, mark)
                self._frames.pop()
                self._set_status(InstanceStatus.SWITCHING)
                return
            self._frames.pop()
        # no alternative anywhere: full backward recovery
        if any(not d.kind.is_compensatable for d in self._committed):
            raise NotWellFormedError(  # pragma: no cover - WF invariant
                f"process {self.instance_id!r} failed in F-REC without an "
                f"alternative; it is not well formed"
            )
        self._pending_compensations = [
            definition.name for definition in reversed(self._committed)
        ]
        self._pending_forward = []
        self._recovered_forward = False
        self._set_status(InstanceStatus.RECOVERING)

    def _perform_switch(self) -> None:
        """Enter the next alternative branch once compensations drained."""
        if self._pending_switch is None:  # pragma: no cover - defensive
            raise InvalidProcessError("no branch switch pending")
        branch_index, mark = self._pending_switch
        self._pending_switch = None
        new_mark = _ChoiceMark(mark.choice, branch_index, len(self._committed))
        self._frames.append(
            _Frame(mark.choice.branches[branch_index], choice_mark=new_mark)
        )
        self._set_status(InstanceStatus.RUNNING)

    def request_abort(self, hardened: Optional[AbstractSet[str]] = None) -> Completion:
        """Abort the process: queue its completion ``C(P)`` for execution.

        Returns the completion so the driver knows what work follows.
        In ``B-REC`` the completion compensates everything; in ``F-REC``
        it performs local backward recovery and then the retriable
        forward path (paper §3.1: the abort of a process in ``F-REC``
        considers only the lowest-priority, all-retriable alternative).

        Permitted also on an instance that already reached a terminal
        *logical* state: until the driver records the process's commit
        ``C_i``, the process counts as active (Definition 8 2(b)) and
        may still be caught by a group or cascading abort.  The
        completion is then recomputed from the current committed state —
        empty for an instance that fully backward-recovered, the
        remaining forward path otherwise.
        """
        completion = self.completion(hardened=hardened)
        self._next = None
        self._aborted_by_request = True
        self._pending_compensations = list(completion.compensations)
        self._pending_forward = list(completion.forward)
        self._recovered_forward = completion.state is RecoveryState.F_REC
        self._pending_switch = None
        self._frames = []
        self._attempt = 1
        # Drop executed-but-not-hardened non-compensatable activities from
        # the committed list: their prepared subsystem transactions are
        # rolled back natively and need no compensation.
        if hardened is not None:
            self._committed = [
                definition
                for definition in self._committed
                if definition.kind.is_compensatable or definition.name in hardened
            ]
        self._set_status(InstanceStatus.RECOVERING)
        if completion.is_empty:
            self._finish(completion.terminal_status)
        return completion

    def _finish(self, status: InstanceStatus) -> None:
        self._set_status(status)
        self._frames = []

    def _set_status(self, status: InstanceStatus) -> None:
        self._status = status
        self._next = None
        self.revision += 1
        if self.on_revision is not None:
            self.on_revision()
