"""The online transactional process scheduler (paper §3.5 and §4).

The paper proves that PRED schedules are exactly the correct ones, and
derives from Lemmas 1-3 the rules a *dynamic* scheduler must enforce —
re-checking PRED on every prefix would require completing and reducing
the schedule each time (benchmark X4 measures that cost).  This module
implements the constructive protocol:

R1 — **conflict ordering**: conflicting activities of different
     processes are serialised; executing ``b`` of ``P_j`` after a
     conflicting committed activity of ``P_i`` records the dependency
     ``P_i → P_j`` in the process serialization graph.

R2 — **completion-aware cycle prevention**: a request is deferred if
     the *completed prefix* it would create is irreducible — the check
     combines the recorded conflict edges with the "potential" edges
     that the forward-recovery paths of active processes' completions
     would force (§3.5: the completed schedule must always be
     considered; completions introduce conflicts S itself cannot show).

R3 — **Lemma 1 (execution side)**: a *non-compensatable* activity of
     ``P_j`` is deferred while any process with a conflict edge into
     ``P_j`` is still active — otherwise a later compensation of the
     predecessor would create an irreducible cycle (Example 8), and
     Proc-REC 11.2's ordering of state-determining activities would
     break.

R4 — **Lemma 1 (commit side) / deferred commit**: pivot and retriable
     activities execute with their subsystem transactions *prepared*;
     per-process groups commit atomically through 2PC once no
     conflicting active predecessor remains (the hardening guard — the
     literal content of Lemma 1).  Until hardened, a process remains
     effectively backward-recoverable and is a cheap abort victim;
     Definition 5's temporal semantics makes successors wait for the
     group, so rolled-back pivots never have executed successors.

R5 — **Lemma 2 / cascading aborts**: a compensation may only execute
     once every *later* conflicting activity of another active process
     has itself been compensated; the scheduler triggers the cascading
     aborts (§2.2's BOM-invalidation scenario) and thereby emits all
     compensations in reverse conflict order.

R6 — **Lemma 3**: forward-recovery (retriable) activities conflicting
     with pending compensations are deferred behind them — implied by
     R3/R5 plus the per-instance completion order.

R7 — **commit ordering (Proc-REC 11.1)**: a process commits only after
     every conflicting predecessor terminated.

Deadlocks among deferrals are resolved by aborting a victim —
preferably one with no hardened non-compensatable activity (its abort
is pure rollback), falling back to a hardened one whose abort swaps the
blocked remainder of its path for the guaranteed retriable
forward-recovery path.  Guaranteed termination makes every abort clean.

Every deferral is *until a named event* (Lemma 1: "until ``P_i`` has
committed"), so deferred work is not re-polled: a process deferred by a
side-effect-free graph rule (:data:`PARKING_RULES`) is **parked** on the
blockers its verdict was derived from and re-evaluated only once one of
them, the process itself or the conflict relation moved
(:meth:`TransactionalProcessScheduler.is_parked`).  A driver passes a
parked process over with one lookup in
:attr:`TransactionalProcessScheduler.asleep`, which the movers empty by
push.  The decisions are those of polling, bit for bit; see DESIGN.md
§3j.

``paranoid=True`` re-validates the produced history against the
*offline* checker after every recorded event (incrementally — only
prefixes beyond the certified watermark are re-reduced, with a full
re-check after native rollbacks, which rewrite the past); the property
tests use it to certify the protocol.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Callable,
    Deque,
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

from repro.core.activity import ActivityDef, ActivityId, Direction
from repro.core.admission import (
    AdmissionConfig,
    AdmissionDecision,
    AdmissionOutcome,
    QueuedArrival,
    WatchdogConfig,
)
from repro.core.conflict import (
    ConflictRelation,
    NoConflicts,
    UnionConflicts,
    normalize_service,
)
from repro.core.instance import (
    Action,
    ActionType,
    InstanceStatus,
    ProcessInstance,
)
from repro.core.process import Process
from repro.core.schedule import (
    AbortEvent,
    ActivityEvent,
    CommitEvent,
    ProcessSchedule,
)
from repro.errors import (
    CorrectnessViolation,
    ProcessAbortedError,
    SchedulerClosedError,
    SchedulerError,
    SubsystemUnavailable,
    TransactionAborted,
    UnknownProcessError,
    UnrecoverableStateError,
)
from repro.core.perf import PerfCounters
from repro.obs.explain import GRAPH_RULES, DecisionRecord
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import harden_group
from repro.core.sergraph import IncrementalSerializationGraph
from repro.resilience.manager import ResilienceManager
from repro.subsystems.failures import FailurePolicy, NoFailures
from repro.subsystems.resource import WouldBlock
from repro.subsystems.services import provision_noop_services
from repro.subsystems.subsystem import Invocation, Subsystem, SubsystemRegistry
from repro.subsystems.transaction import carry_redo
from repro.subsystems.twophase import Participant, TwoPhaseCoordinator
from repro.subsystems.wal import WriteAheadLog

__all__ = [
    "PARKING_RULES",
    "SchedulerRules",
    "ManagedStatus",
    "ManagedProcess",
    "TransactionalProcessScheduler",
]


@dataclass(frozen=True)
class SchedulerRules:
    """Protocol rule switches (ablated by benchmark X6).

    Disabling a rule removes the corresponding guarantee; the ablation
    benchmark then counts how many produced histories the offline
    checkers reject.
    """

    #: R3: defer non-compensatable activities conflicting with active
    #: processes (Lemma 1.2).
    defer_non_compensatable: bool = True
    #: R2: defer requests that would close a serialization-graph cycle.
    cycle_prevention: bool = True
    #: R5: cascade-abort processes whose activities must be compensated
    #: before a predecessor's compensation may run (Lemma 2).
    cascading_aborts: bool = True
    #: R7: order commits along the serialization graph (Proc-REC 11.1).
    commit_ordering: bool = True
    #: R4: 2PC-commit prepared pivot groups as soon as it is safe.
    eager_hardening: bool = True
    #: R4's safety condition: only harden when no conflicting active
    #: predecessor remains — the literal content of Lemma 1 ("the
    #: commits … have to be deferred … until P_i has committed").
    #: Disabling this is the ablation that reproduces Example 8 live.
    guard_hardening: bool = True
    #: Validate the produced history with the offline PRED checker after
    #: every recorded event (expensive; for certification tests).
    paranoid: bool = False


#: Deferral rules whose verdict is a function of the requester's state,
#: the named blockers' states and the conflict relation only, and that
#: have no side effect: a process deferred by one of them is *parked*
#: on its blockers instead of being re-polled (DESIGN.md, "Wake-ups").
#: Everything else — R5 (it triggers cascades), lock waits, breakers,
#: outages, retry pacing, deferrals naming no blocker — stays polled.
PARKING_RULES = frozenset(
    (
        "R2-cycle-prevention",
        "R3-lemma1",
        "R4-deferred-commit",
        "R6-recovery-priority",
        "R7-commit-ordering",
    )
)


class ManagedStatus(enum.Enum):
    """Scheduler-side lifecycle of a managed process."""

    ACTIVE = "active"
    WAITING = "waiting"
    COMMITTED = "committed"
    ABORTED = "aborted"

    @property
    def is_terminal(self) -> bool:
        return self in (ManagedStatus.COMMITTED, ManagedStatus.ABORTED)


@dataclass
class _PreparedActivity:
    """A non-compensatable activity held prepared in its subsystem."""

    activity_name: str
    subsystem: Subsystem
    txn_id: str
    log_position: int


@dataclass
class _LogEntry:
    """One recorded activity event plus its runtime bookkeeping."""

    event: ActivityEvent
    #: The forward event this compensation cancels (compensations only).
    compensates: Optional[int] = None
    #: Set when a later compensation cancelled this forward event.
    compensated: bool = False
    #: Set when the prepared transaction was rolled back natively.
    rolled_back: bool = False

    @property
    def is_effective(self) -> bool:
        """Counts toward conflicts: present and not undone.

        A forward event that has been compensated and the compensation
        that cancelled it form an effect-free pair (Definition 2); the
        protocol's cascade rule guarantees the pair cancels cleanly
        under the compensation rule, so neither side contributes
        conflict edges anymore.
        """
        if self.rolled_back:
            return False
        if self.event.is_compensation:
            return self.compensates is None
        return not self.compensated

    @property
    def process_id(self) -> str:
        return self.event.process_id


@dataclass
class ManagedProcess:
    """Scheduler-side state for one submitted process instance."""

    instance: ProcessInstance
    failures: FailurePolicy
    status: ManagedStatus = ManagedStatus.ACTIVE
    #: Process ids whose termination this instance currently waits for.
    waiting_for: FrozenSet[str] = frozenset()
    waiting_reason: str = ""
    prepared: List[_PreparedActivity] = field(default_factory=list)
    #: Non-compensatable activities whose subsystem commit went through.
    hardened: Set[str] = field(default_factory=set)
    #: Log positions of this process's events, in order.
    log_positions: List[int] = field(default_factory=list)
    #: Set while the scheduler executes a requested/cascaded abort.
    abort_pending: bool = False
    #: Virtual time the process was offered / actually admitted
    #: (identical for direct :meth:`submit`).  Sojourn time = terminal
    #: time − ``offered_at`` includes the admission-queue wait.
    offered_at: float = 0.0
    admitted_at: float = 0.0
    #: Monotone admission order; the load shedder's notion of age
    #: ("youngest" = highest sequence number).
    admission_seq: int = 0
    #: Set when the load shedder cancelled this process (its abort then
    #: counts as shed, not as an ordinary application abort).
    shed: bool = False
    #: Watchdog state: last dispatch round with progress, whether the
    #: starvation watchdog boosted it, failure/degradation flap count,
    #: and whether the livelock watchdog escalated it to serial mode.
    last_progress_round: int = 0
    boosted: bool = False
    flaps: int = 0
    serialized: bool = False
    #: Memoised ``(trace_length, completion)`` for admission checks.
    _completion_cache: Optional[Tuple[int, object]] = None
    #: Memoised ``(trace_length, graph epoch, interned forward-recovery
    #: services)`` — the service set the completion would still run.
    _forward_services_cache: Optional[Tuple[int, int, FrozenSet[str]]] = None
    #: Last blocking decision recorded about this process (see
    #: ``repro.obs.explain``).
    last_decision: Optional[DecisionRecord] = None
    #: Bumped whenever the scheduler-side state of this process moves
    #: (:meth:`TransactionalProcessScheduler._moved`); together with
    #: ``instance.revision`` it is the stamp processes parked on this
    #: one compare against.
    moves: int = 0
    #: While parked: the conflict-relation version and the
    #: ``(blocker, stamp)`` pairs the deferral was derived from.  The
    #: process is not re-evaluated until one of them moved.
    park: Optional["_Park"] = field(default=None, repr=False, compare=False)
    #: The processes parked on this one, woken when it moves (entries
    #: of parks since ended are skipped then).
    sleepers: List["ManagedProcess"] = field(
        default_factory=list, repr=False, compare=False
    )

    @property
    def process_id(self) -> str:
        return self.instance.instance_id

    @property
    def is_hardened(self) -> bool:
        """``True`` once any non-compensatable activity committed — the
        process is then in ``F-REC`` and no longer a cheap victim."""
        return bool(self.hardened)

    @property
    def stamp(self) -> int:
        """Monotone; changes iff the process or its instance moved."""
        return self.moves + self.instance.revision


#: ``(conflict-relation version, ((blocker, stamp), ...))``.
_Park = Tuple[int, Tuple[Tuple[ManagedProcess, int], ...]]

#: A park a blocker's move ended: it holds under no version.
_WOKEN: _Park = (-1, ())


class TransactionalProcessScheduler:
    """Synchronous reactor scheduling transactional processes.

    Usage::

        registry = SubsystemRegistry([...])
        scheduler = TransactionalProcessScheduler(registry, conflicts)
        scheduler.submit(process_a)
        scheduler.submit(process_b, failures=FailurePlan.fail_once(["x"]))
        scheduler.run()
        history = scheduler.history()      # a certified ProcessSchedule

    The scheduler interleaves processes round-robin (override with
    ``interleaving``), applying the admission rules R1-R7 before every
    activity dispatch.  :meth:`step` advances a single dispatch, which
    the discrete-event simulation uses to drive virtual time.
    """

    _instance_ids = itertools.count(1)

    def __init__(
        self,
        registry: Optional[SubsystemRegistry] = None,
        conflicts: Optional[ConflictRelation] = None,
        rules: Optional[SchedulerRules] = None,
        wal: Optional[WriteAheadLog] = None,
        auto_provision: bool = True,
        interleaving: Optional[Callable[[List[str]], List[str]]] = None,
        resilience: Optional[ResilienceManager] = None,
        checkpoint_interval: Optional[int] = None,
        admission: Optional[AdmissionConfig] = None,
        watchdogs: Optional[WatchdogConfig] = None,
        trace: Optional[object] = None,
        metrics: Optional[MetricsRegistry] = None,
        coordinator: Optional[TwoPhaseCoordinator] = None,
    ) -> None:
        self.registry = registry if registry is not None else SubsystemRegistry()
        self.rules = rules if rules is not None else SchedulerRules()
        self.wal = wal
        if wal is not None:
            # Behind a log, store commits wait for its forces (DESIGN.md §3b).
            for subsystem in self.registry.subsystems():
                subsystem.store.write_behind(wal)
        #: Optional resilience layer: timeouts, retry backoff, circuit
        #: breakers and the ◁-degradation hook.  ``None`` preserves the
        #: paper's bare protocol (immediate retries, no breakers).
        self.resilience = resilience
        self._auto_provision = auto_provision
        explicit = conflicts if conflicts is not None else NoConflicts()
        self.conflicts = UnionConflicts(
            (explicit, self.registry.semantic_conflicts())
        )
        self._managed: Dict[str, ManagedProcess] = {}
        #: The non-terminal subset of :attr:`_managed`, in submission
        #: order — everything that runs per round iterates this, so a
        #: round costs O(live), not O(ever submitted).
        self._live: Dict[str, ManagedProcess] = {}
        self._log: List[_LogEntry] = []
        #: Injectable atomic-commitment coordinator: the federation
        #: layer substitutes a cross-shard coordinator here so pivot
        #: groups spanning shards commit through the message-based
        #: protocol instead of the local fast path.
        self._coordinator = (
            coordinator
            if coordinator is not None
            else TwoPhaseCoordinator(wal=wal)
        )
        self._interleaving = interleaving or (lambda ids: ids)
        self._closed = False
        #: Auto-checkpoint the WAL every N scheduler appends (``None``
        #: disables).  Checkpoints compact the log so restart replay
        #: cost is bounded by the interval, not total history length.
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be a positive int")
        self.checkpoint_interval = checkpoint_interval
        self._appends_since_checkpoint = 0
        #: While True, :meth:`_wal` is a no-op: recovery replays
        #: already-logged history through the normal bookkeeping paths,
        #: and re-appending those records would duplicate the log.
        self._replaying = False
        #: ``("activity", log_position)`` / ``("termination", event)``
        #: entries in global execution order — the source of
        #: :meth:`history`.
        self._timeline: List[Tuple[str, object]] = []
        #: Perf counters of the incremental core (see core/perf.py).
        self.perf = PerfCounters()
        #: Metrics registry (``None`` → nothing exported): it pulls
        #: :meth:`counters` at export time, and the simulation runner
        #: feeds it latency histograms.
        self.metrics = metrics
        if metrics is not None:
            metrics.add_source(self.counters)
        #: Incrementally maintained serialization graph + dependency
        #: indexes (see core/sergraph.py) — updated on every
        #: effectiveness transition of the log, never bulk-invalidated.
        self._graph = IncrementalSerializationGraph(
            self.conflicts, perf=self.perf
        )
        #: Conflict-relation version the graph was built against; a
        #: drift (mid-run declare/retract/register) forces a rebuild.
        self._conflict_version = self.conflicts.version
        #: Incremental paranoid-mode certifier and its timeline
        #: watermark (entries below it are certified).
        self._certifier = None
        self._certified_timeline = 0
        #: Bumped whenever any process's state moves (:meth:`_moved`)
        #: or one is submitted — admission caches keyed on it stay
        #: valid across the deferrals in between.
        self._state_version = 0
        #: Processes a driver passes over with one lookup until a push
        #: wakes them (:meth:`sleep`): parked ones, and whatever a
        #: driver's strong-order gate holds back.
        self.asleep: Set[str] = set()
        #: The processes whose forward-recovery services may have moved
        #: since the graph was last told, the interning epoch it was told
        #: in, and the potential edges of the recorded state (see
        #: :meth:`_potential_edges_base`).
        self._forward_moved: Set[str] = set()
        self._forward_epoch = self._graph.epoch
        self._potential_cache: Optional[
            Tuple[tuple, Dict[str, FrozenSet[str]], Set[Tuple[str, str]]]
        ] = None
        #: Observers notified of scheduler events (see add_listener).
        self._listeners: List[Callable[[str, Dict[str, object]], None]] = []
        #: Latency-spike overhead per log position (virtual time the
        #: simulation runner adds on top of the service duration).
        self._latencies: Dict[int, float] = {}
        #: Admission control (``None`` keeps the unbounded front door)
        #: and the starvation/livelock watchdogs (``None`` disables).
        self.admission = admission
        self.watchdogs = watchdogs
        self._admission_queue: Deque[QueuedArrival] = deque()
        #: Instance ids reserved for queued offers (not yet submitted).
        self._reserved_ids: Set[str] = set()
        self._draining = False
        #: Monotone dispatch-round counter (watchdog time base).
        self._round = 0
        self._admission_counter = itertools.count(1)
        #: Instance ids the load shedder cancelled, in shed order.
        self.shed_ids: List[str] = []
        #: Diagnostic counters surfaced by benchmarks.
        self.stats: Dict[str, int] = {
            "dispatched": 0,
            "deferred": 0,
            "victim_aborts": 0,
            "cascading_aborts": 0,
            "hardenings": 0,
            "2pc_groups": 0,
            "degradations": 0,
            "retries": 0,
            "offered": 0,
            "admitted": 0,
            "queued": 0,
            "rejected": 0,
            "shed": 0,
            "starvation_boosts": 0,
            "livelock_escalations": 0,
        }
        #: Last blocking decision per instance id (explainability; see
        #: :meth:`explain` and ``repro.obs.explain``).  Rejected offers
        #: are keyed by the offered process id — they never get an
        #: instance.
        self.decisions: Dict[str, DecisionRecord] = {}
        #: Structured trace bus (``None`` → untraced; emission is
        #: guarded on ``trace.enabled`` so a disabled bus costs one
        #: attribute test on the hot path).
        self._trace: Optional[object] = None
        if trace is not None:
            self.attach_trace(trace)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(
        self,
        process: Process,
        instance_id: Optional[str] = None,
        failures: Optional[FailurePolicy] = None,
    ) -> str:
        """Admit a process for execution; returns its instance id.

        Only well-formed processes (guaranteed termination) are
        admitted — :class:`~repro.core.instance.ProcessInstance`
        validates the flex structure on construction.
        """
        if self._closed:
            raise SchedulerClosedError("scheduler has been shut down")
        identifier = instance_id or self._fresh_instance_id(process)
        if identifier in self._managed:
            raise SchedulerError(f"instance id {identifier!r} already in use")
        if self._auto_provision:
            provision_noop_services(process, self._subsystem_for)
        process = process.renamed(identifier)
        now = self._now()
        managed = ManagedProcess(
            instance=ProcessInstance(process, instance_id=identifier),
            failures=failures or NoFailures(),
            offered_at=now,
            admitted_at=now,
            admission_seq=next(self._admission_counter),
            last_progress_round=self._round,
        )
        managed.instance.on_revision = partial(self._wake, managed)
        self._managed[identifier] = managed
        self._live[identifier] = managed
        self._reserved_ids.discard(identifier)
        self._graph.add_process(identifier)
        self._state_version += 1
        self._notify("submitted", process=identifier)
        self._wal({"type": "process_submit", "process": identifier})
        return identifier

    def _fresh_instance_id(self, process: Process) -> str:
        """An unused instance id for ``process`` (managed or reserved)."""
        taken = self._managed.keys() | self._reserved_ids
        if process.process_id not in taken:
            return process.process_id
        while True:
            candidate = f"{process.process_id}#{next(self._instance_ids)}"
            if candidate not in taken:
                return candidate

    def _now(self) -> float:
        """Current virtual time (0 without a resilience clock)."""
        if self.resilience is not None:
            return self.resilience.now
        return 0.0

    def _subsystem_for(self, definition: ActivityDef, create: bool = False) -> Subsystem:
        name = definition.subsystem
        if name in self.registry:
            return self.registry.get(name)
        service = definition.service
        assert service is not None
        for subsystem in self.registry.subsystems():
            if subsystem.provides(service):
                return subsystem
        if create:
            subsystem = self.registry.provision(name)
            if self.wal is not None:
                subsystem.store.write_behind(self.wal)
            if self.resilience is not None:
                # Crash-stopped subsystems recover by the clock; share
                # the resilience layer's virtual clock so outages end.
                subsystem.clock = self.resilience.clock
            if self._trace is not None:
                subsystem.trace = self._trace
            return subsystem
        raise SchedulerError(
            f"no subsystem for activity {definition.name!r} "
            f"(subsystem {name!r}, service {service!r})"
        )

    # ------------------------------------------------------------------
    # admission control & load shedding
    # ------------------------------------------------------------------

    def offer(
        self,
        process: Process,
        failures: Optional[FailurePolicy] = None,
        now: Optional[float] = None,
    ) -> AdmissionDecision:
        """The bounded front door: admit, queue or reject a process.

        Without an :class:`AdmissionConfig` this is plain
        :meth:`submit`.  With one, the offer is admitted while capacity
        is free, parked in the bounded admission queue otherwise, and
        rejected when the queue is full — under the
        ``shed-youngest-brec`` policy the youngest still
        backward-recoverable *active* process is cancelled first to
        make room (never an F-REC one; see :meth:`shed`).

        Rejections are decisions, not errors: a rejected process was
        never submitted, so it leaves no WAL record, no locks and no
        history — the cheap side of the paper's recovery asymmetry.
        """
        if self._closed:
            raise SchedulerClosedError("scheduler has been shut down")
        when = self._now() if now is None else now
        self.stats["offered"] += 1
        self._notify("offered", process=process.process_id)
        if self.admission is None:
            identifier = self.submit(process, failures=failures)
            admitted = self._managed[identifier]
            admitted.offered_at = when
            admitted.admitted_at = when
            self.stats["admitted"] += 1
            return AdmissionDecision(
                AdmissionOutcome.ADMITTED, identifier, "unbounded admission"
            )
        if self._draining:
            return self._reject(process, "draining: admission closed")
        backpressure = self._backpressure_reason()
        if backpressure is not None:
            return self._reject(process, backpressure)
        cfg = self.admission
        if (
            self._has_capacity()
            and not self._admission_queue
            and not self._admission_paused()
        ):
            identifier = self._admit(process, failures, when, when)
            return AdmissionDecision(
                AdmissionOutcome.ADMITTED, identifier, "capacity available"
            )
        if len(self._admission_queue) < cfg.max_queue_depth:
            return self._enqueue(process, failures, when)
        if cfg.shed_policy == "shed-youngest-brec":
            victim = self._shed_victim()
            if victim is not None:
                self.shed(
                    victim.process_id,
                    reason=(
                        f"admission queue full (depth "
                        f"{len(self._admission_queue)}); shedding youngest "
                        f"B-REC to make room for {process.process_id!r}"
                    ),
                )
                # The freed slot goes to the *head* of the queue, not to
                # the newcomer — shedding must not become queue jumping.
                self.pump_admission(now=when)
                if len(self._admission_queue) < cfg.max_queue_depth:
                    return self._enqueue(process, failures, when)
        return self._reject(
            process,
            f"admission queue full (depth {len(self._admission_queue)})",
        )

    def pump_admission(self, now: Optional[float] = None) -> List[str]:
        """Evict over-age queue entries, then admit while capacity lasts.

        Returns the instance ids admitted by this pump.  Drivers call
        it once per dispatch round; admission counts as progress.
        """
        if self.admission is None:
            return []
        when = self._now() if now is None else now
        cfg = self.admission
        if cfg.max_queue_age is not None:
            kept: Deque[QueuedArrival] = deque()
            while self._admission_queue:
                entry = self._admission_queue.popleft()
                age = when - entry.offered_at
                if age > cfg.max_queue_age:
                    self._reject_queued(
                        entry,
                        f"queue age {age:.3f} exceeded {cfg.max_queue_age}",
                    )
                else:
                    kept.append(entry)
            self._admission_queue = kept
        admitted: List[str] = []
        if self._draining or self._admission_paused():
            return admitted
        while self._admission_queue and self._has_capacity():
            entry = self._admission_queue.popleft()
            admitted.append(
                self._admit(
                    entry.process,
                    entry.failures,
                    entry.offered_at,
                    when,
                    instance_id=entry.instance_id,
                )
            )
        return admitted

    def _admit(
        self,
        process: Process,
        failures: Optional[FailurePolicy],
        offered_at: float,
        now: float,
        instance_id: Optional[str] = None,
    ) -> str:
        identifier = self.submit(
            process, instance_id=instance_id, failures=failures
        )
        managed = self._managed[identifier]
        managed.offered_at = offered_at
        managed.admitted_at = now
        self.stats["admitted"] += 1
        self._notify(
            "admitted",
            process=identifier,
            waited=now - offered_at,
        )
        return identifier

    def _enqueue(
        self,
        process: Process,
        failures: Optional[FailurePolicy],
        when: float,
    ) -> AdmissionDecision:
        entry = QueuedArrival(
            process=process,
            failures=failures,
            offered_at=when,
            instance_id=self._fresh_instance_id(process),
        )
        self._reserved_ids.add(entry.instance_id)
        self._admission_queue.append(entry)
        self.stats["queued"] += 1
        self._notify(
            "queued",
            process=entry.instance_id,
            depth=len(self._admission_queue),
        )
        return AdmissionDecision(
            AdmissionOutcome.QUEUED,
            entry.instance_id,
            f"queued at depth {len(self._admission_queue)}",
        )

    def _reject(self, process: Process, reason: str) -> AdmissionDecision:
        self.stats["rejected"] += 1
        self.decisions[process.process_id] = DecisionRecord(
            kind="rejected",
            rule="admission",
            reason=reason,
            process=process.process_id,
        )
        self._notify(
            "rejected",
            process=process.process_id,
            reason=reason,
            rule="admission",
        )
        return AdmissionDecision(AdmissionOutcome.REJECTED, None, reason)

    def _reject_queued(self, entry: QueuedArrival, reason: str) -> None:
        self._reserved_ids.discard(entry.instance_id)
        self.stats["rejected"] += 1
        self.decisions[entry.instance_id] = DecisionRecord(
            kind="rejected",
            rule="admission",
            reason=reason,
            process=entry.instance_id,
        )
        self._notify(
            "rejected",
            process=entry.instance_id,
            reason=reason,
            rule="admission",
        )

    def shed(self, instance_id: str, reason: str = "load shed") -> None:
        """Cancel an admitted process to relieve overload.

        **Invariant (the paper's recovery asymmetry):** only a process
        still in ``B-REC`` may be shed — its cancellation is pure
        backward recovery through the existing abort path, so it is
        fully compensated and the history stays PRED.  Once any pivot
        committed the process is in ``F-REC`` and Definition 5 obliges
        the scheduler to drive it forward to ``C(P)``; attempting to
        shed it is a protocol bug and raises
        :class:`~repro.errors.CorrectnessViolation`.
        """
        managed = self.managed(instance_id)
        if managed.status.is_terminal:
            raise ProcessAbortedError(instance_id, "already terminated")
        if managed.is_hardened:
            raise CorrectnessViolation(
                f"refusing to shed {instance_id!r}: a pivot already "
                f"committed (F-REC) — the process must run forward to C(P)"
            )
        managed.shed = True
        self.shed_ids.append(instance_id)
        self.stats["shed"] += 1
        self.decisions[instance_id] = DecisionRecord(
            kind="shed", rule="load-shed", reason=reason, process=instance_id
        )
        self._notify(
            "shed", process=instance_id, reason=reason, rule="load-shed"
        )
        self._begin_abort(managed, reason=f"load shed: {reason}", cascade=False)

    def _shed_victim(self) -> Optional[ManagedProcess]:
        """The youngest sheddable (B-REC, *blocked*) process, if any.

        Only WAITING processes are eligible: cancelling work that is
        actively progressing would churn admission — each admitted
        replacement is younger still and would be the next victim.
        Shedding a blocked B-REC process instead frees its locks and
        its capacity slot while its cancellation is still pure rollback.
        """
        candidates = [
            managed
            for managed in self._live.values()
            if managed.status is ManagedStatus.WAITING
            and not managed.is_hardened
            and not managed.abort_pending
            and not managed.shed
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda managed: managed.admission_seq)

    def drain(self) -> None:
        """Enter quiesce mode: stop admission, finish what is in flight.

        Every queued offer is rejected (it was never submitted, so
        nothing needs compensation), subsequent offers are rejected at
        the door, and the admitted processes run to their completion
        ``C(P)`` through the normal scheduling loop — keep calling
        :meth:`run` (or stepping) until :attr:`drained`.
        """
        if self._draining:
            return
        self._draining = True
        self._notify("draining", pending=len(self._admission_queue))
        while self._admission_queue:
            self._reject_queued(
                self._admission_queue.popleft(), "draining: admission closed"
            )

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def drained(self) -> bool:
        """Quiesced: draining was requested and all work reached C(P)."""
        return self._draining and self.all_terminated()

    def queue_depth(self) -> int:
        """Offers currently parked in the admission queue."""
        return len(self._admission_queue)

    def _has_capacity(self) -> bool:
        cfg = self.admission
        if cfg is None or cfg.max_active is None:
            return True
        # Shed processes no longer count against capacity: their
        # remaining work is bounded backward recovery, and the slot
        # they held funds the admission that relieves the overload.
        active = sum(1 for managed in self._live.values() if not managed.shed)
        return active < cfg.max_active

    def _admission_paused(self) -> bool:
        """Livelock escalation quiesces admission until the offender
        terminates — serial execution without starving its cascade."""
        return any(managed.serialized for managed in self._live.values())

    def _backpressure_reason(self) -> Optional[str]:
        cfg = self.admission
        if (
            cfg is None
            or cfg.breaker_throttle_fraction is None
            or self.resilience is None
        ):
            return None
        board = self.resilience.breakers
        total = len(board)
        if total == 0:
            return None
        open_count = sum(1 for _ in board.open_breakers())
        if open_count / total >= cfg.breaker_throttle_fraction:
            return (
                f"backpressure: {open_count}/{total} circuit breakers open"
            )
        return None

    # ------------------------------------------------------------------
    # starvation / livelock watchdogs
    # ------------------------------------------------------------------

    def dispatch_order(self) -> List[str]:
        """Non-terminal instance ids in dispatch-priority order.

        Advances the watchdog round: long-WAITING processes age into a
        priority boost (starvation watchdog) and processes stuck in
        retry/branch-switch loops escalate to serial execution
        (livelock watchdog).  The caller's ``interleaving`` ordering is
        preserved within each priority class, so drivers that do not
        care about watchdogs see the familiar order — without watchdogs
        every process is in one class and the order is returned as is.
        """
        self._round += 1
        self._check_watchdogs()
        order = self._interleaving(list(self._live))
        if self.watchdogs is None:
            return order

        def priority(pid: str) -> Tuple[int, int]:
            managed = self._managed[pid]
            return (
                0 if managed.serialized else 1,
                0 if managed.boosted else 1,
            )

        return sorted(order, key=priority)

    def _check_watchdogs(self) -> None:
        cfg = self.watchdogs
        if cfg is None:
            return
        for managed in self._live.values():
            starved_for = self._round - managed.last_progress_round
            if (
                cfg.starvation_rounds is not None
                and not managed.boosted
                and starved_for > cfg.starvation_rounds
            ):
                managed.boosted = True
                self.stats["starvation_boosts"] += 1
                self._notify(
                    "starved",
                    process=managed.process_id,
                    rounds=starved_for,
                    reason=managed.waiting_reason,
                )
            if (
                cfg.livelock_flaps is not None
                and not managed.serialized
                and managed.flaps >= cfg.livelock_flaps
            ):
                managed.serialized = True
                self.stats["livelock_escalations"] += 1
                self._notify(
                    "livelock",
                    process=managed.process_id,
                    flaps=managed.flaps,
                )

    def _note_flap(self, managed: ManagedProcess) -> None:
        """Count one failure/degradation toward livelock detection."""
        managed.flaps += 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def managed(self, instance_id: str) -> ManagedProcess:
        try:
            return self._managed[instance_id]
        except KeyError:
            raise UnknownProcessError(
                f"no managed process {instance_id!r}"
            ) from None

    def statuses(self) -> Dict[str, ManagedStatus]:
        return {pid: managed.status for pid, managed in self._managed.items()}

    def instance_ids(self) -> List[str]:
        return list(self._managed)

    def live_ids(self) -> List[str]:
        """Non-terminated instance ids, in submission order."""
        return list(self._live)

    def is_terminated(self, instance_id: str) -> bool:
        if instance_id in self._live:
            return False
        self.managed(instance_id)  # raises for an id never submitted
        return True

    def all_terminated(self) -> bool:
        return not self._live

    def history(self) -> ProcessSchedule:
        """The certified schedule produced so far.

        Contains every committed activity event (rolled-back prepared
        invocations are excluded — they never happened, atomically
        speaking) plus the termination events, in execution order.
        """
        schedule = ProcessSchedule(
            (managed.instance.process for managed in self._managed.values()),
            self.conflicts,
        )
        for kind, payload in self._timeline:
            if kind == "activity":
                entry = self._log[payload]  # type: ignore[index]
                if not entry.rolled_back:
                    schedule.append(entry.event)
            else:
                schedule.append(payload)  # type: ignore[arg-type]
        return schedule

    def timeline_length(self) -> int:
        """Number of timeline entries (simulation hook)."""
        return len(self._timeline)

    def timeline_event(self, index: int):
        """The event at a timeline position (simulation hook)."""
        kind, payload = self._timeline[index]
        if kind == "activity":
            return self._log[payload].event  # type: ignore[index]
        return payload

    def timeline_latency(self, index: int) -> float:
        """Injected latency-spike overhead of a timeline event."""
        kind, payload = self._timeline[index]
        if kind == "activity":
            return self._latencies.get(payload, 0.0)  # type: ignore[arg-type]
        return 0.0

    def step_instance(self, instance_id: str) -> bool:
        """Alias of :meth:`step` (uniform driver interface)."""
        return self.step(instance_id)

    def resolve_stall(self) -> None:
        """Public stall hook for external drivers (victim abort)."""
        self._resolve_stall()

    # ------------------------------------------------------------------
    # the scheduling loop
    # ------------------------------------------------------------------

    def run(self, max_rounds: int = 100_000) -> ProcessSchedule:
        """Run until every submitted process terminated.

        Returns the produced history.  Raises
        :class:`UnrecoverableStateError` if no progress is possible and
        no abort victim can be found (a protocol bug by construction).
        """
        rounds = 0
        while not (self.all_terminated() and not self._admission_queue):
            rounds += 1
            if rounds > max_rounds:
                raise SchedulerError(
                    f"no convergence after {max_rounds} scheduling rounds"
                )
            progressed = self.step_round()
            if not progressed:
                self._resolve_stall()
        return self.history()

    def step_round(self) -> bool:
        """One round-robin pass; returns whether any instance progressed."""
        progressed = bool(self.pump_admission())
        for pid in self.dispatch_order():
            if pid in self._live and self.step(pid):
                progressed = True
        return progressed

    def step(self, instance_id: str) -> bool:
        """Try to advance one instance by one action; returns progress."""
        managed = self.managed(instance_id)
        if instance_id not in self._live or (
            managed.park is not None and self.is_parked(instance_id)
        ):
            return False
        progressed = self._step(managed)
        if progressed:
            # Progress resets the starvation watchdog for this instance.
            managed.last_progress_round = self._round
            managed.boosted = False
        return progressed

    def is_parked(self, instance_id: str) -> bool:
        """Is the process parked on blockers none of which has moved?

        A graph deferral (:data:`PARKING_RULES`) is a function of the
        requester's state, the named blockers' states and the conflict
        relation only, so while none of them moved a re-evaluation
        would defer again: :meth:`step` and the drivers skip the
        process instead.  The first poll after a move wakes it.
        """
        managed = self._managed.get(instance_id) or self.managed(instance_id)
        park = managed.park
        if park is None:
            return False
        version, stamps = park
        if version == self.conflicts.version:
            for blocker, stamp in stamps:
                # ``blocker.stamp``, read without the property call.
                if blocker.moves + blocker.instance.revision != stamp:
                    break
            else:
                self.perf.parked_skips += 1
                return True
        managed.park = None
        self.perf.wakeups += 1
        return False

    def parked_on(self, instance_id: str) -> Tuple[str, ...]:
        """The blockers whose movement will wake a parked process."""
        park = self.managed(instance_id).park
        if park is None:
            return ()
        return tuple(sorted(blocker.process_id for blocker, _ in park[1]))

    def _step(self, managed: ManagedProcess) -> bool:
        instance_id = managed.process_id
        action = managed.instance.next_action()
        if action.type is ActionType.FINISHED:
            return self._try_terminate(managed)
        # Retry pacing: a failed invocation set a retry-not-before
        # deadline (backoff); until the virtual clock reaches it the
        # instance does not progress.  Stall resolution (or the DES
        # runner's wake-up events) advances time across the wait.
        if self.resilience is not None and not self.resilience.ready(
            instance_id
        ):
            return False
        if action.type is ActionType.COMPENSATE:
            return self._try_compensate(managed, action)
        return self._try_invoke(managed, action)

    # -- admission: forward activities -----------------------------------

    def _try_invoke(self, managed: ManagedProcess, action: Action) -> bool:
        assert action.activity is not None
        definition = managed.instance.definition(action.activity)
        pid = managed.process_id

        # Definition 5's temporal semantics: a successor may only start
        # after its predecessors *committed*.  While the process has a
        # prepared (deferred-commit, Lemma 1) non-compensatable group,
        # its continuation waits for that group to harden — which also
        # guarantees that a natively rolled-back pivot never has executed
        # successors, keeping every produced history a legal execution.
        # Without eager hardening the gate itself commits the group
        # lazily once Lemma 1's condition is met.
        if managed.prepared:
            blockers = self._active_predecessors(pid)
            if blockers and self.rules.guard_hardening:
                self._defer(
                    managed,
                    blockers,
                    f"deferred commit: {action.activity!r} waits for the "
                    f"prepared group "
                    f"{[p.activity_name for p in managed.prepared]} to commit",
                    rule="R4-deferred-commit",
                    activity=action.activity,
                    service=definition.service,
                )
                return False
            if not self._harden(managed):
                # Vetoed: the group was rolled back and the process's
                # abort began — that is this step's progress.  ``action``
                # is stale now; the completion decides what runs next.
                return True

        # Distinct conflicting processes suffice here (positions don't
        # matter for R5/R6 and Lemma 1), so ask the cheaper index query.
        assert definition.service is not None
        self.perf.index_lookups += 1
        active_conflicts = self._graph_sync().conflicting_processes_after(
            definition.service, pid, -1
        ).intersection(self._live)

        # R5/R6: conflicting predecessors that are currently recovering
        # will compensate their activities; wait for them (Lemma 3).
        recovering = {
            other_pid
            for other_pid in active_conflicts
            if self._managed[other_pid].instance.status
            in (InstanceStatus.RECOVERING, InstanceStatus.SWITCHING)
        }
        if recovering and self.rules.cascading_aborts:
            self._defer(
                managed,
                recovering,
                f"recovery priority: {sorted(recovering)} compensate before "
                f"{action.activity!r} may run",
                rule="R6-recovery-priority",
                activity=action.activity,
                service=definition.service,
            )
            return False

        # R3 (Lemma 1): every non-compensatable activity of P_j must
        # succeed the commit C_i of each process P_i that has a conflict
        # edge into P_j — whether from an earlier conflicting pair or
        # created by this very request.  Executing it earlier would let
        # P_i's recovery compensate an activity P_j's pivot depends on,
        # closing an irreducible cycle (Example 8), and would violate
        # Proc-REC 11.2's ordering of state-determining activities.
        if self.rules.defer_non_compensatable and not definition.is_compensatable:
            predecessors = self._active_predecessors(pid) | active_conflicts
            if predecessors:
                self._defer(
                    managed,
                    predecessors,
                    f"Lemma 1: non-compensatable {action.activity!r} "
                    f"deferred until active conflict predecessors "
                    f"{sorted(predecessors)} commit",
                    rule="R3-lemma1",
                    activity=action.activity,
                    service=definition.service,
                )
                return False

        # R2: never close a cycle — neither among the recorded conflict
        # edges nor through the forward-recovery paths that completing
        # the prefix would force (paper §3.5: the completed schedule of
        # every prefix must stay reducible, and completions introduce
        # conflicts S itself does not show).
        if self.rules.cycle_prevention:
            cycle = self._completion_cycle(managed, action.activity, definition)
            if cycle:
                self._defer(
                    managed,
                    cycle - {pid},
                    f"cycle prevention: executing {action.activity!r} would "
                    f"make the completed prefix irreducible (cycle "
                    f"{sorted(cycle)})",
                    rule="R2-cycle-prevention",
                    activity=action.activity,
                    service=definition.service,
                    detail={"cycle": sorted(cycle)},
                )
                return False

        # Degradation hook: an open circuit breaker on the preferred
        # activity's service means the subsystem is known to be failing
        # — switch to the next ◁-alternative proactively instead of
        # burning the retry budget against it.  Where no alternative
        # exists (or unwinding would cross a hardened pivot) the
        # process waits out the breaker's open window instead;
        # guaranteed termination is preserved either way.
        manager = self.resilience
        if manager is not None and not manager.breaker_allows(
            definition.service  # type: ignore[arg-type]
        ):
            if managed.instance.can_degrade():
                self._degrade(
                    managed,
                    action.activity,
                    definition.service,  # type: ignore[arg-type]
                    reason="circuit open",
                )
                return True
            manager.note_fast_fail(pid, definition.service)  # type: ignore[arg-type]
            self._defer(
                managed,
                set(),
                f"circuit open for service {definition.service!r}",
                rule="breaker-open",
                activity=action.activity,
                service=definition.service,
            )
            return False

        # Execute at the subsystem; non-compensatable activities are
        # held prepared (R4, deferred commit).
        subsystem = self._subsystem_for(definition)
        hold = not definition.is_compensatable
        timeout = manager.policy.timeout if manager is not None else None
        try:
            invocation = subsystem.invoke(
                definition.service,  # type: ignore[arg-type]
                params=definition.params,
                hold=hold,
                attempt=action.attempt,
                failures=managed.failures,
                timeout=timeout,
            )
        except WouldBlock as block:
            holders = self._processes_holding(block.holders) - {pid}
            self._defer(
                managed,
                holders or set(block.holders),
                f"lock wait on {block.key!r} held by {sorted(holders)}",
                rule="lock-wait",
                activity=action.activity,
                service=definition.service,
                detail={"lock": str(block.key)},
            )
            return False
        except TransactionAborted as failure:
            # A crash-stopped subsystem is a *transient* condition, not
            # a failed invocation: with the resilience layer active the
            # process degrades to a ◁-alternative if one is reachable,
            # or waits out the outage (the clock guarantees it ends).
            if (
                isinstance(failure, SubsystemUnavailable)
                and manager is not None
                and failure.retry_after != float("inf")
            ):
                manager.on_unavailable(
                    pid,
                    definition.service,  # type: ignore[arg-type]
                    failure,
                )
                if managed.instance.can_degrade():
                    self._degrade(
                        managed,
                        action.activity,
                        definition.service,  # type: ignore[arg-type]
                        reason="subsystem unavailable",
                    )
                    return True
                self._defer(
                    managed,
                    set(),
                    f"subsystem down for service {definition.service!r}",
                    rule="unavailable",
                    activity=action.activity,
                    service=definition.service,
                )
                return False
            will_retry = definition.is_retriable
            if manager is not None:
                manager.on_failure(
                    pid,
                    definition.service,  # type: ignore[arg-type]
                    action.attempt,
                    failure,
                    will_retry,
                )
                if will_retry:
                    self.stats["retries"] += 1
                # Retry budget exhausted on a retriable activity: take
                # the ◁-alternative if one is reachable, rather than
                # hammering a subsystem that keeps failing.
                if (
                    will_retry
                    and manager.policy.exhausted(action.attempt)
                    and managed.instance.can_degrade()
                ):
                    self._degrade(
                        managed,
                        action.activity,
                        definition.service,  # type: ignore[arg-type]
                        reason="retry budget exhausted",
                    )
                    return True
            managed.instance.on_failed(action.activity)
            self._moved(managed)
            self._note_flap(managed)
            self._clear_wait(managed)
            self._notify(
                "failed",
                process=pid,
                activity=action.activity,
                attempt=action.attempt,
            )
            self._wal(
                {
                    "type": "activity_failed",
                    "process": pid,
                    "activity": action.activity,
                    "attempt": action.attempt,
                }
            )
            return True
        if manager is not None:
            manager.on_success(pid, definition.service)  # type: ignore[arg-type]

        position = self._record_event(
            managed, action.activity, Direction.FORWARD, invocation
        )
        if invocation.latency:
            self._latencies[position] = invocation.latency
        if hold:
            managed.prepared.append(
                _PreparedActivity(
                    activity_name=action.activity,
                    subsystem=subsystem,
                    txn_id=invocation.txn_id,
                    log_position=position,
                )
            )
        managed.instance.on_committed(action.activity)
        # The trace grew after _record_event moved the process.
        self._forward_moved.add(pid)
        self._clear_wait(managed)
        self.stats["dispatched"] += 1
        self._after_event()
        return True

    # -- admission: compensations ------------------------------------------

    def _try_compensate(self, managed: ManagedProcess, action: Action) -> bool:
        assert action.activity is not None
        definition = managed.instance.definition(action.activity)
        pid = managed.process_id

        # R5 (Lemma 2): every later conflicting, still-effective activity
        # of another active process must be compensated first — trigger
        # the cascading aborts and wait.
        forward_position = self._last_effective_position(pid, action.activity)
        dependents = self._conflicting_successors(
            pid, definition.service, forward_position
        )
        if dependents and self.rules.cascading_aborts:
            cascaded = False
            for other_pid in sorted(dependents):
                other = self._managed[other_pid]
                if not other.abort_pending and not other.status.is_terminal:
                    self._begin_abort(
                        other,
                        reason=(
                            f"cascading abort: {pid} compensates "
                            f"{action.activity!r} which {other_pid} depends on"
                        ),
                        cascade=True,
                    )
                    cascaded = True
            self._defer(
                managed,
                dependents,
                f"Lemma 2: dependents {sorted(dependents)} must compensate "
                f"before {action.activity!r}^-1",
                rule="R5-lemma2",
                activity=action.activity,
                service=definition.service,
            )
            # Triggering a cascade is progress even though this
            # compensation itself must wait.
            return cascaded

        subsystem = self._subsystem_for(definition)
        inverse = definition.compensation_service
        assert inverse is not None
        manager = self.resilience
        timeout = manager.policy.timeout if manager is not None else None
        try:
            invocation = subsystem.invoke(
                inverse,
                params=definition.params,
                hold=False,
                attempt=action.attempt,
                failures=managed.failures,
                timeout=timeout,
            )
        except WouldBlock as block:
            holders = self._processes_holding(block.holders) - {pid}
            self._defer(
                managed,
                holders or set(block.holders),
                f"compensation lock wait on {block.key!r}",
                rule="lock-wait",
                activity=action.activity,
                service=inverse,
                detail={"lock": str(block.key)},
            )
            return False
        except TransactionAborted as failure:
            # Compensations are retriable by definition: count the
            # failure and try again next round (paced by backoff when
            # the resilience layer is active — compensations must run,
            # so breakers never refuse them, but retries still pace).
            if (
                isinstance(failure, SubsystemUnavailable)
                and manager is not None
                and failure.retry_after != float("inf")
            ):
                # Transient outage: the compensation is not failed, the
                # process just waits for the subsystem to recover.
                manager.on_unavailable(pid, inverse, failure)
                self._defer(
                    managed,
                    set(),
                    f"subsystem down for compensation {inverse!r}",
                    rule="unavailable",
                    activity=action.activity,
                    service=inverse,
                )
                return False
            if manager is not None:
                manager.on_failure(
                    pid, inverse, action.attempt, failure, will_retry=True
                )
                self.stats["retries"] += 1
            managed.instance.on_failed(action.activity)
            self._moved(managed)
            self._note_flap(managed)
            self._wal(
                {
                    "type": "compensation_failed",
                    "process": pid,
                    "activity": action.activity,
                    "attempt": action.attempt,
                }
            )
            return True
        if manager is not None:
            manager.on_success(pid, inverse)

        self._record_event(
            managed, action.activity, Direction.COMPENSATION, invocation
        )
        managed.instance.on_committed(action.activity)
        self._forward_moved.add(pid)  # the trace grew after the move
        self._clear_wait(managed)
        self._after_event()
        return True

    # -- termination --------------------------------------------------------

    def _try_terminate(self, managed: ManagedProcess) -> bool:
        pid = managed.process_id
        final = managed.instance.status
        if final is InstanceStatus.COMMITTED:
            # R7: wait for all conflicting predecessors to terminate.
            if self.rules.commit_ordering:
                predecessors = self._active_predecessors(pid)
                if predecessors:
                    self._defer(
                        managed,
                        predecessors,
                        f"commit ordering: C({pid}) waits for "
                        f"{sorted(predecessors)}",
                        rule="R7-commit-ordering",
                    )
                    return False
            if not self._harden(managed):
                return False
            managed.status = ManagedStatus.COMMITTED
            del self._live[pid]
            self._forward_moved.add(pid)
            self._timeline.append(("termination", CommitEvent(pid)))
            self._notify("terminated", process=pid, status="committed")
            self._wal({"type": "process_commit", "process": pid}, force=True)
        else:
            # B-REC abort: roll back any prepared (never-hardened)
            # non-compensatable invocations natively.
            self._rollback_prepared(managed)
            managed.status = ManagedStatus.ABORTED
            del self._live[pid]
            self._forward_moved.add(pid)
            self._timeline.append(("termination", AbortEvent(pid)))
            self._notify("terminated", process=pid, status="aborted")
            self._wal({"type": "process_abort", "process": pid}, force=True)
        self._moved(managed)
        self._clear_wait(managed)
        self._after_event(validate=False)
        return True

    # -- aborts ----------------------------------------------------------------

    def abort(self, instance_id: str, reason: str = "requested") -> None:
        """Request the abort of a process (guaranteed-termination abort).

        The completion ``C(P)`` executes through the normal scheduling
        loop; call :meth:`run` (or keep stepping) to drain it.
        """
        managed = self.managed(instance_id)
        if managed.status.is_terminal:
            raise ProcessAbortedError(instance_id, "already terminated")
        self._begin_abort(managed, reason=reason, cascade=False)

    def _begin_abort(
        self, managed: ManagedProcess, reason: str, cascade: bool
    ) -> None:
        # Until C_i is recorded the process counts as active
        # (Definition 8 2(b)) — a logically finished instance can still
        # be caught by a cascading abort and re-enters recovery.
        if managed.abort_pending or managed.status.is_terminal:
            return
        managed.abort_pending = True
        # Keep the more specific shed/victim decision when this abort
        # realises one; otherwise record the abort itself.
        existing = self.decisions.get(managed.process_id)
        if existing is None or existing.kind == "deferred":
            self.decisions[managed.process_id] = DecisionRecord(
                kind="abort",
                rule="abort",
                reason=reason,
                process=managed.process_id,
                detail={"cascade": cascade},
            )
        self._notify(
            "abort_begun",
            process=managed.process_id,
            reason=reason,
            cascade=cascade,
        )
        if cascade:
            self.stats["cascading_aborts"] += 1
        # Prepared-but-unhardened non-compensatables are rolled back
        # natively, so the completion must not forward-recover past them.
        self._rollback_prepared(managed)
        self._request_abort(managed)
        self._wal(
            {
                "type": "abort_requested",
                "process": managed.process_id,
                "reason": reason,
                "cascade": cascade,
            }
        )

    def _rollback_prepared(self, managed: ManagedProcess) -> None:
        if managed.prepared:
            # Rolling back rewrites the recorded past: every prefix must
            # be re-certified in paranoid mode (the incremental
            # certifier is discarded); the serialization graph only
            # *loses* the rolled-back events and is updated in place.
            self._reset_certifier()
        for prepared in managed.prepared:
            prepared.subsystem.rollback_prepared(prepared.txn_id)
            self._mark_rolled_back(prepared.log_position)
            self._wal(
                {
                    "type": "activity_rollback",
                    "process": managed.process_id,
                    "activity": prepared.activity_name,
                    "txn": prepared.txn_id,
                }
            )
        managed.prepared.clear()

    def _request_abort(self, managed: ManagedProcess) -> None:
        """Queue the completion ``C(P)`` on the instance.

        Dropping the rolled-back non-compensatables changes the
        instance's completion without growing its trace, which is what
        :meth:`_completion_of` keys on — so the pre-abort view is
        pinned first: what later admissions see must not depend on
        whether anyone happened to ask in between.
        """
        self._completion_of(managed)
        managed.instance.request_abort(hardened=frozenset(managed.hardened))
        self._moved(managed)
        self._clear_wait(managed)

    # -- degradation (resilience hook) ---------------------------------------------

    def _degrade(
        self,
        managed: ManagedProcess,
        activity_name: Optional[str],
        service: str,
        reason: str,
    ) -> None:
        """Proactively switch the instance to its next ◁-alternative.

        The flex structure's preference order becomes the degradation
        policy: the preferred activity is refused (circuit open, or its
        retry budget ran dry) and the instance backtracks to the
        innermost choice point with a remaining alternative — the
        compensations it queues flow through the normal scheduling
        rules, so the produced history stays PRED.
        """
        assert activity_name is not None
        managed.instance.degrade(activity_name)
        self._moved(managed)
        self._clear_wait(managed)
        self.stats["degradations"] += 1
        self._note_flap(managed)
        if self.resilience is not None:
            self.resilience.note_degradation(managed.process_id, service)
        self._notify(
            "degraded",
            process=managed.process_id,
            activity=activity_name,
            service=service,
            reason=reason,
        )
        self._wal(
            {
                "type": "degraded",
                "process": managed.process_id,
                "activity": activity_name,
                "service": service,
                "reason": reason,
            }
        )

    # -- hardening (R4) -----------------------------------------------------------

    def _maybe_harden_all(self) -> None:
        if not self.rules.eager_hardening:
            return
        for managed in self._live.values():
            # Aborting processes harden too: the retriable activities of
            # an F-REC completion are prepared like any other
            # non-compensatable work and must eventually commit.
            if not managed.prepared:
                continue
            if self.rules.guard_hardening and self._active_predecessors(
                managed.process_id
            ):
                continue
            # Hardening never changes the certified (offline) view —
            # admission already counted the prepared group as committed
            # when the activities executed — so it is always safe here.
            self._harden(managed)

    def _harden(self, managed: ManagedProcess) -> bool:
        """2PC-commit the process's prepared group; returns success."""
        if not managed.prepared:
            return True
        participants = [
            Participant(prepared.subsystem, prepared.txn_id)
            for prepared in managed.prepared
        ]
        group = self._coordinator.commit_group(
            participants, group_id=harden_group(managed.process_id)
        )
        self.stats["2pc_groups"] += 1
        if not group.committed:
            # A vetoed group is rolled back by the coordinator; the
            # invocations never happened, so the process aborts.  This
            # also rewrites the past, so re-certify from scratch.  The
            # rollback is durable: without the log records, a forward
            # re-execution of a vetoed leg (F-REC after the abort)
            # would be indistinguishable from the vetoed one in the
            # recovered timeline.
            self._reset_certifier()
            for prepared in managed.prepared:
                self._mark_rolled_back(prepared.log_position)
                self._wal(
                    {
                        "type": "activity_rollback",
                        "process": managed.process_id,
                        "activity": prepared.activity_name,
                        "txn": prepared.txn_id,
                    }
                )
            if managed.abort_pending:
                # The veto rolled back legs of an already-running
                # completion C(P) (the process was aborting when it
                # hardened, e.g. the retriable forward path of F-REC).
                # _begin_abort would no-op on abort_pending, leaving the
                # instance's stale pending path to skip the rolled-back
                # activities — silently losing forward work the history
                # then cannot explain.  Re-plan the completion from the
                # surviving committed state instead: the rolled-back
                # (retriable) legs re-execute.  Any leg the coordinator
                # could not reach (the veto cause) is still prepared and
                # holds its locks — apply the abort decision to it
                # directly, or the re-executed activity deadlocks on its
                # own orphan (presumed abort delivers the same outcome).
                # The legs the coordinator did reach are resolved already.
                for prepared in managed.prepared:
                    if prepared.subsystem.is_prepared(prepared.txn_id):
                        prepared.subsystem.rollback_prepared(prepared.txn_id)
                managed.prepared.clear()
                self._request_abort(managed)
            else:
                managed.prepared.clear()
                self._begin_abort(
                    managed,
                    reason=f"2PC group vetoed by {group.veto}",
                    cascade=False,
                )
            return False
        for prepared in managed.prepared:
            managed.hardened.add(prepared.activity_name)
        managed.prepared.clear()
        self._moved(managed)
        self.stats["hardenings"] += 1
        self._notify(
            "hardened",
            process=managed.process_id,
            group=group.group_id,
        )
        if not group.one_record:
            self._wal(
                {
                    "type": "hardened",
                    "process": managed.process_id,
                    "group": group.group_id,
                }
            )
        elif self.wal is not None:
            self._counted()  # the decision stands in for ``hardened``
        return True

    # -- stall resolution ----------------------------------------------------------

    def _resolve_stall(self) -> None:
        """No instance progressed: break a deferral deadlock.

        With an active resilience layer the stall may simply mean every
        instance is waiting on the virtual clock (backoff windows, open
        breakers); then time is advanced to the next deadline instead
        of sacrificing a victim.  Under the discrete-event runner the
        clock is externally driven and this advance is a no-op — the
        runner schedules the wake-up events itself.

        Victim selection: a non-terminal, non-hardened process on a
        wait cycle (preferring fewest effective events); non-hardened
        processes are effectively in ``B-REC`` (their pivots are merely
        prepared) so their abort is pure backward recovery.
        """
        if (
            self.resilience is not None
            and self.resilience.advance_to_next_deadline()
        ):
            return
        # Stall refresh: the victim is picked from ``waiting_for``, and
        # a parked process's may name an older (still valid) reason than
        # a re-poll would.  Re-evaluate each once so the choice is the
        # one polling makes.  Each must defer again; one that progresses
        # is progress, not a stall.  If its park still holds — stamps
        # only grow, so it held before the step too — it was parked on
        # something that moved unnoticed (a bug: tests hold the count at
        # 0).  If not, a blocker moved later in the very round that
        # found no progress (a lazy status transition of a process that
        # then deferred) and the next poll would have woken it.
        for pid, managed in list(self._live.items()):
            park = managed.park
            if park is not None:
                managed.park = None
                self.asleep.discard(pid)
                if self.step(pid):
                    version, stamps = park
                    if version == self.conflicts.version and all(
                        blocker.stamp == stamp for blocker, stamp in stamps
                    ):
                        self.perf.stale_parks += 1
                    return
        waiting = self._live
        if not waiting:
            return
        cycle = self._find_wait_cycle(waiting)
        candidates = cycle if cycle else set(waiting)
        # Prefer an effectively backward-recoverable victim (nothing
        # hardened: its abort is pure rollback); fall back to a hardened
        # one, whose abort replaces the remaining — possibly blocked —
        # path by its guaranteed retriable forward-recovery path.
        victims = [
            waiting[pid]
            for pid in sorted(candidates)
            if not waiting[pid].is_hardened and not waiting[pid].abort_pending
        ]
        if not victims:
            victims = [
                waiting[pid]
                for pid in sorted(candidates)
                if not waiting[pid].abort_pending
            ]
        if not victims:
            raise UnrecoverableStateError(
                f"stalled with no abortable victim; waits: "
                f"{ {pid: sorted(m.waiting_for) for pid, m in waiting.items()} }"
            )
        victim = min(
            victims, key=lambda managed: len(managed.log_positions)
        )
        self.stats["victim_aborts"] += 1
        self.decisions[victim.process_id] = DecisionRecord(
            kind="victim",
            rule="deadlock-victim",
            reason=f"deadlock victim (cycle {sorted(candidates)})",
            process=victim.process_id,
            detail={"cycle": sorted(candidates)},
        )
        self._notify(
            "victim",
            process=victim.process_id,
            cycle=sorted(candidates),
            rule="deadlock-victim",
        )
        self._begin_abort(
            victim,
            reason=f"deadlock victim (cycle {sorted(candidates)})",
            cascade=False,
        )

    def _find_wait_cycle(
        self, waiting: Mapping[str, ManagedProcess]
    ) -> Set[str]:
        graph = {
            pid: {
                target
                for target in managed.waiting_for
                if target in waiting
            }
            for pid, managed in waiting.items()
        }
        # Kahn-style peel on out-degrees: strip nodes with no outgoing
        # wait edges in a single pass over the edges; what remains
        # participates in (or feeds) a cycle.  Equivalent to the
        # fixpoint strip but O(V + E) instead of O(V²) per round.
        out_degree = {pid: len(targets) for pid, targets in graph.items()}
        reverse: Dict[str, List[str]] = {pid: [] for pid in graph}
        for pid, targets in graph.items():
            for target in targets:
                reverse[target].append(pid)
        peel = deque(
            pid for pid, degree in out_degree.items() if degree == 0
        )
        alive = set(graph)
        while peel:
            node = peel.popleft()
            alive.discard(node)
            for waiter in reverse[node]:
                out_degree[waiter] -= 1
                if out_degree[waiter] == 0:
                    peel.append(waiter)
        return alive

    # -- dependency graph ------------------------------------------------------------
    #
    # All dependency queries answer from the incrementally maintained
    # serialization graph and its inverted indexes (core/sergraph.py).
    # The full-log reference scans they replaced live with the
    # shadow-check property (tests/property/test_incremental_structures.py),
    # which proves the incremental structures bit-identical to them
    # after arbitrary operation sequences.

    def _graph_sync(self) -> IncrementalSerializationGraph:
        """The incremental graph, rebuilt if the conflict relation moved."""
        version = self.conflicts.version
        if version != self._conflict_version:
            self._conflict_version = version
            self._rebuild_graph()
        return self._graph

    def _rebuild_graph(self) -> None:
        entries = [
            (
                position,
                entry.process_id,
                entry.event.activity.activity_name,
                entry.event.conflict_service,
                not entry.event.is_compensation,
            )
            for position, entry in enumerate(self._log)
            if entry.is_effective
        ]
        self._graph.rebuild(list(self._managed), entries)

    def _mark_rolled_back(self, position: int) -> None:
        """Mark a log entry rolled back and unindex it."""
        entry = self._log[position]
        if not entry.rolled_back:
            if entry.is_effective:
                self._graph_sync().remove_event(position)
            entry.rolled_back = True
            self._moved(self._managed[entry.process_id])
            self._notify(
                "rolled_back",
                process=entry.process_id,
                activity=entry.event.activity.activity_name,
                position=position,
            )

    def _conflicting_successors(
        self, pid: str, service: Optional[str], after: Optional[int]
    ) -> Set[str]:
        """Processes whose conflicting work after ``after`` blocks a
        compensation at that position (Lemma 2's precondition).

        A later *forward* event blocks until it is compensated itself
        (an effective compensation is always an orphan — its partner
        forward event left the index when the pair cancelled — so every
        indexed event past ``after`` blocks).  Answered from the
        per-service index: only processes whose *latest* conflicting
        position exceeds ``after`` qualify.
        """
        assert service is not None
        start = -1 if after is None else after
        self.perf.index_lookups += 1
        graph = self._graph_sync()
        return {
            other_pid
            for other_pid in graph.conflicting_processes_after(
                service, pid, start
            )
            if other_pid in self._live
        }

    def _last_effective_position(
        self, pid: str, activity_name: str
    ) -> Optional[int]:
        self.perf.index_lookups += 1
        return self._graph_sync().last_forward_position(pid, activity_name)

    def _completion_of(self, managed: ManagedProcess):
        """The instance's completion, memoised per trace length.

        Admission consults every active process's completion on every
        request; the completion only changes when the instance's trace
        does, so a (length, value) memo eliminates the repeated tree
        walks.
        """
        length = managed.instance.step_count
        cached = managed._completion_cache
        if cached is not None and cached[0] == length:
            return cached[1]
        completion = managed.instance.completion()
        managed._completion_cache = (length, completion)
        return completion

    def _forward_of(self, managed: ManagedProcess) -> FrozenSet[str]:
        """Services the process's completion would still run.

        These are the forward-recovery activities Definition 8 forces
        into the completed schedule of the current prefix — conflicts
        with them are the "conflicts not known from S alone" of §3.5.

        Service names come back *interned* into the graph's conflict
        universe (so potential-edge tests can use the adjacency matrix)
        and are memoised per (trace length, interning epoch) — a
        completion only changes when the trace does.  Completions are
        evaluated with every executed activity counted as committed
        (hardened=None): the recorded history cannot express
        "prepared", so the offline certifier sees exactly this view and
        admission must match it.
        """
        graph = self._graph
        key = (managed.instance.step_count, graph.epoch)
        cached = managed._forward_services_cache
        if cached is not None and cached[:2] == key:
            return cached[2]
        services = self._interned_forward(
            graph, managed, self._completion_of(managed)
        )
        managed._forward_services_cache = (*key, services)
        return services

    @staticmethod
    def _interned_forward(
        graph, managed: ManagedProcess, completion
    ) -> FrozenSet[str]:
        """Interned services of a completion's forward-recovery path."""
        services = set()
        for name in completion.forward:
            service = managed.instance.definition(name).service
            assert service is not None
            services.add(graph.ensure_service(service))
        return frozenset(services)

    def _potential_edges_base(
        self, graph: IncrementalSerializationGraph
    ) -> Tuple[Dict[str, FrozenSet[str]], Set[Tuple[str, str]]]:
        """Forward-recovery potential edges of the *recorded* state.

        ``src → dst`` whenever an executed effective service of ``src``
        conflicts with a service active ``dst``'s completion would still
        run (§3.5's "conflicts not known from S alone"), minus pairs
        already ordered by a recorded edge.  The graph keeps the sources
        current across state moves: a process that moved since the last
        call re-reads its own forward services, one whose executed
        services changed is re-checked against the processes it may now
        conflict with, and a rebuild starts over.  The edge set is
        cached for one state move (any process's state moving or a
        submission ends it).  Returns ``(forward services per active
        process, potential edges)``.
        """
        key = (self._state_version, graph.epoch)
        cached = self._potential_cache
        if cached is not None and cached[0] == key:
            return cached[1], cached[2]
        moved: Iterable[str] = self._forward_moved
        if self._forward_epoch != graph.epoch:  # a rebuild forgot them
            self._forward_epoch = graph.epoch
            moved = list(self._live)
        for pid in moved:
            managed = self._live.get(pid)
            services = frozenset()  # not live: no forward services
            if managed is not None:
                services = self._forward_of(managed)
            graph.set_forward(pid, services)
        self._forward_moved.clear()
        edges = graph.potential_edges()
        self._potential_cache = (key, graph.forward, edges)
        return graph.forward, edges

    def _completion_cycle(
        self,
        managed: ManagedProcess,
        activity_name: str,
        definition: ActivityDef,
    ) -> Set[str]:
        """Processes on a cycle the hypothetical execution would force.

        The graph combines (a) the real conflict edges over effective
        events including the hypothetical one, and (b) *potential* edges
        ``P → Q`` for every executed effective event of ``P`` conflicting
        with a forward-recovery service of active ``Q`` — that order is
        forced in the completed schedule of the resulting prefix.
        Returns the cycle's nodes (empty when the prefix stays safe).
        """
        pid = managed.process_id
        service = definition.service
        assert service is not None
        graph = self._graph_sync()
        base = graph.adjacency()

        # Hypothetical edges the request would add on top of the
        # recorded graph: (a) conflict edges from every effective
        # conflicting predecessor into the requester, (b) potential
        # forward-recovery edges P → Q for every executed service of P
        # (plus the hypothetical one) conflicting with a service Q's
        # completion would still run.
        new_edges: Set[Tuple[str, str]] = set()
        self.perf.index_lookups += 1
        for other_pid in graph.conflicting_processes_after(service, pid, -1):
            if pid not in base.get(other_pid, ()):
                new_edges.add((other_pid, pid))

        # Potential edges among the *other* processes depend only on the
        # recorded state — they come from the amortized cache.  Only the
        # requester's row (it as source, with the hypothetical service)
        # and column (it as destination, with its post-request
        # completion) are request-specific.
        forward, potential = self._potential_edges_base(graph)
        hypothetical = graph.ensure_service(service)
        for edge in potential:
            if pid not in edge:
                new_edges.add(edge)

        signature = graph.service_signature(pid) | {hypothetical}
        reachable = graph.reachable_services(signature)
        src_edges = base.get(pid, ())
        for dst_pid, targets in forward.items():
            if dst_pid == pid or dst_pid in src_edges:
                continue
            if not reachable.isdisjoint(targets):
                new_edges.add((pid, dst_pid))

        targets = self._interned_forward(
            graph,
            managed,
            managed.instance.hypothetical_completion(
                activity_name, current=self._completion_of(managed)
            ),
        )
        if targets:
            for src_pid in graph.processes_conflicting_with(targets):
                if src_pid != pid and pid not in base[src_pid]:
                    new_edges.add((src_pid, pid))

        # Fast path: a valid topological order in which every
        # hypothetical edge goes strictly forward certifies the combined
        # graph acyclic — no cycle through anything, so none through
        # ``pid``.  Otherwise fall back to the DFS witness search.
        if graph.order_permits(new_edges):
            self.perf.cycle_fast_path += 1
            return set()
        self.perf.cycle_dfs += 1
        extra: Dict[str, Set[str]] = {}
        for src_pid, dst_pid in new_edges:
            extra.setdefault(src_pid, set()).add(dst_pid)
        # A new cycle must pass through the requesting process.
        return self._cycle_through(base, extra, pid)

    @staticmethod
    def _cycle_through(
        base: Dict[str, Set[str]],
        extra: Dict[str, Set[str]],
        pid: str,
    ) -> Set[str]:
        """Nodes of a cycle through ``pid`` in ``base ∪ extra``, if any.

        The two adjacency maps are merged lazily per visited node, so the
        (usually large) recorded graph is never copied wholesale.
        """
        empty: Set[str] = set()

        def successors(node: str) -> List[str]:
            recorded = base.get(node, empty)
            added = extra.get(node)
            if added:
                return sorted(recorded | added)
            return sorted(recorded)

        # DFS from pid back to pid, tracking the path.
        stack: List[Tuple[str, List[str]]] = [
            (target, [pid]) for target in successors(pid)
        ]
        seen: Set[str] = set()
        while stack:
            current, path = stack.pop()
            if current == pid:
                return set(path)
            if current in seen:
                continue
            seen.add(current)
            for target in successors(current):
                stack.append((target, path + [current]))
        return set()

    def _active_predecessors(self, pid: str) -> Set[str]:
        """Active processes with a conflict edge into ``pid``."""
        self.perf.index_lookups += 1
        return self._graph_sync().predecessors(pid) & self._live.keys()

    def _processes_holding(self, txn_ids: FrozenSet[str]) -> Set[str]:
        owners: Set[str] = set()
        for managed in self._live.values():
            for prepared in managed.prepared:
                if prepared.txn_id in txn_ids:
                    owners.add(managed.process_id)
        return owners

    # -- bookkeeping --------------------------------------------------------------------

    def _record_event(
        self, managed: ManagedProcess, activity_name: str, direction: Direction,
        invocation: Optional[Invocation] = None,
    ) -> int:
        process = managed.instance.process
        definition = process.activity(activity_name)
        if direction is Direction.COMPENSATION:
            service = definition.compensation_service
        else:
            service = definition.service
        assert service is not None
        event = ActivityEvent(
            activity=ActivityId(managed.process_id, activity_name, direction),
            service=service,
            conflict_service=definition.service,  # type: ignore[arg-type]
            kind=definition.kind,
            effect_free=definition.effect_free,
        )
        entry = _LogEntry(event=event)
        position = len(self._log)
        graph = self._graph_sync()
        if direction is Direction.COMPENSATION:
            forward_position = self._last_effective_position(
                managed.process_id, activity_name
            )
            if forward_position is not None:
                # The pair cancels: the forward partner leaves the
                # indexes together with its edges, and the compensation
                # itself (non-orphan → ineffective) is never indexed.
                entry.compensates = forward_position
                self._log[forward_position].compensated = True
                graph.remove_event(forward_position)
        self._log.append(entry)
        if entry.is_effective:
            graph.add_event(
                position,
                managed.process_id,
                activity_name,
                event.conflict_service,
                is_forward=not event.is_compensation,
            )
        managed.log_positions.append(position)
        self._moved(managed)
        self._timeline.append(("activity", position))
        self._notify(
            "activity",
            process=managed.process_id,
            activity=activity_name,
            direction=direction.exponent,
            service=service,
            position=position,
        )
        held = not definition.is_compensatable and direction is Direction.FORWARD
        record: Dict[str, object] = {
            "type": "activity_commit",
            "process": managed.process_id,
            "activity": activity_name,
            "direction": direction.exponent,
            "service": service,
            "prepared": held,
        }
        # A directly committed invocation carries its writes for
        # recovery to redo.  Behind this log its store installs them at
        # the next force, which covers this record too — the process's
        # next anchor; a store written through already holds them, so
        # the record must be durable before anything else happens.  A
        # held invocation has no effect until its group's logged
        # decision, which carries its writes and will cover this record.
        force = False
        if invocation is not None and not held and self.wal is not None:
            redo = invocation.transaction.redo_entry(invocation.subsystem)
            carry_redo(record, [redo])
            store = self.registry.get(invocation.subsystem).store
            force = store.behind is not self.wal
        self._wal(record, force=force)
        return position

    def _defer(
        self,
        managed: ManagedProcess,
        waiting_for: Set[str],
        reason: str,
        rule: str = "",
        activity: Optional[str] = None,
        service: Optional[str] = None,
        detail: Optional[Dict[str, object]] = None,
    ) -> None:
        # Polled deferrals (and the stall refresh) re-defer with the
        # same decision; only a *change* of decision within one waiting
        # episode is a new fact worth tracing.
        pid = managed.process_id
        repeat = managed.status is ManagedStatus.WAITING
        managed.status = ManagedStatus.WAITING
        managed.waiting_for = frozenset(waiting_for)
        managed.waiting_reason = reason
        park = managed.park = self._park(rule, waiting_for)
        if park is not None:
            for blocker, _ in park[1]:
                blocker.sleepers.append(managed)
            self.sleep(pid)
        record = DecisionRecord(
            kind="deferred",
            rule=rule,
            reason=reason,
            process=pid,
            activity=activity,
            service=service,
            waiting_for=tuple(sorted(waiting_for)),
            detail=dict(detail) if detail else {},
        )
        repeat = repeat and managed.last_decision == record
        managed.last_decision = record
        self.decisions[pid] = record
        self.stats["deferred"] += 1
        trace = self._trace
        traced = (
            trace is not None
            and trace.enabled  # type: ignore[attr-defined]
            and not repeat
        )
        if not traced and not self._listeners:
            return
        extra: Dict[str, object] = dict(record.detail)
        if traced and service is not None and rule in GRAPH_RULES:
            # Only when a sink listens: resolve the concrete conflicting
            # (activity, service) predecessors from the graph so the
            # trace event is self-contained for offline `explain`.
            extra["conflicts"] = self.conflict_pairs(pid, service)
        payload: Dict[str, object] = dict(
            process=pid,
            activity=activity,
            waiting_for=sorted(waiting_for),
            reason=reason,
            rule=rule,
            service=service,
            **extra,
        )
        # Listeners (watchdogs, counters) still see every deferral;
        # only the trace stream is deduplicated.
        for listener in self._listeners:
            listener("deferred", dict(payload))
        if traced:
            trace.emit_payload("deferred", payload)  # type: ignore[attr-defined]

    def note_decision(
        self, record: DecisionRecord, deferral: bool = False, **fields: object
    ) -> None:
        """Record a decision about a process taken *outside* the
        scheduler — a driver's start gate, a shard's in-doubt hold —
        where :meth:`explain` and the trace look for it.  ``deferral``
        counts it among this scheduler's deferrals; ``fields`` are what
        the ``deferred`` event says beyond rule and reason."""
        self.decisions[record.process] = record  # type: ignore[index]
        if deferral:
            self.stats["deferred"] += 1
        trace = self._trace
        if trace is not None and trace.enabled:  # type: ignore[attr-defined]
            trace.emit(  # type: ignore[attr-defined]
                "deferred",
                process=record.process,
                activity=record.activity,
                rule=record.rule,
                reason=record.reason,
                **fields,
            )

    def _park(self, rule: str, waiting_for: Set[str]) -> Optional[_Park]:
        """The park record for a deferral, or ``None`` to keep polling.

        Only side-effect-free graph deferrals that name their blockers
        park; when in doubt, poll.
        """
        if rule not in PARKING_RULES or not waiting_for:
            return None
        blockers = [self._managed.get(pid) for pid in waiting_for]
        if any(blocker is None for blocker in blockers):
            return None
        return (
            self.conflicts.version,
            tuple((blocker, blocker.stamp) for blocker in blockers),
        )

    def _moved(self, managed: ManagedProcess) -> None:
        """The process's state moved: it recorded, compensated or rolled
        back an event, hardened, failed, switched, began an abort or
        terminated.  Wakes whoever is parked on it (their stamp of it is
        now stale), unparks the process itself and invalidates the
        admission caches."""
        managed.moves += 1
        managed.park = None
        self._state_version += 1
        self._forward_moved.add(managed.process_id)
        self._wake(managed)

    def sleep(self, instance_id: str) -> None:
        """Let drivers pass the process over until a push wakes it:
        parked, or held or made busy by a driver's flights.  A move of
        its stamp or a blocker's wakes it (:meth:`_wake`), a driver what
        a landing releases, and everyone when the relation moved.  The
        tests' polling oracle overrides this to do nothing."""
        self.asleep.add(instance_id)

    def _wake(self, managed: ManagedProcess) -> None:
        """The process's stamp moved: it is awake, and so is whoever is
        parked on it, whose park it ends (:meth:`is_parked` then answers
        ``False`` and lets it go)."""
        asleep = self.asleep
        asleep.discard(managed.process_id)
        waiters = managed.sleepers
        if not waiters:
            return
        managed.sleepers = []
        for waiter in waiters:
            park = waiter.park
            if park is None:
                continue
            # Registered by an earlier park, maybe: only the current one
            # counts.
            for blocker, _ in park[1]:
                if blocker is managed:
                    waiter.park = _WOKEN
                    asleep.discard(waiter.process_id)
                    break

    def _clear_wait(self, managed: ManagedProcess) -> None:
        if managed.status is ManagedStatus.WAITING:
            managed.status = ManagedStatus.ACTIVE
        managed.waiting_for = frozenset()
        managed.waiting_reason = ""
        managed.park = None

    def _after_event(self, validate: bool = True) -> None:
        self._maybe_harden_all()
        if validate and self.rules.paranoid:
            self._paranoid_check()

    def _reset_certifier(self) -> None:
        """Discard certification state: the recorded past was rewritten
        (native rollback / 2PC veto), so every prefix must re-certify."""
        self._certifier = None
        self._certified_timeline = 0

    def _paranoid_check(self) -> None:
        """Certify the produced history with the offline checker's walk.

        Appending an event leaves all earlier prefixes unchanged, so only
        timeline entries beyond the certified watermark are fed to the
        :class:`~repro.core.reduction.PrefixCertifier` that
        :func:`~repro.core.pred.check_pred` runs.  A native rollback
        rewrites the past (the rolled-back event vanishes from every
        prefix), which discards the certifier — :meth:`_reset_certifier`.
        """
        from time import perf_counter

        from repro.core.reduction import PrefixCertifier

        started = perf_counter()
        if self._certifier is None:
            self._certifier = PrefixCertifier(self.conflicts)
            self._certified_timeline = 0
        certifier = self._certifier
        for index in range(self._certified_timeline, len(self._timeline)):
            kind, payload = self._timeline[index]
            if kind == "activity":
                entry = self._log[payload]  # type: ignore[index]
                if entry.rolled_back:
                    continue  # excluded from the certified history
                event = entry.event
            else:
                event = payload  # type: ignore[assignment]
            certifier.add_process(
                self._managed[event.process_id].instance.process
            )
            result = certifier.observe(event)
            self.perf.certified_prefixes += 1
            if not result.is_reducible:
                raise CorrectnessViolation(
                    f"paranoid check failed: prefix of length "
                    f"{len(result.completed.original)} of the produced "
                    f"history is not reducible ({result})"
                )
        self._certified_timeline = len(self._timeline)
        self.perf.certify_ms += (perf_counter() - started) * 1000.0

    def _wal(self, record: Dict[str, object], force: bool = False) -> None:
        """Log ``record``; ``force`` it when a durable store effect or an
        acknowledged outcome depends on it (DESIGN.md §3b)."""
        if self.wal is None or self._replaying:
            return
        self.wal.append(record, force)
        self._counted()

    def _counted(self) -> None:
        """One more of this scheduler's records toward the checkpoint
        interval."""
        if self.checkpoint_interval is not None:
            self._appends_since_checkpoint += 1
            if self._appends_since_checkpoint >= self.checkpoint_interval:
                self.checkpoint()

    def checkpoint(self) -> Optional[int]:
        """Checkpoint the WAL: snapshot the scan state and compact.

        Folds the retained log into a
        :class:`~repro.subsystems.recovery.WalScanState`, prunes events
        of terminated processes, and writes the snapshot as a
        ``checkpoint`` record that replaces all earlier records.  After
        a crash, recovery's analysis resumes from the snapshot, so
        replay cost is bounded by the distance to the last checkpoint.

        The log is forced and every store flushed and synced first: the
        records compacted away carry the redo of store commits that were
        not installed or not synced yet (DESIGN.md §3b).  A store that
        cannot install its queue raises here, before anything is
        compacted.

        Returns the checkpoint's LSN, or ``None`` when no WAL is
        attached.
        """
        if self.wal is None:
            return None
        # Lazy import: recovery imports this module for the scheduler.
        from repro.subsystems.recovery import analyze_wal

        self.wal.sync()
        for subsystem in self.registry.subsystems():
            subsystem.store.flush()
            subsystem.store.sync()
        state = analyze_wal(self.wal).prune()
        lsn = self.wal.checkpoint(state.to_dict())
        self._appends_since_checkpoint = 0
        self._notify("checkpoint", lsn=lsn)
        return lsn

    # ------------------------------------------------------------------
    # recovery replay
    # ------------------------------------------------------------------

    def begin_replay(self) -> None:
        """Enter replay mode: bookkeeping runs, the WAL stays silent.

        Restart recovery replays surviving pre-crash events through the
        scheduler's normal paths to rebuild conflict state; those
        records are already durable, so logging them again would
        double-count history on the next recovery.
        """
        self._replaying = True
        self._notify("replay_begin")

    def end_replay(self) -> None:
        """Leave replay mode: subsequent events are WAL-logged again."""
        self._replaying = False
        self._notify("replay_end")

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------

    def perf_snapshot(self) -> Dict[str, float]:
        """Perf counters of the incremental core, plus the conflict
        cache statistics."""
        values = self.perf.snapshot()
        values["conflict_lookups"] = self.conflicts.lookups
        values["conflict_cache_hits"] = self.conflicts.cache_hits
        return values

    def counters(self) -> Dict[str, Mapping[str, float]]:
        """Every counter this scheduler keeps, by group: ``perf``,
        ``sched`` (:attr:`stats`), with a log ``wal`` (appends and
        forces) and, with a resilience layer, ``resilience``.  The one snapshot a metrics registry pulls at
        export time and a run's :class:`~repro.sim.metrics.RunMetrics`
        are copied from."""
        groups: Dict[str, Mapping[str, float]] = {
            "perf": self.perf_snapshot(),
            "sched": self.stats,
        }
        if self.wal is not None:
            groups["wal"] = {
                "appends": self.wal.appends, "forces": self.wal.forces
            }
        if self.resilience is not None:
            groups["resilience"] = self.resilience.snapshot()
        return groups

    def add_listener(
        self, listener: Callable[[str, Dict[str, object]], None]
    ) -> None:
        """Subscribe to scheduler events.

        The listener receives ``(kind, payload)`` pairs for:
        ``activity`` (an effectful event was recorded), ``failed`` (an
        invocation aborted), ``deferred`` (a request was postponed),
        ``hardened`` (a 2PC group committed), ``abort_begun`` (a process
        entered recovery, with ``cascade`` flag), ``victim`` (deadlock
        resolution chose a victim), ``terminated`` (a process reached a
        terminal status), plus the overload-layer kinds: ``offered``,
        ``admitted``, ``queued``, ``rejected``, ``shed``, ``draining``,
        ``starved`` and ``livelock``, and the lifecycle kinds
        ``submitted``, ``rolled_back``, ``checkpoint``,
        ``replay_begin`` and ``replay_end``.  The same stream feeds the
        structured trace bus (see :meth:`attach_trace` and
        :mod:`repro.obs`).  Exceptions raised by listeners propagate —
        instrumentation is trusted code.
        """
        self._listeners.append(listener)

    def _notify(self, kind: str, **payload: object) -> None:
        for listener in self._listeners:
            listener(kind, dict(payload))
        trace = self._trace
        if trace is not None and trace.enabled:  # type: ignore[attr-defined]
            trace.emit_payload(kind, payload)  # type: ignore[attr-defined]

    def attach_trace(self, bus: object) -> None:
        """Attach a structured trace bus (see :mod:`repro.obs.bus`).

        Wires the same bus into the WAL, the resilience layer and every
        registered subsystem, so one bus observes the whole stack;
        subsystems auto-provisioned later inherit it.
        """
        self._trace = bus
        if self.wal is not None:
            self.wal.trace = bus
        if self.resilience is not None:
            self.resilience.trace = bus
        for subsystem in self.registry.subsystems():
            subsystem.trace = bus

    @property
    def trace(self) -> Optional[object]:
        """The attached trace bus, if any."""
        return self._trace

    def explain(self, instance_id: str):
        """Why is (or was) ``instance_id`` blocked, rejected or aborted?

        Returns a :class:`repro.obs.explain.Explanation` naming the
        protocol rule that fired (Lemma 1/2/3 rules R2-R7, admission
        policy, breaker, ...) and — for graph-backed rules — the
        concrete conflicting predecessors currently recorded in the
        serialization graph.
        """
        from repro.obs.explain import explain_scheduler

        return explain_scheduler(self, instance_id)

    def conflict_pairs(
        self, instance_id: str, service: str
    ) -> List[Dict[str, object]]:
        """Conflicting predecessors of ``service`` for ``instance_id``.

        One dict per effective conflicting event of another process in
        the serialization graph, with ``process``, ``activity``,
        ``service`` and log ``position`` keys, in log order.
        """
        pairs: List[Dict[str, object]] = []
        for other_pid, position in self._graph_sync().conflicting_events(
            service, instance_id
        ):
            entry = self._log[position]
            pairs.append(
                {
                    "process": other_pid,
                    "activity": entry.event.activity.activity_name,
                    "service": entry.event.conflict_service,
                    "position": position,
                }
            )
        return pairs

    # ------------------------------------------------------------------
    # crash simulation
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Simulate a scheduler crash: volatile state is abandoned.

        Subsystem state (stores, prepared transactions) and the WAL
        survive; the commits stores queued behind the log were memory
        and do not.  Use :func:`repro.subsystems.recovery.recover` to
        bring the system back to a consistent state.
        """
        self._closed = True
        if self.wal is not None:
            for subsystem in self.registry.subsystems():
                if subsystem.store.behind is self.wal:
                    subsystem.store.lose_unflushed()
