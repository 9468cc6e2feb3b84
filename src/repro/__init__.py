"""Transactional process management — concurrency control and recovery.

A complete implementation of Schuldt, Alonso and Schek,
*"Concurrency Control and Recovery in Transactional Process
Management"* (PODS 1999): the flex-based process model with guaranteed
termination, the unified theory of concurrency control and recovery
lifted to processes (completed process schedules, reducibility,
prefix-reducibility, process-recoverability), and an online
transactional process scheduler enforcing PRED constructively on top of
simulated transactional subsystems (local transactions, compensation,
deferred commits via 2PC, write-ahead logging and crash recovery).

Quick start::

    from repro import (
        comp, pivot, retr, seq, choice, build_process,
        TransactionalProcessScheduler, ExplicitConflicts,
    )

    booking = build_process("Trip", seq(
        comp("reserve_flight"),
        pivot("issue_ticket"),
        retr("send_itinerary"),
    ))

    scheduler = TransactionalProcessScheduler(conflicts=ExplicitConflicts())
    scheduler.submit(booking)
    history = scheduler.run()
    assert history.is_serializable()

Sub-packages
------------

``repro.core``
    The paper's theory: process model (Definition 5), well-formed flex
    structures and guaranteed termination (§3.1), process schedules and
    serializability (Definition 7), completed schedules (Definition 8),
    reduction and RED (Definition 9), PRED (Definition 10), Proc-REC
    (Definition 11), and the online scheduler (Lemmas 1-3 as protocol
    rules).
``repro.subsystems``
    The substrate of §2.3: transactional subsystems with atomic service
    invocations, compensation, prepared transactions and 2PC,
    coordination agents for non-transactional applications, write-ahead
    logging and restart recovery.
``repro.baselines``
    Comparison schedulers: serial, conflict-locking (CC-only), flat-ACID
    with restarts, optimistic with commit-time validation.
``repro.resilience``
    Timeouts, bounded retries with deterministic backoff, per-service
    circuit breakers, and the degradation hook that turns an open
    breaker into a proactive switch to the next ◁-alternative.
``repro.sim``
    Discrete-event simulation: virtual time, random well-formed
    workloads, metrics, strong/weak temporal ordering (§3.6).
``repro.scenarios``
    The paper's figures as executable objects, plus CIM (§2),
    e-commerce and travel-booking scenarios.
``repro.analysis``
    Graph utilities, ASCII rendering of processes/schedules, benchmark
    report tables.
"""

import logging as _logging

# Library logging etiquette: the package logger stays silent unless the
# embedding application configures handlers.  Structured observability
# goes through repro.obs (TraceBus and its sinks), not print or ad-hoc
# module logging.
_logging.getLogger("repro").addHandler(_logging.NullHandler())

from repro.core.activity import ActivityDef, ActivityId, ActivityKind, Direction
from repro.core.conflict import (
    AllConflicts,
    ConflictRelation,
    ExplicitConflicts,
    NoConflicts,
    ReadWriteConflicts,
    UnionConflicts,
)
from repro.core.flex import (
    ExecutionPath,
    Outcome,
    build_process,
    choice,
    comp,
    count_valid_executions,
    enumerate_executions,
    is_well_formed,
    parse_flex,
    pivot,
    retr,
    seq,
    simulate,
    state_determining_activity,
)
from repro.core.instance import (
    Completion,
    InstanceStatus,
    ProcessInstance,
    RecoveryState,
)
from repro.core.process import Process, ProcessBuilder
from repro.core.schedule import (
    AbortEvent,
    ActivityEvent,
    CommitEvent,
    GroupAbortEvent,
    ProcessSchedule,
)
from repro.core.completion import CompletedSchedule, complete_schedule
from repro.core.reduction import ReductionResult, is_reducible, reduce_schedule
from repro.core.pred import PredResult, check_pred, is_prefix_reducible
from repro.core.recoverability import (
    ProcRecResult,
    check_process_recoverability,
    is_process_recoverable,
)
from repro.core.scheduler import (
    ManagedStatus,
    SchedulerRules,
    TransactionalProcessScheduler,
)
from repro.errors import (
    CorrectnessViolation,
    InvalidProcessError,
    InvalidScheduleError,
    NotWellFormedError,
    ReproError,
    SchedulerError,
    StorageFault,
    StoreCorruptionError,
    SubsystemError,
    TransactionAborted,
)
from repro.core.serialize import (
    process_from_json,
    process_to_json,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.resilience import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    ResilienceManager,
    RetryPolicy,
)
from repro.subsystems.failures import (
    ChaosPolicy,
    CountedFailures,
    FailurePlan,
    FailurePolicy,
    Fault,
    FaultKind,
    NoFailures,
    ProbabilisticFailures,
)
from repro.subsystems.recovery import (
    RecoveryReport,
    WalScanState,
    analyze_wal,
    recover,
    replay_history,
)
from repro.subsystems.backend import (
    BACKEND_KINDS,
    BackendHub,
    MemoryBackend,
    ProcPoolBackend,
    SqliteBackend,
    StoreBackend,
)
from repro.subsystems.failures import DiskFaultPolicy
from repro.subsystems.repository import ProcessRepository
from repro.subsystems.subsystem import Subsystem, SubsystemRegistry
from repro.subsystems.wal import FileWAL, InMemoryWAL, WriteAheadLog

__version__ = "1.0.0"

__all__ = [
    # activities and processes
    "ActivityDef",
    "ActivityId",
    "ActivityKind",
    "Direction",
    "Process",
    "ProcessBuilder",
    # flex DSL
    "comp",
    "pivot",
    "retr",
    "seq",
    "choice",
    "build_process",
    "parse_flex",
    "is_well_formed",
    "state_determining_activity",
    "simulate",
    "enumerate_executions",
    "count_valid_executions",
    "ExecutionPath",
    "Outcome",
    # runtime instances
    "ProcessInstance",
    "InstanceStatus",
    "RecoveryState",
    "Completion",
    # conflicts
    "ConflictRelation",
    "ExplicitConflicts",
    "ReadWriteConflicts",
    "NoConflicts",
    "AllConflicts",
    "UnionConflicts",
    # schedules and checkers
    "ProcessSchedule",
    "ActivityEvent",
    "CommitEvent",
    "AbortEvent",
    "GroupAbortEvent",
    "CompletedSchedule",
    "complete_schedule",
    "ReductionResult",
    "reduce_schedule",
    "is_reducible",
    "PredResult",
    "check_pred",
    "is_prefix_reducible",
    "ProcRecResult",
    "check_process_recoverability",
    "is_process_recoverable",
    # scheduler
    "TransactionalProcessScheduler",
    "SchedulerRules",
    "ManagedStatus",
    # subsystems
    "Subsystem",
    "SubsystemRegistry",
    "StoreBackend",
    "BackendHub",
    "BACKEND_KINDS",
    "MemoryBackend",
    "SqliteBackend",
    "ProcPoolBackend",
    "DiskFaultPolicy",
    "StorageFault",
    "StoreCorruptionError",
    "FailurePolicy",
    "NoFailures",
    "FailurePlan",
    "CountedFailures",
    "process_to_json",
    "process_from_json",
    "schedule_to_dict",
    "schedule_from_dict",
    "ProbabilisticFailures",
    "InMemoryWAL",
    "FileWAL",
    "WriteAheadLog",
    "WalScanState",
    "analyze_wal",
    "replay_history",
    "recover",
    "RecoveryReport",
    "ProcessRepository",
    # errors
    "ReproError",
    "InvalidProcessError",
    "NotWellFormedError",
    "InvalidScheduleError",
    "SubsystemError",
    "TransactionAborted",
    "SchedulerError",
    "CorrectnessViolation",
]
