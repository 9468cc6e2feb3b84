"""Exception hierarchy for the transactional process management library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so a
caller embedding the scheduler can catch one base class.  The hierarchy
mirrors the layers of the system:

* model errors (malformed processes, illegal schedules),
* subsystem errors (transaction aborts, service failures),
* scheduler errors (correctness violations, deadlock resolution),
* recovery errors (log corruption, unrecoverable state).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


# ---------------------------------------------------------------------------
# Model errors
# ---------------------------------------------------------------------------


class ModelError(ReproError):
    """Base class for errors in the static process/schedule model."""


class InvalidProcessError(ModelError):
    """A process definition violates Definition 5.

    Raised when the precedence order is cyclic, the preference order is
    not total where transitivity demands it, an activity is referenced
    but not declared, or a compensating activity is missing for an
    activity declared compensatable.
    """


class NotWellFormedError(InvalidProcessError):
    """A process does not have well-formed flex structure.

    Only processes with well-formed flex structure enjoy the
    guaranteed-termination property (ZNBB94); the scheduler refuses to
    admit any other process.
    """


class InvalidScheduleError(ModelError):
    """A process schedule violates Definition 7.

    Raised when a schedule orders activities against their process's
    precedence order, interleaves activities of the same process
    illegally, or references activities of processes not in the
    schedule.
    """


class UnknownActivityError(ModelError):
    """An activity id was referenced that is not part of the model."""


class UnknownProcessError(ModelError):
    """A process id was referenced that is not part of the model."""


# ---------------------------------------------------------------------------
# Subsystem errors
# ---------------------------------------------------------------------------


class SubsystemError(ReproError):
    """Base class for errors raised by transactional subsystems."""


class TransactionAborted(SubsystemError):
    """A local transaction in a subsystem terminated with abort.

    This is the normal failure signal of an activity invocation: the
    subsystem guarantees atomicity, so an aborted invocation has no
    effect and may be retried (for retriable activities) or trigger an
    alternative execution path.
    """


class ServiceNotFoundError(SubsystemError):
    """A process invoked a service the subsystem does not provide."""


class NotPreparedError(SubsystemError):
    """Commit or rollback was requested for a transaction that is not
    in the prepared state of the two-phase commit protocol."""


class AlreadyTerminatedError(SubsystemError):
    """An operation was attempted on a transaction that already
    committed or aborted."""


class ServiceTimeout(TransactionAborted):
    """An invocation exceeded its timeout budget and was abandoned.

    Models a hanging or pathologically slow subsystem: the invoker gave
    up waiting, the local transaction was rolled back, and — atomicity —
    no effects remain.  ``elapsed`` is the virtual time the caller spent
    blocked before abandoning the call; the resilience layer charges it
    against the process before scheduling a retry.
    """

    def __init__(self, message: str, elapsed: float = 0.0) -> None:
        super().__init__(message)
        self.elapsed = elapsed


class SubsystemUnavailable(TransactionAborted):
    """The subsystem is crash-stopped and rejects all invocations.

    Injected crash-stop faults take a subsystem down for a stretch of
    virtual time; until it recovers, every invocation fails fast with
    this error.  ``retry_after`` hints how long the outage lasts (the
    circuit breaker makes the hint operational).
    """

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class StorageFault(TransactionAborted):
    """A storage backend operation failed (real or injected disk fault).

    Raised when a store commit cannot be made durable — an fsync
    failure, a dead worker process, a broken sqlite connection.  It is
    a :class:`TransactionAborted`: the backend rolls the write batch
    back before raising, so atomicity holds and the scheduler's normal
    failure handling (retry, alternative path) applies.
    """


class StoreCorruptionError(SubsystemError):
    """A store file failed verification on (re)open.

    The storage analogue of :class:`LogCorruptionError`: a torn write
    or a short read detected when a durable backend reopens its file.
    Typed so harnesses can assert that damage is *detected*, never
    silently served.  ``path`` names the damaged store file.
    """

    def __init__(self, message: str, path: str = "") -> None:
        super().__init__(message)
        self.path = path


# ---------------------------------------------------------------------------
# Scheduler errors
# ---------------------------------------------------------------------------


class SchedulerError(ReproError):
    """Base class for errors raised by process schedulers."""


class CorrectnessViolation(SchedulerError):
    """An execution would violate (or has violated) the PRED criterion.

    Raised by the paranoid-mode scheduler when the online protocol and
    the offline checker disagree, and by baseline schedulers that
    deliberately admit incorrect histories when asked to verify them.

    Harnesses raise it through
    :meth:`repro.sim.certify.GradedRun.ensure`, which attaches a typed
    payload: ``harness`` names the raising harness, ``seed`` its RNG
    seed, ``verdict`` the offline-checker booleans
    (``pred``/``reducible``/``terminated``) and ``details`` any
    harness-specific audit findings.  All fields default empty so
    message-only construction keeps working.
    """

    def __init__(
        self,
        message: str,
        *,
        harness: str = "",
        seed: "int | None" = None,
        verdict: "dict | None" = None,
        details: "dict | None" = None,
    ) -> None:
        super().__init__(message)
        self.harness = harness
        self.seed = seed
        self.verdict = dict(verdict) if verdict else {}
        self.details = dict(details) if details else {}


class ProcessAbortedError(SchedulerError):
    """A process was aborted by the scheduler (e.g. as a deadlock
    victim) and its guaranteed-termination completion was executed."""

    def __init__(self, process_id: str, reason: str = "") -> None:
        self.process_id = process_id
        self.reason = reason
        message = f"process {process_id!r} aborted"
        if reason:
            message = f"{message}: {reason}"
        super().__init__(message)


class SchedulerClosedError(SchedulerError):
    """The scheduler has been shut down and accepts no new work."""


# ---------------------------------------------------------------------------
# Simulation errors
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event simulation."""


class InvalidDelayError(SimulationError, ValueError):
    """An event was scheduled with a negative delay or in the past.

    Virtual time only moves forward; the event queue rejects any
    attempt to schedule behind the clock.  Subclasses ``ValueError``
    for backward compatibility with callers that catch the old type.
    """


# ---------------------------------------------------------------------------
# Observability errors
# ---------------------------------------------------------------------------


class ObservabilityError(ReproError):
    """Base class for errors raised by the observability layer."""


class TraceFormatError(ObservabilityError):
    """An exported trace file could not be parsed or fails the schema.

    Raised by the trace loaders (:func:`repro.obs.export.read_trace`)
    when a JSONL trace contains a line that is not valid JSON, is not a
    trace record object, or violates the event schema.  ``line`` is the
    1-based line number of the offending record when known.
    """

    def __init__(self, message: str, line: "int | None" = None) -> None:
        super().__init__(message)
        self.line = line


# ---------------------------------------------------------------------------
# Recovery errors
# ---------------------------------------------------------------------------


class RecoveryError(ReproError):
    """Base class for crash-recovery errors."""


class LogCorruptionError(RecoveryError):
    """The write-ahead log could not be parsed during restart.

    Raised for *mid-log* corruption only — a checksum mismatch, torn
    record or malformed line that is followed by further intact records
    cannot be explained by a crash during the last append, so the log
    is genuinely damaged and recovery must not guess.  A corrupt *tail*
    record is instead salvaged (truncated) by the WAL's torn-tail
    policy, because a crash mid-append produces exactly that shape.

    ``lsn`` is the sequence number of the record that failed to load
    (``None`` when it could not be determined) and ``offset`` the byte
    offset of the record's line in the log file.
    """

    def __init__(
        self,
        message: str,
        lsn: "int | None" = None,
        offset: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.lsn = lsn
        self.offset = offset


class UnrecoverableStateError(RecoveryError):
    """Restart recovery could not complete the group abort.

    By guaranteed termination this cannot happen for well-formed
    processes; it indicates a bug or a non-well-formed process admitted
    with validation disabled.
    """
