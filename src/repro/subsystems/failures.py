"""Failure injection for activities and schedulers.

The theory rests on activities that may abort (Definitions 3-4) and on
schedulers that may crash mid-schedule (motivating completed schedules
and group aborts).  This module provides deterministic and seeded
failure policies used by tests, examples and the simulation workloads:

* :class:`FailurePlan` — deterministic per-invocation outcomes, built
  with :meth:`FailurePlan.fail_once` / :meth:`FailurePlan.fail_times`;
* :class:`ProbabilisticFailures` — seeded random aborts with a
  configurable rate per service;
* :class:`ChaosPolicy` — seeded mixed faults beyond plain aborts:
  latency spikes, hang-until-timeout and crash-stop outages, the
  failure classes the resilience layer defends against;
* :class:`NoFailures` — the happy path.

A policy is consulted by :meth:`repro.subsystems.subsystem.Subsystem.invoke`
with the service name and the 1-based attempt number and answers with a
:class:`Fault` (or ``None`` for success).  Abort-only policies keep the
boolean :meth:`FailurePolicy.should_fail` interface; the default
:meth:`FailurePolicy.fault_for` lifts it into the fault model.

Retriable activities eventually succeed under any policy with bounded
failures; the seeded policies cap *consecutive* failures per service to
honour Definition 3's guarantee (some invocation ``m`` commits).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

__all__ = [
    "FaultKind",
    "Fault",
    "FailurePolicy",
    "NoFailures",
    "FailurePlan",
    "CountedFailures",
    "ProbabilisticFailures",
    "ChaosPolicy",
    "DiskFaultPolicy",
]


class FaultKind(enum.Enum):
    """Failure classes a subsystem invocation can suffer."""

    #: The local transaction aborts immediately (the paper's model).
    ABORT = "abort"
    #: The invocation succeeds but takes ``duration`` extra virtual
    #: time; if the extra time reaches the invoker's timeout the call is
    #: abandoned instead (surfacing as :class:`~repro.errors.ServiceTimeout`).
    LATENCY = "latency"
    #: The invocation blocks until the invoker's timeout fires.
    HANG = "hang"
    #: The subsystem crash-stops for ``duration`` virtual time; every
    #: invocation during the outage fails fast.
    CRASH = "crash"


@dataclass(frozen=True)
class Fault:
    """One injected fault: its kind and (where relevant) a duration."""

    kind: FaultKind
    duration: float = 0.0

    @classmethod
    def abort(cls) -> "Fault":
        return cls(FaultKind.ABORT)


class FailurePolicy:
    """Decides whether (and how) a given invocation attempt fails."""

    def should_fail(self, service: str, attempt: int) -> bool:
        raise NotImplementedError

    def fault_for(self, service: str, attempt: int) -> Optional[Fault]:
        """The fault injected into this attempt, or ``None`` for success.

        The default lifts the boolean abort decision into the fault
        model, so plain abort policies need only ``should_fail``.
        """
        if self.should_fail(service, attempt):
            return Fault.abort()
        return None

    def __call__(self, service: str, attempt: int) -> bool:
        return self.should_fail(service, attempt)


class NoFailures(FailurePolicy):
    """Every invocation succeeds."""

    def should_fail(self, service: str, attempt: int) -> bool:
        return False


class FailurePlan(FailurePolicy):
    """Deterministic failure plan: service → number of failing attempts.

    ``FailurePlan.fail_once(["test_part"])`` makes the first invocation
    of ``test_part`` abort and all later attempts succeed — the standard
    way to trigger an alternative execution path in tests and examples.
    """

    def __init__(self, failing_attempts: Optional[Dict[str, int]] = None) -> None:
        self._failing_attempts = dict(failing_attempts or {})

    @classmethod
    def fail_once(cls, services: Iterable[str]) -> "FailurePlan":
        return cls({service: 1 for service in services})

    @classmethod
    def fail_times(cls, service: str, times: int) -> "FailurePlan":
        return cls({service: times})

    def merge(self, other: "FailurePlan") -> "FailurePlan":
        combined = dict(self._failing_attempts)
        combined.update(other._failing_attempts)
        return FailurePlan(combined)

    def should_fail(self, service: str, attempt: int) -> bool:
        return attempt <= self._failing_attempts.get(service, 0)


class CountedFailures(FailurePolicy):
    """Fail the first ``n`` invocations of a service, counted globally.

    Unlike :class:`FailurePlan`, which keys on the per-action attempt
    number (and therefore resets when a baseline restarts a process as
    a fresh instance), this policy counts every consultation across all
    instances — the right model for "the test rig is down for the first
    N runs" scenarios used by the restart baselines.
    """

    def __init__(self, failures_left: Optional[Dict[str, int]] = None) -> None:
        self._left = dict(failures_left or {})

    def should_fail(self, service: str, attempt: int) -> bool:
        remaining = self._left.get(service, 0)
        if remaining > 0:
            self._left[service] = remaining - 1
            return True
        return False


class ProbabilisticFailures(FailurePolicy):
    """Seeded random aborts with per-service rates.

    ``rate`` applies to every service unless overridden in ``rates``.
    ``max_consecutive`` bounds consecutive failures of the same service
    — enforced both per invocation (via the caller's attempt counter)
    and per service across invocations (via an internal consecutive
    counter), so retriable activities terminate (Definition 3: some
    invocation ``m`` is guaranteed to commit) even when the driver
    restarts an instance and its attempt numbering from scratch.
    """

    def __init__(
        self,
        rate: float = 0.0,
        rates: Optional[Dict[str, float]] = None,
        seed: int = 0,
        max_consecutive: int = 8,
    ) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"failure rate must be in [0, 1), got {rate}")
        self._rate = rate
        self._rates = dict(rates or {})
        self._rng = random.Random(seed)
        self._max_consecutive = max_consecutive
        #: Per-service run of failures this policy has reported without
        #: an intervening success.
        self._consecutive: Dict[str, int] = {}

    def should_fail(self, service: str, attempt: int) -> bool:
        if attempt > self._max_consecutive:
            # Per-invocation guarantee: attempt m = max_consecutive + 1
            # always commits, whatever the dice say.
            self._consecutive[service] = 0
            return False
        if self._consecutive.get(service, 0) >= self._max_consecutive:
            # Per-service guarantee: a service that just failed
            # max_consecutive times in a row must succeed next, even if
            # the caller's attempt counter was reset (e.g. a restart
            # baseline re-running the process as a fresh instance).
            self._consecutive[service] = 0
            return False
        rate = self._rates.get(service, self._rate)
        if self._rng.random() < rate:
            self._consecutive[service] = self._consecutive.get(service, 0) + 1
            return True
        self._consecutive[service] = 0
        return False


class DiskFaultPolicy:
    """Injectable disk faults for durable store backends.

    Consumed by :class:`~repro.subsystems.backend.SqliteBackend` and the
    procpool backend, always in the calling process (the policy is
    never shipped to the storage worker).  Two fault shapes, both armed
    explicitly so torture harnesses stay deterministic:

    * **fsync failure** — the next ``fail_fsync`` commit attempts raise
      :class:`~repro.errors.StorageFault` before the write batch begins
      (the disk refused to make the commit durable; no effects remain).
      Bounded by construction, so guaranteed termination survives the
      injection.
    * **short read** — the next reopen's header verification sees fewer
      bytes than it asked for (a truncated or still-syncing file) and
      must raise :class:`~repro.errors.StoreCorruptionError` instead of
      serving a partial view.

    A torn write is damage to a closed file, not a fault of a live
    store: :func:`~repro.subsystems.backend.tear_file` inflicts it.

    ``suspended`` gates injection off during protected operations:
    phase-2 commits of already-decided 2PC groups model the
    retry-until-the-disk-heals loop of real log managers, so injected
    fsync failures never target them.
    """

    def __init__(self, fail_fsync: int = 0, short_read: bool = False) -> None:
        if fail_fsync < 0:
            raise ValueError("fail_fsync must be >= 0")
        self.fail_fsync = fail_fsync
        self.short_read = short_read
        self.suspended = False
        #: Faults actually delivered, by shape (harness statistics).
        self.delivered: Dict[str, int] = {"fsync": 0, "short_read": 0}

    # -- consumption (called by backends) ---------------------------------

    def take_fsync_failure(self) -> bool:
        """Consume one armed fsync failure, if any."""
        if self.suspended or self.fail_fsync <= 0:
            return False
        self.fail_fsync -= 1
        self.delivered["fsync"] += 1
        return True

    def take_short_read(self) -> bool:
        """Consume one armed short read, if any."""
        if not self.short_read:
            return False
        self.short_read = False
        self.delivered["short_read"] += 1
        return True

    @property
    def total_delivered(self) -> int:
        return sum(self.delivered.values())


class ChaosPolicy(FailurePolicy):
    """Seeded mixed-fault injection: aborts, latency, hangs, crashes.

    Each attempt draws one fault kind with the configured rates (their
    sum must stay below 1; the remainder is the success probability).
    Durations are drawn uniformly from the configured spans.  Everything
    is deterministic given the seed, so chaos runs are replayable.

    ``max_consecutive`` caps the run of consecutive faults per service
    — every fault kind counts, including latency spikes (which may
    exceed the invoker's timeout and fail the call) — preserving the
    bounded-failure assumption guaranteed termination rests on.

    ``services`` restricts injection to the listed services (``None``
    targets all).  ``injected`` counts the faults actually delivered,
    by kind, for the chaos harness's statistics.
    """

    def __init__(
        self,
        abort_rate: float = 0.0,
        latency_rate: float = 0.0,
        hang_rate: float = 0.0,
        crash_rate: float = 0.0,
        latency_span: Tuple[float, float] = (1.0, 4.0),
        hang_duration: float = 6.0,
        crash_span: Tuple[float, float] = (4.0, 10.0),
        seed: int = 0,
        max_consecutive: int = 5,
        services: Optional[Iterable[str]] = None,
    ) -> None:
        rates = (abort_rate, latency_rate, hang_rate, crash_rate)
        if any(rate < 0.0 for rate in rates) or sum(rates) >= 1.0:
            raise ValueError(
                f"fault rates must be non-negative and sum below 1, "
                f"got {rates}"
            )
        self._abort_rate = abort_rate
        self._latency_rate = latency_rate
        self._hang_rate = hang_rate
        self._crash_rate = crash_rate
        self._latency_span = latency_span
        self._hang_duration = hang_duration
        self._crash_span = crash_span
        self._rng = random.Random(seed)
        self._max_consecutive = max_consecutive
        self._services = frozenset(services) if services is not None else None
        self._consecutive: Dict[str, int] = {}
        self.injected: Dict[str, int] = {
            kind.value: 0 for kind in FaultKind
        }

    def fault_for(self, service: str, attempt: int) -> Optional[Fault]:
        if self._services is not None and service not in self._services:
            return None
        if self._consecutive.get(service, 0) >= self._max_consecutive:
            self._consecutive[service] = 0
            return None
        draw = self._rng.random()
        fault: Optional[Fault] = None
        threshold = self._abort_rate
        if draw < threshold:
            fault = Fault(FaultKind.ABORT)
        elif draw < (threshold := threshold + self._latency_rate):
            low, high = self._latency_span
            fault = Fault(FaultKind.LATENCY, self._rng.uniform(low, high))
        elif draw < (threshold := threshold + self._hang_rate):
            fault = Fault(FaultKind.HANG, self._hang_duration)
        elif draw < threshold + self._crash_rate:
            low, high = self._crash_span
            fault = Fault(FaultKind.CRASH, self._rng.uniform(low, high))
        if fault is None:
            self._consecutive[service] = 0
            return None
        self._consecutive[service] = self._consecutive.get(service, 0) + 1
        self.injected[fault.kind.value] += 1
        return fault

    def should_fail(self, service: str, attempt: int) -> bool:
        """Boolean view (consumes one draw — prefer :meth:`fault_for`)."""
        return self.fault_for(service, attempt) is not None

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())
