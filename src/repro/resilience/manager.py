"""The resilience manager: the scheduler's one-stop failure-handling API.

Combines the invocation policies (:mod:`repro.resilience.policy`) and
the per-service circuit breakers (:mod:`repro.resilience.breaker`) into
the object :class:`~repro.core.scheduler.TransactionalProcessScheduler`
consults around every subsystem invocation:

* :meth:`timeout_for` — the invoker's patience, passed down to
  :meth:`repro.subsystems.subsystem.Subsystem.invoke`;
* :meth:`breaker_allows` — the degradation hook's trigger: an open
  breaker on a preferred activity's service means *switch to the next
  ◁-alternative* instead of burning retries;
* :meth:`on_success` / :meth:`on_failure` — outcome reports that feed
  the breakers and pace retries with backoff (per-process
  ``retry-not-before`` deadlines in virtual time);
* :meth:`ready` / :meth:`next_deadline` — the waiting interface.  The
  plain synchronous scheduler advances the manager's own clock across
  stalls (:meth:`advance_to_next_deadline`); the discrete-event runner
  instead attaches its queue clock (:meth:`attach_clock`) and turns the
  deadlines into wake-up events, so both drivers share one semantics.

Everything is measured in virtual time and the jitter is deterministic,
so resilience behaviour is replayable given the seeds.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

from repro.errors import ServiceTimeout, SubsystemUnavailable
from repro.resilience.breaker import (
    BreakerBoard,
    BreakerConfig,
    BreakerState,
)
from repro.resilience.policy import RetryPolicy

__all__ = ["ResilienceManager"]


class _OwnedClock:
    """Minimal forward-only clock for manager-driven (non-DES) runs.

    Duck-typed compatible with :class:`repro.sim.clock.VirtualClock`
    (kept separate to avoid a core → sim import cycle).
    """

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, time: float) -> None:
        if time < self._now:
            raise ValueError(
                f"virtual time cannot move backwards: {time} < {self._now}"
            )
        self._now = time


class ResilienceManager:
    """Timeouts, retry pacing and circuit breaking for one scheduler."""

    def __init__(
        self,
        policy: Optional[RetryPolicy] = None,
        per_service: Optional[Mapping[str, RetryPolicy]] = None,
        breaker: Optional[BreakerConfig] = None,
        clock=None,
        protected: Optional[Iterable[str]] = None,
    ) -> None:
        self.policy = policy or RetryPolicy()
        self._per_service: Dict[str, RetryPolicy] = dict(per_service or {})
        self.breakers = BreakerBoard(breaker)
        self.clock = clock if clock is not None else _OwnedClock()
        #: When the manager owns its clock it may advance it across
        #: scheduler stalls; an attached (simulation) clock is advanced
        #: by the event queue only.
        self.owns_clock = clock is None
        #: Restrict breaker protection to these services (``None`` =
        #: all).  Retry pacing and timeouts always apply.
        self._protected = frozenset(protected) if protected is not None else None
        #: Per-process virtual time before which no retry is dispatched.
        self._retry_at: Dict[str, float] = {}
        self.counters: Dict[str, int] = {
            "retries": 0,
            "timeouts": 0,
            "unavailable": 0,
            "degradations": 0,
            "retry_budget_exhausted": 0,
        }
        #: Optional structured trace bus (wired by the scheduler's
        #: ``attach_trace``); breaker transitions, retry backoff and
        #: fast-fails are emitted on it.
        self.trace = None

    # -- tracing --------------------------------------------------------------

    _STATE_EVENTS = {
        BreakerState.OPEN: "breaker_open",
        BreakerState.HALF_OPEN: "breaker_half_open",
        BreakerState.CLOSED: "breaker_closed",
    }

    def _emit_transition(
        self, service: str, before: BreakerState, breaker
    ) -> None:
        """Emit a breaker state-transition event (traced runs only)."""
        after = breaker.state
        if after is not before:
            self.trace.emit(
                self._STATE_EVENTS[after],
                service=service,
                previous=before.value,
                reopen_at=getattr(breaker, "reopen_at", 0.0),
            )

    @property
    def _tracing(self) -> bool:
        trace = self.trace
        return trace is not None and trace.enabled

    # -- clock ----------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now

    def attach_clock(self, clock) -> None:
        """Share an externally-driven clock (the DES runner's queue)."""
        self.clock = clock
        self.owns_clock = False

    # -- policy lookup --------------------------------------------------------

    def policy_for(self, service: str) -> RetryPolicy:
        return self._per_service.get(service, self.policy)

    def timeout_for(self, service: str) -> float:
        return self.policy_for(service).timeout

    # -- admission ------------------------------------------------------------

    def ready(self, process_id: str) -> bool:
        """Is the process past its retry-not-before deadline?"""
        return self._retry_at.get(process_id, 0.0) <= self.now

    def breaker_allows(self, service: str) -> bool:
        """Closed/half-open breaker (or unprotected service) → proceed."""
        if self._protected is not None and service not in self._protected:
            return True
        breaker = self.breakers.get(service)
        if not self._tracing:
            return breaker.allow(self.now)
        before = breaker.state
        allowed = breaker.allow(self.now)
        self._emit_transition(service, before, breaker)
        return allowed

    def note_fast_fail(self, process_id: str, service: str) -> None:
        """An open breaker refused the call: wait out the open window."""
        breaker = self.breakers.get(service)
        self._retry_at[process_id] = max(
            self._retry_at.get(process_id, 0.0), breaker.reopen_at
        )
        if self._tracing:
            self.trace.emit(
                "fast_fail",
                process=process_id,
                service=service,
                reopen_at=breaker.reopen_at,
            )

    # -- outcome reports -----------------------------------------------------

    def on_success(self, process_id: str, service: str) -> None:
        breaker = self.breakers.get(service)
        if self._tracing:
            before = breaker.state
            breaker.record_success(self.now)
            self._emit_transition(service, before, breaker)
        else:
            breaker.record_success(self.now)
        self._retry_at.pop(process_id, None)

    def on_failure(
        self,
        process_id: str,
        service: str,
        attempt: int,
        error: Exception,
        will_retry: bool,
    ) -> None:
        """Feed a failed invocation into breakers and retry pacing.

        ``attempt`` is the 1-based attempt that failed; ``will_retry``
        says whether the activity repeats (retriable activities and
        compensations) rather than switching paths or aborting.
        """
        now = self.now
        tracing = self._tracing
        breaker = self.breakers.get(service)
        before = breaker.state if tracing else None
        breaker.record_failure(now)
        if tracing:
            self._emit_transition(service, before, breaker)
        elapsed = getattr(error, "elapsed", 0.0)
        if isinstance(error, ServiceTimeout):
            self.counters["timeouts"] += 1
        elif isinstance(error, SubsystemUnavailable):
            self.counters["unavailable"] += 1
        if will_retry:
            self.counters["retries"] += 1
            policy = self.policy_for(service)
            if policy.exhausted(attempt):
                self.counters["retry_budget_exhausted"] += 1
            delay = policy.backoff_delay(service, attempt)
            self._retry_at[process_id] = now + elapsed + delay
            if tracing:
                self.trace.emit(
                    "retry",
                    process=process_id,
                    service=service,
                    attempt=attempt,
                    delay=delay,
                    not_before=self._retry_at[process_id],
                )
        elif elapsed:
            # Even a path switch pays for the time burnt waiting.
            self._retry_at[process_id] = now + elapsed

    def on_unavailable(
        self,
        process_id: str,
        service: str,
        outage: SubsystemUnavailable,
    ) -> None:
        """A crash-stopped subsystem refused the call.

        Unlike a failed invocation this is *transient*: the activity is
        not failed, the process just waits out the outage (the scheduler
        may degrade to a ◁-alternative instead).  The breaker still
        records the refusal so sibling processes fast-fail or degrade
        without touching the downed subsystem at all.
        """
        now = self.now
        breaker = self.breakers.get(service)
        if self._tracing:
            before = breaker.state
            breaker.record_failure(now)
            self._emit_transition(service, before, breaker)
        else:
            breaker.record_failure(now)
        self.counters["unavailable"] += 1
        self._retry_at[process_id] = max(
            self._retry_at.get(process_id, 0.0),
            now + max(outage.retry_after, 0.0),
        )

    def note_degradation(self, process_id: str, service: str) -> None:
        """The scheduler took a ◁-alternative instead of invoking."""
        self.counters["degradations"] += 1
        self._retry_at.pop(process_id, None)

    # -- waiting --------------------------------------------------------------

    def next_deadline(self) -> Optional[float]:
        """Earliest future time at which blocked work becomes eligible.

        Considers retry-not-before deadlines and open breakers' reopen
        times; ``None`` when nothing is waiting on the clock.
        """
        now = self.now
        deadlines = [t for t in self._retry_at.values() if t > now]
        deadlines.extend(
            breaker.reopen_at
            for breaker in self.breakers.open_breakers()
            if breaker.reopen_at > now
        )
        return min(deadlines) if deadlines else None

    def advance_to_next_deadline(self) -> bool:
        """Jump an owned clock to the next deadline; ``True`` if moved.

        The synchronous scheduler calls this when no instance can
        progress: time passes, backoff windows close, open breakers
        reach their probe time.  A no-op (``False``) when the clock is
        externally driven or nothing is waiting.
        """
        if not self.owns_clock:
            return False
        deadline = self.next_deadline()
        if deadline is None:
            return False
        self.clock.advance_to(deadline)
        return True

    # -- reporting ------------------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        """Counters plus breaker aggregates, for metrics rows."""
        snapshot = dict(self.counters)
        snapshot["breaker_trips"] = self.breakers.trips
        snapshot["breaker_recoveries"] = self.breakers.recoveries
        snapshot["breaker_fast_fails"] = self.breakers.fast_fails
        return snapshot
