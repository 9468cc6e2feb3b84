"""Per-service circuit breakers.

A :class:`CircuitBreaker` is the classic closed / open / half-open
state machine over *virtual* time:

* **closed** — calls flow; consecutive failures are counted and reset
  on success.  Reaching ``failure_threshold`` trips the breaker.
* **open** — calls are refused without touching the subsystem; after
  ``reset_timeout`` virtual time the next request is admitted as a
  probe (the breaker moves to half-open).
* **half-open** — probes flow; ``success_threshold`` consecutive
  successes close the breaker (a *recovery*), any failure re-opens it.

The scheduler consumes breaker state through its degradation hook: an
open breaker on a preferred activity's service makes the PRED scheduler
switch to the next ◁-alternative instead of burning the retry budget
against a subsystem that is known to be down.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

__all__ = ["BreakerState", "BreakerConfig", "CircuitBreaker", "BreakerBoard"]


class BreakerState(enum.Enum):
    """Lifecycle of one circuit breaker."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning knobs shared by the breakers of one board."""

    #: Consecutive failures that trip a closed breaker.
    failure_threshold: int = 3
    #: Virtual time an open breaker refuses calls before probing.
    reset_timeout: float = 10.0
    #: Consecutive half-open successes that close the breaker.
    success_threshold: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be at least 1, "
                f"got {self.failure_threshold}"
            )
        if self.reset_timeout < 0:
            raise ValueError(
                f"reset_timeout must be non-negative, got {self.reset_timeout}"
            )
        if self.success_threshold < 1:
            raise ValueError(
                f"success_threshold must be at least 1, "
                f"got {self.success_threshold}"
            )


class CircuitBreaker:
    """Failure-counting state machine guarding one service."""

    def __init__(self, service: str, config: Optional[BreakerConfig] = None):
        self.service = service
        self.config = config or BreakerConfig()
        self.state = BreakerState.CLOSED
        self._failures = 0
        self._half_open_successes = 0
        #: Virtual time at which an open breaker admits a probe.
        self.reopen_at = 0.0
        #: Lifetime counters (surfaced by the chaos harness).
        self.trips = 0
        self.recoveries = 0
        self.fast_fails = 0

    # -- queries ---------------------------------------------------------------

    def allow(self, now: float) -> bool:
        """May a call to the service proceed at virtual time ``now``?

        Moves an expired open breaker to half-open (the caller's request
        becomes the probe).  Counts refused calls in ``fast_fails``.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now >= self.reopen_at:
                self.state = BreakerState.HALF_OPEN
                self._half_open_successes = 0
                return True
            self.fast_fails += 1
            return False
        return True  # HALF_OPEN: probes flow (sequential world)

    # -- outcome reports -----------------------------------------------------

    def record_success(self, now: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._half_open_successes += 1
            if self._half_open_successes >= self.config.success_threshold:
                self.state = BreakerState.CLOSED
                self._failures = 0
                self.recoveries += 1
            return
        self._failures = 0

    def record_failure(self, now: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._trip(now)
            return
        self._failures += 1
        if (
            self.state is BreakerState.CLOSED
            and self._failures >= self.config.failure_threshold
        ):
            self._trip(now)

    def _trip(self, now: float) -> None:
        self.state = BreakerState.OPEN
        self.reopen_at = now + self.config.reset_timeout
        self._failures = 0
        self._half_open_successes = 0
        self.trips += 1


class BreakerBoard:
    """Lazily-created breaker per service, with aggregate counters."""

    def __init__(self, config: Optional[BreakerConfig] = None) -> None:
        self.config = config or BreakerConfig()
        self._breakers: Dict[str, CircuitBreaker] = {}

    def get(self, service: str) -> CircuitBreaker:
        breaker = self._breakers.get(service)
        if breaker is None:
            breaker = CircuitBreaker(service, self.config)
            self._breakers[service] = breaker
        return breaker

    def __len__(self) -> int:
        return len(self._breakers)

    @property
    def trips(self) -> int:
        return sum(breaker.trips for breaker in self._breakers.values())

    @property
    def recoveries(self) -> int:
        return sum(breaker.recoveries for breaker in self._breakers.values())

    @property
    def fast_fails(self) -> int:
        return sum(breaker.fast_fails for breaker in self._breakers.values())

    def open_breakers(self) -> Iterator[CircuitBreaker]:
        for breaker in self._breakers.values():
            if breaker.state is BreakerState.OPEN:
                yield breaker

    def states(self) -> Dict[str, str]:
        """service -> state value, for diagnostics and tests."""
        return {
            service: breaker.state.value
            for service, breaker in self._breakers.items()
        }
