"""Unit tests for the resilience layer: policies, breakers, manager."""

import pytest

from repro.errors import ServiceTimeout, SubsystemUnavailable
from repro.resilience import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    ResilienceManager,
    RetryPolicy,
)
from repro.resilience.breaker import BreakerBoard
from repro.resilience.policy import deterministic_jitter


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, jitter=0.0)
        delays = [policy.backoff_delay("svc", a) for a in (1, 2, 3)]
        assert delays == [1.0, 2.0, 4.0]

    def test_backoff_capped_at_max_delay(self):
        policy = RetryPolicy(
            base_delay=1.0, multiplier=10.0, max_delay=5.0, jitter=0.0
        )
        assert policy.backoff_delay("svc", 4) == 5.0

    def test_jitter_bounded_and_deterministic(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, jitter=0.5, seed=3)
        first = policy.backoff_delay("svc", 1)
        assert 0.5 <= first <= 1.5
        assert first == policy.backoff_delay("svc", 1)
        # Different (service, attempt) keys draw different jitter.
        assert first != policy.backoff_delay("other", 1) or first != policy.backoff_delay("svc", 2)

    def test_jitter_varies_with_seed(self):
        a = RetryPolicy(jitter=0.5, seed=1).backoff_delay("svc", 1)
        b = RetryPolicy(jitter=0.5, seed=2).backoff_delay("svc", 1)
        assert a != b

    def test_deterministic_jitter_unit_interval(self):
        values = [
            deterministic_jitter(seed, "svc", attempt)
            for seed in range(5)
            for attempt in range(1, 5)
        ]
        assert all(0.0 <= value < 1.0 for value in values)
        assert len(set(values)) > 1

    def test_exhausted(self):
        policy = RetryPolicy(max_attempts=3)
        assert not policy.exhausted(2)
        assert policy.exhausted(3)
        assert policy.exhausted(4)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestCircuitBreaker:
    def make(self, threshold=2, reset=10.0):
        return CircuitBreaker(
            "svc",
            BreakerConfig(failure_threshold=threshold, reset_timeout=reset),
        )

    def test_starts_closed_and_allows(self):
        breaker = self.make()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(0.0)

    def test_opens_at_failure_threshold(self):
        breaker = self.make(threshold=2)
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(1.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1
        assert breaker.reopen_at == 11.0

    def test_open_fast_fails_until_reset(self):
        breaker = self.make(threshold=1, reset=5.0)
        breaker.record_failure(0.0)
        assert not breaker.allow(4.9)
        assert breaker.fast_fails == 1

    def test_half_open_probe_after_reset(self):
        breaker = self.make(threshold=1, reset=5.0)
        breaker.record_failure(0.0)
        assert breaker.allow(5.0)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_success_closes(self):
        breaker = self.make(threshold=1, reset=5.0)
        breaker.record_failure(0.0)
        breaker.allow(5.0)
        breaker.record_success(5.5)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.recoveries == 1

    def test_half_open_failure_reopens(self):
        breaker = self.make(threshold=1, reset=5.0)
        breaker.record_failure(0.0)
        breaker.allow(5.0)
        breaker.record_failure(5.5)
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2
        assert breaker.reopen_at == 10.5

    def test_success_resets_failure_count(self):
        breaker = self.make(threshold=2)
        breaker.record_failure(0.0)
        breaker.record_success(1.0)
        breaker.record_failure(2.0)
        assert breaker.state is BreakerState.CLOSED

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(reset_timeout=-1.0)


class TestBreakerBoard:
    def test_lazy_per_service_breakers(self):
        board = BreakerBoard(BreakerConfig(failure_threshold=1))
        first = board.get("a")
        assert board.get("a") is first
        assert board.get("b") is not first

    def test_aggregates(self):
        board = BreakerBoard(BreakerConfig(failure_threshold=1, reset_timeout=5.0))
        board.get("a").record_failure(0.0)
        board.get("b").record_failure(0.0)
        board.get("a").allow(1.0)  # fast fail
        assert board.trips == 2
        assert board.fast_fails == 1
        assert {b.service for b in board.open_breakers()} == {"a", "b"}
        assert board.states() == {"a": "open", "b": "open"}


class TestResilienceManager:
    def make(self, **kwargs):
        defaults = dict(
            policy=RetryPolicy(
                timeout=4.0,
                max_attempts=3,
                base_delay=1.0,
                multiplier=2.0,
                jitter=0.0,
            ),
            breaker=BreakerConfig(failure_threshold=2, reset_timeout=10.0),
        )
        defaults.update(kwargs)
        return ResilienceManager(**defaults)

    def test_failure_paces_retries_with_backoff(self):
        manager = self.make()
        manager.on_failure("P", "svc", 1, Exception("boom"), will_retry=True)
        assert not manager.ready("P")
        assert manager.next_deadline() == 1.0
        manager.clock.advance_to(1.0)
        assert manager.ready("P")

    def test_timeout_elapsed_adds_to_deadline(self):
        manager = self.make()
        error = ServiceTimeout("slow", elapsed=4.0)
        manager.on_failure("P", "svc", 1, error, will_retry=True)
        assert manager.counters["timeouts"] == 1
        assert manager.next_deadline() == 5.0  # elapsed + backoff

    def test_success_clears_pacing(self):
        manager = self.make()
        manager.on_failure("P", "svc", 1, Exception("boom"), will_retry=True)
        manager.on_success("P", "svc")
        assert manager.ready("P")
        assert manager.next_deadline() is None

    def test_breaker_opens_after_threshold_failures(self):
        manager = self.make()
        for attempt in (1, 2):
            manager.on_failure("P", "svc", attempt, Exception(), will_retry=False)
        assert not manager.breaker_allows("svc")
        assert manager.snapshot()["breaker_trips"] == 1

    def test_fast_fail_waits_out_open_window(self):
        manager = self.make()
        for attempt in (1, 2):
            manager.on_failure("P", "svc", attempt, Exception(), will_retry=False)
        manager.note_fast_fail("Q", "svc")
        assert not manager.ready("Q")
        assert manager.next_deadline() == 10.0

    def test_on_unavailable_waits_for_recovery(self):
        manager = self.make()
        outage = SubsystemUnavailable("down", retry_after=7.0)
        manager.on_unavailable("P", "svc", outage)
        assert manager.counters["unavailable"] == 1
        assert not manager.ready("P")
        assert manager.next_deadline() == 7.0

    def test_advance_to_next_deadline_owned_clock(self):
        manager = self.make()
        manager.on_failure("P", "svc", 1, Exception(), will_retry=True)
        assert manager.advance_to_next_deadline()
        assert manager.now == 1.0
        assert manager.ready("P")

    def test_attached_clock_is_never_self_advanced(self):
        from repro.sim.clock import VirtualClock

        clock = VirtualClock()
        manager = self.make()
        manager.attach_clock(clock)
        manager.on_failure("P", "svc", 1, Exception(), will_retry=True)
        assert not manager.advance_to_next_deadline()
        assert clock.now == 0.0

    def test_degradation_counter_and_unblock(self):
        manager = self.make()
        manager.on_failure("P", "svc", 1, Exception(), will_retry=True)
        manager.note_degradation("P", "svc")
        assert manager.counters["degradations"] == 1
        assert manager.ready("P")

    def test_retry_budget_exhaustion_counted(self):
        manager = self.make()
        manager.on_failure("P", "svc", 3, Exception(), will_retry=True)
        assert manager.counters["retry_budget_exhausted"] == 1

    def test_snapshot_merges_breaker_aggregates(self):
        manager = self.make()
        snapshot = manager.snapshot()
        assert {
            "retries",
            "timeouts",
            "unavailable",
            "degradations",
            "breaker_trips",
            "breaker_recoveries",
            "breaker_fast_fails",
        } <= set(snapshot)


class TestHalfOpenFlaps:
    """Half-open flapping: probe failures re-open, partial probe
    successes never close early, and repeated open -> half-open ->
    open cycles keep every counter honest."""

    def make(self, reset=5.0, successes=2):
        return CircuitBreaker(
            "svc",
            BreakerConfig(
                failure_threshold=1,
                reset_timeout=reset,
                success_threshold=successes,
            ),
        )

    def test_success_threshold_requires_consecutive_successes(self):
        breaker = self.make(successes=2)
        breaker.record_failure(0.0)
        assert breaker.allow(5.0)  # probe admitted -> half-open
        breaker.record_success(5.5)
        assert breaker.state is BreakerState.HALF_OPEN  # 1/2 successes
        assert breaker.recoveries == 0
        breaker.record_success(6.0)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.recoveries == 1

    def test_interleaved_probe_success_then_failure_reopens(self):
        breaker = self.make(successes=2)
        breaker.record_failure(0.0)
        breaker.allow(5.0)
        breaker.record_success(5.5)       # halfway to recovery...
        breaker.record_failure(6.0)       # ...and the probe flaps
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2
        assert breaker.recoveries == 0
        assert breaker.reopen_at == 11.0  # fresh full open window

    def test_partial_successes_do_not_carry_across_reopen(self):
        breaker = self.make(successes=2)
        breaker.record_failure(0.0)
        breaker.allow(5.0)
        breaker.record_success(5.5)   # 1/2
        breaker.record_failure(6.0)   # re-open resets the streak
        breaker.allow(11.0)           # half-open again
        breaker.record_success(11.5)  # must start over at 1/2
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success(12.0)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.trips == 2
        assert breaker.recoveries == 1

    def test_repeated_flap_cycle_counts_every_trip(self):
        breaker = self.make(successes=1, reset=2.0)
        now = 0.0
        breaker.record_failure(now)
        for cycle in range(3):
            now = breaker.reopen_at
            assert breaker.allow(now)  # half-open probe
            breaker.record_failure(now)  # probe fails -> re-open
            assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 4  # initial + 3 flaps
        assert breaker.recoveries == 0

    def test_open_window_fast_fails_between_flaps(self):
        breaker = self.make(successes=1, reset=4.0)
        breaker.record_failure(0.0)
        assert not breaker.allow(1.0)
        assert not breaker.allow(3.9)
        assert breaker.fast_fails == 2
        assert breaker.allow(4.0)
        breaker.record_failure(4.5)
        assert not breaker.allow(5.0)  # new window: 4.5 + 4.0
        assert breaker.fast_fails == 3

    def test_board_aggregates_flap_counters(self):
        board = BreakerBoard(
            BreakerConfig(
                failure_threshold=1, reset_timeout=2.0, success_threshold=2
            )
        )
        breaker = board.get("svc")
        breaker.record_failure(0.0)
        breaker.allow(2.0)
        breaker.record_success(2.5)
        breaker.record_failure(3.0)  # flap
        breaker.allow(5.0)
        breaker.record_success(5.5)
        breaker.record_success(6.0)  # recovery
        assert board.trips == 2
        assert board.recoveries == 1
        assert board.states() == {"svc": "closed"}
