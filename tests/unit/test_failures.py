"""Unit tests for failure-injection policies (Definitions 3-4 support)."""

import pytest

from repro.subsystems.failures import (
    ChaosPolicy,
    FailurePlan,
    Fault,
    FaultKind,
    NoFailures,
    ProbabilisticFailures,
)


class TestNoFailures:
    def test_never_fails(self):
        policy = NoFailures()
        assert not policy.should_fail("anything", 1)


class TestFailurePlan:
    def test_fail_once(self):
        policy = FailurePlan.fail_once(["svc"])
        assert policy.should_fail("svc", 1)
        assert not policy.should_fail("svc", 2)
        assert not policy.should_fail("other", 1)

    def test_fail_times(self):
        policy = FailurePlan.fail_times("svc", 3)
        assert all(policy.should_fail("svc", attempt) for attempt in (1, 2, 3))
        assert not policy.should_fail("svc", 4)

    def test_merge(self):
        merged = FailurePlan.fail_once(["a"]).merge(FailurePlan.fail_times("b", 2))
        assert merged.should_fail("a", 1)
        assert merged.should_fail("b", 2)
        assert not merged.should_fail("a", 2)

    def test_merge_overrides(self):
        merged = FailurePlan.fail_times("a", 5).merge(FailurePlan.fail_once(["a"]))
        assert not merged.should_fail("a", 2)


class TestProbabilisticFailures:
    def test_zero_rate_never_fails(self):
        policy = ProbabilisticFailures(rate=0.0, seed=1)
        assert not any(policy.should_fail("svc", 1) for _ in range(50))

    def test_high_rate_fails_often(self):
        policy = ProbabilisticFailures(rate=0.9, seed=1)
        failures = sum(policy.should_fail("svc", 1) for _ in range(100))
        assert failures > 70

    def test_deterministic_given_seed(self):
        a = [ProbabilisticFailures(rate=0.5, seed=7).should_fail("s", 1) for _ in range(1)]
        b = [ProbabilisticFailures(rate=0.5, seed=7).should_fail("s", 1) for _ in range(1)]
        assert a == b

    def test_per_service_rates(self):
        policy = ProbabilisticFailures(rate=0.0, rates={"flaky": 1.0 - 1e-9}, seed=3)
        assert policy.should_fail("flaky", 1)
        assert not policy.should_fail("solid", 1)

    def test_max_consecutive_guarantees_definition3(self):
        """Some invocation m is guaranteed to commit (Definition 3)."""
        policy = ProbabilisticFailures(rate=0.99, seed=5, max_consecutive=4)
        assert not policy.should_fail("svc", 5)
        assert not policy.should_fail("svc", 100)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            ProbabilisticFailures(rate=1.0)
        with pytest.raises(ValueError):
            ProbabilisticFailures(rate=-0.1)

    def test_consecutive_cap_is_per_service(self):
        """Regression: the cap is per (service, invocation), not global.

        Interleaved failures of one service must not consume another
        service's consecutive-failure budget — with a global counter,
        heavy traffic on one flaky service would mark *other* services
        as "must succeed now", breaking the seeded failure model; and
        conversely a global reset on any success would let one service
        fail unboundedly, violating Definition 3.
        """
        policy = ProbabilisticFailures(rate=0.999, seed=11, max_consecutive=3)
        runs = {"a": 0, "b": 0}
        longest = {"a": 0, "b": 0}
        for attempt in range(1, 4):
            for service in ("a", "b"):
                if policy.should_fail(service, attempt):
                    runs[service] += 1
                    longest[service] = max(longest[service], runs[service])
                else:
                    runs[service] = 0
        # Both services fail up to (and independently reach) the cap.
        assert longest["a"] == 3
        assert longest["b"] == 3

    def test_retriable_activity_terminates_after_attempt_reset(self):
        """Definition 3 survives drivers that restart attempt numbering.

        A restart baseline re-submits the process as a fresh instance,
        so the per-action ``attempt`` counter starts back at 1.  The
        per-service consecutive counter must still force a success after
        ``max_consecutive`` failures in a row — otherwise a retriable
        activity under a near-1 failure rate never commits and the
        process never terminates.
        """
        policy = ProbabilisticFailures(rate=0.999, seed=5, max_consecutive=4)
        consecutive = 0
        committed = False
        for _ in range(16):
            # Attempt is always 1: the driver restarts every time.
            if policy.should_fail("svc", 1):
                consecutive += 1
                assert consecutive <= 4
            else:
                committed = True
                break
        assert committed


class TestChaosPolicy:
    def test_rates_must_sum_below_one(self):
        with pytest.raises(ValueError):
            ChaosPolicy(abort_rate=0.5, latency_rate=0.5)
        with pytest.raises(ValueError):
            ChaosPolicy(abort_rate=-0.1)

    def test_zero_rates_inject_nothing(self):
        policy = ChaosPolicy(seed=1)
        assert all(policy.fault_for("svc", 1) is None for _ in range(50))
        assert policy.total_injected == 0

    def test_deterministic_given_seed(self):
        def draws(seed):
            policy = ChaosPolicy(
                abort_rate=0.2, latency_rate=0.2, hang_rate=0.2,
                crash_rate=0.2, seed=seed,
            )
            return [policy.fault_for("svc", a % 4 + 1) for a in range(40)]

        assert draws(9) == draws(9)

    def test_all_fault_kinds_drawn(self):
        policy = ChaosPolicy(
            abort_rate=0.2, latency_rate=0.2, hang_rate=0.2,
            crash_rate=0.2, seed=3, max_consecutive=100,
        )
        for _ in range(300):
            policy.fault_for("svc", 1)
        assert all(policy.injected[kind.value] > 0 for kind in FaultKind)

    def test_durations_drawn_from_spans(self):
        policy = ChaosPolicy(
            latency_rate=0.45, crash_rate=0.45, seed=2,
            latency_span=(1.0, 2.0), crash_span=(5.0, 6.0),
            hang_duration=9.0, max_consecutive=1000,
        )
        for _ in range(200):
            fault = policy.fault_for("svc", 1)
            if fault is None:
                continue
            if fault.kind is FaultKind.LATENCY:
                assert 1.0 <= fault.duration <= 2.0
            elif fault.kind is FaultKind.CRASH:
                assert 5.0 <= fault.duration <= 6.0

    def test_services_filter_restricts_targets(self):
        policy = ChaosPolicy(abort_rate=0.9, seed=1, services=["svc0"])
        assert all(
            policy.fault_for("untargeted", 1) is None for _ in range(30)
        )
        assert any(policy.fault_for("svc0", 1) is not None for _ in range(10))

    def test_consecutive_cap_counts_every_fault_kind(self):
        """Bounded failures per service, whatever kind the faults are."""
        policy = ChaosPolicy(
            abort_rate=0.3, latency_rate=0.3, hang_rate=0.3,
            seed=4, max_consecutive=3,
        )
        consecutive = 0
        for _ in range(100):
            if policy.fault_for("svc", 1) is not None:
                consecutive += 1
                assert consecutive <= 3
            else:
                consecutive = 0

    def test_should_fail_view(self):
        policy = ChaosPolicy(abort_rate=0.9, seed=1, max_consecutive=1000)
        assert any(policy.should_fail("svc", 1) for _ in range(10))


class TestFaultModel:
    def test_abort_constructor(self):
        fault = Fault.abort()
        assert fault.kind is FaultKind.ABORT
        assert fault.duration == 0.0

    def test_default_fault_for_lifts_should_fail(self):
        plan = FailurePlan.fail_once(["svc"])
        fault = plan.fault_for("svc", 1)
        assert fault is not None and fault.kind is FaultKind.ABORT
        assert plan.fault_for("svc", 2) is None
