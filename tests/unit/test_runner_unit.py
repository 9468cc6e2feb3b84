"""Unit tests for the simulation runner's gating and bookkeeping."""

import pytest

from repro.baselines import SerialScheduler
from repro.core.conflict import ExplicitConflicts, NoConflicts
from repro.core.flex import build_process, comp, pivot, retr, seq
from repro.core.scheduler import TransactionalProcessScheduler
from repro.sim.runner import (
    Flight,
    SimulationRunner,
    constant_durations,
    simulate_run,
)


def two_step(pid, service_a, service_b):
    return build_process(
        pid,
        seq(
            comp("x", service=service_a),
            pivot("y", service=service_b),
        ),
    )


class TestDurations:
    def test_constant_durations(self):
        model = constant_durations(2.5)
        assert model("anything") == 2.5

    def test_per_service_durations_via_callable(self):
        durations = {"fast": 0.1, "slow": 9.0}.get
        scheduler = SerialScheduler()
        scheduler.submit(two_step("P", "fast", "slow"))
        metrics = simulate_run(
            scheduler, durations=lambda service: durations(service, 1.0)
        )
        assert metrics.makespan == pytest.approx(9.1)


def comp_pair(pid, service_a, service_b):
    """All-compensatable process: no pivot, so only temporal ordering
    (not Lemma-1 deferral) constrains the interleaving."""
    return build_process(
        pid,
        seq(comp("x", service=service_a), comp("z", service=service_b)),
    )


class TestGating:
    def test_strong_order_serialises_conflicting_starts(self):
        conflicts = ExplicitConflicts([("s", "s")])
        scheduler = TransactionalProcessScheduler(conflicts=conflicts)
        scheduler.submit(comp_pair("A", "s", "za"))
        scheduler.submit(comp_pair("B", "s", "zb"))
        metrics = simulate_run(
            scheduler, durations=constant_durations(1.0), order="strong"
        )
        # the two conflicting x activities cannot overlap: ≥ 3 time units
        assert metrics.makespan >= 3.0

    def test_weak_order_allows_overlap(self):
        conflicts = ExplicitConflicts([("s", "s")])
        scheduler = TransactionalProcessScheduler(conflicts=conflicts)
        scheduler.submit(comp_pair("A", "s", "za"))
        scheduler.submit(comp_pair("B", "s", "zb"))
        metrics = simulate_run(
            scheduler, durations=constant_durations(1.0), order="weak"
        )
        assert metrics.makespan < 3.0

    def test_no_conflicts_identical_modes(self):
        for order in ("strong", "weak"):
            scheduler = TransactionalProcessScheduler(conflicts=NoConflicts())
            scheduler.submit(two_step("A", "sa", "pa"))
            scheduler.submit(two_step("B", "sb", "pb"))
            metrics = simulate_run(
                scheduler, durations=constant_durations(1.0), order=order
            )
            assert metrics.makespan == pytest.approx(2.0)


class TestBookkeeping:
    def test_process_spans_cover_run(self):
        scheduler = SerialScheduler()
        scheduler.submit(two_step("A", "sa", "pa"))
        scheduler.submit(two_step("B", "sb", "pb"))
        metrics = simulate_run(scheduler, durations=constant_durations(1.0))
        assert metrics.process_spans["A"][1] <= metrics.process_spans["B"][1]
        assert metrics.makespan == pytest.approx(4.0)

    def test_commit_and_abort_counts(self):
        from repro.subsystems.failures import FailurePlan

        scheduler = TransactionalProcessScheduler()
        scheduler.submit(
            two_step("A", "sa", "pa"),
            failures=FailurePlan.fail_once(["pa"]),
        )
        metrics = simulate_run(scheduler, durations=constant_durations(1.0))
        assert metrics.processes_aborted == 1
        assert metrics.processes_committed == 0

    def test_a_flight_is_itself_not_its_fields(self):
        """A completion event removes *its* flight: one that runs the
        same service for the same process is another flight."""
        stale, live = Flight("P", "svc"), Flight("P", "svc")
        flights = [live]
        assert stale != live and stale not in flights
        flights.remove(live)
        assert flights == []

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            SimulationRunner(SerialScheduler(), order="diagonal")

    def test_runner_reuses_scheduler_state(self):
        scheduler = SerialScheduler()
        scheduler.submit(two_step("A", "sa", "pa"))
        simulate_run(scheduler, durations=constant_durations(1.0))
        assert scheduler.all_terminated()
