"""The single driver examines what moved (DESIGN.md §3j).

A process whose step would change nothing until a named event sleeps —
parked on blockers, held behind a flight by the strong-order gate, or
busy — and ``SimulationRunner.run`` passes it over with one lookup in
``scheduler.asleep``.  What the driver *examines* is every other visit:
it asks the gate and the step only of those.  On ``batch-contended``'s
shape (seeds 17–19) that is 6.6–7.2 processes per dispatched activity;
a driver that asks every live process every round (the polling oracle,
with nobody asleep) examines about 101, and decides the same history.
A stall is resolved without stepping anyone: a round that moved
something is no stall, so there is nothing left to re-evaluate.
"""

import pytest

from repro.core.scheduler import TransactionalProcessScheduler
from repro.core.serialize import schedule_to_dict
from repro.sim.runner import SimulationRunner
from repro.sim.workload import WorkloadSpec, generate_workload
from tests.property.test_wakeup_equivalence import PollingScheduler


class Counted(set):
    """A sleep set that counts the visits it lets through."""

    examined = 0

    def __contains__(self, pid) -> bool:
        if set.__contains__(self, pid):
            return True
        self.examined += 1
        return False


def batch_contended(seed, cls):
    """The spine's ``batch-contended`` world: 48 processes at t = 0 on
    20 services, run to the end; returns the scheduler, its metrics
    and the processes the driver examined."""
    workload = generate_workload(
        WorkloadSpec(
            processes=48, service_pool=20, conflict_rate=0.05, seed=seed
        )
    )
    scheduler = cls(conflicts=workload.conflicts)
    scheduler.asleep = Counted()
    for process in workload.processes:
        scheduler.submit(process)
    metrics = SimulationRunner(scheduler, durations=workload.duration).run()
    return scheduler, metrics, scheduler.asleep.examined


@pytest.mark.parametrize("seed", [17, 18, 19])
def test_examined_per_dispatched_activity(seed):
    """A return to visiting every sleeper shows here first."""
    scheduler, metrics, examined = batch_contended(
        seed, TransactionalProcessScheduler
    )
    assert examined <= 10 * metrics.activities_dispatched
    polling, polled_metrics, polled = batch_contended(seed, PollingScheduler)
    assert schedule_to_dict(polling.history()) == schedule_to_dict(
        scheduler.history()
    )
    assert polled_metrics.makespan == metrics.makespan
    assert polled > 3 * examined


class StallStepCounting(TransactionalProcessScheduler):
    """Counts the steps taken while a stall is being resolved."""

    stall_steps = 0
    stalls = 0
    _resolving = False

    def _resolve_stall(self) -> None:
        self.stalls += 1
        self._resolving = True
        try:
            super()._resolve_stall()
        finally:
            self._resolving = False

    def step(self, instance_id: str) -> bool:
        if self._resolving:
            self.stall_steps += 1
        return super().step(instance_id)


def test_no_step_inside_stall_resolution():
    scheduler, metrics, _ = batch_contended(17, StallStepCounting)
    assert scheduler.stalls >= metrics.victim_aborts > 0
    assert scheduler.stall_steps == 0
