"""The strong-order gate asks the flights again only when its verdict
may have moved (DESIGN.md §3n).

A strong-order deferral is *until* one named flight lands (paper §3.6).
``StrongOrderGate`` remembers that flight per process, and
``StrongOrderGate.derivations`` counts the verdicts it derived by
scanning the flights.  On ``batch-contended``'s shape (seeds 17–22) that
was 24.4 scans per dispatched activity when every question scanned, and
is 7.0 with the memo.  The memo keeps nothing longer than the flight it
names, so nothing about a terminated process or a killed shard, and a
new derivation replaces a process's older verdict.  A verdict names
every conflicting flight and holds until the last of them lands.
"""

from dataclasses import replace

import pytest

from repro.core.scheduler import TransactionalProcessScheduler
from repro.core.serialize import schedule_to_dict
from repro.fed.runner import FederationRunner
from repro.sim.federation import build_federation
from repro.sim.runner import SimulationRunner, StrongOrderGate
from repro.sim.workload import WorkloadSpec, generate_workload
from tests.integration.test_fed_passover import BASE


class ScanningGate(StrongOrderGate):
    """The gate before the memo: every question scans the flights, and
    no verdict is kept — so the single driver has nobody to pass over
    as held, and asks again every round."""

    def blocks(self, scheduler, pid) -> bool:
        verdict = super().blocks(scheduler, pid)
        self._blocked.clear()
        return verdict


def batch_contended(seed, gate=StrongOrderGate):
    """The spine's ``batch-contended`` world: 48 processes at t = 0 on
    20 services."""
    workload = generate_workload(
        WorkloadSpec(
            processes=48, service_pool=20, conflict_rate=0.05, seed=seed
        )
    )
    scheduler = TransactionalProcessScheduler(conflicts=workload.conflicts)
    for process in workload.processes:
        scheduler.submit(process)
    runner = SimulationRunner(scheduler, durations=workload.duration)
    runner._gate = gate()
    return scheduler, runner


class TestDerivations:
    """A return to scanning every waiting process every round shows
    here first."""

    @pytest.mark.parametrize("seed", [17, 18, 19])
    def test_bounded_per_dispatched_activity(self, seed):
        scheduler, runner = batch_contended(seed)
        metrics = runner.run()
        derivations = runner._gate.derivations
        assert derivations <= 9 * metrics.activities_dispatched
        scanning, polled = batch_contended(seed, ScanningGate)
        polled_metrics = polled.run()
        assert schedule_to_dict(scanning.history()) == schedule_to_dict(
            scheduler.history()
        )
        assert polled_metrics.activities_dispatched == (
            metrics.activities_dispatched
        )
        assert polled._gate.derivations > 2 * derivations


class TestWhatTheGateKeeps:
    def test_no_verdict_outlives_its_flight(self):
        """Checked at the start of every round: each remembered verdict
        is named by as many flights still in the air as it counts, and
        no landed flight names anything; at the end nothing is
        remembered at all."""
        scheduler, runner = batch_contended(17)
        gate = runner._gate
        remembered = []
        order = scheduler.dispatch_order

        def checking():
            assert set(gate._waiters) <= set(gate.flights)
            for pid, verdict in gate._blocked.items():
                naming = [
                    flight
                    for flight, waiters in gate._waiters.items()
                    if any(entry is verdict for _, entry in waiters)
                ]
                assert len(naming) == verdict[1] > 0
                remembered.append(pid)
            return order()

        scheduler.dispatch_order = checking
        runner.run()
        assert scheduler.stats["victim_aborts"] > 0
        assert remembered
        assert gate._blocked == {} and gate._waiters == {}

    def test_a_killed_shard_leaves_nothing(self, monkeypatch):
        """The shard's flights die with it and never land: the kill
        drops them with every verdict naming one of them."""
        kill = FederationRunner._kill_event
        held = []

        def spying(self, shard_id):
            fire = kill(self, shard_id)

            def fired():
                held.append(len(self._gates[shard_id]._blocked))
                fire()
                gate = self._gates[shard_id]
                assert gate.flights == {} and gate.busy == {}
                assert gate._blocked == {} and gate._waiters == {}

            return fired

        monkeypatch.setattr(FederationRunner, "_kill_event", spying)
        federation, runner = build_federation(
            replace(
                BASE,
                kills=((2.0, 0, 3.0),),
                shard_capacity=4,
                conflict_rate=0.3,
                seed=0,
            )
        )
        runner.run()
        assert held and held[0] > 0
        assert federation.all_terminated()
        for gate in runner._gates.values():
            assert gate._blocked == {} and gate._waiters == {}
