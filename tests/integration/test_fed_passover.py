"""The federated driver's wake-up pushes are sufficient *and* each is
needed (DESIGN.md §3n).

A process one of the driver's gates deferred, or the scheduler parked,
sleeps in its shard scheduler's ``asleep`` set until a push wakes it.
Each input a verdict reads has one:

* the process's own stamp — the scheduler's ``_wake`` (§3j);
* the conflict relation's version — ``FederationRunner._woken``;
* the shard's flights — the landing, which wakes what it released;
* the inbound count — a post to the shard;
* the foreign view — a delivery to the shard, its only writer, which
  moves the inbound count too (so an inbox message needs no push of
  its own);
* the link state — while a shard is down or a link cut nobody sleeps
  on a gate and the start-gate sleepers wake.

*Sufficient*: over a seeded sweep — message delays, a timed partition, a
conflict declared mid-run, an abort requested from outside — the driver
decides what the polling oracle decides, and every process it passes
over is one asking would have deferred or refused then
(``tests/property/test_wakeup_equivalence.py`` holds the same over
random fleets).  *Needed*: drop any one push in a test double and the
same sweep, not a hand-built schedule, finds a run that diverges from
the oracle.
"""

from dataclasses import replace
from functools import partial

import pytest

from repro.core.scheduler import TransactionalProcessScheduler
from repro.fed.runner import FederationRunner
from repro.obs.bus import MemorySink, TraceBus
from repro.sim.federation import FederationSpec, build_federation
from tests.integration.test_driver_work import Counted
from tests.property.test_wakeup_equivalence import (
    PassCheckingFederationRunner,
    PollingFederationRunner,
    as_runner,
    federated_outcome,
    mutate_after,
    scanned,
)

BASE = FederationSpec(
    shards=2,
    service_groups=4,
    processes_per_group=2,
    cross_shard_fraction=0.5,
    conflict_rate=0.2,
    shard_capacity=2,
    delay_rate=0.2,
)
PARTITIONED = replace(BASE, partitions=((1.0, 0, 1, 3.0),))


def muting(method):
    """A driver whose network's ``method`` (``post`` or
    ``deliver_due``) wakes no start-gate sleeper."""

    class Muting(FederationRunner):
        def run(self):
            network = self.fed.network
            loud = getattr(network, method)

            def muted(*args):
                push = network.on_inbound
                network.on_inbound = lambda shard_id: None
                try:
                    return loud(*args)
                finally:
                    network.on_inbound = push

            setattr(network, method, muted)
            return super().run()

    return Muting


class NoLandingPush(FederationRunner):
    """A landing wakes nobody it released."""

    def _completion(self, shard_id, flight):
        def on_finish():
            gate = self._gates[shard_id]
            if flight in gate.flights:
                gate.land(flight)

        return on_finish


class NoRelationPush(FederationRunner):
    """A move of the conflict relation wakes nobody."""

    def _woken(self, shard_id):
        pass


class IgnoringLinks(FederationRunner):
    """Sleeps as if every link were always up."""

    def run(self):
        self.fed.network.all_links_up = lambda now: True
        return super().run()


class StillAsleep(TransactionalProcessScheduler):
    """Keeps a process asleep when its own stamp moves (the processes
    parked on it still wake)."""

    def _wake(self, managed):
        pid = managed.process_id
        asleep = pid in self.asleep
        super()._wake(managed)
        if asleep:
            self.asleep.add(pid)


class NoOwnPush(FederationRunner):
    """The driver over shard schedulers that keep a mover asleep."""

    def run(self):
        for shard in self.fed.shards.values():
            scheduler = shard.scheduler
            scheduler.__class__ = StillAsleep
            for managed in scheduler._managed.values():
                managed.instance.on_revision = partial(
                    scheduler._wake, managed
                )
        return super().run()


def declaring(activities, pair):
    """Declare (or retract) ``pair`` at the ``activities``-th activity."""

    def arm(federation, runner):
        listener = mutate_after(federation._explicit, activities, pair)
        for shard in federation.shards.values():
            shard.scheduler.add_listener(listener)

    return arm


def aborting_in_round(number):
    """In driver round ``number``, abort from outside the first process
    the strong order holds (by a scan of its shard's flights, the same
    under every driver) that has executed something and can still go
    back."""

    def arm(federation, runner):
        rounds = {"seen": 0}

        def on_round(now):
            rounds["seen"] += 1
            if rounds["seen"] != number:
                return
            for shard_id, shard in federation.shards.items():
                flights = runner._gates[shard_id].flights
                for pid in shard.scheduler.live_ids():
                    managed = shard.scheduler.managed(pid)
                    if (
                        scanned(shard.scheduler, pid, flights)
                        and managed.instance.trace()
                        and not managed.abort_pending
                        and not managed.is_hardened
                    ):
                        shard.scheduler.abort(pid, reason="from outside")
                        return

        runner.on_round = on_round

    return arm


#: input -> (the double that drops its push, the runs of the sweep that
#: show it).
INPUTS = {
    "own stamp": (
        NoOwnPush,
        [
            (BASE.with_seed(28), aborting_in_round(8)),
            (BASE.with_seed(0), None),
        ],
    ),
    "conflict version": (
        NoRelationPush,
        [
            (BASE.with_seed(0), declaring(4, ("g1s0", "g3s0"))),
            (BASE.with_seed(2), declaring(4, ("g0s0", "g2s2"))),
        ],
    ),
    "flight set": (
        NoLandingPush,
        [(BASE.with_seed(seed), None) for seed in (0, 1, 2)],
    ),
    "inbound count": (
        muting("post"),
        [(BASE.with_seed(seed), None) for seed in (0, 1, 2)],
    ),
    "view version": (
        muting("deliver_due"),
        [(BASE.with_seed(seed), None) for seed in (0, 1, 2)],
    ),
    "link state": (
        IgnoringLinks,
        [(PARTITIONED.with_seed(seed), None) for seed in (0, 4, 5)],
    ),
}


def outcome(cls, spec, arm=None, runners=None):
    bus = TraceBus()
    sink = bus.subscribe(MemorySink())
    federation, runner = build_federation(spec, trace=bus)
    as_runner(runner, cls)
    if runners is not None:
        runners.append(runner)
    if arm is not None:
        arm(federation, runner)
    return federated_outcome(federation, runner, sink)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_the_pushes_are_sufficient(name):
    for spec, arm in INPUTS[name][1]:
        runners = []
        checked = outcome(PassCheckingFederationRunner, spec, arm, runners)
        assert runners[0].wrong == []
        assert checked == outcome(FederationRunner, spec, arm)
        assert checked == outcome(PollingFederationRunner, spec, arm)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_every_input_is_needed(name):
    double, runs = INPUTS[name]
    assert any(
        outcome(double, spec, arm)
        != outcome(PollingFederationRunner, spec, arm)
        for spec, arm in runs
    )


class TestWhatTheDriverForgets:
    def test_a_stall_victim_is_looked_at_again(self, monkeypatch):
        """Its next action changed — it compensates now — and no
        push of the driver's own fired: the verdict that deferred it
        must not outlive the abort."""
        federation, runner = build_federation(BASE.with_seed(1))
        forgotten = []
        resolve = FederationRunner._resolve_stall

        def spying(self):
            deferred = set(self._fed_deferred)
            victims = self.metrics.cross_victims
            resolve(self)
            if self.metrics.cross_victims > victims:
                (victim,) = deferred - self._fed_deferred
                home = self.fed.homes[victim]
                assert victim not in self._gated[home]
                assert victim not in self.fed.shards[home].scheduler.asleep
                assert victim not in self._last_gate
                forgotten.append(victim)

        monkeypatch.setattr(FederationRunner, "_resolve_stall", spying)
        runner.run()
        assert len(forgotten) == runner.metrics.cross_victims > 0
        assert federation.all_terminated()

    def test_a_killed_shard_leaves_no_sleeper(self, monkeypatch):
        spec = replace(PARTITIONED, kills=((2.0, 0, 3.0),), seed=3)
        federation, runner = build_federation(spec)
        killed = []
        kill = FederationRunner._kill_event

        def spying(self, shard_id):
            fire = kill(self, shard_id)

            def fired():
                live = set(self.fed.shards[shard_id].scheduler.live_ids())
                fire()
                assert not live & set().union(*self._gated.values())
                assert not live & set(self._last_gate)
                killed.append(live)

            return fired

        monkeypatch.setattr(FederationRunner, "_kill_event", spying)
        runner.run()
        assert killed and any(killed)

    @pytest.mark.parametrize(
        "spec",
        [
            BASE.with_seed(0),
            replace(
                PARTITIONED, kills=((2.0, 0, 3.0),), drop_rate=0.2, seed=3
            ),
        ],
        ids=["clean", "kill+partition"],
    )
    def test_nothing_is_kept_about_a_terminated_process(self, spec):
        federation, runner = build_federation(spec)
        runner.run()
        assert runner.metrics.fed_deferrals > 0
        assert runner._last_gate == {}
        assert runner._fed_deferred == set()
        assert all(not gated for gated in runner._gated.values())
        for shard in federation.shards.values():
            assert not shard.scheduler.asleep
        # Nor does any strong-order gate remember a verdict (X37).
        for gate in runner._gates.values():
            assert gate._blocked == {} and gate._waiters == {}


class TestGateEvaluations:
    """The counts of processes examined and of gate evaluations are the
    exact form of "a round touches only what moved": a return to
    polling shows here first."""

    #: The spine's ``fed-cross`` shape.
    SPEC = FederationSpec(
        shards=4,
        service_groups=16,
        processes_per_group=4,
        disjoint_processes=True,
        cross_shard_fraction=0.5,
        conflict_rate=0.005,
        delay_rate=0.1,
        shard_capacity=4,
    )

    def run(self, cls, seed):
        """The run's metrics and the processes its driver examined —
        visited past the sleep lookup, asked the gates."""
        federation, runner = build_federation(self.SPEC.with_seed(seed))
        counted = []
        for shard in federation.shards.values():
            shard.scheduler.asleep = Counted()
            counted.append(shard.scheduler.asleep)
        metrics = as_runner(runner, cls).run()
        return metrics, sum(asleep.examined for asleep in counted)

    @pytest.mark.parametrize("seed", [17, 18, 19])
    def test_bounded_per_dispatched_activity(self, seed):
        metrics, examined = self.run(FederationRunner, seed)
        again, _ = self.run(FederationRunner, seed)
        assert metrics.gate_evaluations == again.gate_evaluations
        # 3.2-3.7 examined and 6.3-7.2 evaluations per dispatched
        # activity on these seeds (X40).
        assert examined <= 5 * metrics.dispatched
        assert metrics.gate_evaluations <= 9 * metrics.dispatched
        polled, _ = self.run(PollingFederationRunner, seed)
        assert polled.dispatched == metrics.dispatched
        assert polled.gate_evaluations > 3 * metrics.gate_evaluations
