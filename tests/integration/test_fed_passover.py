"""The federated driver's pass-over stamp is minimal *and* sufficient
(DESIGN.md §3n).

A process one of the driver's gates deferred is passed over until an
input of that gate moved.  *Sufficient*: over a seeded sweep — message
delays, a timed partition, a conflict declared mid-run, an abort
requested from outside — the driver decides what the polling oracle
decides (``tests/property/test_wakeup_equivalence.py`` holds the same
over random fleets).  *Minimal*: leave any one input out of the stamp in
a test double of the driver and the same sweep, not a hand-built
schedule, finds a run that diverges from the oracle.
"""

from dataclasses import replace

import pytest

from repro.fed.runner import FederationRunner
from repro.obs.bus import MemorySink, TraceBus
from repro.sim.federation import FederationSpec, build_federation
from tests.property.test_wakeup_equivalence import (
    PollingFederationRunner,
    as_runner,
    federated_outcome,
    mutate_after,
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

#: Positions in ``FederationRunner._stamp``: ``(gate, index)``.
ORDER, START = 0, 1


def omitting(*positions):
    """A driver whose stamp never sees the inputs at ``positions`` move."""

    class Omitting(FederationRunner):
        def _stamp(self, shard_id, pid, now):
            stamp = super()._stamp(shard_id, pid, now)
            if stamp is None:
                return None
            gates = [list(inputs) for inputs in stamp]
            for gate, index in positions:
                gates[gate][index] = 0
            return tuple(tuple(inputs) for inputs in gates)

    return Omitting


class IgnoringLinks(FederationRunner):
    """A driver that stamps as if every link were always up."""

    def _stamp(self, shard_id, pid, now):
        network = self.fed.network
        network.all_links_up = lambda now: True
        try:
            return super()._stamp(shard_id, pid, now)
        finally:
            del network.all_links_up


def declaring(activities, pair):
    """Declare (or retract) ``pair`` at the ``activities``-th activity."""

    def arm(federation, runner):
        listener = mutate_after(federation._explicit, activities, pair)
        for shard in federation.shards.values():
            shard.scheduler.add_listener(listener)

    return arm


def aborting_in_round(number):
    """In driver round ``number``, abort from outside the first process
    that is passed over, has executed something and can still go back."""

    def arm(federation, runner):
        rounds = {"seen": 0}

        def on_round(now):
            rounds["seen"] += 1
            if rounds["seen"] != number:
                return
            for shard in federation.shards.values():
                for pid in shard.scheduler.live_ids():
                    managed = shard.scheduler.managed(pid)
                    if (
                        runner._passed.get(pid) is not None
                        and managed.instance.trace()
                        and not managed.abort_pending
                        and not managed.is_hardened
                    ):
                        shard.scheduler.abort(pid, reason="from outside")
                        return

        runner.on_round = on_round

    return arm


#: input -> (the double that omits it, the runs of the sweep that show it).
INPUTS = {
    "own stamp": (
        omitting((ORDER, 0), (START, 0)),
        [(BASE.with_seed(28), aborting_in_round(8))],
    ),
    "conflict version": (
        omitting((ORDER, 1), (START, 1)),
        [
            (BASE.with_seed(0), declaring(4, ("g1s0", "g3s0"))),
            (BASE.with_seed(2), declaring(4, ("g0s0", "g2s2"))),
        ],
    ),
    "flight set": (
        omitting((ORDER, 2)),
        [(BASE.with_seed(seed), None) for seed in (0, 1, 2)],
    ),
    "view version": (
        omitting((START, 2)),
        [(BASE.with_seed(seed), None) for seed in (3, 16)],
    ),
    "inbound count": (
        omitting((START, 3)),
        [(BASE.with_seed(seed), None) for seed in (0, 1, 2)],
    ),
    "link state": (
        IgnoringLinks,
        [(PARTITIONED.with_seed(seed), None) for seed in (0, 4, 5)],
    ),
}


def outcome(cls, spec, arm=None):
    bus = TraceBus()
    sink = bus.subscribe(MemorySink())
    federation, runner = build_federation(spec, trace=bus)
    as_runner(runner, cls)
    if arm is not None:
        arm(federation, runner)
    return federated_outcome(federation, runner, sink)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_the_stamp_is_sufficient(name):
    for spec, arm in INPUTS[name][1]:
        assert outcome(FederationRunner, spec, arm) == outcome(
            PollingFederationRunner, spec, arm
        )


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
        shard-level input moved: the verdict that deferred it must not
        outlive the abort."""
        federation, runner = build_federation(BASE.with_seed(1))
        forgotten = []
        resolve = FederationRunner._resolve_stall

        def spying(self):
            deferred = set(self._fed_deferred)
            victims = self.metrics.cross_victims
            resolve(self)
            if self.metrics.cross_victims > victims:
                (victim,) = deferred - self._fed_deferred
                assert victim not in self._passed
                assert victim not in self._last_gate
                forgotten.append(victim)

        monkeypatch.setattr(FederationRunner, "_resolve_stall", spying)
        runner.run()
        assert len(forgotten) == runner.metrics.cross_victims > 0
        assert federation.all_terminated()

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
        assert runner._passed == {}


class TestGateEvaluations:
    """The count of gate evaluations is the exact form of "a round
    touches only what moved": a return to polling shows here first."""

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
        federation, runner = build_federation(self.SPEC.with_seed(seed))
        return as_runner(runner, cls).run()

    @pytest.mark.parametrize("seed", [17, 18, 19])
    def test_bounded_per_dispatched_activity(self, seed):
        metrics = self.run(FederationRunner, seed)
        assert metrics.gate_evaluations == self.run(
            FederationRunner, seed
        ).gate_evaluations
        assert metrics.gate_evaluations <= 13 * metrics.dispatched
        polled = self.run(PollingFederationRunner, seed)
        assert polled.dispatched == metrics.dispatched
        assert polled.gate_evaluations > 3 * metrics.gate_evaluations
