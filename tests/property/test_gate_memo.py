"""Property: the strong-order gate's memo answers what a scan answers.

``StrongOrderGate.blocks`` remembers, per process, the flight that
blocked it and answers "still blocked" without looking at the flights
while that flight is in the air and neither the process's stamp nor the
relation's version moved (DESIGN.md §3n).  The oracle is a fresh scan of
the flights at the same instant.  At every pass of both drivers — random
workloads with failures, retries and breakers, staged arrivals, a
conflict declared or retracted mid-run, an abort from outside of a
process the gate holds a verdict about, and shard kills in the federated
case — the gate's verdict equals the scan's, and a remembered verdict
leaves the process exactly as a scan would (its ``next_action()`` moves
nothing).  The single driver asks nothing of a process the gate holds:
it sleeps until the flight lands, and :class:`SleepCheckingRunner`
holds each pass-over to the same scan.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.scheduler import TransactionalProcessScheduler
from repro.fed.runner import FederationRunner
from repro.resilience import BreakerConfig, ResilienceManager, RetryPolicy
from repro.sim.runner import StrongOrderGate
from repro.sim.workload import WorkloadSpec, generate_workload

from tests.property.test_wakeup_equivalence import (
    SleepCheckingRunner,
    drive,
    driven_cases,
    mutate_after,
    run_driven,
    scanned,
)


class CheckedGate(StrongOrderGate):
    """The production gate, held to a scan at every question.  A
    disagreement is written down, not raised: the federated harness
    turns an exception into a run result."""

    def __init__(self) -> None:
        super().__init__()
        self.remembered = 0
        self.disagreements = []

    def blocks(self, scheduler, pid) -> bool:
        derivations = self.derivations
        verdict = super().blocks(scheduler, pid)
        stamp = scheduler.managed(pid).stamp
        if verdict != scanned(scheduler, pid, self.flights):
            self.disagreements.append((pid, verdict))
        if self.derivations == derivations:
            self.remembered += 1
            if scheduler.managed(pid).stamp != stamp:
                self.disagreements.append((pid, "moved"))
        return verdict

    def holds_nothing(self) -> bool:
        return self._blocked == {} and self._waiters == {}


# -- SimulationRunner ------------------------------------------------------


@st.composite
def simulated_cases(draw):
    return {
        "spec": WorkloadSpec(
            processes=draw(st.integers(4, 16)),
            service_pool=draw(st.integers(3, 8)),
            conflict_rate=draw(st.floats(0.0, 0.4)),
            failure_rate=draw(st.sampled_from([0.0, 0.05, 0.2])),
            alternative_probability=draw(st.floats(0.0, 1.0)),
            seed=draw(st.integers(0, 2**16)),
        ),
        "spacing": draw(st.sampled_from([0.0, 0.5, 2.0])),
        "resilience": draw(st.booleans()),
        "mutation": draw(
            st.none()
            | st.tuples(
                st.integers(1, 25),
                st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
                    lambda pair: (f"svc{pair[0]}", f"svc{pair[1]}")
                ),
            )
        ),
        #: Driver round in which a process is aborted from outside.
        "abort": draw(st.none() | st.integers(1, 30)),
    }


def abort_in_round(scheduler, gate, number):
    """In driver round ``number``, abort from outside the first process
    the gate holds a verdict about that can still go back: its next
    action moves while the flight that blocked it is still in the air."""
    rounds = {"seen": 0}
    order = scheduler.dispatch_order

    def dispatch_order():
        rounds["seen"] += 1
        if rounds["seen"] == number:
            for pid in list(gate._blocked):
                managed = scheduler.managed(pid)
                if not (
                    scheduler.is_terminated(pid)
                    or managed.abort_pending
                    or managed.is_hardened
                ):
                    scheduler.abort(pid, reason="from outside")
                    break
        return order()

    scheduler.dispatch_order = dispatch_order


def run_checked(case):
    spec = case["spec"]
    workload = generate_workload(spec)
    manager = None
    if case["resilience"]:
        manager = ResilienceManager(
            policy=RetryPolicy(
                timeout=5.0, max_attempts=3, base_delay=0.2, seed=spec.seed
            ),
            breaker=BreakerConfig(failure_threshold=2, reset_timeout=4.0),
        )
    scheduler = TransactionalProcessScheduler(
        conflicts=workload.conflicts, resilience=manager
    )
    if case["mutation"] is not None:
        scheduler.add_listener(
            mutate_after(workload.conflicts, *case["mutation"])
        )
    arrivals = {
        scheduler.submit(process, failures=workload.failures): (
            index * case["spacing"]
        )
        for index, process in enumerate(workload.processes)
    }
    runner = SleepCheckingRunner(
        scheduler, durations=workload.duration, arrivals=arrivals
    )
    runner._gate = CheckedGate()
    if case["abort"] is not None:
        abort_in_round(scheduler, runner._gate, case["abort"])
    return runner, drive(scheduler, runner.run)


@settings(max_examples=60, deadline=None)
@given(case=simulated_cases())
@example(
    # The process aborted in round 2 was blocked by a flight still in
    # the air; its next action is now a compensation no flight blocks.
    case={
        "spec": WorkloadSpec(
            processes=4,
            alternative_probability=1.0,
            service_pool=3,
            conflict_rate=0.25,
            seed=0,
        ),
        "spacing": 0.0,
        "resilience": False,
        "mutation": None,
        "abort": 2,
    }
)
def test_single_driver_verdicts_equal_a_scan(case):
    runner, metrics = run_checked(case)
    assert runner._gate.disagreements == []
    assert runner.wrong == []
    if metrics is not None:
        assert runner._gate.holds_nothing()


def test_the_single_driver_remembers():
    """The property is not vacuous: on a contended fleet a held process
    is passed over asleep more often than a verdict is derived."""
    runner, _ = run_checked(
        {
            "spec": WorkloadSpec(
                processes=16, service_pool=6, conflict_rate=0.2, seed=5
            ),
            "spacing": 0.0,
            "resilience": False,
            "mutation": (6, ("svc0", "svc1")),
            "abort": None,
        }
    )
    gate = runner._gate
    assert gate.disagreements == [] and runner.wrong == []
    assert runner.skipped["held"] > gate.derivations > 0


# -- FederationRunner ------------------------------------------------------


def checked_federation(gates, runners):
    """The production driver, every shard's gate held to a scan; each
    gate it ever held is collected into ``gates``, itself into
    ``runners``."""

    class Checked(FederationRunner):
        def run(self):
            self._gates = {shard: CheckedGate() for shard in self._gates}
            gates.extend(self._gates.values())
            runners.append(self)
            return super().run()

        def _kill_event(self, shard_id):
            fire = super()._kill_event(shard_id)

            def fired():
                fire()
                self._gates[shard_id] = CheckedGate()
                gates.append(self._gates[shard_id])

            return fired

    return Checked


@settings(max_examples=40, deadline=None)
@given(case=driven_cases())
def test_federated_verdicts_equal_a_scan(case):
    gates, runners = [], []
    outcome = run_driven(checked_federation(gates, runners), case)
    assert [gate.disagreements for gate in gates] == [[]] * len(gates)
    if outcome["error"] is None:
        (runner,) = runners
        assert all(gate.holds_nothing() for gate in runner._gates.values())
