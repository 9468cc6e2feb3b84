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
from repro.sim.workload import WorkloadSpec, generate_workload

from tests.property.test_wakeup_equivalence import (
    SleepCheckingRunner,
    drive,
    driven_cases,
    mutate_after,
    run_driven,
    scanned,
)


class Checking:
    """A pass's strong-order gate, every question held to a scan; the
    rest is the gate's.  A disagreement is written down, not raised:
    the federated harness turns an exception into a run result."""

    def __init__(self, gate, disagreements) -> None:
        self.gate = gate
        self.disagreements = disagreements

    def __getattr__(self, name):
        return getattr(self.gate, name)

    def blocks(self, scheduler, pid) -> bool:
        gate = self.gate
        derivations = gate.derivations
        verdict = gate.blocks(scheduler, pid)
        stamp = scheduler.managed(pid).stamp
        if verdict != scanned(scheduler, pid, gate.flights):
            self.disagreements.append((pid, verdict))
        if gate.derivations == derivations:
            # Remembered: the process must be where a scan leaves it.
            if scheduler.managed(pid).stamp != stamp:
                self.disagreements.append((pid, "moved"))
        return verdict


class GateChecking:
    """Either driver, each pass's gate held to a scan through the one
    seam (``Driver._pass``)."""

    def run(self):
        self.disagreements = []
        return super().run()

    def _pass(self, shard, scheduler, gate, relations, order, asleep, now):
        checking = Checking(gate, self.disagreements)
        return super()._pass(
            shard, scheduler, checking, relations, order, asleep, now
        )


def holds_nothing(gate) -> bool:
    return gate._blocked == {} and gate._waiters == {}


class CheckedSimulationRunner(GateChecking, SleepCheckingRunner):
    pass


class CheckedFederationRunner(GateChecking, FederationRunner):
    pass


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
    runner = CheckedSimulationRunner(
        scheduler, durations=workload.duration, arrivals=arrivals
    )
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
    assert runner.disagreements == []
    assert runner.wrong == []
    if metrics is not None:
        assert holds_nothing(runner._gate)


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
    assert runner.disagreements == [] and runner.wrong == []
    assert runner.skipped["held"] > runner._gate.derivations > 0


# -- FederationRunner ------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(case=driven_cases())
def test_federated_verdicts_equal_a_scan(case):
    runners = []
    outcome = run_driven(CheckedFederationRunner, case, runners)
    (runner,) = runners
    assert runner.disagreements == []
    if outcome["error"] is None:
        assert all(holds_nothing(gate) for gate in runner._gates.values())
