"""Property: waking up on movement decides exactly what polling decides.

The production scheduler parks a graph-deferred process on its blockers
and re-evaluates it only when one of them moved; the single driver puts
it to sleep (``scheduler.sleep``) and passes it over with one lookup
until a push wakes it, as it does a process the strong-order gate holds
behind a flight.  The oracle here is the same scheduler that trusts no
park: the "is still parked" predicate answers ``False`` and nothing goes
to sleep — every poll re-runs admission, as before wake-ups existed.
The federation's driver sleeps the same way, through the same pass
(``Driver._pass``), with a post or a delivery to a shard and a cut link
as pushes of its own; its oracle is the same driver whose passes get no
sleep set, so nobody is passed over.  There is no switch for either in
``src/``; the oracles live only in tests.

Both must produce the identical history, terminal states, victim and
watchdog counts through all three drivers, under failures, sheds,
staged arrivals, message faults, mid-run conflict mutation and a
blocker that leaves ``SWITCHING`` lazily while a sleeper waits on it.
A stall is a round in which nothing progressed and neither a state nor
the relation moved (``scheduler.motion``), the same for both, so a
victim is picked from the same ``waiting_for``.  Both drivers run with
:class:`PassChecking` at the seam — :class:`SleepCheckingRunner` and
:class:`PassCheckingFederationRunner` — which holds every process a
pass passes over as asleep to what polling would have found, and no
park that still holds to end in progress.
"""

import itertools
import random
from dataclasses import replace
from functools import partial

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.admission import AdmissionConfig, WatchdogConfig
from repro.core.conflict import ExplicitConflicts
from repro.core.flex import build_process, choice, comp, pivot, retr, seq
from repro.core.instance import ActionType
from repro.core.scheduler import TransactionalProcessScheduler
from repro.core.serialize import schedule_to_dict
from repro.errors import UnrecoverableStateError
from repro.fed.runner import FederationRunner
from repro.obs.bus import MemorySink, TraceBus
from repro.resilience import BreakerConfig, ResilienceManager, RetryPolicy
from repro.sim.federation import FederationSpec, build_federation
from repro.sim.runner import Arrival, SimulationRunner
from repro.sim.workload import (
    ArrivalSpec,
    WorkloadSpec,
    generate_arrivals,
    generate_process,
    generate_workload,
)
from repro.subsystems.failures import FailurePlan
from repro.subsystems.subsystem import Subsystem

from tests.property.strategies import (
    SERVICES,
    conflict_relations,
    well_formed_processes,
)


class PollingScheduler(TransactionalProcessScheduler):
    """The oracle: never trusts a park, and nothing sleeps — a driver
    asks every live process every round."""

    def is_parked(self, instance_id: str) -> bool:
        return False

    def sleep(self, instance_id: str) -> None:
        pass


def scanned(scheduler, pid, flights) -> bool:
    """The strong-order verdict derived from the flights alone."""
    instance = scheduler.managed(pid).instance
    action = instance.next_action()
    if action.type is ActionType.FINISHED or action.activity is None:
        return False
    service = instance.definition(action.activity).service
    if service is None:
        return False
    return any(
        flight.process_id != pid
        and scheduler.conflicts.conflicts(flight.conflict_service, service)
        for flight in flights
    )


def park_holds(scheduler, managed) -> bool:
    """The park's own definition: the relation and every blocker's
    stamp are where the deferral found them."""
    park = managed.park
    return (
        park is not None
        and park[0] == scheduler.conflicts.version
        and all(blocker.stamp == stamp for blocker, stamp in park[1])
    )


class _Watched:
    """A pass's sleep set, every positive answer reported."""

    def __init__(self, members, on_asleep):
        self.members = members
        self.on_asleep = on_asleep

    def __contains__(self, pid) -> bool:
        if pid not in self.members:
            return False
        self.on_asleep(pid)
        return True


class PassChecking:
    """Either driver, through the one seam (``Driver._pass``): each
    process a pass passes over as asleep is held to what asking would
    have found at that moment, in the order polling asks — busy, or held
    by the strong order (a scan of the flights, which must not move the
    process), or deferred by the driver's admission check with the
    verdict it already holds, or let through to a step that a
    still-holding park refuses; and each step a pass offers to this: a
    process whose park still holds does not progress — that would be a
    missed wake-up.  A mismatch is written down in ``wrong``, not
    raised (the federated harness turns an exception into a run
    result); ``skipped`` counts by kind."""

    def run(self):
        self.skipped = {"busy": 0, "held": 0, "gated": 0, "parked": 0}
        self.wrong = []
        return super().run()

    def _pass(self, shard, scheduler, gate, relations, order, asleep, now):
        if asleep is not None:
            check = partial(self._check, shard, scheduler, gate)
            asleep = _Watched(asleep, check)
        # Recovery gives a shard a new scheduler.
        if "step_instance" not in vars(scheduler):
            scheduler.step_instance = partial(
                self._checked_step, scheduler, scheduler.step_instance
            )
        return super()._pass(
            shard, scheduler, gate, relations, order, asleep, now
        )

    def _checked_step(self, scheduler, step, pid) -> bool:
        held = park_holds(scheduler, scheduler.managed(pid))
        progressed = step(pid)
        if progressed and held:
            self.wrong.append((pid, "stale park"))
        return progressed

    def _check(self, shard, scheduler, gate, pid) -> None:
        kind = self._passed_over(shard, scheduler, gate, pid)
        if kind in self.skipped:
            self.skipped[kind] += 1
        else:
            self.wrong.append((pid, kind))

    def _passed_over(self, shard, scheduler, gate, pid) -> str:
        if scheduler.is_terminated(pid):
            return "terminated"
        if pid in gate.busy:
            return "busy"
        managed = scheduler.managed(pid)
        stamp = managed.stamp
        held = self.strong and scanned(scheduler, pid, gate.flights)
        if managed.stamp != stamp:
            return "moved"
        if held:
            return "held"
        verdict = self._deferred(shard, scheduler, pid)
        if managed.stamp != stamp:
            return "moved"
        if verdict is not None:
            return verdict
        if park_holds(scheduler, managed):
            return "parked"
        return "awake"

    def _deferred(self, shard, scheduler, pid):
        """The driver's admission check asked again: ``None`` when it
        lets ``pid`` step, else the kind of pass-over that is."""
        return None


class SleepCheckingRunner(PassChecking, SimulationRunner):
    """The single driver, every pass-over and step checked."""


SCHEDULERS = (TransactionalProcessScheduler, PollingScheduler)


def mutate_after(conflicts, activities, pair):
    """A listener declaring (or, if declared, retracting) ``pair`` once
    ``activities`` activity events were recorded — a trigger no change
    in how often admission is asked can move."""
    recorded = {"activities": 0}

    def listener(kind, payload):
        if kind != "activity":
            return
        recorded["activities"] += 1
        if recorded["activities"] == activities:
            if conflicts.conflicts(*pair):
                conflicts.retract(*pair)
            else:
                conflicts.declare(*pair)

    return listener


def decided(scheduler):
    """Everything a scheduler decided, in comparable form."""
    return {
        "history": schedule_to_dict(scheduler.history()),
        "statuses": {
            pid: status.value for pid, status in scheduler.statuses().items()
        },
        "stores": scheduler.registry.snapshot(),
        "shed": list(scheduler.shed_ids),
        "counts": {
            key: scheduler.stats[key]
            for key in (
                "dispatched",
                "victim_aborts",
                "cascading_aborts",
                "starvation_boosts",
                "livelock_escalations",
                "rejected",
                "shed",
                "degradations",
                "retries",
            )
        },
    }


def drive(scheduler, run):
    """Run to the end; a conflict declared mid-run can create a wait
    cycle the protocol never admits on its own (two hardened processes
    suddenly in conflict), and then both schedulers must give up alike."""
    try:
        return run()
    except UnrecoverableStateError:
        scheduler.stats["gave_up"] = 1
        return None


def assert_same_decisions(runs):
    real, polling = runs
    assert decided(real) == decided(polling)
    assert real.stats.get("gave_up") == polling.stats.get("gave_up")
    # The oracle really polled: it answered no poll from a park.
    assert polling.perf.parked_skips == 0
    assert real.stats["deferred"] <= polling.stats["deferred"]


# -- scheduler.run() -------------------------------------------------------


def run_reactor(cls, processes, pairs, failing, seed, mutation):
    rng = random.Random(seed)

    def shuffled(ids):
        ids = list(ids)
        rng.shuffle(ids)
        return ids

    conflicts = ExplicitConflicts(pairs)
    scheduler = cls(conflicts=conflicts, interleaving=shuffled)
    if mutation is not None:
        scheduler.add_listener(mutate_after(conflicts, *mutation))
    for index, process in enumerate(processes):
        scheduler.submit(
            process,
            instance_id=f"P{index}",
            failures=FailurePlan.fail_once(failing),
        )
    drive(scheduler, scheduler.run)
    return scheduler


@settings(max_examples=80, deadline=None)
@given(
    processes=st.lists(well_formed_processes(), min_size=2, max_size=4),
    conflicts=conflict_relations(),
    failing=st.sets(st.sampled_from(SERVICES), max_size=2),
    seed=st.integers(0, 10_000),
    mutation=st.none()
    | st.tuples(
        st.integers(1, 12),
        st.tuples(st.sampled_from(SERVICES), st.sampled_from(SERVICES)),
    ),
)
def test_reactor_decisions_are_identical(
    processes, conflicts, failing, seed, mutation
):
    pairs = sorted(conflicts.pairs())
    assert_same_decisions(
        [
            run_reactor(cls, processes, pairs, failing, seed, mutation)
            for cls in SCHEDULERS
        ]
    )


# -- SimulationRunner ------------------------------------------------------


@st.composite
def simulated_cases(draw):
    spec = WorkloadSpec(
        processes=draw(st.integers(4, 10)),
        service_pool=draw(st.integers(4, 8)),
        conflict_rate=draw(st.floats(0.0, 0.3)),
        failure_rate=draw(st.sampled_from([0.0, 0.05, 0.2])),
        alternative_probability=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**16)),
    )
    return {
        "spec": spec,
        #: Open loop through the admission door, or a pre-submitted
        #: fleet whose dispatch is staged in virtual time.
        "open_loop": draw(st.booleans()),
        "offered_load": draw(st.floats(0.3, 4.0)),
        "max_active": draw(st.integers(1, 4)),
        "max_queue_depth": draw(st.integers(0, 3)),
        "spacing": draw(st.sampled_from([0.0, 0.7, 2.0])),
        "resilience": draw(st.booleans()),
        "starvation_rounds": draw(st.integers(2, 30)),
        "livelock_flaps": draw(st.integers(1, 4)),
        "mutation": draw(
            st.none()
            | st.tuples(
                st.integers(1, 25),
                st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
                    lambda pair: (f"svc{pair[0]}", f"svc{pair[1]}")
                ),
            )
        ),
        #: ``(lead, flight)`` of :func:`lazy_switch`'s trio, or none.
        "lazy_switch": draw(
            st.none() | st.tuples(st.floats(3.05, 4.0), st.floats(4.5, 10.0))
        ),
    }


def lazy_switch(lead, flight):
    """Three processes, with the services, conflicts, durations and
    failures they need, in which a blocker leaves ``SWITCHING`` lazily
    while a sleeper waits on it, and then does not move for a while.

    ``LX`` runs ``x0 x1ᵖ x2`` over [0, 3]; its pivot ``x3`` fails and
    ``x2⁻¹`` runs over [3, 4].  ``LW`` asks for ``w1``, which conflicts
    with ``x0``, at ``lead`` in (3, 4]: R6 parks it on ``LX``.  When
    ``x2⁻¹`` lands, the strong-order gate's question about ``LX``
    derives its next action.  That performs the switch to ``x4ʳ``, and
    ``x4`` waits behind ``LF``'s flight on a conflicting service, which
    lands at ``flight`` ≥ 4.5.  Only the revision hook can wake ``LW``
    in between: ``LX`` neither records nor moves until then.
    """
    processes = [
        build_process(
            "LX",
            seq(
                comp("x0", service="lx0"),
                pivot("x1", service="lx1"),
                choice(
                    seq(comp("x2", service="lx2"), pivot("x3", service="lx3")),
                    seq(retr("x4", service="lx4")),
                ),
            ),
        ),
        build_process(
            "LW", seq(comp("w0", service="lw0"), comp("w1", service="lw1"))
        ),
        build_process("LF", seq(retr("f1", service="lf1"))),
    ]
    pairs = [("lx0", "lw1"), ("lf1", "lx4")]
    # Every other service takes the workload's default of 1.0.
    durations = {"lw0": lead, "lf1": flight}
    return processes, pairs, durations, FailurePlan.fail_once(["lx3"])


def run_simulated(cls, case, runner_cls=SimulationRunner):
    spec = case["spec"]
    workload = generate_workload(spec)
    extra, extra_failures = [], None
    if case["lazy_switch"] is not None:
        extra, pairs, durations, extra_failures = lazy_switch(
            *case["lazy_switch"]
        )
        for pair in pairs:
            workload.conflicts.declare(*pair)
        workload.durations.update(durations)
    manager = None
    if case["resilience"]:
        manager = ResilienceManager(
            policy=RetryPolicy(
                timeout=5.0, max_attempts=3, base_delay=0.2, seed=spec.seed
            ),
            breaker=BreakerConfig(failure_threshold=2, reset_timeout=4.0),
        )
    scheduler = cls(
        conflicts=workload.conflicts,
        resilience=manager,
        admission=(
            AdmissionConfig(
                max_active=case["max_active"],
                max_queue_depth=case["max_queue_depth"],
                max_queue_age=6.0,
                shed_policy="shed-youngest-brec",
            )
            if case["open_loop"]
            else None
        ),
        watchdogs=WatchdogConfig(
            starvation_rounds=case["starvation_rounds"],
            livelock_flaps=case["livelock_flaps"],
        ),
    )
    if case["mutation"] is not None:
        scheduler.add_listener(
            mutate_after(workload.conflicts, *case["mutation"])
        )
    if case["open_loop"]:
        times = generate_arrivals(
            len(workload.processes),
            ArrivalSpec(
                offered_load=case["offered_load"], seed=spec.seed + 1
            ),
        )
        runner = runner_cls(
            scheduler,
            durations=workload.duration,
            offers=[
                Arrival(time=time, process=process, failures=workload.failures)
                for time, process in zip(times, workload.processes)
            ]
            + [
                Arrival(time=0.0, process=process, failures=extra_failures)
                for process in extra
            ],
        )
    else:
        arrivals = {
            scheduler.submit(process, failures=workload.failures): (
                index * case["spacing"]
            )
            for index, process in enumerate(workload.processes)
        }
        for process in extra:
            arrivals[scheduler.submit(process, failures=extra_failures)] = 0.0
        runner = runner_cls(
            scheduler, durations=workload.duration, arrivals=arrivals
        )
    return scheduler, drive(scheduler, runner.run), runner


@settings(max_examples=60, deadline=None)
@given(case=simulated_cases())
@example(
    # W1 leaves SWITCHING inside a step that then defers, after W3 —
    # parked on W1 — was polled: the round finds no progress but moved
    # a state, so it is no stall, and the next round steps W3.
    case={
        "spec": WorkloadSpec(
            processes=6,
            service_pool=7,
            conflict_rate=0.125,
            failure_rate=0.2,
            alternative_probability=0.5,
            seed=11454,
        ),
        "open_loop": False,
        "offered_load": 1.0,
        "max_active": 1,
        "max_queue_depth": 0,
        "spacing": 0.0,
        "resilience": False,
        "starvation_rounds": 3,
        "livelock_flaps": 2,
        "mutation": None,
        "lazy_switch": None,
    }
)
@example(
    # :func:`lazy_switch`: LW sleeps on LX while the gate's question
    # switches LX's alternatives and LF's flight holds LX for two more
    # units of virtual time.
    case={
        "spec": WorkloadSpec(
            processes=4,
            service_pool=4,
            conflict_rate=0.0,
            failure_rate=0.0,
            alternative_probability=0.0,
            seed=7,
        ),
        "open_loop": False,
        "offered_load": 1.0,
        "max_active": 1,
        "max_queue_depth": 0,
        "spacing": 0.0,
        "resilience": False,
        "starvation_rounds": 30,
        "livelock_flaps": 4,
        "mutation": None,
        "lazy_switch": (3.5, 6.0),
    }
)
def test_simulated_decisions_are_identical(case):
    real, real_metrics, checked = run_simulated(
        TransactionalProcessScheduler, case, SleepCheckingRunner
    )
    polling, polling_metrics, _ = run_simulated(PollingScheduler, case)
    assert checked.wrong == []
    assert not polling.asleep  # the oracle passed nobody over
    assert_same_decisions([real, polling])
    if real_metrics is not None:
        assert real_metrics.makespan == polling_metrics.makespan
        assert real_metrics.process_spans == polling_metrics.process_spans


# -- FederationRunner ------------------------------------------------------


class PollingFederationRunner(FederationRunner):
    """The federated oracle: every round asks every gate of every live
    process, as before rounds touched only what moved — nobody is
    passed over asleep."""

    def _pass(self, shard, scheduler, gate, relations, order, asleep, now):
        return super()._pass(
            shard, scheduler, gate, relations, order, None, now
        )


class PassCheckingFederationRunner(PassChecking, FederationRunner):
    """The federated driver, every pass-over and step checked; a
    process the federation's gates defer must have the signature the
    driver already recorded, and one they let through must have been
    started."""

    def _deferred(self, shard, scheduler, pid):
        asked = self.metrics.gate_evaluations
        record = self._fed_gate(shard, pid, self.queue.clock.now)
        self.metrics.gate_evaluations = asked
        if record is not None:
            signature = (record.rule, record.waiting_for)
            if self._last_gate.get(pid) == signature:
                return "gated"
            return "new verdict"
        if pid not in self._started:
            return "awake"
        return None


def as_runner(runner, cls):
    """``build_federation`` names the production runner; the oracle and
    the test doubles are the same object under another class."""
    runner.__class__ = cls
    return runner


def federated_outcome(federation, runner, sink=None):
    """Run to the end (or to the error both drivers must share);
    everything the run decided and did, effort counters aside."""
    # Transaction numbers come from a counter every subsystem of the
    # Python process shares, and lock waits and residue name them: each
    # run starts it over, as a run in a process of its own would.
    Subsystem._txn_ids = itertools.count(1)
    try:
        runner.run()
        error = None
    except Exception as failure:  # a stall is a result, on both drivers
        error = f"{type(failure).__name__}: {failure}"
    return {
        "error": error,
        "history": schedule_to_dict(federation.merged_history()),
        "audit": federation.validate(),
        "trace": sink.records() if sink is not None else None,
        "metrics": replace(runner.metrics, gate_evaluations=0),
        "stores": federation.snapshot(),
        "counters": federation.counters(),
        "schedulers": {
            shard_id: (shard.scheduler.statuses(), dict(shard.scheduler.stats))
            for shard_id, shard in federation.shards.items()
        },
    }


@st.composite
def federated_specs(draw):
    return FederationSpec(
        shards=2,
        service_groups=draw(st.integers(2, 4)),
        processes_per_group=draw(st.integers(1, 3)),
        cross_shard_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        conflict_rate=draw(st.sampled_from([0.0, 0.05, 0.2])),
        shard_capacity=draw(st.integers(1, 4)),
        delay_rate=draw(st.sampled_from([0.0, 0.3])),
        duplicate_rate=draw(st.sampled_from([0.0, 0.3])),
        partitions=draw(
            st.sampled_from([(), ((1.0, 0, 1, 3.0),), ((0.0, 0, 1, 6.0),)])
        ),
        seed=draw(st.integers(0, 2**16)),
    )


def run_federated(cls, spec):
    federation, runner = build_federation(spec)
    for shard in federation.shards.values():
        shard.scheduler.__class__ = cls
    metrics = runner.run()
    assert federation.all_terminated()
    return federation, metrics


@settings(max_examples=40, deadline=None)
@given(spec=federated_specs())
def test_federated_decisions_are_identical(spec):
    (real, real_metrics), (polling, polling_metrics) = [
        run_federated(cls, spec) for cls in SCHEDULERS
    ]
    assert schedule_to_dict(real.merged_history()) == schedule_to_dict(
        polling.merged_history()
    )
    assert real.snapshot() == polling.snapshot()
    # A scheduler that never parks makes the driver ask more: the
    # effort differs, nothing decided does.
    assert replace(real_metrics, gate_evaluations=0) == replace(
        polling_metrics, gate_evaluations=0
    )
    for shard_id, shard in real.shards.items():
        assert_same_decisions(
            [shard.scheduler, polling.shards[shard_id].scheduler]
        )


@st.composite
def driven_cases(draw):
    shards = draw(st.integers(2, 4))
    # Recovery is synchronous and needs its peers: no recovery instant
    # (5.0; 2.5 and 9.0) lies inside a partition window below.
    kills = draw(
        st.sampled_from(
            [(), ((2.0, 0, 3.0),), ((1.0, 1, 1.5), (6.0, 0, 3.0))]
        )
    )
    spec = FederationSpec(
        shards=shards,
        service_groups=draw(st.integers(shards, 6)),
        processes_per_group=draw(st.integers(1, 3)),
        cross_shard_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        conflict_rate=draw(st.sampled_from([0.0, 0.05, 0.2])),
        shard_capacity=draw(st.integers(1, 4)),
        # Drops only without kills: a vote dropped inside ``recover()``
        # is a veto at one frozen instant, and one seed in a few hundred
        # retries its group for 100 000 rounds there (either driver).
        drop_rate=0.0 if kills else draw(st.sampled_from([0.0, 0.25])),
        delay_rate=draw(st.sampled_from([0.0, 0.3])),
        duplicate_rate=draw(st.sampled_from([0.0, 0.3])),
        kills=kills,
        partitions=draw(
            st.sampled_from([(), ((3.0, 0, 1, 1.5),), ((5.5, 0, 1, 3.0),)])
        ),
        seed=draw(st.integers(0, 2**16)),
    )
    names = spec.service_names()
    return {
        "spec": spec,
        "mutation": draw(
            st.none()
            | st.tuples(
                st.integers(1, 12),
                st.tuples(st.sampled_from(names), st.sampled_from(names)),
            )
        ),
        #: Driver round in which one more process is submitted.
        "late_submission": draw(st.none() | st.integers(1, 30)),
    }


def run_driven(cls, case, runners=None):
    """One driven case under driver ``cls``; the driver is appended to
    ``runners`` if given."""
    spec = case["spec"]
    bus = TraceBus()
    sink = bus.subscribe(MemorySink())
    federation, runner = build_federation(spec, trace=bus)
    as_runner(runner, cls)
    if runners is not None:
        runners.append(runner)
    if case["mutation"] is not None:
        listener = mutate_after(federation._explicit, *case["mutation"])
        for shard in federation.shards.values():
            shard.scheduler.add_listener(listener)
    if case["late_submission"] is not None:
        rounds = {"seen": 0}
        late = generate_process(
            random.Random(spec.seed),
            WorkloadSpec(processes=1, max_depth=1, seed=spec.seed),
            "late",
            spec.service_names()[:4],
        )

        def on_round(now):
            rounds["seen"] += 1
            home = federation.router.route(late)
            if (
                rounds["seen"] == case["late_submission"]
                and federation.shards[home].alive
            ):
                federation.submit(late)

        runner.on_round = on_round
    return federated_outcome(federation, runner, sink)


@settings(max_examples=40, deadline=None)
@given(case=driven_cases())
def test_federated_rounds_touch_only_what_moved(case):
    """The driver's pass-overs decide what asking every gate every round
    decides: same merged history, decision audit, trace stream,
    deferral, victim and round counts and stores — through kills, timed
    partitions, message faults, mid-run conflict mutation and a late
    submission; and each process it passes over, asking would have
    deferred or refused at that moment."""
    runners = []
    real = run_driven(PassCheckingFederationRunner, case, runners)
    assert runners[0].wrong == []
    assert real == run_driven(PollingFederationRunner, case)
