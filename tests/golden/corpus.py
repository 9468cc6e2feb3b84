"""The golden scenarios: name → callable returning ``(history, terminal)``.

Every scenario is deterministic given its name (seeds are part of it)
and independent of ``PYTHONHASHSEED``.  ``terminal`` is whatever
describes the end state a user could observe: process statuses and the
committed subsystem stores.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable, Dict, List, Tuple

from repro.core.schedule import ProcessSchedule
from repro.core.scheduler import TransactionalProcessScheduler
from repro.scenarios.cim import run_cim
from repro.scenarios.commerce import build_commerce_scenario
from repro.scenarios.paper import (
    figure9_conflicts,
    paper_conflicts,
    process_p1,
    process_p2,
    process_p3,
)
from repro.scenarios.travel import build_travel_scenario
from repro.sim import crashpoints as crash_sim
from repro.sim import federation as fed_sim
from repro.sim import overload as overload_sim
from repro.sim.runner import SimulationRunner, simulate_run
from repro.sim.workload import WorkloadSpec, generate_workload
from repro.subsystems.failures import FailurePlan
from repro.subsystems.recovery import analyze_wal, replay_history
from repro.subsystems.wal import CHECKPOINT, InMemoryWAL

__all__ = ["SCENARIOS"]

Run = Tuple[ProcessSchedule, object]


def _terminal(scheduler: TransactionalProcessScheduler) -> Dict[str, object]:
    return {
        "statuses": {
            pid: status.value for pid, status in scheduler.statuses().items()
        },
        "stores": scheduler.registry.snapshot(),
    }


def _finish(scheduler: TransactionalProcessScheduler) -> Run:
    assert scheduler.all_terminated()
    return scheduler.history(), _terminal(scheduler)


def _shuffled_rounds(seed: int) -> Callable[[List[str]], List[str]]:
    """A seeded ``interleaving``: every round offers steps in a new order."""
    rng = random.Random(seed)

    def shuffled(ids: List[str]) -> List[str]:
        ids = list(ids)
        rng.shuffle(ids)
        return ids

    return shuffled


# -- the paper scenarios ---------------------------------------------------


def _cim(fail_test: bool) -> Run:
    _, scheduler = run_cim(fail_test=fail_test, paranoid=False)
    return _finish(scheduler)


def _commerce(simulated: bool) -> Run:
    scenario = build_commerce_scenario(
        orders=3, articles=("widget", "gadget"), stock=2
    )
    scheduler = TransactionalProcessScheduler(
        scenario.registry, scenario.conflicts
    )
    for index, process in enumerate(scenario.orders):
        scheduler.submit(
            process,
            failures=(
                FailurePlan.fail_once(["charge_payment"])
                if index == 1
                else FailurePlan.fail_times("dispatch", 2)
            ),
        )
    if simulated:
        simulate_run(scheduler)
    else:
        scheduler.run()
    return _finish(scheduler)


def _travel() -> Run:
    scenario = build_travel_scenario(trips=4, seats=2)
    scheduler = TransactionalProcessScheduler(
        scenario.registry, scenario.conflicts
    )
    for process in scenario.trips:
        scheduler.submit(process)
    scheduler.run()
    return _finish(scheduler)


def _figures(failing: Tuple[str, ...], seed: int) -> Run:
    """``P_1``, ``P_2`` (twice) and ``P_3`` under Example 3's conflicts."""
    conflicts = paper_conflicts()
    for left, right in figure9_conflicts().pairs():
        conflicts.declare(left, right)
    scheduler = TransactionalProcessScheduler(
        conflicts=conflicts, interleaving=_shuffled_rounds(seed)
    )
    # Explicit ids: auto-generated ``P2#<n>`` suffixes come from a
    # process-global counter.
    for instance_id, process in (
        ("P1", process_p1()),
        ("P2", process_p2()),
        ("P2b", process_p2()),
        ("P3", process_p3()),
    ):
        scheduler.submit(
            process,
            instance_id=instance_id,
            failures=FailurePlan.fail_once(failing),
        )
    scheduler.run()
    return _finish(scheduler)


# -- synthetic fleets ------------------------------------------------------


def _x7(processes: int, spacing: float = 0.0) -> Run:
    """The X7 benchmark's shape (``benchmarks/test_x7_scalability.py``)."""
    workload = generate_workload(
        WorkloadSpec(
            processes=processes, conflict_rate=0.05, failure_rate=0.0, seed=21
        )
    )
    scheduler = TransactionalProcessScheduler(conflicts=workload.conflicts)
    arrivals = {}
    for index, process in enumerate(workload.processes):
        pid = scheduler.submit(process)
        if spacing:
            arrivals[pid] = index * spacing
    simulate_run(scheduler, durations=workload.duration, arrivals=arrivals)
    return _finish(scheduler)


def _reactor(seed: int, failure_rate: float) -> Run:
    """A contended fleet through ``scheduler.run()`` with shuffled rounds."""
    workload = generate_workload(
        WorkloadSpec(
            processes=16,
            service_pool=10,
            conflict_rate=0.1,
            failure_rate=failure_rate,
            seed=seed,
        )
    )
    scheduler = TransactionalProcessScheduler(
        conflicts=workload.conflicts, interleaving=_shuffled_rounds(seed)
    )
    for process in workload.processes:
        scheduler.submit(process, failures=workload.failures)
    scheduler.run()
    return _finish(scheduler)


def _open_loop(spec: overload_sim.OverloadSpec) -> Run:
    """Admission + resilience + watchdogs on an open arrival stream."""
    scheduler, runner = overload_sim.build_overload(spec)
    runner.run()
    history, terminal = _finish(scheduler)
    terminal["shed"] = list(scheduler.shed_ids)
    terminal["rejected"] = scheduler.stats["rejected"]
    return history, terminal


_OPEN = overload_sim.OverloadSpec(
    workload=WorkloadSpec(
        processes=48, service_pool=16, conflict_rate=0.03, failure_rate=0.05
    ),
    offered_load=0.6,
    starvation_rounds=40,
    livelock_flaps=4,
)

#: Flaky subsystems: breakers trip, retry budgets run dry, the livelock
#: watchdog escalates and the ◁-alternative is taken.
_FLAKY = replace(
    _OPEN,
    workload=replace(_OPEN.workload, conflict_rate=0.05, failure_rate=0.25),
    starvation_rounds=20,
    livelock_flaps=2,
    breaker_threshold=2,
)

#: Far above capacity through a tight door: the shedder has to act.
_SHED = replace(
    _OPEN,
    workload=replace(_OPEN.workload, conflict_rate=0.15),
    offered_load=3.0,
    max_active=4,
    max_queue_depth=3,
)


def _mutating(seed: int) -> Run:
    """A conflict is declared, and another retracted, while the run is
    under way (keyed on recorded activities, which no scheduler-internal
    change of polling can move)."""
    workload = generate_workload(
        WorkloadSpec(
            processes=20, service_pool=12, conflict_rate=0.06, seed=seed
        )
    )
    conflicts = workload.conflicts
    retractable = sorted(conflicts.pairs())
    scheduler = TransactionalProcessScheduler(conflicts=conflicts)
    recorded = {"activities": 0}

    def mutate(kind: str, payload: Dict[str, object]) -> None:
        if kind != "activity":
            return
        recorded["activities"] += 1
        if recorded["activities"] == 12:
            conflicts.declare("svc0", "svc1")
            conflicts.declare("svc2", "svc2")
        elif recorded["activities"] == 30:
            conflicts.retract(*retractable[0])

    scheduler.add_listener(mutate)
    for process in workload.processes:
        scheduler.submit(process)
    SimulationRunner(scheduler, durations=workload.duration).run()
    return _finish(scheduler)


# -- federated runs --------------------------------------------------------


def _federated(spec: fed_sim.FederationSpec) -> Run:
    federation, runner = fed_sim.build_federation(spec)
    runner.run()
    assert federation.all_terminated()
    committed, aborted = set(), set()
    for shard in federation.shards.values():
        analysis = analyze_wal(shard.wal)
        committed |= analysis.committed
        aborted |= analysis.aborted
    terminal = {
        "committed": sorted(committed),
        "aborted": sorted(aborted - committed),
        "stores": federation.snapshot(),
    }
    return federation.merged_history(), terminal


_FED2 = fed_sim.FederationSpec(
    shards=2,
    service_groups=4,
    processes_per_group=3,
    cross_shard_fraction=0.5,
    conflict_rate=0.05,
    delay_rate=0.2,
    duplicate_rate=0.1,
    seed=5,
)

_FED4 = fed_sim.FederationSpec(
    shards=4,
    service_groups=8,
    processes_per_group=3,
    disjoint_processes=True,
    cross_shard_fraction=0.5,
    conflict_rate=0.01,
    delay_rate=0.1,
    seed=11,
)

_FED4_KILL = replace(
    _FED4, drop_rate=0.1, kills=((3.0, 1, 4.0),), seed=12
)

#: ``kill_sweep``'s shape: drops, delays and duplicates on every link, a
#: partition, and every shard killed and recovered once.
_KILL_SWEEP = fed_sim.FederationSpec(
    shards=3,
    service_groups=6,
    processes_per_group=2,
    cross_shard_fraction=0.35,
    conflict_rate=0.05,
    drop_rate=0.15,
    delay_rate=0.15,
    duplicate_rate=0.15,
    kills=tuple((4.0 + 8.0 * index, index, 4.0) for index in range(3)),
    partitions=((2.0, 0, 1, 2.0),),
)

#: Heavy drops veto cross-shard groups, and F-REC re-executes the
#: rolled-back leg: this run executes ``P5-0.a4`` twice with an
#: ``activity_rollback`` between.  The survivor is the re-execution, and
#: the merged history must place it there (see EXPERIMENTS X20 — before
#: PR 20 it was merged where the vetoed attempt had been).
_REEXEC = fed_sim.FederationSpec(
    shards=4,
    service_groups=8,
    processes_per_group=3,
    cross_shard_fraction=0.8,
    conflict_rate=0.05,
    drop_rate=0.3,
    delay_rate=0.2,
    duplicate_rate=0.1,
    kills=((2.0, 0, 3.0), (6.0, 1, 2.0)),
    seed=4,
)


# -- single-scheduler crash recovery ---------------------------------------


#: Six processes, a third of which commit through 2PC groups, under
#: per-attempt abort chaos: crash points land between a group's begin
#: and its decision, inside compensations and after terminations.
_CRASH = crash_sim.CrashPointSpec(
    workload=WorkloadSpec(
        processes=6, prefix_range=(1, 3), service_pool=8, conflict_rate=0.15
    ),
    abort_rate=0.15,
    seed=3,
)


def _log_view(key: str, value):
    """A record field without what depends on earlier runs: legs are
    counted, and a redo entry keeps its subsystem and each write's value
    and version (ledger keys and the transaction embed the id)."""
    if key == "participants":
        return len(value)
    if key == "redo":
        return [
            [subsystem, [write[1:] for write in writes]]
            for subsystem, _, writes in value
        ]
    return value


def _crash_recovery(
    position: float, checkpoint_interval=None, keep=None
) -> Run:
    """Crash the seeded crash-point workload ``position`` of the way
    through its log (a whole number: at that LSN), recover, and read
    everything back from the log: the replayed history, the durable
    outcomes, every retained non-checkpoint record as written, and the
    stores.  With ``keep`` the crash is a power cut: of the records no
    force had covered only that many survive.  Transaction ids come
    from a process-global counter, so they are reduced to what does not
    depend on what ran earlier: a leg count, ledger values."""
    spec = replace(_CRASH, checkpoint_interval=checkpoint_interval)
    crash_lsn = int(
        position
        if position >= 1
        else crash_sim.baseline_lsns(spec, ledger=True) * position
    )
    wal = InMemoryWAL()
    crashing = crash_sim.CrashingWAL(wal, crash_lsn=crash_lsn)
    scheduler, repository, workload, failures = crash_sim.build_crash_world(
        spec, crashing, ledger=True
    )
    assert crash_sim.drive_to_crash(scheduler, workload, failures)
    scheduler.crash()
    if keep is not None:
        assert wal.unforced > keep, "the cut must lose something"
        wal.lose_tail(keep)
    report, verdict = crash_sim.recover_and_certify(
        wal,
        scheduler.registry,
        repository,
        workload,
        compacted=crashing.compacted,
        ledger=True,
    )
    assert verdict.certified, verdict.describe()
    analysis = analyze_wal(wal)
    terminal = {
        "committed": sorted(analysis.committed),
        "aborted": sorted(analysis.aborted),
        "group_aborted": list(report.group_aborted),
        "log": [
            {
                key: _log_view(key, value)
                for key, value in record.items()
                if key != "txn"
            }
            for record in wal.records()
            if record["type"] != CHECKPOINT
        ],
        "stores": {
            name: sorted(store.values())
            for name, store in scheduler.registry.snapshot().items()
        },
    }
    return replay_history(wal, repository, workload.conflicts), terminal


SCENARIOS: Dict[str, Callable[[], Run]] = {
    "cim/ok": lambda: _cim(False),
    "cim/fail-test": lambda: _cim(True),
    "commerce/reactor": lambda: _commerce(False),
    "commerce/simulated": lambda: _commerce(True),
    "travel/trips=4,seats=2": _travel,
    "figures/no-failure/seed=1": lambda: _figures((), 1),
    "figures/fail-s14/seed=2": lambda: _figures(("s14",), 2),
    "figures/fail-s12,s23/seed=3": lambda: _figures(("s12", "s23"), 3),
    "x7/processes=12": lambda: _x7(12),
    "x7/processes=24": lambda: _x7(24),
    "x7/processes=48": lambda: _x7(48),
    "x7/processes=8,staged": lambda: _x7(8, spacing=2.0),
    "reactor/seed=3": lambda: _reactor(3, 0.0),
    "reactor/seed=4,failures": lambda: _reactor(4, 0.1),
    "open-loop/seed=7": lambda: _open_loop(_OPEN.with_seed(7)),
    "open-loop/seed=8": lambda: _open_loop(_OPEN.with_seed(8)),
    "open-loop/flaky/seed=10": lambda: _open_loop(_FLAKY.with_seed(10)),
    "load-shed/seed=9": lambda: _open_loop(_SHED.with_seed(9)),
    "conflict-mutation/seed=5": lambda: _mutating(5),
    "conflict-mutation/seed=6": lambda: _mutating(6),
    "federated/2-shards": lambda: _federated(_FED2),
    "federated/4-shards": lambda: _federated(_FED4),
    "federated/4-shards,kill": lambda: _federated(_FED4_KILL),
    **{
        f"federated/kill-sweep/seed={seed}": (
            lambda seed=seed: _federated(_KILL_SWEEP.with_seed(seed))
        )
        for seed in range(4)
    },
    "federated/re-execution/seed=4": lambda: _federated(_REEXEC),
    **{
        f"crash-recovery/{label}{suffix}": (
            lambda position=position, interval=interval: _crash_recovery(
                position, interval
            )
        )
        for label, position in (("early", 0.1), ("middle", 0.5), ("late", 0.9))
        for suffix, interval in (("", None), (",checkpointed", 8))
    },
    # Power cuts: the log keeps its forced part and ``keep`` records of
    # the rest.  LSN 5 is all submissions, nothing forced yet; 27 (29
    # checkpointed) sits behind a decided group, on the next held
    # invocation of the same process and the begin of its next group —
    # ``keep=3`` cuts between those two; 44 is a failed attempt, then a
    # first held invocation and its group's begin.
    **{
        f"crash-recovery/tail-loss-lsn={lsn},keep={keep}{suffix}": (
            lambda lsn=lsn, keep=keep, interval=interval: _crash_recovery(
                lsn, interval, keep
            )
        )
        for lsn, keep, suffix, interval in (
            (5, 0, "", None),
            (5, 3, "", None),
            (27, 0, "", None),
            (27, 3, "", None),
            (44, 0, "", None),
            (44, 2, "", None),
            (29, 0, ",checkpointed", 8),
            (29, 3, ",checkpointed", 8),
        )
    },
}
