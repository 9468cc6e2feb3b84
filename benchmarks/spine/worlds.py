"""The four spine workloads, rebuilt from the repo's public classes.

A *world* is one freshly constructed system under test.  ``inputs`` are
generated from the seed outside any timed region (the program receives
only generated inputs); constructing a world from them is the set-up
the benchmark times, ``run()`` is the run phase, ``outcome()`` reads
the results back afterwards.  Nothing here certifies or times anything:
``measure.py`` does that from outside.
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.admission import AdmissionConfig, WatchdogConfig
from repro.core.conflict import ExplicitConflicts
from repro.core.schedule import ProcessSchedule
from repro.core.scheduler import ManagedStatus, TransactionalProcessScheduler
from repro.fed.federation import Federation
from repro.fed.messages import FederationNetwork, MessageFaultPolicy
from repro.fed.router import ShardRouter
from repro.fed.runner import FederationRunner
from repro.resilience import BreakerConfig, ResilienceManager, RetryPolicy
from repro.sim.clock import VirtualClock
from repro.sim.overload import OverloadSpec
from repro.sim.runner import Arrival, SimulationRunner
from repro.sim.workload import (
    ArrivalSpec,
    WorkloadSpec,
    generate_arrivals,
    generate_process,
    generate_workload,
)
from repro.subsystems.backend import BackendHub
from repro.subsystems.services import Service, ServicePair, counter_service
from repro.subsystems.subsystem import Subsystem, SubsystemRegistry
from repro.subsystems.wal import FileWAL, WriteAheadLog

__all__ = [
    "Outcome",
    "WORLDS",
    "OPEN_RATE",
    "SWEEP_RATES",
    "fresh_directory",
]

#: Arrival rate of ``open-steady`` and the rates its sweep visits.
OPEN_RATE = 0.25
SWEEP_RATES = (0.10, 0.16, 0.25, 0.40, 0.63, 1.00)


@dataclass
class Outcome:
    """What one finished sub-run produced, read back from outside."""

    offered: int
    committed: int
    #: Virtual-time latencies of the committed processes.
    latencies: List[float]
    makespan: float
    history: ProcessSchedule
    #: Every process reached a terminal state (or was turned away).
    terminated: bool
    #: Raw counters for the per-layer extras (see ``measure.layer_extras``).
    counts: Dict[str, float] = field(default_factory=dict)


def _sum_counts(schedulers) -> Dict[str, float]:
    """Scheduler stats plus the public perf snapshot, summed over shards."""
    totals: Dict[str, float] = {}
    for scheduler in schedulers:
        for source in (scheduler.stats, scheduler.perf_snapshot()):
            for key, value in source.items():
                totals[key] = totals.get(key, 0) + value
    return totals


class _SingleScheduler:
    """Shared read-back for the three single-scheduler worlds."""

    #: The span that encloses the whole run phase (see trace.py).
    root_span = "sim.runner.run"
    #: Whether the run waits on real fsyncs (see measure.fsync_seconds).
    durable = False
    scheduler: TransactionalProcessScheduler
    runner: SimulationRunner
    offered: int

    def run(self) -> None:
        self.metrics = self.runner.run()

    def _latency_origin(self, pid: str) -> float:
        raise NotImplementedError

    def outcome(self) -> Outcome:
        scheduler = self.scheduler
        latencies = [
            end - self._latency_origin(pid)
            for pid, (_, end) in self.metrics.process_spans.items()
            if scheduler.managed(pid).status is ManagedStatus.COMMITTED
        ]
        counts = _sum_counts([scheduler])
        counts["queue_peak"] = self.metrics.peak_queue_depth
        if scheduler.resilience is not None:
            snapshot = scheduler.resilience.snapshot()
            counts["resilience_retries"] = snapshot.get("retries", 0)
            counts["breaker_trips"] = snapshot.get("breaker_trips", 0)
        return Outcome(
            offered=self.offered,
            committed=self.metrics.processes_committed,
            latencies=latencies,
            makespan=self.metrics.makespan,
            history=scheduler.history(),
            terminated=scheduler.all_terminated()
            and scheduler.queue_depth() == 0,
            counts=counts,
        )

    def audit(self) -> List[str]:
        """Workload-specific correctness problems of the finished run."""
        return []

    def close(self) -> None:
        self.scheduler.registry.close()


class OpenSteady(_SingleScheduler):
    """Open loop through the admission door, below the knee."""

    name = "open-steady"
    processes = 120

    @classmethod
    def inputs(cls, seed: int, rate: float = OPEN_RATE):
        workload = generate_workload(
            WorkloadSpec(
                processes=cls.processes,
                service_pool=64,
                conflict_rate=0.005,
                failure_rate=0.02,
                seed=seed,
            )
        )
        times = generate_arrivals(
            cls.processes, ArrivalSpec(offered_load=rate, seed=seed + 1)
        )
        return seed, workload, times

    def __init__(self, inputs, workdir: str, trace=None) -> None:
        seed, workload, times = inputs
        defaults = OverloadSpec()
        manager = ResilienceManager(
            policy=RetryPolicy(
                timeout=defaults.timeout,
                max_attempts=defaults.max_attempts,
                base_delay=defaults.base_delay,
                seed=seed,
            ),
            breaker=BreakerConfig(
                failure_threshold=defaults.breaker_threshold,
                reset_timeout=defaults.breaker_reset,
            ),
        )
        self.scheduler = TransactionalProcessScheduler(
            conflicts=workload.conflicts,
            resilience=manager,
            admission=AdmissionConfig(
                max_active=8,
                max_queue_depth=32,
                max_queue_age=20,
                shed_policy="shed-youngest-brec",
            ),
            watchdogs=WatchdogConfig(500, 40),
            trace=trace,
        )
        offers = [
            Arrival(time=time, process=process, failures=workload.failures)
            for time, process in zip(times, workload.processes)
        ]
        self.offered = len(offers)
        self.runner = SimulationRunner(
            self.scheduler, durations=workload.duration, offers=offers
        )

    def _latency_origin(self, pid: str) -> float:
        return self.scheduler.managed(pid).offered_at

    def audit(self) -> List[str]:
        """The open-loop generator must not run late.

        Offers fire on the virtual-time event queue, so the gap between
        an offer's due time and when it was made is 0 by construction.
        """
        arrivals = self.runner.arrivals
        lag = max(
            (
                abs(self.scheduler.managed(pid).offered_at - arrivals[pid])
                for pid in self.scheduler.instance_ids()
            ),
            default=0.0,
        )
        return [f"open-loop generator ran {lag} late"] if lag else []


class BatchContended(_SingleScheduler):
    """X7's shape: everything submitted at t = 0 into a small pool."""

    name = "batch-contended"
    processes = 48

    @classmethod
    def inputs(cls, seed: int):
        return generate_workload(
            WorkloadSpec(
                processes=cls.processes,
                service_pool=20,
                conflict_rate=0.05,
                seed=seed,
            )
        )

    def __init__(self, inputs, workdir: str, trace=None) -> None:
        workload = inputs
        self.scheduler = TransactionalProcessScheduler(
            conflicts=workload.conflicts, trace=trace
        )
        for process in workload.processes:
            self.scheduler.submit(process)
        self.offered = len(workload.processes)
        self.runner = SimulationRunner(
            self.scheduler, durations=workload.duration
        )

    def _latency_origin(self, pid: str) -> float:
        return 0.0  # everything is submitted at t = 0


def ledger_service(name: str) -> ServicePair:
    """Forward writes ``<name>/<txn>`` = 1, compensation the −1 row.

    Physical keys are unique per invocation, so every commit carries a
    non-empty write batch (a real store fsync) without lock contention.
    """

    def forward(context) -> object:
        context.write(f"{name}/{context.txn_id}", 1)
        return 1

    def inverse(context) -> object:
        context.write(f"{name}~inv/{context.txn_id}", -1)
        return -1

    return ServicePair(
        forward=Service(name=name, handler=forward),
        compensation=Service(name=f"{name}~inv", handler=inverse),
    )


class DurableClosed(_SingleScheduler):
    """Closed loop, 8 clients, sqlite stores and an fsynced file WAL."""

    name = "durable-closed"
    durable = True
    processes = 32
    service_pool = 32
    #: The scheduler appends ≈ 480 of a sub-run's ≈ 800 records itself
    #: (the 2PC coordinator writes the rest), so the issue's interval of
    #: 500 would never fire; 200 gives two checkpoints per sub-run.
    checkpoint_interval = 200

    @classmethod
    def inputs(cls, seed: int):
        return generate_workload(
            WorkloadSpec(
                processes=cls.processes,
                service_pool=cls.service_pool,
                conflict_rate=0.0,
                seed=seed,
            )
        )

    def __init__(
        self,
        inputs,
        workdir: str,
        trace=None,
        wrap_wal=None,
    ) -> None:
        workload = inputs
        self.workload = workload
        self.directory = workdir
        self.hub = BackendHub("sqlite", directory=workdir)
        registry = SubsystemRegistry(backend_factory=self.hub.backend_for)
        subsystem = registry.provision("default")
        for index in range(self.service_pool):
            subsystem.register(ledger_service(f"svc{index}"))
        self.wal_path = os.path.join(workdir, "scheduler.wal")
        self.wal = FileWAL(self.wal_path, fsync=True)
        #: ``wrap_wal`` lets Phase R put a CrashingWAL in front.
        log: WriteAheadLog = (
            wrap_wal(self.wal) if wrap_wal is not None else self.wal
        )
        self.scheduler = TransactionalProcessScheduler(
            registry=registry,
            conflicts=workload.conflicts,
            wal=log,
            checkpoint_interval=self.checkpoint_interval,
            admission=AdmissionConfig(
                max_active=8,
                max_queue_depth=self.processes + 1,
                max_queue_age=None,
                shed_policy="reject-new",
            ),
            trace=trace,
        )
        self.repository = {
            process.process_id: process for process in workload.processes
        }
        offers = [
            Arrival(time=0.0, process=process)
            for process in workload.processes
        ]
        self.offered = len(offers)
        self.runner = SimulationRunner(
            self.scheduler, durations=workload.duration, offers=offers
        )

    def _latency_origin(self, pid: str) -> float:
        return self.scheduler.managed(pid).admitted_at

    def outcome(self) -> Outcome:
        outcome = super().outcome()
        outcome.counts["wal_fsyncs"] = self.wal.fsyncs
        outcome.counts["store_fsyncs"] = self.hub.fsyncs
        outcome.counts["wal_final_bytes"] = os.path.getsize(self.wal_path)
        return outcome

    def close(self) -> None:
        self.wal.close()
        self.scheduler.registry.close()
        self.hub.close()


class FedCross:
    """Four shards, half the processes cross-shard, delayed messages.

    The ``sim/federation.py`` shape rebuilt from the public classes,
    because ``run_federation`` certifies inside the call.
    """

    name = "fed-cross"
    root_span = "fed.runner.run"
    durable = False
    shards = 4
    service_groups = 16
    services_per_group = 3
    processes_per_group = 4
    cross_shard_fraction = 0.5
    conflict_rate = 0.005
    delay_rate = 0.1
    shard_capacity = 4

    @classmethod
    def inputs(cls, seed: int):
        """Service layout, conflict pairs and processes for one seed."""
        rng = random.Random(seed)
        per_group = cls.services_per_group * cls.processes_per_group
        groups = [
            [f"g{group}s{index}" for index in range(per_group)]
            for group in range(cls.service_groups)
        ]
        services = [service for group in groups for service in group]
        pairs = [
            (left, right)
            for i, left in enumerate(services)
            for right in services[i + 1:]
            if rng.random() < cls.conflict_rate
        ]
        shape = WorkloadSpec(
            processes=1,
            prefix_range=(1, 2),
            suffix_range=(1, 2),
            alternative_probability=0.25,
            max_depth=1,
            seed=seed,
        )
        processes = []
        for group in range(cls.service_groups):
            for index in range(cls.processes_per_group):
                start = index * cls.services_per_group
                pool = groups[group][start:start + cls.services_per_group]
                if rng.random() < cls.cross_shard_fraction:
                    other = rng.randrange(cls.service_groups - 1)
                    if other >= group:
                        other += 1
                    pool = pool + groups[other]
                processes.append(
                    generate_process(rng, shape, f"P{group}-{index}", pool)
                )
        return seed, groups, pairs, processes

    def __init__(self, inputs, workdir: str, trace=None) -> None:
        seed, groups, pairs, processes = inputs
        owners: Dict[str, str] = {}
        subsystems: List[Subsystem] = []
        for group, services in enumerate(groups):
            subsystem = Subsystem(f"grp{group}")
            for service in services:
                subsystem.register(counter_service(service, key=service))
                owners[service] = f"s{group % self.shards}"
            subsystems.append(subsystem)
        self.subsystems = subsystems
        network = FederationNetwork(
            MessageFaultPolicy(
                delay_rate=self.delay_rate, delay_span=(0.5, 2.0), seed=seed
            )
        )
        self.federation = Federation(
            ShardRouter(owners),
            subsystems,
            network=network,
            conflicts=ExplicitConflicts(pairs),
            clock=VirtualClock(),
            trace=trace,
        )
        for process in processes:
            self.federation.submit(process)
        self.offered = len(processes)
        self.runner = FederationRunner(
            self.federation, capacity=self.shard_capacity
        )

    def run(self) -> None:
        self.metrics = self.runner.run()

    def outcome(self) -> Outcome:
        federation = self.federation
        metrics = self.metrics
        committed = set()
        for shard in federation.shards.values():
            statuses = shard.scheduler.statuses()
            committed |= {
                pid
                for pid, status in statuses.items()
                if status is ManagedStatus.COMMITTED
            }
        counts = _sum_counts(
            shard.scheduler for shard in federation.shards.values()
        )
        counts.update(federation.counters())
        counts["fed_deferrals"] = metrics.fed_deferrals
        counts["cross_victims"] = metrics.cross_victims
        counts["driver_rounds"] = metrics.iterations
        return Outcome(
            offered=self.offered,
            committed=metrics.committed,
            # Everything is submitted at t = 0, so the start-gate wait
            # before a process's first step is part of its latency.
            latencies=[
                end
                for pid, (_, end) in metrics.process_spans.items()
                if pid in committed
            ],
            makespan=metrics.makespan,
            history=federation.merged_history(),
            terminated=federation.all_terminated(),
            counts=counts,
        )

    def audit(self) -> List[str]:
        audit = self.federation.validate()
        return [] if audit.clean else [f"federation audit not clean: {audit}"]

    def close(self) -> None:
        for subsystem in self.subsystems:
            subsystem.close()


WORLDS = {
    world.name: world
    for world in (OpenSteady, BatchContended, DurableClosed, FedCross)
}


def fresh_directory(root: str, label: str) -> str:
    """An empty directory under ``root`` for one sub-run's files."""
    path = os.path.join(root, label)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
