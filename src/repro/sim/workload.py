"""Randomised workloads of well-formed flex processes.

The paper has no quantitative evaluation; the extension benchmarks
(X1-X6) need controlled synthetic workloads whose knobs map to the
paper's concepts:

* **process shape** — number of activities, alternative-path depth and
  the compensatable/pivot/retriable mix (the flex structure);
* **conflict rate** — the probability that two distinct services
  conflict (Definition 6), the x-axis of the scheduler comparison;
* **failure rate** — per-invocation abort probability, driving
  alternative execution and recovery.

Generation is fully deterministic given the seed.  Every generated
process has well-formed flex structure by construction (generated
through the :mod:`repro.core.flex` DSL), hence guaranteed termination.

:func:`build_world` is the one place a workload becomes a running
system: every single-scheduler harness (chaos, overload, crash points,
the discipline comparison, ``repro workload``) assembles its scheduler
and virtual-time runner through it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.conflict import ConflictRelation, ExplicitConflicts
from repro.core.flex import FlexSeq, build_process, choice, comp, pivot, retr, seq
from repro.core.process import Process
from repro.core.scheduler import TransactionalProcessScheduler
from repro.resilience import BreakerConfig, ResilienceManager, RetryPolicy
from repro.sim.runner import Arrival, SimulationRunner
from repro.subsystems.backend import BackendHub
from repro.subsystems.failures import FailurePolicy, ProbabilisticFailures
from repro.subsystems.services import ServicePair
from repro.subsystems.subsystem import SubsystemRegistry

__all__ = [
    "WorkloadSpec",
    "Workload",
    "generate_workload",
    "generate_process",
    "ArrivalSpec",
    "generate_arrivals",
    "build_world",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """Knobs of a synthetic workload."""

    #: Number of processes.
    processes: int = 8
    #: Inclusive range of compensatable activities before the pivot.
    prefix_range: Tuple[int, int] = (1, 3)
    #: Inclusive range of retriable activities after the pivot/branches.
    suffix_range: Tuple[int, int] = (1, 3)
    #: Probability that a pivot carries alternative branches.
    alternative_probability: float = 0.5
    #: Maximum nesting depth of alternative structures.
    max_depth: int = 2
    #: Number of distinct services in the shared pool.
    service_pool: int = 20
    #: Probability that two distinct pool services conflict.
    conflict_rate: float = 0.1
    #: Per-invocation abort probability (non-retriable activities fail
    #: terminally; retriable ones retry).
    failure_rate: float = 0.0
    #: RNG seed — everything is deterministic given the seed.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.processes < 1:
            raise ValueError("workload needs at least one process")
        if not 0.0 <= self.conflict_rate <= 1.0:
            raise ValueError("conflict_rate must be in [0, 1]")
        if not 0.0 <= self.failure_rate < 1.0:
            raise ValueError("failure_rate must be in [0, 1)")


@dataclass
class Workload:
    """A generated workload, ready to submit to any scheduler."""

    spec: WorkloadSpec
    processes: List[Process]
    conflicts: ConflictRelation
    failures: FailurePolicy
    #: Per-service base durations for the simulation (virtual time).
    durations: Dict[str, float] = field(default_factory=dict)

    def duration(self, service: str) -> float:
        base = service.split("~", 1)[0]
        return self.durations.get(base, 1.0)


def generate_process(
    rng: random.Random,
    spec: WorkloadSpec,
    process_id: str,
    services: Sequence[str],
) -> Process:
    """Generate one well-formed flex process via the structure DSL."""
    counter = [0]

    def next_name() -> str:
        counter[0] += 1
        return f"a{counter[0]}"

    def pick_service() -> str:
        return rng.choice(services)

    def gen_retr_suffix() -> FlexSeq:
        length = rng.randint(*spec.suffix_range)
        return seq(
            *(retr(next_name(), service=pick_service()) for _ in range(length))
        )

    def gen_structure(depth: int) -> FlexSeq:
        prefix_length = rng.randint(*spec.prefix_range)
        parts = [
            comp(next_name(), service=pick_service())
            for _ in range(prefix_length)
        ]
        parts.append(pivot(next_name(), service=pick_service()))
        if depth < spec.max_depth and rng.random() < spec.alternative_probability:
            primary = gen_structure(depth + 1)
            fallback = gen_retr_suffix()
            return seq(*parts, choice(primary, fallback))
        return seq(*parts, gen_retr_suffix())

    return build_process(process_id, gen_structure(0))


@dataclass(frozen=True)
class ArrivalSpec:
    """Open-loop arrival model: processes arrive at a given offered load.

    The closed-loop workloads above submit a fixed batch and measure
    how fast it drains; overload cannot be expressed that way.  An
    arrival spec turns the same processes into an *open* system: they
    arrive over virtual time at :attr:`offered_load` processes per unit
    time, independently of how fast the scheduler completes them — the
    gap between offered load and capacity is what the admission layer
    has to absorb.
    """

    #: Mean arrivals per unit of virtual time (λ).
    offered_load: float = 1.0
    #: ``poisson`` — exponential inter-arrival times (memoryless open
    #: traffic); ``fixed`` — a deterministic 1/λ spacing.
    mode: str = "poisson"
    #: RNG seed for the Poisson draws (deterministic given the seed).
    seed: int = 0
    #: Virtual time of the first possible arrival.
    start: float = 0.0

    def __post_init__(self) -> None:
        if self.offered_load <= 0:
            raise ValueError("offered_load must be positive")
        if self.mode not in ("poisson", "fixed"):
            raise ValueError(
                f"mode must be 'poisson' or 'fixed', got {self.mode!r}"
            )


def generate_arrivals(count: int, spec: ArrivalSpec) -> List[float]:
    """``count`` non-decreasing arrival times under ``spec``."""
    if count < 0:
        raise ValueError("count must be >= 0")
    rng = random.Random(spec.seed)
    times: List[float] = []
    now = spec.start
    for _ in range(count):
        if spec.mode == "poisson":
            now += rng.expovariate(spec.offered_load)
        else:
            now += 1.0 / spec.offered_load
        times.append(now)
    return times


def generate_workload(spec: WorkloadSpec) -> Workload:
    """Generate processes, a conflict relation and a failure policy."""
    rng = random.Random(spec.seed)
    services = [f"svc{i}" for i in range(spec.service_pool)]

    processes = [
        generate_process(rng, spec, f"W{index}", services)
        for index in range(spec.processes)
    ]

    conflicts = ExplicitConflicts()
    for i in range(len(services)):
        for j in range(i, len(services)):
            if rng.random() < spec.conflict_rate:
                conflicts.declare(services[i], services[j])

    failures = ProbabilisticFailures(
        rate=spec.failure_rate, seed=spec.seed + 1
    )

    durations = {
        service: round(0.5 + rng.random(), 3) for service in services
    }
    return Workload(
        spec=spec,
        processes=processes,
        conflicts=conflicts,
        failures=failures,
        durations=durations,
    )


def build_world(
    workload: Workload,
    *,
    scheduler_cls: type = TransactionalProcessScheduler,
    order: str = "strong",
    hub: Optional[BackendHub] = None,
    services: Optional[Callable[[str], ServicePair]] = None,
    resilience: Optional[object] = None,
    failures: Optional[FailurePolicy] = None,
    arrivals: Optional[Sequence[float]] = None,
    submit: bool = True,
    **pieces: object,
) -> Tuple[object, SimulationRunner]:
    """Assemble one single-scheduler world: ``(scheduler, runner)``.

    Nothing runs and nothing is graded here — callers drive the runner
    and certify what it produced (:mod:`repro.sim.certify`).

    * ``scheduler_cls`` — a class of :data:`repro.sim.experiments.
      DISCIPLINES`; the baselines take ``hub`` only;
    * ``hub`` — backs every auto-provisioned subsystem with real
      storage (``None`` keeps the in-memory default);
    * ``services`` — ``name -> ServicePair`` registered for every pool
      service instead of the effect-free auto-provisioned no-ops (the
      store-level tortures need commits that really write);
    * ``resilience`` — any spec carrying ``timeout``, ``max_attempts``,
      ``base_delay``, ``breaker_threshold``, ``breaker_reset`` and
      ``seed``: it becomes the scheduler's resilience manager;
    * ``failures`` — every process's policy (default: the workload's);
    * ``arrivals`` — open loop: process *i* is offered to the admission
      door at ``arrivals[i]`` instead of being submitted up front;
    * ``submit=False`` — the caller submits: the crash-point driver does
      so inside its crash scope, because the first LSNs are
      ``process_submit`` records and a crash there must be survivable;
    * ``pieces`` — ``admission``, ``watchdogs``, ``wal``,
      ``checkpoint_interval``, ``trace``, ``metrics``, ...: scheduler
      constructor arguments, passed through unless ``None``.
    """
    registry = SubsystemRegistry(
        backend_factory=hub.backend_for if hub is not None else None
    )
    if services is not None:
        subsystem = registry.provision("default")
        for index in range(workload.spec.service_pool):
            subsystem.register(services(f"svc{index}"))
    if resilience is not None:
        pieces["resilience"] = ResilienceManager(
            policy=RetryPolicy(
                timeout=resilience.timeout,
                max_attempts=resilience.max_attempts,
                base_delay=resilience.base_delay,
                seed=resilience.seed,
            ),
            breaker=BreakerConfig(
                failure_threshold=resilience.breaker_threshold,
                reset_timeout=resilience.breaker_reset,
            ),
        )
    scheduler = scheduler_cls(
        registry=registry,
        conflicts=workload.conflicts,
        **{name: piece for name, piece in pieces.items() if piece is not None},
    )
    if failures is None:
        failures = workload.failures
    offers = None
    if arrivals is not None:
        offers = [
            Arrival(time=time, process=process, failures=failures)
            for time, process in zip(arrivals, workload.processes)
        ]
    elif submit:
        for process in workload.processes:
            scheduler.submit(process, failures=failures)
    runner = SimulationRunner(
        scheduler, durations=workload.duration, order=order, offers=offers
    )
    return scheduler, runner
