"""Federated workloads: scaling sweeps and shard-kill chaos (X13).

:func:`build_fleet` is the one place an N-shard federation is assembled
from a :class:`FleetSpec` — per-group subsystems with counter services,
a service-ownership router, seeded processes that are either shard-local
or deliberately cross-shard, the discrete-event federation runner — for
this harness and for the nemesis alike.  :func:`run_federation` runs one
under optional message faults, network partitions and whole-shard kills,
and certifies the merged cross-shard history with the offline PRED
checkers plus the 2PC decision audit.

Entry points:

* :func:`build_fleet` — federation + runner for one fleet shape;
* :func:`run_federation` — one seeded, certified federated run;
* :func:`scaling_sweep` — same total work over 1..N shards on a
  service-disjoint fleet (the near-linear-scaling experiment);
* :func:`kill_sweep` — every shard killed and recovered mid-run while
  drop/delay/duplicate/partition faults hit the inter-shard links.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.conflict import ExplicitConflicts
from repro.fed.federation import Federation, FederationAudit
from repro.fed.messages import FederationNetwork, MessageFaultPolicy
from repro.fed.router import ShardRouter
from repro.fed.runner import FederationRunMetrics, FederationRunner
from repro.sim.certify import Certification, GradedRun
from repro.sim.clock import VirtualClock
from repro.sim.workload import WorkloadSpec, generate_process
from repro.subsystems.backend import StoreBackend
from repro.subsystems.failures import FailurePolicy
from repro.subsystems.services import counter_service
from repro.subsystems.subsystem import Subsystem

__all__ = [
    "FleetSpec",
    "FederationSpec",
    "FederationResult",
    "build_fleet",
    "run_federation",
    "scaling_sweep",
    "kill_sweep",
]


@dataclass(frozen=True)
class FleetSpec:
    """Shape of a federated fleet: shards, services, seeded processes.

    Shared by :class:`FederationSpec` (which adds this harness's faults)
    and :class:`repro.nemesis.NemesisSpec` (whose faults come from a
    plan).
    """

    #: Number of scheduler shards.
    shards: int = 2
    #: Service groups (one subsystem each); each group is owned by one
    #: shard (``group % shards``).  Keeping the group count fixed while
    #: varying ``shards`` keeps the *work* identical across a sweep.
    service_groups: int = 8
    #: Distinct services per group.
    services_per_group: int = 3
    #: Processes homed per group.
    processes_per_group: int = 2
    #: Fraction of processes whose service pool spans two groups —
    #: their footprint crosses shards, so their prepared groups commit
    #: through the cross-shard 2PC.
    cross_shard_fraction: float = 0.0
    #: Give every process a *private* slice of its group's services
    #: (``services_per_group`` each) so nothing conflicts unless the
    #: explicit ``conflict_rate`` says so — the service-disjoint fleet
    #: used by the scaling experiment.
    disjoint_processes: bool = False
    #: Probability that two distinct services conflict (explicit).
    conflict_rate: float = 0.0
    #: Concurrent-activity capacity per shard (fixed across sweeps).
    shard_capacity: int = 4
    #: In-doubt timeout before the termination protocol kicks in.
    indoubt_timeout: float = 5.0
    #: Workload shape (process structure DSL knobs).
    prefix_range: Tuple[int, int] = (1, 2)
    suffix_range: Tuple[int, int] = (1, 2)
    alternative_probability: float = 0.25
    #: RNG seed — the whole run is deterministic given the seed.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("need at least one shard")
        if self.service_groups < self.shards:
            raise ValueError("need at least one service group per shard")
        if not 0.0 <= self.cross_shard_fraction <= 1.0:
            raise ValueError("cross_shard_fraction must be in [0, 1]")

    def with_seed(self, seed: int):
        return replace(self, seed=seed)

    def shard_names(self) -> List[str]:
        return [f"s{index}" for index in range(self.shards)]

    def group_services(self) -> List[List[str]]:
        """Service names, one list per group."""
        per_group = self.services_per_group * (
            self.processes_per_group if self.disjoint_processes else 1
        )
        return [
            [f"g{group}s{index}" for index in range(per_group)]
            for group in range(self.service_groups)
        ]

    def service_names(self) -> List[str]:
        return [svc for services in self.group_services() for svc in services]


@dataclass(frozen=True)
class FederationSpec(FleetSpec):
    """Knobs of one federated run: a fleet plus this harness's faults."""

    #: Message fault rates on inter-shard links.
    drop_rate: float = 0.0
    delay_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_span: Tuple[float, float] = (0.5, 2.0)
    #: ``(time, shard_index, downtime)`` kill schedule.
    kills: Tuple[Tuple[float, int, float], ...] = ()
    #: ``(time, shard_a_index, shard_b_index, duration)`` partitions.
    partitions: Tuple[Tuple[float, int, int, float], ...] = ()


@dataclass
class FederationResult:
    """One certified federated run, flattened for reports."""

    spec: FederationSpec
    metrics: FederationRunMetrics
    certification: Certification
    #: The 2PC decision audit (lost / duplicated decisions, in-doubt
    #: residue, lost processes).
    audit: FederationAudit
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def certified(self) -> bool:
        return self.certification.certified and self.audit.clean

    @property
    def throughput(self) -> float:
        return self.metrics.throughput

    def row(self) -> Dict[str, object]:
        return {
            "shards": self.spec.shards,
            "seed": self.spec.seed,
            "cross_shard_fraction": self.spec.cross_shard_fraction,
            "conflict_rate": self.spec.conflict_rate,
            "committed": self.metrics.committed,
            "aborted": self.metrics.aborted,
            "makespan": round(self.metrics.makespan, 3),
            "throughput": round(self.throughput, 4),
            "fed_deferrals": self.metrics.fed_deferrals,
            "gate_evaluations": self.metrics.gate_evaluations,
            "cross_victims": self.metrics.cross_victims,
            "certified": self.certified,
            "pred": self.certification.pred,
            "reducible": self.certification.reducible,
            "terminated": self.certification.terminated,
            "groups_checked": self.audit.groups_checked,
            "lost_decisions": len(self.audit.lost_decisions),
            "dup_applications": len(self.audit.dup_applications),
            "in_doubt_residue": len(self.audit.in_doubt_residue),
            "lost_processes": len(self.audit.lost_processes),
            **{f"net_{key}": value for key, value in self.counters.items()},
        }


def build_fleet(
    spec: FleetSpec,
    message_faults: MessageFaultPolicy,
    failures: Optional[FailurePolicy] = None,
    backend_for: Optional[Callable[[str], StoreBackend]] = None,
    kills: Sequence[Tuple[float, str, float]] = (),
    partitions: Sequence[Tuple[float, str, str, float]] = (),
    clock: Optional[VirtualClock] = None,
    trace: Optional[object] = None,
) -> Tuple[Federation, FederationRunner]:
    """Assemble one federated world: ``(federation, runner)``.

    Groups → subsystems → router → conflict pairs → network →
    federation → submitted processes → runner, all draws from
    ``random.Random(spec.seed)`` in that order.  Nothing runs and
    nothing is graded here.  The parameters are what the two harnesses
    differ in: the message-fault policy on the links, the failure
    policy every process runs under, the store backend behind each
    group's subsystem (``backend_for(name)``; ``None`` → in memory) and
    the ``(time, shard, downtime)`` kill / ``(time, shard, shard,
    duration)`` partition rows.  ``clock`` is the federation's virtual
    clock, for policies that must be built around it beforehand.
    """
    rng = random.Random(spec.seed)
    group_services = spec.group_services()
    owners: Dict[str, str] = {}
    subsystems: List[Subsystem] = []
    for group, services in enumerate(group_services):
        name = f"grp{group}"
        subsystem = Subsystem(
            name,
            backend=backend_for(name) if backend_for is not None else None,
        )
        for service in services:
            subsystem.register(counter_service(service, key=service))
            owners[service] = f"s{group % spec.shards}"
        subsystems.append(subsystem)

    all_services = spec.service_names()
    pairs = []
    for i, left in enumerate(all_services):
        for right in all_services[i + 1:]:
            if spec.conflict_rate and rng.random() < spec.conflict_rate:
                pairs.append((left, right))

    shape = WorkloadSpec(
        processes=1,
        prefix_range=spec.prefix_range,
        suffix_range=spec.suffix_range,
        alternative_probability=spec.alternative_probability,
        max_depth=1,
        seed=spec.seed,
    )

    federation = Federation(
        ShardRouter(owners),
        subsystems,
        network=FederationNetwork(message_faults),
        conflicts=ExplicitConflicts(pairs),
        clock=clock if clock is not None else VirtualClock(),
        trace=trace,
        indoubt_timeout=spec.indoubt_timeout,
    )

    for group in range(spec.service_groups):
        for index in range(spec.processes_per_group):
            if spec.disjoint_processes:
                start = index * spec.services_per_group
                pool = group_services[group][
                    start:start + spec.services_per_group
                ]
            else:
                pool = list(group_services[group])
            if (
                spec.service_groups > 1
                and rng.random() < spec.cross_shard_fraction
            ):
                other = rng.randrange(spec.service_groups - 1)
                if other >= group:
                    other += 1
                pool += group_services[other]
            process = generate_process(
                rng, shape, f"P{group}-{index}", pool
            )
            federation.submit(process, failures=failures)

    runner = FederationRunner(
        federation,
        capacity=spec.shard_capacity,
        kills=kills,
        partitions=partitions,
    )
    return federation, runner


def build_federation(
    spec: FederationSpec, trace: Optional[object] = None
) -> Tuple[Federation, FederationRunner]:
    """The fleet of one :class:`FederationSpec` under its own faults."""
    shards = spec.shard_names()
    return build_fleet(
        spec,
        MessageFaultPolicy(
            drop_rate=spec.drop_rate,
            delay_rate=spec.delay_rate,
            delay_span=spec.delay_span,
            duplicate_rate=spec.duplicate_rate,
            seed=spec.seed,
        ),
        kills=[
            (time, shards[index % spec.shards], downtime)
            for time, index, downtime in spec.kills
        ],
        partitions=[
            (time, shards[a % spec.shards], shards[b % spec.shards], duration)
            for time, a, b, duration in spec.partitions
            if a % spec.shards != b % spec.shards
        ],
        trace=trace,
    )


def run_federation(
    spec: FederationSpec,
    strict: bool = True,
    trace: Optional[object] = None,
) -> FederationResult:
    """One seeded federated run, certified end to end.

    With ``strict`` (the default) an uncertified merged history or a
    dirty decision audit raises :class:`CorrectnessViolation` — the
    same contract as the chaos harness.
    """
    with GradedRun("federation", spec.seed) as run:
        federation, runner = build_federation(spec, trace=trace)
        metrics = runner.run()
        audit = federation.validate()
        certification = run.grade(
            federation.merged_history(),
            federation.all_terminated(),
            clean=audit.clean,
        )
    if strict:
        run.ensure(
            f"federation:shards={spec.shards}",
            detail=(
                f"lost={audit.lost_decisions} "
                f"dup={audit.dup_applications} "
                f"residue={audit.in_doubt_residue} "
                f"lost_processes={audit.lost_processes}"
            ),
            details={
                "shards": spec.shards,
                "lost_decisions": list(audit.lost_decisions),
                "dup_applications": list(audit.dup_applications),
                "in_doubt_residue": list(audit.in_doubt_residue),
                "lost_processes": list(audit.lost_processes),
            },
        )
    return FederationResult(
        spec=spec,
        metrics=metrics,
        certification=certification,
        audit=audit,
        counters=federation.counters(),
    )


def scaling_sweep(
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    spec: Optional[FederationSpec] = None,
    seeds: Sequence[int] = (0,),
    trace: Optional[object] = None,
) -> List[FederationResult]:
    """Same total work on service-disjoint fleets of 1..N shards.

    The group count, per-group work and per-shard capacity are fixed;
    only the shard count varies — aggregate throughput should scale
    near-linearly because disjoint footprints exchange zero messages.
    """
    base = spec or FederationSpec(
        service_groups=max(shard_counts),
        processes_per_group=4,
        shard_capacity=2,
        cross_shard_fraction=0.0,
        conflict_rate=0.0,
        disjoint_processes=True,
    )
    results: List[FederationResult] = []
    for shards in shard_counts:
        for seed in seeds:
            results.append(
                run_federation(
                    replace(base, shards=shards, seed=seed), trace=trace
                )
            )
    return results


def kill_sweep(
    spec: Optional[FederationSpec] = None,
    seeds: Sequence[int] = (0, 1, 2),
    trace: Optional[object] = None,
) -> List[FederationResult]:
    """Chaos mode: every shard dies once, all four fault kinds injected.

    Each seeded run kills and recovers each shard in turn (staggered so
    the federation is never fully dark), runs message faults on every
    link, and partitions a shard pair mid-run.  Every run must certify
    and audit clean — zero lost, zero doubly-applied commit decisions.
    """
    base = spec or FederationSpec(
        shards=3,
        service_groups=6,
        processes_per_group=2,
        cross_shard_fraction=0.35,
        conflict_rate=0.05,
        drop_rate=0.15,
        delay_rate=0.15,
        duplicate_rate=0.15,
    )
    kills = tuple(
        (4.0 + 8.0 * index, index, 4.0) for index in range(base.shards)
    )
    partitions = ((2.0, 0, 1, 2.0),)
    configured = replace(base, kills=kills, partitions=partitions)
    return [
        run_federation(configured.with_seed(seed), trace=trace)
        for seed in seeds
    ]
