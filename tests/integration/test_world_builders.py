"""Build, run and grade are separate steps that compose into the
harness entry points: calling them one by one reproduces the rows
``run_chaos`` / ``run_overload`` / ``run_federation`` report, and a
world can be built without being certified."""

from dataclasses import replace

import pytest

from repro.core.scheduler import ManagedStatus
from repro.obs import MetricsRegistry
from repro.sim.certify import GradedRun
from repro.sim.chaos import ChaosResult, build_chaos, default_mixes, run_chaos
from repro.sim.federation import (
    FederationResult,
    FederationSpec,
    build_federation,
    run_federation,
)
from repro.sim.overload import (
    OverloadResult,
    OverloadSpec,
    build_overload,
    run_overload,
)
from repro.sim.workload import WorkloadSpec, build_world, generate_workload


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_chaos_steps_reproduce_run_chaos(backend):
    mixed = next(spec for spec in default_mixes(6) if spec.name == "mixed")
    spec = replace(mixed, seed=4, backend=backend)
    with GradedRun("chaos", spec.seed, spec.backend) as run:
        scheduler, runner, chaos = build_chaos(spec, hub=run.hub)
        metrics = runner.run()
        verdict = run.grade(scheduler.history(), scheduler.all_terminated())
        counters = scheduler.resilience.snapshot()
    metrics.faults_injected = chaos.total_injected
    stepwise = ChaosResult(
        spec=spec,
        metrics=metrics,
        injected=dict(chaos.injected),
        counters=counters,
        pred=verdict.pred,
        reducible=verdict.reducible,
        terminated=verdict.terminated,
    )
    assert stepwise.row() == run_chaos(spec).row()
    assert stepwise.row()["faults"] > 0


def test_overload_steps_reproduce_run_overload():
    spec = OverloadSpec(
        workload=WorkloadSpec(processes=20, service_pool=12, conflict_rate=0.05),
        offered_load=1.5,
        max_active=3,
        max_queue_depth=3,
        seed=6,
    )
    scheduler, runner = build_overload(spec)
    metrics = runner.run()
    with GradedRun("overload", spec.seed) as run:
        verdict = run.grade(scheduler.history(), scheduler.all_terminated())
    stepwise = OverloadResult(
        spec=spec,
        metrics=metrics,
        certification=verdict,
        sojourns=sorted(
            end - scheduler.managed(pid).offered_at
            for pid, (_, end) in metrics.process_spans.items()
            if scheduler.managed(pid).status is ManagedStatus.COMMITTED
        ),
        frec_sheds=sum(
            scheduler.managed(pid).is_hardened for pid in scheduler.shed_ids
        ),
        counters=scheduler.resilience.snapshot(),
    )
    row = run_overload(spec).row()
    assert stepwise.row() == row
    assert row["shed"] + row["rejected"] > 0  # the door really acted


def test_federation_steps_reproduce_run_federation():
    spec = FederationSpec(
        shards=3,
        service_groups=6,
        cross_shard_fraction=0.4,
        conflict_rate=0.05,
        drop_rate=0.1,
        delay_rate=0.1,
        kills=((4.0, 1, 3.0),),
        partitions=((2.0, 0, 2, 2.0),),
        seed=8,
    )
    federation, runner = build_federation(spec)
    metrics = runner.run()
    with GradedRun("federation", spec.seed) as run:
        audit = federation.validate()
        verdict = run.grade(
            federation.merged_history(),
            federation.all_terminated(),
            clean=audit.clean,
        )
    stepwise = FederationResult(
        spec=spec,
        metrics=metrics,
        certification=verdict,
        audit=audit,
        counters=federation.counters(),
    )
    row = run_federation(spec).row()
    assert stepwise.row() == row
    assert row["net_kills"] == 1 and row["certified"]


def test_a_world_can_be_built_and_run_without_being_graded():
    """What the spine, the golden corpus and the property tests each
    forked a builder for."""
    workload = generate_workload(WorkloadSpec(processes=6, seed=3))
    scheduler, runner = build_world(workload)
    assert scheduler.instance_ids() == [p.process_id for p in workload.processes]
    assert scheduler.timeline_length() == 0  # nothing ran yet
    runner.run()
    assert scheduler.all_terminated()


def test_prometheus_export_carries_the_scheduler_stats():
    """``--metrics`` exports commits' raw material — dispatches,
    deferrals, victim aborts, 2PC groups — pulled from ``scheduler.stats``
    at export time, not pushed on the hot path."""
    registry = MetricsRegistry()
    workload = generate_workload(
        WorkloadSpec(processes=10, service_pool=8, conflict_rate=0.15, seed=2)
    )
    scheduler, runner = build_world(workload, metrics=registry)
    before = registry.to_prometheus()
    assert "repro_sched_dispatched 0" in before
    runner.run()
    exported = dict(
        line.split(" ")
        for line in registry.to_prometheus().splitlines()
        if not line.startswith("#") and "{" not in line
    )
    stats = scheduler.stats
    assert stats["dispatched"] > 0 and stats["deferred"] > 0
    for name in ("dispatched", "deferred", "victim_aborts", "2pc_groups"):
        assert int(exported[f"repro_sched_{name}"]) == stats[name]
    perf = scheduler.perf_snapshot()
    assert int(exported["repro_perf_index_lookups"]) == perf["index_lookups"]
    assert int(exported["repro_perf_conflict_lookups"]) == perf["conflict_lookups"]
