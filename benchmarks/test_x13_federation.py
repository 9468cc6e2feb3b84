"""X13 — sharded federation: scaling and crash-tolerant cross-shard 2PC.

Two experiments over the federation layer:

* **Scaling** — the same total work (8 service groups × 4 processes,
  service-disjoint by construction) runs on fleets of 1, 2, 4 and 8
  scheduler shards with fixed per-shard capacity.  Disjoint footprints
  exchange zero messages, so aggregate throughput must scale
  near-linearly: the acceptance floor is **3×** at 8 shards vs 1.

* **Shard-kill chaos** — a cross-shard workload (35 % cross-shard
  footprints, 5 % conflict rate) under message faults on every
  inter-shard link (drop / delay / duplicate) plus a timed network
  partition, while every shard is killed and recovered once per run.
  Every merged history must PRED-certify, and the 2PC decision audit
  must find **zero lost and zero doubly-applied commit decisions**, no
  in-doubt residue and no lost processes.

Raw numbers are persisted to ``benchmarks/results/BENCH_X13.json``.
"""

import json
import os

from repro.sim.federation import (
    FederationSpec,
    kill_sweep,
    run_federation,
    scaling_sweep,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

SHARD_COUNTS = (1, 2, 4, 8)
SCALING_FLOOR = 3.0
KILL_SEEDS = (0, 1, 2, 3, 4)


def _smoke_spec() -> FederationSpec:
    return FederationSpec(
        shards=2,
        service_groups=4,
        processes_per_group=2,
        cross_shard_fraction=0.5,
        conflict_rate=0.1,
        drop_rate=0.1,
        delay_rate=0.1,
        duplicate_rate=0.1,
        kills=((4.0, 0, 3.0),),
        partitions=((2.0, 0, 1, 1.5),),
        seed=0,
    )


def test_x13_federation(benchmark, report):
    scaling = scaling_sweep(SHARD_COUNTS)
    assert all(result.certified for result in scaling)
    by_shards = {result.spec.shards: result for result in scaling}
    committed = {result.metrics.committed for result in scaling}
    assert len(committed) == 1, (
        f"scaling runs completed different amounts of work: {committed}"
    )
    speedup = by_shards[8].throughput / by_shards[1].throughput
    assert speedup >= SCALING_FLOOR, (
        f"aggregate throughput scaled only {speedup:.2f}x at 8 shards "
        f"vs 1 (floor {SCALING_FLOOR}x)"
    )

    chaos = kill_sweep(seeds=KILL_SEEDS)
    for result in chaos:
        assert result.certified, result.row()
        assert not result.audit.lost_decisions
        assert not result.audit.dup_applications
        assert not result.audit.in_doubt_residue
        assert not result.audit.lost_processes
        # every shard killed and recovered at least once per run
        assert result.counters["kills"] == result.spec.shards
        assert result.counters["recoveries"] == result.spec.shards
    # all four fault kinds injected somewhere across the sweep
    for kind in ("drop", "delay", "duplicate", "partition"):
        injected = sum(
            result.counters[f"fault_{kind}"] for result in chaos
        )
        assert injected > 0, f"no {kind} faults injected across the sweep"

    report(
        [result.row() for result in scaling],
        title="X13 — throughput scaling on service-disjoint fleets",
    )
    report(
        [result.row() for result in chaos],
        title=(
            "X13 — shard-kill chaos: every shard killed once, message "
            f"faults on, seeds {KILL_SEEDS}"
        ),
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(
        os.path.join(RESULTS_DIR, "BENCH_X13.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(
            {
                "experiment": "X13",
                "scaling_floor": SCALING_FLOOR,
                "speedup_8v1": round(speedup, 3),
                "scaling": [result.row() for result in scaling],
                "chaos": [result.row() for result in chaos],
            },
            handle,
            indent=2,
        )
        handle.write("\n")
    benchmark.pedantic(
        run_federation, args=(_smoke_spec(),), rounds=3, iterations=1
    )


def test_x13_federation_smoke():
    """Benchmark-fixture-free variant for plain test runs."""
    result = run_federation(_smoke_spec())
    assert result.certified
    assert result.counters["kills"] == 1
    assert result.counters["recoveries"] == 1
    assert not result.audit.lost_processes


def test_x13_scaling_smoke():
    results = scaling_sweep((1, 2))
    assert all(result.certified for result in results)
    assert (
        results[-1].throughput > results[0].throughput
    ), "2 shards must out-run 1 on disjoint work"
