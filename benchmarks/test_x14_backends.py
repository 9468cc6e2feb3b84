"""X14 — real storage backends: durability cost and recovery latency.

Two experiments over the :class:`~repro.subsystems.backend.StoreBackend`
implementations:

* **Commit cost** — the same seeded ledger workload (every commit
  carries a non-empty write batch) runs to completion on ``memory``,
  ``sqlite`` and ``procpool``.  The table reports wall-clock per
  committed process and *store fsyncs* per committed process: memory
  must report zero fsyncs, the durable backends one fsync per
  write-bearing local commit (plus recovery-free, identical scheduler
  decisions — the commit counts must match across backends exactly).

* **Kill-to-recovered latency** — :func:`run_real_kill` SIGKILLs the
  ``procpool`` storage worker mid-workload and recovery respawns it,
  replaying the WAL against the surviving on-disk sqlite state.  The
  honest wall-clock seconds from the signal to the respawned worker
  answering again is the latency metric; every run must certify.

Raw numbers are persisted to ``benchmarks/results/BENCH_X14.json``.
"""

import json
import os
import statistics
import time

from repro.core.scheduler import ManagedStatus
from repro.sim.crashpoints import (
    CrashPointSpec,
    build_crash_world,
    run_real_kill,
)
from repro.sim.workload import WorkloadSpec
from repro.subsystems.backend import BACKEND_KINDS, BackendHub
from repro.subsystems.wal import InMemoryWAL

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

KILL_SEEDS = (0, 1, 2, 3, 4)


def _spec(seed: int = 7) -> CrashPointSpec:
    return CrashPointSpec(
        workload=WorkloadSpec(
            processes=6, prefix_range=(1, 3), service_pool=6
        ),
        seed=seed,
        abort_rate=0.0,
    )


def commit_cost(backend: str, seed: int = 7):
    """Run the ledger workload to completion on one backend kind."""
    spec = _spec(seed)
    hub = BackendHub(backend) if backend != "memory" else None
    try:
        scheduler, _, workload, failures = build_crash_world(
            _spec(seed), InMemoryWAL(), hub=hub, ledger=True
        )
        start = time.perf_counter()
        for process in workload.processes:
            scheduler.submit(process, failures=failures)
        while not scheduler.all_terminated():
            if not scheduler.step_round():
                scheduler.resolve_stall()
        elapsed = time.perf_counter() - start
        statuses = scheduler.statuses()
        committed = sum(
            1
            for status in statuses.values()
            if status is ManagedStatus.COMMITTED
        )
        fsyncs = hub.fsyncs if hub is not None else 0
        scheduler.registry.close()
    finally:
        if hub is not None:
            hub.close()
    assert committed > 0
    return {
        "backend": backend,
        "processes": spec.workload.processes,
        "committed": committed,
        "wall_s": round(elapsed, 4),
        "ms_per_commit": round(1000.0 * elapsed / committed, 3),
        "store_fsyncs": fsyncs,
        "fsyncs_per_commit": round(fsyncs / committed, 2),
    }


def kill_latency(seed: int):
    spec = _spec(seed)
    result = run_real_kill(spec)
    assert result.passed, result.describe()
    assert result.kill_to_recovered_s is not None
    return {
        "seed": seed,
        "killed_pid": result.killed_pid,
        "respawned_pid": result.respawned_pid,
        "certified": result.certification.certified,
        "idempotent": result.idempotent,
        "kill_to_recovered_ms": round(1000.0 * result.kill_to_recovered_s, 2),
    }


def test_x14_backends(benchmark, report):
    costs = [commit_cost(backend) for backend in BACKEND_KINDS]
    by_backend = {row["backend"]: row for row in costs}

    # Scheduler decisions are backend-independent: identical commits.
    committed = {row["committed"] for row in costs}
    assert len(committed) == 1, (
        f"backends committed different amounts of work: {by_backend}"
    )
    # Durability is real: memory never fsyncs, sqlite and procpool
    # fsync once per write-bearing commit.
    assert by_backend["memory"]["store_fsyncs"] == 0
    assert by_backend["sqlite"]["store_fsyncs"] > 0
    assert by_backend["procpool"]["store_fsyncs"] > 0

    kills = [kill_latency(seed) for seed in KILL_SEEDS]
    latencies = [row["kill_to_recovered_ms"] for row in kills]
    summary = {
        "min_ms": min(latencies),
        "median_ms": round(statistics.median(latencies), 2),
        "max_ms": max(latencies),
    }

    report(
        costs,
        title="X14 — commit cost per backend (same seeded ledger workload)",
    )
    report(
        kills,
        title=(
            "X14 — real SIGKILL on the storage worker: WAL recovery "
            f"against surviving sqlite state, seeds {KILL_SEEDS}"
        ),
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(
        os.path.join(RESULTS_DIR, "BENCH_X14.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(
            {
                "experiment": "X14",
                "commit_cost": costs,
                "real_kills": kills,
                "kill_to_recovered": summary,
            },
            handle,
            indent=2,
        )
        handle.write("\n")
    benchmark.pedantic(
        commit_cost, args=("sqlite",), rounds=3, iterations=1
    )


def test_x14_commit_cost_smoke():
    """Benchmark-fixture-free variant for plain test runs."""
    rows = [commit_cost(backend) for backend in ("memory", "sqlite")]
    assert rows[0]["store_fsyncs"] == 0
    assert rows[1]["store_fsyncs"] > 0
    assert rows[0]["committed"] == rows[1]["committed"]


def test_x14_real_kill_smoke():
    row = kill_latency(seed=0)
    assert row["certified"]
    assert row["respawned_pid"] != row["killed_pid"]
    assert row["kill_to_recovered_ms"] > 0
