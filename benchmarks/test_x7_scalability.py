"""X7 — scalability: scheduling overhead and makespan vs fleet size.

How does the constructive PRED scheduler behave as the number of
concurrent processes grows, at a fixed moderate conflict rate?  The
sweep now extends to 48 processes and reports the per-activity
admission cost before and after the incremental scheduling core
(indexed conflict lookups, online serialization graph, amortized
potential-edge certification).  The committed baseline rebuilt the
serialization graph and scanned the full log on every admission:
quadratic-in-history work that reached 3.31 ms/activity at 12
processes.  The incremental core keeps the *per-request* cost flat
(~50 µs at both 12 and 48 processes).  What then grew per activity was
the number of requests: a deferred process was re-asked every round —
37 requests per executed activity at 48 processes, 97 % of them repeat
deferrals.  Since wake-ups (X18) a graph-deferred process is parked on
its blockers and re-asked only when one of them moved, with the
decisions bit-identical; ``req/act`` prices what is left.

Acceptance gates:

* 12-process per-activity cost at least 5x better than the 3.31 ms
  committed baseline (generous 1.5 ms CI budget; typically ~0.35 ms);
* the 48-process sweep completes with sub-linear growth in
  per-activity cost from the 2-process anchor:
  ``per_activity(N) / per_activity(2) < N / 2``;
* at most 8 admission requests per executed activity at 48 processes.

Raw numbers are persisted to ``benchmarks/results/BENCH_X7.json`` for
EXPERIMENTS.md and regression tracking.
"""

import json
import os
import time

import pytest

from repro.core.scheduler import TransactionalProcessScheduler
from repro.sim.runner import simulate_run
from repro.sim.workload import WorkloadSpec, generate_workload

FLEETS = (2, 4, 8, 12, 24, 48)

#: Per-activity scheduling cost [ms] of the committed pre-incremental
#: baseline (O(E^2) graph rebuild + full-log scans per admission),
#: measured on the same workloads before this change landed.
BASELINE_PER_ACTIVITY_MS = {2: 0.13, 4: 0.35, 8: 0.90, 12: 3.31}

#: Generous CI budget for the 12-process acceptance gate; the typical
#: measured value is ~0.35 ms (a 9x improvement on the baseline).
BUDGET_12_PROC_MS = 1.5

#: Admission requests per executed activity allowed at 48 processes
#: (37 when every deferred process was re-polled every round).
BUDGET_48_PROC_REQUESTS_PER_ACTIVITY = 8

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def run_fleet(processes, arrivals_spacing=0.0):
    spec = WorkloadSpec(
        processes=processes,
        conflict_rate=0.05,
        failure_rate=0.0,
        seed=21,
    )
    workload = generate_workload(spec)
    scheduler = TransactionalProcessScheduler(conflicts=workload.conflicts)
    arrivals = {}
    for index, process in enumerate(workload.processes):
        pid = scheduler.submit(process)
        if arrivals_spacing:
            arrivals[pid] = index * arrivals_spacing
    start = time.perf_counter()
    metrics = simulate_run(
        scheduler, durations=workload.duration, arrivals=arrivals
    )
    elapsed = time.perf_counter() - start
    return scheduler, metrics, elapsed


def sweep_fleets(fleets=FLEETS):
    """Run the sweep once and return per-fleet measurement dicts."""
    results = []
    for processes in fleets:
        scheduler, metrics, elapsed = run_fleet(processes)
        dispatched = max(scheduler.stats["dispatched"], 1)
        requests = dispatched + scheduler.stats["deferred"]
        results.append(
            {
                "processes": processes,
                "activities": dispatched,
                "requests": requests,
                "requests_per_activity": round(requests / dispatched, 2),
                "deferrals": scheduler.stats["deferred"],
                "makespan": round(metrics.makespan, 1),
                "committed": metrics.processes_committed,
                "wall_ms": round(elapsed * 1000.0, 1),
                "per_activity_ms": round(elapsed * 1000.0 / dispatched, 3),
                "per_request_us": round(
                    elapsed * 1_000_000.0 / max(requests, 1), 1
                ),
                "baseline_per_activity_ms": BASELINE_PER_ACTIVITY_MS.get(
                    processes
                ),
            }
        )
    return results


def assert_acceptance(results):
    """The perf gates, shared by the sweep and the smoke test."""
    by_fleet = {row["processes"]: row for row in results}
    if 48 in by_fleet:
        assert (
            by_fleet[48]["requests_per_activity"]
            <= BUDGET_48_PROC_REQUESTS_PER_ACTIVITY
        ), (
            f"{by_fleet[48]['requests_per_activity']} admission requests "
            f"per activity at 48 processes: deferred work is being "
            f"re-polled instead of parked"
        )
    if 12 in by_fleet:
        assert by_fleet[12]["per_activity_ms"] <= BUDGET_12_PROC_MS, (
            f"12-process per-activity cost "
            f"{by_fleet[12]['per_activity_ms']} ms exceeds the "
            f"{BUDGET_12_PROC_MS} ms budget (baseline was "
            f"{BASELINE_PER_ACTIVITY_MS[12]} ms)"
        )
    anchor = by_fleet.get(2)
    if anchor:
        for row in results:
            n = row["processes"]
            if n <= 2:
                continue
            ratio = row["per_activity_ms"] / max(
                anchor["per_activity_ms"], 1e-9
            )
            assert ratio < n / 2, (
                f"per-activity cost grew super-linearly from the "
                f"2-process anchor: {ratio:.1f}x at {n} processes "
                f"(limit {n / 2:.1f}x)"
            )


def test_x7_fleet_size_sweep(benchmark, report):
    results = sweep_fleets()
    rows = []
    for row in results:
        baseline = row["baseline_per_activity_ms"]
        rows.append(
            {
                "processes": row["processes"],
                "activities": row["activities"],
                "makespan": row["makespan"],
                "committed": row["committed"],
                "req/act": row["requests_per_activity"],
                "wall [ms]": row["wall_ms"],
                "baseline/act [ms]": baseline if baseline else "-",
                "per activity [ms]": row["per_activity_ms"],
                "per request [us]": row["per_request_us"],
                "speedup": (
                    round(baseline / row["per_activity_ms"], 1)
                    if baseline
                    else "-"
                ),
            }
        )
    # makespan grows sublinearly in fleet size (parallelism works)
    assert rows[-1]["makespan"] < rows[0]["makespan"] * (
        results[-1]["processes"] / results[0]["processes"]
    )
    assert_acceptance(results)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(
        os.path.join(RESULTS_DIR, "BENCH_X7.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(
            {
                "experiment": "X7",
                "conflict_rate": 0.05,
                "seed": 21,
                "budget_12_proc_ms": BUDGET_12_PROC_MS,
                "fleets": results,
            },
            handle,
            indent=2,
        )
        handle.write("\n")
    benchmark.pedantic(run_fleet, args=(8,), rounds=3, iterations=1)
    report(
        rows,
        title=(
            "X7 — fleet-size sweep at conflict rate 0.05 "
            "(incremental core vs committed baseline)"
        ),
    )


def test_x7_perf_smoke():
    """CI gate: needs no benchmark fixtures, runs the 2-, 12- and
    48-process points and enforces the per-activity budget, the anchor
    ratio and the requests-per-activity bound."""
    results = sweep_fleets(fleets=(2, 12, 48))
    assert_acceptance(results)


def test_x7_staged_arrivals(benchmark, report):
    """Open-system flavor: processes arrive spaced in virtual time."""
    scheduler, batch, _ = run_fleet(8)
    scheduler2, staged, _ = run_fleet(8, arrivals_spacing=2.0)
    assert staged.makespan >= batch.makespan  # arrivals only delay work
    report(
        [
            {
                "submission": "all at t=0",
                "makespan": round(batch.makespan, 1),
                "committed": batch.processes_committed,
            },
            {
                "submission": "staggered every 2.0",
                "makespan": round(staged.makespan, 1),
                "committed": staged.processes_committed,
            },
        ],
        title="X7 — batch vs staggered arrivals (8 processes)",
    )
    benchmark.pedantic(run_fleet, args=(8, 2.0), rounds=3, iterations=1)
