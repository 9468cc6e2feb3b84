"""X11 — perf counters of the incremental scheduling core.

The incremental core (ISSUE 4) is *observable*: every hot-path
shortcut — conflict-cache hits, inverted-index lookups instead of log
scans, edge-multiset updates instead of graph rebuilds, topological-
order fast paths instead of cycle DFS, incremental paranoid
certification — increments a counter in
:class:`repro.core.perf.PerfCounters`.  This experiment renders those
counters across the X7 fleet sweep, demonstrating:

* the conflict cache absorbs the vast majority of lookups at scale;
* dependency queries are answered by the inverted indexes, with the
  legacy full-log scans confined to shadow/rebuild paths (zero on the
  normal path);
* cycle checks overwhelmingly settle on the topological-order fast
  path, with DFS as a rare fallback;
* incremental paranoid certification certifies every prefix at a
  bounded per-prefix cost (amortized reduction-state reuse).
"""

from repro.core.scheduler import SchedulerRules, TransactionalProcessScheduler
from repro.sim.runner import simulate_run
from repro.sim.workload import WorkloadSpec, generate_workload

# benchmarks/ is not a package; pytest puts this directory on sys.path.
from test_x7_scalability import run_fleet


def test_x11_counter_table(benchmark, report):
    rows = []
    for processes in (2, 4, 8, 12, 24, 48):
        scheduler, metrics, _ = run_fleet(processes)
        metrics.scheduler_name = f"{processes} procs"
        row = metrics.perf_row()
        rows.append(row)
        # Conflict-cache effectiveness grows with contention.
        if processes >= 8:
            assert row["cache_hit_rate"] > 0.4, row
        if processes >= 24:
            assert row["cache_hit_rate"] > 0.5, row
        # Indexed queries replace the O(history) scans on every
        # admission: there must be at least one per dispatched activity.
        assert row["index_lookups"] >= row["dispatched"]
    benchmark.pedantic(run_fleet, args=(12,), rounds=3, iterations=1)
    report(
        rows,
        title="X11 — incremental-core perf counters across fleet sizes",
    )


def run_paranoid(processes):
    spec = WorkloadSpec(
        processes=processes,
        conflict_rate=0.05,
        failure_rate=0.1,
        seed=33,
    )
    workload = generate_workload(spec)
    scheduler = TransactionalProcessScheduler(
        conflicts=workload.conflicts,
        rules=SchedulerRules(paranoid=True),
    )
    for process in workload.processes:
        scheduler.submit(process)
    metrics = simulate_run(scheduler, durations=workload.duration)
    return scheduler, metrics


def test_x11_incremental_certification(benchmark, report):
    """Paranoid mode certifies every produced prefix; the incremental
    certifier reuses reduction state so re-certification after each
    event stays affordable even with failures in the mix."""
    rows = []
    for processes in (4, 8, 12):
        scheduler, metrics = run_paranoid(processes)
        snapshot = scheduler.perf_snapshot()
        certified = snapshot["certified_prefixes"]
        assert certified > 0
        rows.append(
            {
                "processes": processes,
                "events": len(scheduler._log),
                "certified": certified,
                "certify_ms": snapshot["certify_ms"],
                "ms_per_prefix": round(
                    snapshot["certify_ms"] / certified, 3
                ),
                "committed": metrics.processes_committed,
                "aborted": metrics.processes_aborted,
            }
        )
    benchmark.pedantic(run_paranoid, args=(8,), rounds=3, iterations=1)
    report(
        rows,
        title="X11 — incremental paranoid certification under failures",
    )
