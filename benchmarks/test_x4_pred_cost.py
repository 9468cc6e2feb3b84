"""X4 — the cost of offline PRED checking vs schedule length.

§3.5 argues that no SOT-like criterion exists for processes: the
completed schedule must always be considered, which is why re-checking
PRED on every prefix is expensive and the online scheduler enforces it
constructively instead.  This bench quantifies that: offline PRED
evaluation — one walk that advances a replica per process by one event
and completes + reduces every prefix (X35) — still grows superlinearly
with the schedule, since each prefix's reduction is rebuilt, while the
constructive scheduler's own admission overhead stays per-event.
"""

import time

import pytest

from repro.core.pred import check_pred
from repro.core.scheduler import TransactionalProcessScheduler
from repro.sim.workload import WorkloadSpec, generate_workload


def produce_history(processes):
    spec = WorkloadSpec(
        processes=processes, conflict_rate=0.1, failure_rate=0.0, seed=3
    )
    workload = generate_workload(spec)
    scheduler = TransactionalProcessScheduler(conflicts=workload.conflicts)
    for process in workload.processes:
        scheduler.submit(process)
    scheduler.run()
    return scheduler.history()


def best_of(repeats, check, history):
    """``(result, seconds)`` of the fastest of ``repeats`` checks — one
    sample per size lets host noise reorder sizes a few % apart."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = check(history, stop_early=False)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def test_x4_offline_check_scaling(benchmark, report):
    histories = {n: produce_history(n) for n in (2, 4, 6)}
    rows = []
    for n, history in histories.items():
        result, elapsed = best_of(7, check_pred, history)
        rows.append(
            {
                "processes": n,
                "events": len(history),
                "prefixes": result.prefixes_checked,
                "offline check [ms]": round(elapsed * 1000.0, 1),
                "per event [ms]": round(
                    elapsed * 1000.0 / max(len(history), 1), 2
                ),
            }
        )
    # the timed benchmark target: the mid-size offline check
    benchmark(check_pred, histories[4])
    # superlinear growth: per-event cost increases with schedule length
    assert rows[-1]["per event [ms]"] >= rows[0]["per event [ms]"]
    report(
        rows,
        title=(
            "X4 — offline PRED checking cost (motivates the constructive "
            "protocol)"
        ),
    )


def test_x4_constructive_scheduling_per_event(benchmark, report):
    """The online protocol's end-to-end cost for the same workload."""
    spec = WorkloadSpec(
        processes=4, conflict_rate=0.1, failure_rate=0.0, seed=3
    )
    workload = generate_workload(spec)

    def run():
        scheduler = TransactionalProcessScheduler(
            conflicts=workload.conflicts
        )
        for process in workload.processes:
            scheduler.submit(process)
        scheduler.run()
        return scheduler

    scheduler = benchmark(run)
    history = scheduler.history()
    report(
        [
            {
                "events": len(history),
                "dispatched": scheduler.stats["dispatched"],
                "deferred": scheduler.stats["deferred"],
            }
        ],
        title="X4 — constructive scheduling of the same workload",
    )
