"""Programmatic experiment sweeps over schedulers and workloads.

The benchmark harness and the CLI both need the same loop: generate a
workload, run it under one or more scheduling disciplines, grade the
produced history with the offline checkers, and tabulate.  This module
is that loop as a library:

* :data:`DISCIPLINES` — the registry of comparable schedulers;
* :func:`run_graded` — build, run and grade one (discipline, workload)
  cell: its :class:`~repro.sim.metrics.RunMetrics` and history;
* :func:`run_discipline` — the same cell as a report row;
* :func:`sweep` — the cross product over conflict/failure grids.

Used by ``benchmarks/test_x2_scheduler_comparison.py``,
``python -m repro sweep`` and ``python -m repro workload``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.baselines import (
    FlatScheduler,
    LockingScheduler,
    OptimisticScheduler,
    SerialScheduler,
)
from repro.core.pred import check_pred
from repro.core.schedule import ProcessSchedule
from repro.core.scheduler import TransactionalProcessScheduler
from repro.errors import ReproError
from repro.sim.certify import GradedRun
from repro.sim.metrics import RunMetrics
from repro.sim.workload import WorkloadSpec, build_world, generate_workload

__all__ = [
    "DISCIPLINES",
    "run_graded",
    "run_discipline",
    "sweep",
]

#: Name -> scheduler class for every comparable discipline.
DISCIPLINES = {
    "serial": SerialScheduler,
    "locking": LockingScheduler,
    "flat": FlatScheduler,
    "optimistic": OptimisticScheduler,
    "pred": TransactionalProcessScheduler,
}


def _grades(history) -> Tuple[bool, Optional[bool], Optional[bool]]:
    """``(legal, serializable, pred)``; a grade the replay failure kept
    from being computed is ``None``."""
    serializable = pred = None
    try:
        serializable = history.committed_projection().is_serializable()
        pred = check_pred(history).is_pred
    except ReproError:
        return False, serializable, pred
    return True, serializable, pred


def _grade_row(
    legal: bool, serializable: Optional[bool], pred: Optional[bool]
) -> Dict[str, bool]:
    return {
        "legal": legal,
        "serializable": legal and bool(serializable),
        "pred": legal and bool(pred),
    }


def run_graded(
    name: str,
    spec: WorkloadSpec,
    order: str = "strong",
    backend: str = "memory",
    trace=None,
    metrics=None,
) -> Tuple[RunMetrics, ProcessSchedule]:
    """Build, run and grade one workload under one discipline.

    Returns the run's metrics with the offline grades filled in
    (``illegal_history`` instead of grades the replay failure kept from
    being computed) and the produced history.  ``trace``/``metrics``
    instrument the PRED scheduler only — the baselines emit no events.
    """
    try:
        scheduler_cls = DISCIPLINES[name]
    except KeyError:
        raise ReproError(
            f"unknown discipline {name!r}; choose from {sorted(DISCIPLINES)}"
        ) from None
    context = {"seed": spec.seed, "scheduler": name}
    with GradedRun("workload", spec.seed, backend, trace=trace) as run:
        scheduler, runner = build_world(
            generate_workload(spec),
            scheduler_cls=scheduler_cls,
            order=order,
            hub=run.hub,
            trace=trace if name == "pred" else None,
            metrics=metrics if name == "pred" else None,
        )
        run.begin(**context, backend=backend)
        run_metrics = runner.run()
    run.end(
        **context,
        committed=run_metrics.processes_committed,
        aborted=run_metrics.processes_aborted,
        makespan=run_metrics.makespan,
    )
    history = scheduler.history()
    legal, run_metrics.serializable, run_metrics.prefix_reducible = _grades(
        history
    )
    run_metrics.illegal_history = not legal
    return run_metrics, history


def run_discipline(
    name: str,
    spec: WorkloadSpec,
    order: str = "strong",
) -> Dict[str, object]:
    """Run one workload under one discipline; returns the report row."""
    metrics, _ = run_graded(name, spec, order=order)
    return {
        "scheduler": name,
        "conflict_rate": spec.conflict_rate,
        "failure_rate": spec.failure_rate,
        "seed": spec.seed,
        "makespan": round(metrics.makespan, 1),
        "throughput": round(metrics.throughput, 4),
        "committed": metrics.processes_committed,
        "aborted": metrics.processes_aborted,
        "restarts": metrics.restarts,
        **_grade_row(
            not metrics.illegal_history,
            metrics.serializable,
            metrics.prefix_reducible,
        ),
    }


def sweep(
    conflict_rates: Sequence[float],
    failure_rates: Sequence[float] = (0.0,),
    disciplines: Optional[Iterable[str]] = None,
    processes: int = 5,
    seed: int = 7,
    order: str = "strong",
) -> List[Dict[str, object]]:
    """Cross product of rates × disciplines; returns the report rows."""
    names = list(disciplines) if disciplines else sorted(DISCIPLINES)
    rows: List[Dict[str, object]] = []
    for failure_rate in failure_rates:
        for conflict_rate in conflict_rates:
            spec = WorkloadSpec(
                processes=processes,
                conflict_rate=conflict_rate,
                failure_rate=failure_rate,
                seed=seed,
            )
            for name in names:
                rows.append(run_discipline(name, spec, order=order))
    return rows
