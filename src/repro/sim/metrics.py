"""Metrics collected by simulation runs and benchmark sweeps.

A :class:`RunMetrics` aggregates what one run produced — virtual-time
makespan, per-process latencies, dispatch/abort counts and correctness
grades from the offline checkers — and knows how to summarise itself
into the row format the benchmark harness prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.metrics import percentile

__all__ = ["RunMetrics", "percentile", "summarize"]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Mean / p50 / p95 / max of a sample."""
    if not values:
        return {"mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
    return {
        "mean": sum(values) / len(values),
        "p50": percentile(values, 0.50),
        "p95": percentile(values, 0.95),
        "max": max(values),
    }


@dataclass
class RunMetrics:
    """Everything one scheduler run produced, in virtual time."""

    scheduler_name: str
    #: Virtual time at which the last process terminated.
    makespan: float = 0.0
    #: instance id -> (start, end) virtual times.
    process_spans: Dict[str, tuple] = field(default_factory=dict)
    processes_committed: int = 0
    processes_aborted: int = 0
    activities_dispatched: int = 0
    deferrals: int = 0
    victim_aborts: int = 0
    restarts: int = 0
    #: Resilience-layer counters (zero when the layer is off).
    retries: int = 0
    timeouts: int = 0
    degradations: int = 0
    breaker_trips: int = 0
    breaker_recoveries: int = 0
    #: Faults the chaos harness injected into the run.
    faults_injected: int = 0
    #: Overload-layer counters (zero when admission control is off):
    #: offers seen at the front door, offers turned away (rejected at
    #: the door or evicted from the admission queue), admitted B-REC
    #: processes cancelled by the load shedder, starvation-watchdog
    #: priority boosts and livelock-watchdog escalations.
    processes_offered: int = 0
    processes_rejected: int = 0
    processes_shed: int = 0
    starvation_boosts: int = 0
    livelock_escalations: int = 0
    #: ``(virtual time, admission queue depth)`` samples, recorded by
    #: the simulation runner whenever the depth changes.
    queue_depth_series: List[tuple] = field(default_factory=list)
    #: Perf counters of the scheduler's incremental core (conflict
    #: lookups and cache hits, index hits, graph-edge updates,
    #: certification time — see ``repro.core.perf``); empty for
    #: schedulers that do not expose ``perf_snapshot()``.
    perf: Dict[str, float] = field(default_factory=dict)
    #: Offline correctness grades (filled by the benchmark harness).
    serializable: Optional[bool] = None
    process_recoverable: Optional[bool] = None
    prefix_reducible: Optional[bool] = None
    #: History replay failed — the history is not even a legal execution.
    illegal_history: bool = False

    @property
    def latencies(self) -> List[float]:
        return [end - start for start, end in self.process_spans.values()]

    @property
    def throughput(self) -> float:
        """Committed processes per unit of virtual time."""
        if self.makespan <= 0:
            return 0.0
        return self.processes_committed / self.makespan

    @property
    def goodput(self) -> float:
        """Committed processes per unit virtual time.

        Identical to :attr:`throughput` in a closed system; the name
        matters under overload, where offered load and useful completed
        work diverge — shed and rejected processes never count.
        """
        return self.throughput

    @property
    def shed_rate(self) -> float:
        """Fraction of offered processes the load shedder cancelled."""
        if self.processes_offered <= 0:
            return 0.0
        return self.processes_shed / self.processes_offered

    @property
    def reject_rate(self) -> float:
        """Fraction of offered processes turned away unstarted."""
        if self.processes_offered <= 0:
            return 0.0
        return self.processes_rejected / self.processes_offered

    @property
    def peak_queue_depth(self) -> int:
        """Deepest the admission queue ever got."""
        if not self.queue_depth_series:
            return 0
        return max(depth for _, depth in self.queue_depth_series)

    def row(self) -> Dict[str, object]:
        """Flat row for the benchmark report tables."""
        latency = summarize(self.latencies)
        return {
            "scheduler": self.scheduler_name,
            "makespan": round(self.makespan, 3),
            "throughput": round(self.throughput, 4),
            "latency_mean": round(latency["mean"], 3),
            "latency_p95": round(latency["p95"], 3),
            "committed": self.processes_committed,
            "aborted": self.processes_aborted,
            "dispatched": self.activities_dispatched,
            "deferrals": self.deferrals,
            "victim_aborts": self.victim_aborts,
            "restarts": self.restarts,
            "serializable": self.serializable,
            "proc_rec": self.process_recoverable,
            "pred": self.prefix_reducible,
        }

    def perf_row(self) -> Dict[str, object]:
        """Flat row of the incremental-core perf counters (X11 tables)."""
        ops = max(self.activities_dispatched, 1)
        lookups = self.perf.get("conflict_lookups", 0)
        hits = self.perf.get("conflict_cache_hits", 0)
        return {
            "scheduler": self.scheduler_name,
            "dispatched": self.activities_dispatched,
            "conflict_lookups": int(lookups),
            "lookups_per_op": round(lookups / ops, 1),
            "cache_hit_rate": round(hits / lookups, 3) if lookups else 0.0,
            "index_lookups": int(self.perf.get("index_lookups", 0)),
            "edge_updates": int(self.perf.get("edge_updates", 0)),
            "edges_per_op": round(
                self.perf.get("edge_updates", 0) / ops, 1
            ),
            "topo_shifts": int(self.perf.get("topo_shifts", 0)),
            "cycle_fast": int(self.perf.get("cycle_fast_path", 0)),
            "cycle_dfs": int(self.perf.get("cycle_dfs", 0)),
            "parked_skips": int(self.perf.get("parked_skips", 0)),
            "wakeups": int(self.perf.get("wakeups", 0)),
            "certified": int(self.perf.get("certified_prefixes", 0)),
            "certify_ms": round(self.perf.get("certify_ms", 0.0), 2),
        }
