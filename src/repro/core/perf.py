"""Perf counters for the incremental scheduling core.

Since the observability layer landed there is **one** counter system:
:class:`PerfCounters` is a thin facade over a
:class:`repro.obs.metrics.MetricsRegistry`.  Each field
(``index_lookups``, ``edge_updates``, ...) is a registry-owned
:class:`~repro.obs.metrics.Counter` registered under ``perf.<field>``;
counters implement the numeric protocol, so the hot-path call sites
(``perf.edge_updates += 1``) and test assertions (``perf.log_scans ==
0``) are unchanged, while the same numbers export through the
registry's snapshot and Prometheus surfaces.

:meth:`snapshot` keeps its historical flat layout — benchmarks (X11),
``RunMetrics.perf_row`` and the CLI ``--perf-counters`` flag all render
it unchanged.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.metrics import Counter, MetricsRegistry

__all__ = ["PerfCounters"]


class PerfCounters:
    """Counters of the scheduler's per-operation work.

    All counts are cumulative over the scheduler's lifetime; use
    :meth:`snapshot` to export them (merged with the conflict-relation
    cache statistics the scheduler adds).

    Fields
    ------
    ``index_lookups``
        Indexed dependency queries (conflicting predecessors/
        successors, last-effective lookups) answered from the inverted
        indexes.
    ``log_scans``
        Legacy full-log scans (shadow/rebuild paths only).
    ``edge_updates``
        Edge-multiset count adjustments (increments and decrements).
    ``graph_events``
        Events added to / removed from the incremental graph.
    ``graph_rebuilds``
        Full from-scratch rebuilds (conflict-relation mutation only).
    ``topo_shifts``
        Pearce–Kelly local reorders of the topological order.
    ``topo_recomputes``
        Full Kahn recomputations of the topological order.
    ``cycle_fast_path``
        Cycle checks settled by the topological-order fast path.
    ``cycle_dfs``
        Cycle checks that needed the DFS fallback.
    ``certified_prefixes``
        Prefixes certified by incremental paranoid-mode certification.
    ``certify_ms``
        Wall-clock milliseconds spent certifying prefixes.
    ``parked_skips``
        Polls of a parked process answered without re-running
        admission (none of its blockers had moved).
    ``wakeups``
        Parks ended because a blocker or the conflict relation moved.
    ``stale_parks``
        Parked processes that progressed when the stall refresh
        re-evaluated them — a missed wake-up; must stay 0.
    """

    _FIELDS = (
        "index_lookups",
        "log_scans",
        "edge_updates",
        "graph_events",
        "graph_rebuilds",
        "topo_shifts",
        "topo_recomputes",
        "cycle_fast_path",
        "cycle_dfs",
        "certified_prefixes",
        "certify_ms",
        "parked_skips",
        "wakeups",
        "stale_parks",
    )

    index_lookups: Counter
    log_scans: Counter
    edge_updates: Counter
    graph_events: Counter
    graph_rebuilds: Counter
    topo_shifts: Counter
    topo_recomputes: Counter
    cycle_fast_path: Counter
    cycle_dfs: Counter
    certified_prefixes: Counter
    certify_ms: Counter
    parked_skips: Counter
    wakeups: Counter
    stale_parks: Counter

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        #: The backing registry — shared with the scheduler's
        #: observability surface when one is passed in.
        self.registry = registry if registry is not None else MetricsRegistry()
        for name in self._FIELDS:
            setattr(self, name, self.registry.counter(f"perf.{name}"))
        #: Free-form extra counters (merged into snapshots).
        self.extra: Dict[str, float] = {}

    def snapshot(self) -> Dict[str, float]:
        """Export all counters as a flat name → value mapping."""
        values: Dict[str, float] = {}
        for name in self._FIELDS:
            counter: Counter = getattr(self, name)
            if name == "certify_ms":
                values[name] = round(float(counter.value), 3)
            else:
                values[name] = int(counter.value)
        values.update(self.extra)
        return values
