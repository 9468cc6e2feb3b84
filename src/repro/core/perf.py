"""Perf counters for the incremental scheduling core.

:class:`PerfCounters` is a bag of plain ``__slots__`` numbers the hot
paths bump in place (``perf.edge_updates += 1`` is one attribute store).
Nothing is pushed anywhere: a
:class:`~repro.obs.metrics.MetricsRegistry` *pulls* :meth:`snapshot`
when it is itself snapshotted or exported (the scheduler registers it as
the ``perf`` source), so the same numbers reach Prometheus without a
second counter object on the hot path.

:meth:`snapshot` keeps its flat layout — benchmarks (X11),
``RunMetrics.perf_row`` and the CLI ``--perf-counters`` flag all render
it unchanged.
"""

from __future__ import annotations

from typing import Dict

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
    """

    _FIELDS = (
        "index_lookups",
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
    )
    __slots__ = _FIELDS + ("extra",)

    def __init__(self) -> None:
        for name in self._FIELDS:
            setattr(self, name, 0)
        self.certify_ms = 0.0
        #: Free-form extra counters (merged into snapshots).
        self.extra: Dict[str, float] = {}

    def snapshot(self) -> Dict[str, float]:
        """Export all counters as a flat name → value mapping."""
        values: Dict[str, float] = {
            name: getattr(self, name) for name in self._FIELDS
        }
        values["certify_ms"] = round(self.certify_ms, 3)
        values.update(self.extra)
        return values
