"""Commit-latency attribution along each process's critical path.

Where did a committed process's wall-clock (virtual) time actually go?
This module answers that by segmenting each process span ``[start, end]``
into non-overlapping **phase slices** and summing per-phase time:

* ``exec`` — an activity was executing at a subsystem;
* ``2pc-vote`` — the cross-shard vote round of the process's harden
  group was open (``xshard_begin`` .. ``xshard_decision``);
* ``decision-persist`` — the decision was taken but its resend-until-
  acked persistence tail had not yet closed (``xshard_decision`` ..
  ``xshard_end``);
* ``queue-wait`` — the process sat in the admission queue
  (``queued`` .. ``admitted``);
* ``graph-admission`` — the process was admitted but a scheduler or
  federation rule deferred its next step (a ``deferred`` event opens
  the interval; the next execution dispatch closes it);
* ``fsync`` — reserved for backends that model durable-write latency;
  log forces (forced ``wal_append`` events and ``wal_sync``) are
  instantaneous in virtual time, so the phase carries their count but
  (today) zero duration;
* ``other`` — time covered by none of the above (e.g. the gap between
  an activity completing and the scheduler's next step).

Overlapping phases are resolved by a fixed priority (``_PRIORITY``
below): execution beats the 2PC rounds, which beat waiting.  Because
the slices partition the process interval exactly, per-phase durations
**reconcile with end-to-end latency by construction** — the residual
reported by :func:`reconcile` is pure floating-point noise, and
benchmark X16 gates it at 1%.

The input is the span DAG from :func:`repro.obs.spans.derive_spans`
plus the raw record stream (for ``deferred`` events and WAL counters).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.metrics import percentile
from repro.obs.spans import Span, derive_spans

__all__ = [
    "PHASES",
    "PhaseSlice",
    "CriticalPath",
    "critical_paths",
    "attribution",
    "reconcile",
]

#: Every phase a slice may carry, in priority order (highest first).
PHASES = (
    "exec",
    "2pc-vote",
    "decision-persist",
    "fsync",
    "queue-wait",
    "graph-admission",
    "other",
)

_PRIORITY = {phase: rank for rank, phase in enumerate(PHASES)}


@dataclass
class PhaseSlice:
    """A maximal sub-interval of a process span owned by one phase."""

    phase: str
    start: float
    end: float
    #: ``span_id`` of the winning span, when a derived span owns the
    #: slice (``None`` for ``graph-admission`` and ``other`` slices).
    span: Optional[int] = None

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)


@dataclass
class CriticalPath:
    """One process's latency attribution."""

    process: str
    start: float
    end: float
    slices: List[PhaseSlice] = field(default_factory=list)
    #: phase -> total attributed time (seconds of virtual time).
    phases: Dict[str, float] = field(default_factory=dict)
    #: phase -> number of contributing events/intervals (``fsync``
    #: counts WAL appends/syncs even though they are instantaneous).
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    @property
    def reconciliation_error(self) -> float:
        """|sum of phase times - end-to-end duration| (absolute)."""
        return abs(sum(self.phases.values()) - self.duration)

    @property
    def dominant(self) -> Optional[str]:
        """The phase that owns the most time (priority breaks ties).

        ``None`` when the process has zero duration (nothing to blame).
        """
        best: Optional[str] = None
        best_time = 0.0
        for phase in PHASES:
            time = self.phases.get(phase, 0.0)
            if time > best_time:
                best, best_time = phase, time
        return best


def _segment(
    start: float,
    end: float,
    intervals: Sequence[Tuple[str, float, float, Optional[int]]],
) -> List[PhaseSlice]:
    """Partition ``[start, end]`` among prioritized candidate intervals."""
    if end <= start:
        return []
    points = {start, end}
    clipped: List[Tuple[str, float, float, Optional[int]]] = []
    for phase, lo, hi, span_id in intervals:
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        clipped.append((phase, lo, hi, span_id))
        points.add(lo)
        points.add(hi)
    cuts = sorted(points)
    slices: List[PhaseSlice] = []
    for a, b in zip(cuts, cuts[1:]):
        mid = (a + b) / 2.0
        winner: Tuple[int, Optional[int]] = (_PRIORITY["other"], None)
        for phase, lo, hi, span_id in clipped:
            if lo <= mid < hi and _PRIORITY[phase] < winner[0]:
                winner = (_PRIORITY[phase], span_id)
        phase = PHASES[winner[0]]
        if slices and slices[-1].phase == phase and slices[-1].span == winner[1]:
            slices[-1].end = b
        else:
            slices.append(PhaseSlice(phase, a, b, span=winner[1]))
    return slices


def critical_paths(
    records: Iterable[Dict[str, Any]],
    spans: Optional[Sequence[Span]] = None,
) -> Dict[str, CriticalPath]:
    """Latency attribution for every process in an exported stream.

    Pass ``spans`` to reuse an already-derived span DAG; otherwise the
    stream is materialized and :func:`derive_spans` runs here.
    """
    records = list(records)
    if spans is None:
        spans = derive_spans(records)

    bounds: Dict[str, Tuple[float, float]] = {}
    by_process: Dict[str, List[Span]] = {}
    for span in spans:
        if span.process is None:
            continue
        if span.phase == "process":
            bounds[span.process] = (span.start, span.end)
        else:
            by_process.setdefault(span.process, []).append(span)

    exec_starts: Dict[str, List[float]] = {}
    for process, process_spans in by_process.items():
        exec_starts[process] = sorted(
            span.start for span in process_spans if span.phase == "exec"
        )

    # ``deferred`` opens a graph-admission wait; the next execution
    # dispatch (or the end of the process) closes it.  Log forces are
    # counted per process for the attribution table even though they
    # are instantaneous in virtual time; an append that carries no
    # ``force`` field comes from a trace older than the field, when
    # every append of a durable log was one.
    deferrals: Dict[str, List[Tuple[float, float]]] = {}
    wal_counts: Dict[str, int] = {}
    for record in records:
        kind = record.get("kind")
        process = record.get("process")
        if not process:
            continue
        if kind == "deferred":
            ts = float(record.get("ts") or 0.0)
            starts = exec_starts.get(process, [])
            index = bisect.bisect_right(starts, ts)
            close = (
                starts[index]
                if index < len(starts)
                else bounds.get(process, (ts, ts))[1]
            )
            deferrals.setdefault(process, []).append((ts, close))
        elif kind == "wal_sync" or (
            kind == "wal_append"
            and (record.get("data") or {}).get("force", True)
        ):
            wal_counts[process] = wal_counts.get(process, 0) + 1

    paths: Dict[str, CriticalPath] = {}
    for process, (start, end) in bounds.items():
        intervals: List[Tuple[str, float, float, Optional[int]]] = []
        for span in by_process.get(process, []):
            if span.phase in _PRIORITY and span.phase != "other":
                intervals.append(
                    (span.phase, span.start, span.end, span.span_id)
                )
        for lo, hi in deferrals.get(process, []):
            intervals.append(("graph-admission", lo, hi, None))
        slices = _segment(start, end, intervals)
        phases: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for piece in slices:
            phases[piece.phase] = (
                phases.get(piece.phase, 0.0) + piece.duration
            )
            counts[piece.phase] = counts.get(piece.phase, 0) + 1
        # A vote round that resolved within one virtual instant leaves a
        # zero-width span — no time to attribute, but the round still
        # happened; record it so the table shows 2PC occurred.
        for span in by_process.get(process, []):
            if span.phase in ("2pc-vote", "decision-persist") and (
                span.duration == 0.0
            ):
                counts[span.phase] = counts.get(span.phase, 0) + 1
                phases.setdefault(span.phase, 0.0)
        if process in wal_counts:
            counts["fsync"] = counts.get("fsync", 0) + wal_counts[process]
            phases.setdefault("fsync", 0.0)
        paths[process] = CriticalPath(
            process=process,
            start=start,
            end=end,
            slices=slices,
            phases=phases,
            counts=counts,
        )
    return paths


def attribution(
    paths: Dict[str, CriticalPath],
) -> Dict[str, Dict[str, float]]:
    """Fleet-wide per-phase table: total, share, p50/p95/p99, count.

    ``share`` is the phase's fraction of all attributed time; the
    percentiles are over per-process phase durations (processes where
    the phase never occurred do not contribute samples).
    """
    samples: Dict[str, List[float]] = {}
    counts: Dict[str, int] = {}
    for path in paths.values():
        for phase, time in path.phases.items():
            samples.setdefault(phase, []).append(time)
        for phase, count in path.counts.items():
            counts[phase] = counts.get(phase, 0) + count
    grand_total = sum(sum(values) for values in samples.values())
    table: Dict[str, Dict[str, float]] = {}
    for phase in PHASES:
        values = samples.get(phase, [])
        if not values and phase not in counts:
            continue
        total = sum(values)
        table[phase] = {
            "total": total,
            "share": (total / grand_total) if grand_total > 0 else 0.0,
            "p50": percentile(values, 0.50),
            "p95": percentile(values, 0.95),
            "p99": percentile(values, 0.99),
            "processes": float(len(values)),
            "events": float(counts.get(phase, 0)),
        }
    return table


def reconcile(paths: Dict[str, CriticalPath]) -> float:
    """Worst relative reconciliation error across all processes.

    Returns ``max(|sum(phases) - duration| / duration)`` over processes
    with nonzero duration — the quantity benchmark X16 gates at 1%.
    """
    worst = 0.0
    for path in paths.values():
        if path.duration <= 0.0:
            continue
        worst = max(worst, path.reconciliation_error / path.duration)
    return worst
