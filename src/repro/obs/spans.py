"""Span derivation: fold the flat event stream into a causal span DAG.

The trace bus emits point events; timelines and the critical-path
analysis want *intervals with structure*.  This module derives the span
families below from an exported stream and links them into a per-process
DAG: every span carries a ``span_id``, non-process spans point at their
process span via ``parent``, and ``cause`` names the bus sequence number
of the event that opened the span (the same causal anchor the Perfetto
flow arrows and ``obs.critpath`` consume).

* **execution spans** (phase ``exec``) — one per ``exec`` event (the
  runner emits the service duration with the dispatch), covering the
  activity's stay at its subsystem;
* **wait spans** (phase ``queue-wait``) — from a ``queued`` offer to its
  ``admitted`` event; a still-queued process at stream truncation yields
  a span closed at the last seen timestamp (zero-length when nothing
  later was observed);
* **2PC vote spans** (phase ``2pc-vote``) — from a cross-shard group's
  ``xshard_begin`` to its ``xshard_decision``, attributed to the process
  encoded in the harden group id;
* **decision-persist spans** (phase ``decision-persist``) — from
  ``xshard_decision`` to ``xshard_end`` (the resend-until-acked tail);
* **process spans** (phase ``process``) — from a process's first
  appearance to its ``terminated`` event (or the last seen timestamp on
  a truncated stream).

Spans feed the Chrome trace exporter (`repro.obs.export.chrome_trace`)
and the critical-path attribution (`repro.obs.critpath`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Span",
    "derive_spans",
    "harden_group",
    "incarnation",
    "group_process",
    "leg_name",
    "split_leg",
]


@dataclass
class Span:
    """A named interval attributed to a process, linked into the DAG."""

    name: str
    cat: str
    process: Optional[str]
    start: float
    end: float
    args: Dict[str, Any] = field(default_factory=dict)
    #: Stable id within one derived span set (assigned in sorted order).
    span_id: int = -1
    #: ``span_id`` of the enclosing process span (``None`` for roots).
    parent: Optional[int] = None
    #: Bus ``seq`` of the event that opened this span (causal anchor).
    cause: Optional[int] = None
    #: Latency phase this span attributes time to (see ``obs.critpath``).
    phase: str = ""
    #: Shard the span was observed on, when the stream says.
    shard: Optional[str] = None

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)


# -- 2PC identifier formats ---------------------------------------------
# Owned by the one layer the scheduler, the protocol, recovery and the
# trace tools all import: nobody else builds or splits these strings.

_HARDEN = "harden:"


def harden_group(process_id: str) -> str:
    """Id under which ``process_id`` hardens its prepared groups."""
    return _HARDEN + process_id


def incarnation(group_id: str, number: int) -> str:
    """``group_id`` of one attempt — ``harden:<pid>#<number>`` — so a
    retry after a veto is a different group to every participant."""
    return f"{group_id}#{number}"


def group_process(group_id: str) -> Optional[str]:
    """Process id encoded in a harden group id; anything else is
    anonymous."""
    if group_id.startswith(_HARDEN):
        return group_id[len(_HARDEN):].partition("#")[0] or None
    return None


def leg_name(subsystem: str, txn_id: str) -> str:
    """A group's leg as the log and the messages carry it."""
    return f"{subsystem}:{txn_id}"


def split_leg(leg: object) -> Tuple[str, str]:
    """``(subsystem, txn_id)`` of a ``"subsystem:txn"`` leg."""
    subsystem, _, txn_id = str(leg).partition(":")
    return subsystem, txn_id


def derive_spans(records: Iterable[Dict[str, Any]]) -> List[Span]:
    """Derive the lifecycle span DAG from an exported trace stream.

    Accepts JSONL-shaped record dicts (see
    :meth:`repro.obs.events.TraceEvent.to_dict`); tolerates truncated
    streams (an unterminated process or unresolved wait/2PC span yields
    a span ending at the last seen timestamp) and returns ``[]`` for an
    empty stream.
    """
    spans: List[Span] = []
    first_seen: Dict[str, float] = {}
    queued_at: Dict[str, Tuple[float, Optional[int]]] = {}
    terminated_at: Dict[str, float] = {}
    terminal_status: Dict[str, str] = {}
    #: group id -> (begin ts, begin seq, shard) awaiting a decision.
    vote_open: Dict[str, Tuple[float, Optional[int], Optional[str]]] = {}
    #: group id -> (decision ts, decision seq, shard, commit) awaiting end.
    persist_open: Dict[str, Tuple[float, Optional[int], Optional[str], bool]] = {}
    last_ts: Optional[float] = None

    for record in records:
        kind = record.get("kind")
        ts = float(record.get("ts") or 0.0)
        last_ts = ts if last_ts is None else max(last_ts, ts)
        process = record.get("process")
        data = record.get("data") or {}
        seq = record.get("seq")
        if process and process not in first_seen and kind in (
            "offered",
            "submitted",
            "queued",
            "admitted",
            "activity",
            "exec",
        ):
            first_seen[process] = ts
        if kind == "queued" and process:
            queued_at[process] = (ts, seq)
        elif kind == "admitted" and process:
            opened = queued_at.pop(process, None)
            if opened is not None:
                start, cause = opened
                spans.append(
                    Span(
                        name="queue wait",
                        cat="admission",
                        process=process,
                        start=start,
                        end=ts,
                        cause=cause,
                        phase="queue-wait",
                    )
                )
        elif kind == "exec" and process:
            duration = float(data.get("duration") or 0.0)
            activity = record.get("activity") or "?"
            service = data.get("service")
            spans.append(
                Span(
                    name=f"{activity}@{service}" if service else activity,
                    cat="sim",
                    process=process,
                    start=ts,
                    end=ts + duration,
                    args=dict(data),
                    cause=seq,
                    phase="exec",
                )
            )
        elif kind == "xshard_begin":
            group = str(data.get("group") or "")
            if group:
                vote_open[group] = (ts, seq, data.get("shard"))
        elif kind == "xshard_decision":
            group = str(data.get("group") or "")
            opened = vote_open.pop(group, None)
            if opened is not None:
                start, cause, shard = opened
                spans.append(
                    Span(
                        name=f"2pc vote {group}",
                        cat="fed",
                        process=group_process(group),
                        start=start,
                        end=ts,
                        args={"group": group},
                        cause=cause,
                        phase="2pc-vote",
                        shard=shard,
                    )
                )
            if group:
                persist_open[group] = (
                    ts,
                    seq,
                    data.get("shard"),
                    bool(data.get("commit")),
                )
        elif kind == "xshard_end":
            group = str(data.get("group") or "")
            opened = persist_open.pop(group, None)
            if opened is not None:
                start, cause, shard, commit = opened
                spans.append(
                    Span(
                        name=f"2pc decision {group}",
                        cat="fed",
                        process=group_process(group),
                        start=start,
                        end=ts,
                        args={"group": group, "commit": commit},
                        cause=cause,
                        phase="decision-persist",
                        shard=shard,
                    )
                )
        elif kind == "terminated" and process:
            terminated_at[process] = ts
            terminal_status[process] = data.get("status", "")

    if last_ts is None:
        return []

    # Truncated-stream closure: a process still parked in the admission
    # queue gets its wait span closed at the last seen timestamp (a
    # queued-only stream therefore yields a zero-length wait span).
    for process, (start, cause) in queued_at.items():
        spans.append(
            Span(
                name="queue wait",
                cat="admission",
                process=process,
                start=min(start, last_ts),
                end=last_ts,
                cause=cause,
                phase="queue-wait",
            )
        )
    for group, (start, cause, shard) in vote_open.items():
        spans.append(
            Span(
                name=f"2pc vote {group}",
                cat="fed",
                process=group_process(group),
                start=min(start, last_ts),
                end=last_ts,
                args={"group": group},
                cause=cause,
                phase="2pc-vote",
                shard=shard,
            )
        )
    for group, (start, cause, shard, commit) in persist_open.items():
        spans.append(
            Span(
                name=f"2pc decision {group}",
                cat="fed",
                process=group_process(group),
                start=min(start, last_ts),
                end=last_ts,
                args={"group": group, "commit": commit},
                cause=cause,
                phase="decision-persist",
                shard=shard,
            )
        )

    for process, start in first_seen.items():
        end = terminated_at.get(process, last_ts)
        args: Dict[str, Any] = {}
        status = terminal_status.get(process)
        if status:
            args["status"] = status
        spans.append(
            Span(
                name=f"process {process}",
                cat="sched",
                process=process,
                start=start,
                end=max(end, start),
                args=args,
                phase="process",
            )
        )

    spans.sort(key=lambda span: (span.start, span.end, span.name))
    roots: Dict[str, int] = {}
    for span_id, span in enumerate(spans):
        span.span_id = span_id
        if span.phase == "process" and span.process is not None:
            roots[span.process] = span_id
    for span in spans:
        if span.phase != "process" and span.process is not None:
            span.parent = roots.get(span.process)
    return spans
