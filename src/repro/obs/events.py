"""Trace event records and the event taxonomy.

A :class:`TraceEvent` is one structured fact about the system: *what*
happened (``kind``), *when* in virtual time (``ts``), *who* it happened
to (``process`` / ``activity`` correlation ids) and the kind-specific
payload (``data``).  Events are ordered by a monotone sequence number
``seq`` assigned by the bus, so a trace totally orders everything the
system did even when virtual time stands still.

:data:`EVENT_CATEGORIES` is the complete taxonomy — every ``kind`` any
instrumented component may emit, mapped to its category.  Exported
JSONL streams are validated against it by :func:`validate_record` /
:func:`validate_stream` (and by the ``trace-smoke`` CI job).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "TraceEvent",
    "EVENT_CATEGORIES",
    "CATEGORIES",
    "validate_record",
    "validate_stream",
]


#: Complete event taxonomy: kind -> category.
EVENT_CATEGORIES: Dict[str, str] = {
    # -- scheduler lifecycle (category "sched") ------------------------
    "submitted": "sched",  # process entered the scheduler
    "activity": "sched",  # forward/compensating activity recorded
    "rolled_back": "sched",  # a logged activity was compensated away
    "deferred": "sched",  # a step was blocked (rule in data["rule"])
    "failed": "sched",  # an invocation failed (will retry/alternate)
    "hardened": "sched",  # deferred-commit group 2PC-hardened
    "abort_begun": "sched",  # group abort started (cascade flag in data)
    "victim": "sched",  # deadlock/livelock victim selected
    "terminated": "sched",  # process reached a terminal status
    "checkpoint": "sched",  # scheduler checkpoint written
    "replay_begin": "sched",  # crash-recovery replay started
    "replay_end": "sched",  # crash-recovery replay finished
    # -- admission control (category "admission") ----------------------
    "offered": "admission",  # process offered at the front door
    "admitted": "admission",  # offer admitted
    "queued": "admission",  # offer parked in the admission queue
    "rejected": "admission",  # offer turned away
    "shed": "admission",  # admitted B-REC process cancelled by shedder
    "draining": "admission",  # scheduler entered drain mode
    "starved": "admission",  # starvation watchdog boosted a process
    "livelock": "admission",  # livelock watchdog escalated
    # -- resilience layer (category "resilience") ----------------------
    "retry": "resilience",  # retry scheduled after a failure
    "fast_fail": "resilience",  # invocation short-circuited by breaker
    "breaker_open": "resilience",  # circuit breaker tripped open
    "breaker_half_open": "resilience",  # breaker probing recovery
    "breaker_closed": "resilience",  # breaker recovered
    "degraded": "resilience",  # execution degraded along ◁
    # -- write-ahead log (category "wal") ------------------------------
    # record appended (lsn, record type; force: the writer demanded
    # durability, fsync: this append really fsynced — file logs only)
    "wal_append": "wal",
    "wal_sync": "wal",  # explicit sync(): everything appended fsynced
    "wal_checkpoint": "wal",  # checkpoint record written
    # -- chaos harness (category "chaos") ------------------------------
    "fault": "chaos",  # fault injected into a subsystem
    # -- simulation runner (category "sim") ----------------------------
    "run_begin": "sim",  # a simulation/harness run started
    "run_end": "sim",  # a simulation/harness run finished
    "exec": "sim",  # activity execution span (service, duration)
    # -- federation layer (category "fed") -----------------------------
    "shard_kill": "fed",  # a whole scheduler shard crash-stopped
    "shard_recovered": "fed",  # a killed shard completed WAL recovery
    "msg_fault": "fed",  # inter-shard message fault (drop/delay/dup/partition)
    "edge_exchange": "fed",  # conflict announcement shipped between shards
    "xshard_begin": "fed",  # cross-shard 2PC group entered the vote phase
    "xshard_decision": "fed",  # cross-shard commit/abort decision logged
    "xshard_end": "fed",  # cross-shard group fully acknowledged
    "xshard_indoubt": "fed",  # participant holding an in-doubt vote
    "xshard_resolved": "fed",  # termination protocol resolved an in-doubt group
    "msg_send": "fed",  # inter-shard message handed to the fabric (causal anchor)
    "msg_recv": "fed",  # inter-shard message delivered (data["cause"] = send seq)
    # -- nemesis harness (category "nemesis") --------------------------
    "nemesis_action": "nemesis",  # a planned fault action fired
    "nemesis_invariant": "nemesis",  # an online/final invariant fired
}

#: All categories, in display order.
CATEGORIES = (
    "sched",
    "admission",
    "resilience",
    "wal",
    "chaos",
    "sim",
    "fed",
    "nemesis",
)


class TraceEvent:
    """One structured trace record.

    ``__slots__`` keeps events cheap: the enabled-path cost of tracing
    is dominated by sink I/O, not record construction.
    """

    __slots__ = ("seq", "ts", "kind", "cat", "process", "activity", "data")

    def __init__(
        self,
        seq: int,
        ts: float,
        kind: str,
        cat: str,
        process: Optional[str],
        activity: Optional[str],
        data: Dict[str, Any],
    ) -> None:
        self.seq = seq
        self.ts = ts
        self.kind = kind
        self.cat = cat
        self.process = process
        self.activity = activity
        self.data = data

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-serialisable form (the JSONL line layout)."""
        return {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "cat": self.cat,
            "process": self.process,
            "activity": self.activity,
            "data": self.data,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "TraceEvent":
        return cls(
            seq=record["seq"],
            ts=record["ts"],
            kind=record["kind"],
            cat=record["cat"],
            process=record.get("process"),
            activity=record.get("activity"),
            data=record.get("data") or {},
        )


_REQUIRED_KEYS = ("seq", "ts", "kind", "cat", "process", "activity", "data")


def validate_record(record: Any, index: Optional[int] = None) -> List[str]:
    """Validate one exported trace record against the event schema.

    Returns a list of human-readable problems (empty when valid).
    """
    where = f"record {index}" if index is not None else "record"
    if not isinstance(record, dict):
        return [f"{where}: not a JSON object"]
    errors: List[str] = []
    for key in _REQUIRED_KEYS:
        if key not in record:
            errors.append(f"{where}: missing key {key!r}")
    if errors:
        return errors
    if not isinstance(record["seq"], int) or isinstance(record["seq"], bool):
        errors.append(f"{where}: seq must be an integer")
    if not isinstance(record["ts"], (int, float)) or isinstance(record["ts"], bool):
        errors.append(f"{where}: ts must be a number")
    kind = record["kind"]
    if not isinstance(kind, str):
        errors.append(f"{where}: kind must be a string")
    elif kind not in EVENT_CATEGORIES:
        errors.append(f"{where}: unknown event kind {kind!r}")
    elif record["cat"] != EVENT_CATEGORIES[kind]:
        errors.append(
            f"{where}: kind {kind!r} belongs to category"
            f" {EVENT_CATEGORIES[kind]!r}, not {record['cat']!r}"
        )
    for key in ("process", "activity"):
        value = record[key]
        if value is not None and not isinstance(value, str):
            errors.append(f"{where}: {key} must be a string or null")
    if not isinstance(record["data"], dict):
        errors.append(f"{where}: data must be an object")
    return errors


def validate_stream(records: Iterable[Any]) -> List[str]:
    """Validate a whole exported stream: schema plus seq monotonicity."""
    errors: List[str] = []
    last_seq: Optional[int] = None
    for index, record in enumerate(records):
        errors.extend(validate_record(record, index))
        if isinstance(record, dict):
            seq = record.get("seq")
            if isinstance(seq, int) and not isinstance(seq, bool):
                if last_seq is not None and seq <= last_seq:
                    errors.append(
                        f"record {index}: seq {seq} not increasing"
                        f" (previous {last_seq})"
                    )
                last_seq = seq
    return errors
