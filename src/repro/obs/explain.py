"""Decision explainability.

Every scheduling decision that stops an activity — a Lemma 1/2/3
protocol-rule deferral, an admission rejection, a load shed, a
deadlock victim, an abort — is recorded as a :class:`DecisionRecord`
tagged with the *rule* that fired.  :func:`explain_scheduler` answers
"why is this blocked?" against a live scheduler, enriched with the
concrete conflicting ``(activity, service)`` predecessors currently in
the serialization graph; :func:`explain_trace` answers the same
question offline from an exported JSONL trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import UnknownProcessError

__all__ = [
    "RULES",
    "GRAPH_RULES",
    "DecisionRecord",
    "Explanation",
    "explain_scheduler",
    "explain_trace",
]


#: Rule tags attached to scheduler decisions, with their meaning.  The
#: R-numbers match the protocol rules in ``core/scheduler.py``'s module
#: docstring (derived from the paper's Lemmas 1-3).
RULES: Dict[str, str] = {
    "R2-cycle-prevention": (
        "completion-aware cycle prevention (R2): executing the activity "
        "would close a cycle among the recorded conflict edges plus the "
        "potential edges forced by forward-recovery completions, making "
        "the completed prefix irreducible"
    ),
    "R3-lemma1": (
        "Lemma 1, execution side (R3): a non-compensatable activity must "
        "wait until every process with a conflict edge into its process "
        "has committed — otherwise a predecessor's compensation would "
        "create an irreducible cycle"
    ),
    "R4-deferred-commit": (
        "Lemma 1, commit side (R4): the process's prepared deferred-commit "
        "group must 2PC-harden before its continuation may run"
    ),
    "R5-lemma2": (
        "Lemma 2 (R5): a compensation waits until every later conflicting "
        "activity of another active process has itself been compensated "
        "(cascading aborts in reverse conflict order)"
    ),
    "R6-recovery-priority": (
        "Lemma 3 (R6): conflicting predecessors currently recovering will "
        "compensate their activities; the activity waits behind them"
    ),
    "R7-commit-ordering": (
        "commit ordering (R7, Proc-REC 11.1): a process commits only "
        "after every conflicting predecessor terminated"
    ),
    "breaker-open": (
        "circuit breaker: the service's breaker is open (the subsystem is "
        "known to be failing) and no ◁-alternative is reachable"
    ),
    "unavailable": (
        "subsystem unavailable: the service's subsystem is crash-stopped; "
        "the process waits out the outage"
    ),
    "lock-wait": (
        "lock wait: a subsystem-local lock is held by another process's "
        "transaction"
    ),
    "admission": "admission policy: the bounded front door turned the offer away",
    "load-shed": "load shedding: a B-REC process was cancelled to relieve overload",
    "deadlock-victim": "deadlock resolution: chosen as the cheapest abort victim",
    "abort": "process abort (requested or cascading)",
    "fed-in-doubt-hold": (
        "federation in-doubt hold: this shard voted YES in a cross-shard "
        "2PC group and the coordinator's decision is unknown — the "
        "prepared transactions stay held (neither committed nor presumed "
        "aborted) until the termination protocol resolves the group"
    ),
    "fed-termination-protocol": (
        "federation termination protocol: an in-doubt cross-shard group "
        "was resolved cooperatively — by asking the recovered "
        "coordinator (or a peer participant) for the logged decision, or "
        "by presumed abort once the coordinator provably never decided"
    ),
    "fed-shard-unreachable": (
        "federation shard-unreachable defer: the activity's service is "
        "owned by a shard that is dead, partitioned away, or behind an "
        "open inter-shard breaker; the step is deferred until the link "
        "heals rather than risking a split-brain dispatch"
    ),
    "fed-foreign-conflict": (
        "federation foreign-conflict defer: an edge-exchange announcement "
        "shows a conflicting predecessor on another shard that has not "
        "terminated yet — dispatching now could make the merged "
        "cross-shard history irreducible, so the step waits"
    ),
}

#: Rules whose explanation is backed by concrete conflicting
#: predecessors in the serialization graph.
GRAPH_RULES = frozenset(
    ("R2-cycle-prevention", "R3-lemma1", "R5-lemma2", "R6-recovery-priority")
)


@dataclass
class DecisionRecord:
    """One recorded scheduling decision about a process."""

    kind: str  # deferred | rejected | shed | victim | abort
    rule: str
    reason: str
    process: str
    activity: Optional[str] = None
    service: Optional[str] = None
    waiting_for: Tuple[str, ...] = ()
    detail: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Explanation:
    """Why a process/activity is (or was) blocked, rejected or aborted."""

    process: str
    status: Optional[str]
    decision: Optional[DecisionRecord]
    #: Concrete conflicting predecessors: dicts with ``process``,
    #: ``activity``, ``service`` and log ``position`` keys.
    conflicts: List[Dict[str, Any]] = field(default_factory=list)
    note: str = ""
    #: Live schedulers only: the blockers the process is parked on.  It
    #: is re-evaluated when one of them moves (records, compensates or
    #: rolls back an event, hardens, changes recovery status or
    #: terminates), when its own state moves, or when the conflict
    #: relation changes — not before.
    parked_on: Tuple[str, ...] = ()

    @property
    def found(self) -> bool:
        return self.decision is not None

    @property
    def rule_text(self) -> str:
        if self.decision is None:
            return ""
        return RULES.get(self.decision.rule, self.decision.rule)

    def conflict_pairs(self) -> List[Tuple[str, str]]:
        """The conflicting ``(activity, service)`` pairs."""
        return [(c["activity"], c["service"]) for c in self.conflicts]

    def render(self) -> str:
        """Human-readable multi-line explanation."""
        lines: List[str] = []
        head = f"process {self.process}"
        if self.status:
            head += f" [{self.status}]"
        lines.append(head)
        if self.decision is None:
            lines.append(
                f"  no blocking/rejecting/aborting decision recorded"
                f"{': ' + self.note if self.note else ''}"
            )
            return "\n".join(lines)
        decision = self.decision
        what = decision.kind
        if decision.activity:
            what += f" at activity {decision.activity!r}"
            if decision.service:
                what += f" (service {decision.service!r})"
        lines.append(f"  decision: {what}")
        lines.append(f"  rule:     {decision.rule or 'unspecified'}")
        if self.rule_text and self.rule_text != decision.rule:
            lines.append(f"            {self.rule_text}")
        lines.append(f"  reason:   {decision.reason}")
        if decision.waiting_for:
            lines.append(f"  waiting for: {', '.join(decision.waiting_for)}")
        for key, value in sorted(decision.detail.items()):
            lines.append(f"  {key}: {value}")
        if self.conflicts:
            lines.append("  conflicting predecessors in the serialization graph:")
            for conflict in self.conflicts:
                lines.append(
                    f"    - {conflict['process']}: activity "
                    f"{conflict['activity']!r} on service "
                    f"{conflict['service']!r} (log position "
                    f"{conflict['position']})"
                )
        if self.parked_on:
            lines.append(
                f"  parked: re-evaluated when any of "
                f"{', '.join(self.parked_on)} moves"
            )
        if self.note:
            lines.append(f"  note: {self.note}")
        return "\n".join(lines)


def explain_scheduler(scheduler: Any, instance_id: str) -> Explanation:
    """Explain the last blocking decision about ``instance_id``.

    Reads the scheduler's recorded :class:`DecisionRecord` and, when
    the rule is graph-backed, re-derives the concrete conflicting
    predecessors live from the serialization graph.  Raises
    :class:`~repro.errors.UnknownProcessError` when the scheduler has
    never seen the id.
    """
    decision = scheduler.decisions.get(instance_id)
    status: Optional[str] = None
    parked_on: Tuple[str, ...] = ()
    try:
        status = scheduler.managed(instance_id).status.value
        parked_on = scheduler.parked_on(instance_id)
    except UnknownProcessError:
        if decision is None:
            raise
    conflicts: List[Dict[str, Any]] = []
    note = ""
    if decision is not None and decision.rule in GRAPH_RULES:
        if status in (None, "committed", "aborted"):
            note = (
                "process already terminated; conflicting predecessors "
                "reflect the current graph, not the moment of deferral"
            )
        if decision.service is not None:
            conflicts = scheduler.conflict_pairs(instance_id, decision.service)
    if decision is None and status == "waiting":
        note = "process is waiting but no decision record was kept"
    return Explanation(
        process=instance_id,
        status=status,
        decision=decision,
        conflicts=conflicts,
        note=note,
        parked_on=parked_on,
    )


_DECISION_KINDS = {
    "deferred": "deferred",
    "rejected": "rejected",
    "shed": "shed",
    "victim": "victim",
    "abort_begun": "abort",
}


def _record_from_event(kind: str, record: Dict[str, Any]) -> DecisionRecord:
    data = record.get("data") or {}
    return DecisionRecord(
        kind=_DECISION_KINDS[kind],
        rule=data.get("rule", "") or _default_rule(kind, data),
        reason=data.get("reason", ""),
        process=record.get("process") or "",
        activity=record.get("activity"),
        service=data.get("service"),
        waiting_for=tuple(data.get("waiting_for") or ()),
        detail={
            key: value
            for key, value in data.items()
            if key
            not in ("rule", "reason", "service", "waiting_for", "conflicts")
        },
    )


def _default_rule(kind: str, data: Dict[str, Any]) -> str:
    if kind == "rejected":
        return "admission"
    if kind == "shed":
        return "load-shed"
    if kind == "victim":
        return "deadlock-victim"
    if kind == "abort_begun":
        return "abort"
    return ""


def explain_trace(
    records: Iterable[Dict[str, Any]], target: Optional[str] = None
) -> Optional[Explanation]:
    """Explain a blocked/rejected/aborted activity from a trace stream.

    ``target`` selects a process or activity id; without one, the first
    process with a blocking decision is explained.  The *last* decision
    event about the target wins (it reflects the final state).  Returns
    ``None`` when no decision event matches.
    """
    chosen: Optional[Dict[str, Any]] = None
    chosen_kind = ""
    terminal: Dict[str, str] = {}
    first_match: Optional[str] = None
    for record in records:
        kind = record.get("kind")
        if kind == "terminated":
            process = record.get("process")
            if process:
                terminal[process] = (record.get("data") or {}).get("status", "")
            continue
        if kind not in _DECISION_KINDS:
            continue
        process = record.get("process")
        activity = record.get("activity")
        if target is not None:
            if target not in (process, activity):
                continue
        elif first_match is None:
            first_match = process
        elif process != first_match:
            continue
        chosen = record
        chosen_kind = kind
    if chosen is None:
        return None
    decision = _record_from_event(chosen_kind, chosen)
    conflicts = list((chosen.get("data") or {}).get("conflicts") or ())
    return Explanation(
        process=decision.process,
        status=terminal.get(decision.process),
        decision=decision,
        conflicts=conflicts,
    )
