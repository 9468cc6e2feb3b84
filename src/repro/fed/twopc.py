"""What is distributed about two-phase commit between shards.

The protocol itself is :mod:`repro.subsystems.twophase`'s; a pivot group
whose prepared legs live on several scheduler shards runs that same body
with, from this module:

* :class:`CrossShardCoordinator` (the process's home shard) — which
  shard owns a leg, the RPC transport over the unreliable fabric, and
  the resend list: a decided group stays pending until every participant
  acknowledged, and only then is ``2pc_end`` logged;
* :class:`ShardCommitAgent`, the participant role at a peer — a
  ``vote_req`` logs ``2pc_vote`` on the *participant's* WAL before the
  YES travels back (so its own recovery holds the leg in doubt instead
  of presuming abort), and a ``decision`` is applied idempotently —
  duplicates and resends are suppressed, never double-applied;
* recovery by **presumed abort**: a coordinator that finds a begun but
  undecided group in its log aborts it and notifies participants; a
  participant that voted resolves through the cooperative **termination
  protocol** (:meth:`ShardCommitAgent.terminate`: ask the peers for the
  logged decision) rather than guessing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.fed.messages import FederationNetwork
from repro.obs.spans import leg_name, split_leg
from repro.subsystems.recovery import RecoveryReport, analyze_wal
from repro.subsystems.subsystem import SubsystemRegistry
from repro.subsystems.twophase import (
    BoundaryHook,
    CommitOutcome,
    Participant,
    TwoPhaseCoordinator,
    VoteFunction,
    trace_event,
)
from repro.subsystems.transaction import carry_redo
from repro.subsystems.wal import WriteAheadLog

__all__ = [
    "DecisionLedger",
    "ShardCommitAgent",
    "CrossShardCoordinator",
]


class DecisionLedger:
    """Audit trail of prepared-transaction resolutions.

    Bound to every *real* subsystem via ``on_resolve``, it observes each
    commit/rollback of a prepared transaction exactly where it becomes
    durable — the ground truth the end-of-run audit compares against the
    logged 2PC decisions (zero lost, zero doubly-applied).
    """

    def __init__(self) -> None:
        self.commits: Counter = Counter()
        self.rollbacks: Counter = Counter()
        #: Decision messages suppressed as duplicates/redundant resends.
        self.dup_suppressed = 0

    def bind(self, subsystem) -> None:
        subsystem.on_resolve = self._record

    def _record(self, txn_id: str, committed: bool) -> None:
        if committed:
            self.commits[txn_id] += 1
        else:
            self.rollbacks[txn_id] += 1


def _now(role) -> float:
    return float(role.clock.now) if role.clock is not None else 0.0


@dataclass
class ParticipantGroup:
    """One in-doubt voted group held by a participant shard."""

    group_id: str
    coordinator: Optional[str]
    #: ``(subsystem_name, txn_id)`` legs this shard voted on.
    legs: List[Tuple[str, str]]
    voted_at: float = 0.0
    #: Recorded an in-doubt-hold decision already (avoid re-noising).
    held: bool = False


class ShardCommitAgent:
    """The participant role at a peer site, one per shard.

    Answers the coordinator's two questions — :meth:`vote` and
    :meth:`decide` — idempotently, behind a durable vote and duplicate
    suppression; :meth:`handle` is the wire that decodes a message into
    one of them.
    """

    def __init__(
        self,
        shard_id: str,
        wal: WriteAheadLog,
        registry: SubsystemRegistry,
        ledger: Optional[DecisionLedger] = None,
        trace: Optional[object] = None,
        clock: Optional[object] = None,
    ) -> None:
        self.shard_id = shard_id
        self.wal = wal
        self.registry = registry
        self.ledger = ledger
        self.trace = trace
        self.clock = clock
        #: In-doubt groups this shard voted YES on, by group id.
        self.groups: Dict[str, ParticipantGroup] = {}
        #: group id -> the decision applied to it: the idempotence set
        #: and the answers to termination-protocol queries.
        self.applied: Dict[str, bool] = {}
        self.dup_suppressed = 0

    # -- message handlers ----------------------------------------------

    def handle(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        op = payload.get("op")
        if op == "query":
            return self.answer_query(str(payload.get("group")))
        if op not in ("vote_req", "decision"):
            return {"error": f"unknown op {op!r}"}
        group = str(payload["group"])
        legs = [split_leg(leg) for leg in payload.get("legs", ())]
        if op == "vote_req":
            return self.vote(group, legs, payload.get("coordinator"))
        return self.decide(group, bool(payload.get("commit")), legs)

    def vote(
        self,
        group: str,
        legs: List[Tuple[str, str]],
        coordinator: Optional[str] = None,
    ) -> Dict[str, Any]:
        if group in self.applied:
            # Late duplicate of a vote request for a finished group.
            self.dup_suppressed += 1
            return {"vote": False, "duplicate": True}
        if not all(self._is_prepared(*leg) for leg in legs):
            return {"vote": False}
        if group in self.groups:
            # Duplicate vote request: re-affirm without re-logging.
            self.dup_suppressed += 1
            return {"vote": True, "duplicate": True}
        # The YES vote is durable *before* it travels back: recovery
        # must hold these legs in doubt, never presume abort.
        self.wal.append(
            {
                "type": "2pc_vote",
                "group": group,
                "coordinator": coordinator,
                "participants": [leg_name(*leg) for leg in legs],
            },
            force=True,
        )
        self.groups[group] = ParticipantGroup(
            group_id=group,
            coordinator=coordinator,
            legs=legs,
            voted_at=_now(self),
        )
        return {"vote": True}

    def decide(
        self, group: str, commit: bool, legs: List[Tuple[str, str]]
    ) -> Dict[str, Any]:
        if group in self.applied:
            self._suppressed()
            return {"ack": True, "duplicate": True}
        # The decision carries its legs so a shard that never saw the
        # vote request (dropped message) can still resolve the group's
        # prepared transactions instead of leaking them.
        self.apply_decision(group, commit, legs=legs)
        return {"ack": True}

    def answer_query(self, group: str) -> Dict[str, Any]:
        if group in self.applied:
            return {"known": True, "commit": self.applied[group]}
        return {"known": False}

    # -- decision application ------------------------------------------

    def apply_decision(
        self,
        group: str,
        commit: bool,
        via: Optional[str] = None,
        legs: Optional[List[Tuple[str, str]]] = None,
    ) -> None:
        """Durably apply a decision to this shard's legs, idempotently."""
        if group in self.applied:
            self.dup_suppressed += 1
            return
        info = self.groups.pop(group, None)
        if info is not None:
            legs = info.legs
        elif legs is None:
            legs = []
        record: Dict[str, Any] = {
            "type": "2pc_commit" if commit else "2pc_abort",
            "group": group,
            "role": "participant",
        }
        if commit:
            # The legs' store commits below sync only at a checkpoint:
            # the decision carries their writes for recovery to redo.
            carry_redo(record, (
                self.registry.get(name).redo_entry(txn_id)
                for name, txn_id in legs
                if self._is_prepared(name, txn_id)
            ))
        # A commit is forced before any leg commits in its store; an
        # abort lost with the tail is presumed again.
        self.wal.append(record, force=commit)
        for subsystem_name, txn_id in legs:
            if not self._is_prepared(subsystem_name, txn_id):
                # Already resolved (e.g. recovery re-committed a decided
                # leg before the resend arrived) — suppress, don't
                # double-apply.
                self._suppressed()
                continue
            subsystem = self.registry.get(subsystem_name)
            if commit:
                subsystem.commit_prepared(txn_id)
            else:
                subsystem.rollback_prepared(txn_id)
        if commit:
            self.wal.append(
                {"type": "2pc_end", "group": group, "role": "participant"}
            )
        self.applied[group] = commit
        if via is not None:
            trace_event(self, "xshard_resolved", group, commit=commit, via=via)

    def in_doubt(self, now: float, timeout: float) -> List[ParticipantGroup]:
        """Voted groups whose decision is overdue (termination trigger)."""
        return [
            group
            for group in self.groups.values()
            if now - group.voted_at >= timeout
        ]

    def has_in_doubt(self) -> bool:
        return bool(self.groups)

    def terminate(
        self,
        group: ParticipantGroup,
        peers: List[str],
        ask: Callable[[str, Dict[str, Any]], Optional[Dict[str, Any]]],
    ) -> Optional[Tuple[str, bool]]:
        """One round of the cooperative termination protocol.

        Asks the live ``peers`` — the group's coordinator first, when it
        is one of them — for the logged decision and applies the first
        answer; returns ``(peer, commit)``, or ``None`` while nobody
        knows.
        """
        for peer in sorted(peers, key=lambda peer: peer != group.coordinator):
            response = ask(peer, {"op": "query", "group": group.group_id})
            if response is not None and response.get("known"):
                commit = bool(response.get("commit"))
                self.apply_decision(group.group_id, commit, via=peer)
                return peer, commit
        return None

    def rebuild(self, report: RecoveryReport, now: float) -> None:
        """Reconstruct participant state from what recovery found.

        Decisions the shard applied as a participant are durable.  The
        legs recovery held in doubt — voted YES on, still prepared, no
        decision in the log — re-enter the in-doubt table, in vote
        order, for the termination protocol.
        """
        analysis = report.analysis
        self.applied.update(analysis.applied)
        held = {txn_id: name for name, txn_id in report.held_in_doubt}
        for txn_id, group in analysis.voted_txns.items():
            if group in self.applied or txn_id not in held:
                continue  # resolved before (or during) the crash
            if group not in self.groups:
                self.groups[group] = ParticipantGroup(
                    group_id=group, coordinator=None, legs=[], voted_at=now
                )
            self.groups[group].legs.append((held[txn_id], txn_id))

    # -- internals -----------------------------------------------------

    def _is_prepared(self, subsystem_name: str, txn_id: str) -> bool:
        if subsystem_name not in self.registry:
            return False
        return self.registry.get(subsystem_name).is_prepared(txn_id)

    def _suppressed(self) -> None:
        """A decision (or one leg of it) arrived again: count, skip."""
        self.dup_suppressed += 1
        if self.ledger is not None:
            self.ledger.dup_suppressed += 1


@dataclass
class _PendingGroup:
    """A decided cross-shard group awaiting participant acknowledgement."""

    commit: bool
    #: shard -> its ``"subsystem:txn"`` legs, kept until that shard acks.
    shards: Dict[str, List[str]] = field(default_factory=dict)


class CrossShardCoordinator(TwoPhaseCoordinator):
    """The coordinator role with participants on other shards.

    The protocol body is the parent's; this class supplies what is
    distributed about it: which shard owns a leg, the RPC transport to
    the peer sites and the resend list.  All-local groups take the
    parent's entry point unchanged.  An unreachable participant shard
    vetoes the group in phase one (presumed abort keeps that safe); in
    phase two unreachability only delays completion — the decision is
    already durable and :meth:`resend` finishes the group when the link
    heals.
    """

    def __init__(
        self,
        shard_id: str,
        wal: WriteAheadLog,
        network: FederationNetwork,
        owner_of: Callable[[str], str],
        clock: Optional[object] = None,
        vote: Optional[VoteFunction] = None,
        boundary: Optional[BoundaryHook] = None,
        trace: Optional[object] = None,
    ) -> None:
        super().__init__(wal=wal, vote=vote, shard_id=shard_id, boundary=boundary)
        self.network = network
        self._owner_of = owner_of
        self.clock = clock
        self.trace = trace
        #: Decided groups awaiting acknowledgement, by group id.
        self.pending: Dict[str, _PendingGroup] = {}

    # -- the protocol --------------------------------------------------

    def commit_group(
        self,
        participants: Sequence[Participant],
        group_id: Optional[str] = None,
    ) -> CommitOutcome:
        sites: Dict[str, List[Participant]] = {}
        for participant in participants:
            shard = self._owner_of(participant.subsystem.name)
            sites.setdefault(shard, []).append(participant)
        if set(sites) <= {self.shard_id}:
            return super().commit_group(participants, group_id=group_id)
        return self._run(self._incarnate(group_id), participants, sites)

    # -- the transport: RPC to the peer shards --------------------------

    def _request_vote(
        self, site: str, group: str, legs: List[str]
    ) -> Optional[str]:
        response = self.network.request(
            self.shard_id,
            site,
            {
                "op": "vote_req",
                "group": group,
                "coordinator": self.shard_id,
                "legs": legs,
            },
            _now(self),
        )
        if response is None:
            return f"shard-unreachable:{site}"
        return None if response.get("vote") else f"shard:{site}"

    def _deliver(
        self, group: str, commit: bool, peers: Mapping[str, List[str]]
    ) -> None:
        # Every shard with a prepared leg learns the decision — an abort
        # too, including shards whose vote request was dropped (the
        # message carries the legs, so they can still roll back) and
        # ones never reached before the veto.
        self.pending[group] = _PendingGroup(commit, dict(peers))
        self.resend()

    # -- completion / recovery -----------------------------------------

    def resend(self, now: Optional[float] = None) -> bool:
        """Push pending decisions; returns True when anything acked."""
        if now is None:
            now = _now(self)
        progressed = False
        for group, info in list(self.pending.items()):
            for shard in sorted(info.shards):
                response = self.network.request(
                    self.shard_id,
                    shard,
                    {
                        "op": "decision",
                        "group": group,
                        "commit": info.commit,
                        "legs": list(info.shards[shard]),
                    },
                    now,
                )
                if response is not None and response.get("ack"):
                    del info.shards[shard]
                    progressed = True
            if not info.shards:
                if info.commit:
                    self._end(group)
                del self.pending[group]
                trace_event(self, "xshard_end", group, commit=info.commit)
        return progressed

    def rebuild(self) -> None:
        """Recover coordinator state from this shard's WAL after a crash.

        Decided-but-unended cross-shard groups re-enter the resend list;
        begun-but-undecided groups are presumed aborted — the abort is
        logged and pushed to every participant shard.
        """
        begun = analyze_wal(self._wal).coordinated_by(self.shard_id)  # type: ignore[arg-type]
        for group, (legs, verdict, ended) in begun.items():
            if verdict is None:
                # Interrupted before the decision: presumed abort.
                self._log(
                    {
                        "type": "2pc_abort",
                        "group": group,
                        "veto": "coordinator-crash",
                    }
                )
                verdict = False
            self._verdict[group] = verdict
            if ended:
                continue
            shards: Dict[str, List[str]] = {}
            for leg in legs:
                shard = self._owner_of(split_leg(leg)[0])
                if shard != self.shard_id:
                    shards.setdefault(shard, []).append(leg)
            self.pending[group] = _PendingGroup(commit=verdict, shards=shards)
