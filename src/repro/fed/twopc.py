"""Cross-shard two-phase commit with crash-tolerant completion.

Extends the local :class:`~repro.subsystems.twophase.TwoPhaseCoordinator`
(Lemma 1) to pivot groups whose prepared legs live on several scheduler
shards:

* the **coordinator** (the process's home shard) logs ``2pc_begin``
  before any message, collects votes over the unreliable RPC fabric,
  logs the ``2pc_commit`` decision *before* phase two (the recovery
  anchor), and keeps a durable resend list until every participant
  acknowledged — ``2pc_end`` is only logged once the group is fully
  acknowledged;
* each **participant shard** runs a :class:`ShardCommitAgent`: a
  ``vote_req`` logs ``2pc_vote`` on the *participant's* WAL before the
  YES travels back (so its own recovery holds the leg in doubt instead
  of presuming abort), and a ``decision`` is applied idempotently —
  duplicates and resends are suppressed, never double-applied;
* recovery follows **presumed abort**: a coordinator that finds a begun
  but undecided group in its log aborts it and notifies participants; a
  participant that voted resolves through the cooperative **termination
  protocol** (query the peers for the logged decision) rather than
  guessing.

Crash points are injected via the base class's ``boundary`` hook —
:class:`~repro.subsystems.twophase.CoordinatorCrash` may be raised after
any message boundary and the test harnesses then drive recovery.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.fed.messages import FederationNetwork
from repro.obs.bus import tracing
from repro.obs.spans import group_process
from repro.subsystems.recovery import WalScanState, analyze_wal
from repro.subsystems.subsystem import SubsystemRegistry
from repro.subsystems.transaction import TransactionState
from repro.subsystems.twophase import (
    BoundaryHook,
    CommitOutcome,
    Participant,
    TwoPhaseCoordinator,
    VoteFunction,
)
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


def _trace(bus, kind: str, **data: Any) -> None:
    bus = tracing(bus)
    if bus is not None:
        process = data.pop("process", None)
        if process is None and "group" in data:
            # Harden groups encode their process id; attributing the
            # 2PC protocol events to it is what lets the span DAG and
            # the critical-path analysis charge vote/decision latency
            # to the right process.
            process = group_process(str(data["group"]))
        bus.emit(kind, process=process, **data)


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
    """Participant side of the cross-shard protocol, one per shard."""

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

    def _now(self) -> float:
        return float(self.clock.now) if self.clock is not None else 0.0

    # -- message handlers ----------------------------------------------

    def handle(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        op = payload.get("op")
        if op == "vote_req":
            return self._handle_vote(payload)
        if op == "decision":
            return self._handle_decision(payload)
        if op == "query":
            return self.answer_query(str(payload.get("group")))
        return {"error": f"unknown op {op!r}"}

    def _handle_vote(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        group = str(payload["group"])
        if group in self.applied:
            # Late duplicate of a vote request for a finished group.
            self.dup_suppressed += 1
            return {"vote": False, "duplicate": True}
        legs = [self._split(leg) for leg in payload.get("legs", ())]
        for subsystem_name, txn_id in legs:
            if not self._is_prepared(subsystem_name, txn_id):
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
                "coordinator": payload.get("coordinator"),
                "participants": [
                    f"{subsystem}:{txn}" for subsystem, txn in legs
                ],
            },
            force=True,
        )
        self.groups[group] = ParticipantGroup(
            group_id=group,
            coordinator=payload.get("coordinator"),
            legs=legs,
            voted_at=self._now(),
        )
        return {"vote": True}

    def _handle_decision(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        group = str(payload["group"])
        commit = bool(payload.get("commit"))
        if group in self.applied:
            self.dup_suppressed += 1
            if self.ledger is not None:
                self.ledger.dup_suppressed += 1
            return {"ack": True, "duplicate": True}
        # The decision carries its legs so a shard that never saw the
        # vote request (dropped message) can still resolve the group's
        # prepared transactions instead of leaking them.
        legs = [self._split(leg) for leg in payload.get("legs", ())]
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
        self.wal.append(
            {
                "type": "2pc_commit" if commit else "2pc_abort",
                "group": group,
                "role": "participant",
            },
            # A commit is forced before any leg commits in its store;
            # an abort lost with the tail is presumed again.
            force=commit,
        )
        for subsystem_name, txn_id in legs:
            if not self._is_prepared(subsystem_name, txn_id):
                # Already resolved (e.g. recovery re-committed a decided
                # leg before the resend arrived) — suppress, don't
                # double-apply.
                self.dup_suppressed += 1
                if self.ledger is not None:
                    self.ledger.dup_suppressed += 1
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
            _trace(
                self.trace,
                "xshard_resolved",
                shard=self.shard_id,
                group=group,
                commit=commit,
                via=via,
            )

    def in_doubt(self, now: float, timeout: float) -> List[ParticipantGroup]:
        """Voted groups whose decision is overdue (termination trigger)."""
        return [
            group
            for group in self.groups.values()
            if now - group.voted_at >= timeout
        ]

    def has_in_doubt(self) -> bool:
        return bool(self.groups)

    def rebuild(self, analysis: WalScanState, now: float) -> None:
        """Reconstruct participant state from this shard's analysed log.

        Decisions the shard applied as a participant are durable.  Every
        transaction it voted YES on that is still prepared re-enters
        the in-doubt table for the termination protocol.
        """
        self.applied.update(analysis.applied)
        by_group: Dict[str, List[Tuple[str, str]]] = {}
        for txn_id, group in analysis.voted_txns.items():
            if group in self.applied:
                continue
            location = self._find_prepared(txn_id)
            if location is None:
                continue  # already resolved before (or during) the crash
            by_group.setdefault(group, []).append((location, txn_id))
        for group, legs in by_group.items():
            self.groups[group] = ParticipantGroup(
                group_id=group,
                coordinator=None,
                legs=legs,
                voted_at=now,
            )

    # -- internals -----------------------------------------------------

    @staticmethod
    def _split(leg: object) -> Tuple[str, str]:
        subsystem, _, txn = str(leg).partition(":")
        return subsystem, txn

    def _is_prepared(self, subsystem_name: str, txn_id: str) -> bool:
        if subsystem_name not in self.registry:
            return False
        subsystem = self.registry.get(subsystem_name)
        return any(
            transaction.txn_id == txn_id
            and transaction.state is TransactionState.PREPARED
            for transaction in subsystem.prepared_transactions()
        )

    def _find_prepared(self, txn_id: str) -> Optional[str]:
        for subsystem, transaction in self.registry.prepared_transactions():
            if transaction.txn_id == txn_id:
                return subsystem.name
        return None


@dataclass
class _PendingGroup:
    """A decided cross-shard group awaiting participant acknowledgement."""

    commit: bool
    #: shard -> its ``"subsystem:txn"`` legs, kept until that shard acks.
    shards: Dict[str, List[str]] = field(default_factory=dict)


class CrossShardCoordinator(TwoPhaseCoordinator):
    """2PC coordinator whose participants may live on other shards.

    All-local groups take the parent's fast path unchanged.  Cross-shard
    groups run the message protocol: durable begin → vote RPCs → durable
    decision → decision RPCs with resend-until-acked → durable end.
    An unreachable participant shard vetoes the group in phase one
    (presumed abort keeps that safe); in phase two unreachability only
    delays completion — the decision is already durable and
    :meth:`resend` finishes the group when the link heals.
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
        #: Cross-shard groups this coordinator began (its authority for
        #: queries) -> verdict; ``False`` from the begin record on —
        #: begun and never decided is presumed abort.
        self._decided: Dict[str, bool] = {}
        #: Cross-shard groups get a fresh incarnation suffix so a retry
        #: after a veto is a *different* group to every participant —
        #: stale resends can never touch a newer incarnation's legs.
        #: Seeded past the groups already begun in the log so the ids
        #: stay unique across coordinator crashes.
        begun = analyze_wal(wal).coordinated_by(shard_id)
        self._incarnations = itertools.count(len(begun) + 1)

    def _now(self) -> float:
        return float(self.clock.now) if self.clock is not None else 0.0

    # -- the protocol --------------------------------------------------

    def commit_group(
        self,
        participants: Sequence[Participant],
        group_id: Optional[str] = None,
    ) -> CommitOutcome:
        by_shard: Dict[str, List[Participant]] = {}
        for participant in participants:
            shard = self._owner_of(participant.subsystem.name)
            by_shard.setdefault(shard, []).append(participant)
        remote = {
            shard: legs
            for shard, legs in by_shard.items()
            if shard != self.shard_id
        }
        if not remote:
            return super().commit_group(participants, group_id=group_id)
        base = group_id or self._fresh_group_id()
        identifier = f"{base}#{next(self._incarnations)}"
        return self._commit_cross(participants, by_shard, remote, identifier)

    def _commit_cross(
        self,
        participants: Sequence[Participant],
        by_shard: Dict[str, List[Participant]],
        remote: Dict[str, List[Participant]],
        identifier: str,
    ) -> CommitOutcome:
        now = self._now()
        names = tuple(str(participant) for participant in participants)
        shards = sorted(by_shard)
        #: shard -> its legs, as every decision message carries them.
        remote_legs = {
            shard: [str(leg) for leg in legs] for shard, legs in remote.items()
        }
        self._log(
            {
                "type": "2pc_begin",
                "group": identifier,
                "participants": list(names),
                "coordinator": self.shard_id,
                "shards": shards,
            },
            # Durable before the first vote request leaves: this record
            # is the authority to answer "presumed abort" for the group
            # and what keeps a retry from reusing its incarnation while
            # a participant still holds a vote on it.
            force=True,
        )
        self._decided[identifier] = False
        self._cross("begin_logged")
        _trace(
            self.trace,
            "xshard_begin",
            shard=self.shard_id,
            group=identifier,
            shards=shards,
        )

        # Phase 1 — local legs vote in-process, remote legs over RPC.
        veto: Optional[str] = None
        for participant in by_shard.get(self.shard_id, []):
            transaction = self._find_transaction(participant)
            if (
                transaction is None
                or transaction.state is not TransactionState.PREPARED
                or not self._vote(participant)
            ):
                veto = str(participant)
                break
            self._cross(f"vote:{participant}")
        if veto is None:
            for shard in sorted(remote):
                response = self.network.request(
                    self.shard_id,
                    shard,
                    {
                        "op": "vote_req",
                        "group": identifier,
                        "coordinator": self.shard_id,
                        "legs": remote_legs[shard],
                        "shards": shards,
                    },
                    now,
                )
                if response is None:
                    veto = f"shard-unreachable:{shard}"
                    break
                if not response.get("vote"):
                    veto = f"shard:{shard}"
                    break
                self._cross(f"vote:{shard}")
        self._cross("votes_collected")

        if veto is not None:
            self._log(
                {"type": "2pc_abort", "group": identifier, "veto": veto}
            )
            self._cross("abort_logged")
            _trace(
                self.trace,
                "xshard_decision",
                shard=self.shard_id,
                group=identifier,
                commit=False,
                veto=veto,
            )
            self._rollback_all(by_shard.get(self.shard_id, []))
            # Every shard with a prepared leg learns the abort —
            # including ones whose vote request was dropped (the abort
            # carries the legs, so they can still roll back) and ones
            # never reached before the veto.
            self.pending[identifier] = _PendingGroup(False, remote_legs)
            self.resend(now)
            return CommitOutcome(
                group_id=identifier,
                committed=False,
                participants=names,
                veto=veto,
            )

        # Decision logged before any phase-2 message — the anchor that
        # makes coordinator crashes recoverable.
        self._log({"type": "2pc_commit", "group": identifier}, force=True)
        self._decided[identifier] = True
        self._cross("decision_logged")
        _trace(
            self.trace,
            "xshard_decision",
            shard=self.shard_id,
            group=identifier,
            commit=True,
        )

        # Phase 2 — commit local legs, push the decision to the shards.
        for participant in by_shard.get(self.shard_id, []):
            participant.subsystem.commit_prepared(participant.txn_id)
            self._cross(f"committed:{participant}")
        self.pending[identifier] = _PendingGroup(True, remote_legs)
        self.resend(now)
        return CommitOutcome(
            group_id=identifier, committed=True, participants=names
        )

    # -- completion / recovery -----------------------------------------

    def resend(self, now: Optional[float] = None) -> bool:
        """Push pending decisions; returns True when anything acked."""
        if now is None:
            now = self._now()
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
                    self._log({"type": "2pc_end", "group": group})
                    self._cross("end_logged")
                del self.pending[group]
                _trace(
                    self.trace,
                    "xshard_end",
                    shard=self.shard_id,
                    group=group,
                    commit=info.commit,
                )
        return progressed

    def decision_for(self, group: str) -> Optional[bool]:
        """This coordinator's authoritative verdict, if it owns the group.

        A begun group always has one (an interrupted one is presumed
        aborted); an unknown group is not ours to answer — ``None``.
        """
        return self._decided.get(group)

    def rebuild(self, now: Optional[float] = None) -> None:
        """Recover coordinator state from this shard's WAL after a crash.

        Decided-but-unended cross-shard groups re-enter the resend list;
        begun-but-undecided groups are presumed aborted — the abort is
        logged and pushed to every participant shard.
        """
        if now is None:
            now = self._now()
        begun = analyze_wal(self._wal).coordinated_by(self.shard_id)  # type: ignore[arg-type]
        for group, (legs, verdict, ended) in begun.items():
            if verdict is None:
                # Interrupted before the decision: presumed abort.
                self._log({"type": "2pc_abort", "group": group,
                           "veto": "coordinator-crash"})
                verdict = False
            self._decided[group] = verdict
            if ended:
                continue
            shards: Dict[str, List[str]] = {}
            for leg in legs:
                shard = self._owner_of(leg.partition(":")[0])
                if shard != self.shard_id:
                    shards.setdefault(shard, []).append(leg)
            self.pending[group] = _PendingGroup(commit=verdict, shards=shards)
