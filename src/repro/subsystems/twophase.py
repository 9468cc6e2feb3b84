"""Atomic commitment of deferred non-compensatable activities (Lemma 1).

The paper requires that "the commitment of all non-compensatable
activities of ``P_j`` has to be performed atomically by exploiting a two
phase commit protocol in order to ensure that either all activities
commit or none of them".  The scheduler therefore leaves every pivot and
retriable activity *prepared* in its subsystem and, once no conflicting
active predecessor remains, commits the whole group through the
protocol — which is written here, once, for every coordinator.

Two roles.  The **coordinator** (:class:`TwoPhaseCoordinator`) runs one
body over the group's *sites*: log ``2pc_begin``; collect a vote per
site (every leg must still be prepared; a site may veto); log the
decision *before* phase two — ``2pc_commit``, the recovery anchor, or
``2pc_abort``, which presumed abort lets ride unforced —; resolve every
leg; log ``2pc_end``.  A group without peers whose legs' stores write
behind the log logs its decision alone, unforced: no leg is installed
before a force covers it, so a begin or an end would anchor nothing
(DESIGN.md §3m).  A **participant** answers the two questions, *vote*
and *decide*, for the legs at one site, idempotently.
At the coordinator's own site the answers are direct calls on the legs
(:class:`Participant`) and leave no record; a peer site is reached
through a transport the coordinator's subclass supplies — for shards,
:class:`repro.fed.twopc.CrossShardCoordinator` over RPC to a
:class:`~repro.fed.twopc.ShardCommitAgent`.  A single scheduler is the
trivial instance: one site, no transport.

Crash tolerance is testable at every message boundary: the coordinator
invokes its optional ``boundary`` hook after each step, under the names
:func:`boundaries` lists.  A hook that raises models the coordinator
dying at exactly that point; recovery then
resolves the interrupted group from the log (the in-doubt rule of
:func:`repro.subsystems.recovery.recover`, and between shards the
cooperative termination protocol).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.bus import tracing
from repro.obs.spans import group_process, incarnation, leg_name
from repro.subsystems.subsystem import Subsystem
from repro.subsystems.transaction import carry_redo
from repro.subsystems.wal import WriteAheadLog

__all__ = [
    "Participant",
    "CommitOutcome",
    "TwoPhaseCoordinator",
    "boundaries",
]


@dataclass(frozen=True)
class Participant:
    """One prepared local transaction taking part in a commit group."""

    subsystem: Subsystem
    txn_id: str

    def __str__(self) -> str:
        return leg_name(self.subsystem.name, self.txn_id)

    def is_prepared(self) -> bool:
        return self.subsystem.is_prepared(self.txn_id)


@dataclass(frozen=True)
class CommitOutcome:
    """Result of running the protocol on one group."""

    group_id: str
    committed: bool
    participants: Tuple[str, ...]
    #: Participant that vetoed, when the group aborted in the vote phase.
    veto: Optional[str] = None
    #: The decision was the group's one record: a committed one names
    #: the process and stands in for the scheduler's ``hardened``.
    one_record: bool = False


#: Callback deciding whether a participant votes yes; used by tests to
#: inject vote failures.  Receives the participant, returns ``True`` to
#: vote commit.
VoteFunction = Callable[[Participant], bool]

#: Hook invoked after every protocol message boundary (crash-point
#: injection).  Receives the boundary name; raising models the
#: coordinator dying there.
BoundaryHook = Callable[[str], None]


def trace_event(role, kind: str, group: str, **data: object) -> None:
    """Emit a protocol event of ``role`` (a coordinator or a peer's agent).

    Harden groups encode their process id; attributing the event to it
    is what lets the span DAG and the critical-path analysis charge
    vote/decision latency to the right process.
    """
    bus = tracing(role.trace)
    if bus is not None:
        bus.emit(
            kind,
            process=group_process(group),
            shard=role.shard_id,
            group=group,
            **data,
        )


def boundaries(own: Sequence[object], peers: Sequence[str] = ()) -> List[str]:
    """The boundaries a committing group crosses, in order, with legs
    ``own`` at the coordinator's site and votes from ``peers``.  (A
    vetoed one stops voting at the veto, then crosses
    ``votes_collected`` and ``abort_logged``.  A group logged as its
    decision alone crosses neither ``begin_logged`` nor ``end_logged``.)"""
    votes = [f"vote:{voter}" for voter in (*own, *sorted(peers))]
    done = [f"committed:{leg}" for leg in own]
    decided = ["votes_collected", "decision_logged", *done]
    return ["begin_logged", *votes, *decided, "end_logged"]


class TwoPhaseCoordinator:
    """The coordinator role: atomic commitment of prepared groups."""

    #: Optional trace bus (see :mod:`repro.obs.bus`) for the ``xshard_*``
    #: events of groups with peer sites.
    trace: Optional[object] = None

    def __init__(
        self,
        wal: Optional[WriteAheadLog] = None,
        vote: Optional[VoteFunction] = None,
        shard_id: Optional[str] = None,
        boundary: Optional[BoundaryHook] = None,
    ) -> None:
        self._wal = wal
        self._vote = vote or (lambda participant: True)
        #: Every group gets a fresh incarnation suffix, so it is decided
        #: by its own vote: a retry after a veto is a *different* group
        #: to every participant — stale resends can never touch a newer
        #: incarnation's legs — and recovery never reads an earlier
        #: group's decision as a later one's.  Per coordinator (a
        #: class-level counter would leak across instances and break
        #: reproducibility when several coexist in one process) and
        #: seeded past the log — every group begun on it took an LSN —
        #: so the ids stay unique across restarts.
        logged = wal.next_lsn if wal is not None else 0
        self._incarnations = itertools.count(logged + 1)
        self.shard_id = shard_id
        self._boundary = boundary
        #: Groups this coordinator began with peer sites (its authority
        #: for their queries) -> verdict; ``False`` from the begin record
        #: on — begun and never decided is presumed abort.
        self._verdict: Dict[str, bool] = {}

    def _incarnate(self, group_id: Optional[str]) -> str:
        """The id of this attempt at ``group_id``; an anonymous group is
        ``2pc``, namespaced by the shard id when given."""
        if group_id is None:
            group_id = "2pc" if self.shard_id is None else f"{self.shard_id}:2pc"
        return incarnation(group_id, next(self._incarnations))

    def _cross(self, name: str) -> None:
        """Cross a protocol message boundary (crash-point hook)."""
        if self._boundary is not None:
            self._boundary(name)

    def commit_group(
        self,
        participants: Sequence[Participant],
        group_id: Optional[str] = None,
    ) -> CommitOutcome:
        """Run 2PC over a group whose legs are all at this site.

        An empty group commits trivially.  On a veto or a participant
        found not prepared, every participant is rolled back and the
        outcome reports the abort — the caller (the scheduler) then
        treats the owning process's non-compensatable activities as
        failed.
        """
        return self._run(
            self._incarnate(group_id), participants, {self.shard_id: participants}
        )

    def _run(
        self,
        identifier: str,
        participants: Sequence[Participant],
        sites: Mapping[Optional[str], Sequence[Participant]],
    ) -> CommitOutcome:
        """The protocol, written once: begin → votes → logged decision →
        resolve → end, over ``sites`` (site → its legs).

        The coordinator's own site (``shard_id``) is reached by direct
        call — no message, no vote record.  Every other site is a peer,
        reached through the transport a distributed coordinator supplies
        (the two methods below); only a group with peers names its
        sites in the begin record, forces it, and stays open until the
        last peer has acknowledged the decision.
        """
        names = tuple(str(participant) for participant in participants)
        own = sites.get(self.shard_id, ())
        peers = {
            site: [str(leg) for leg in legs]
            for site, legs in sites.items()
            if site != self.shard_id
        }
        # The whole protocol, its decision forced, when a peer acts on
        # the decision or an own leg's store writes through and would
        # hold a commit a power cut can take the decision from.
        whole = bool(peers) or any(
            p.subsystem.store.behind is not self._wal for p in own
        )
        if whole:
            begin = {
                "type": "2pc_begin",
                "group": identifier,
                "participants": list(names),
            }
            if peers:
                begin.update(coordinator=self.shard_id, shards=sorted(sites))
            # With peers, durable before the first vote request leaves:
            # this record is the authority to answer "presumed abort"
            # for the group and what keeps a retry from reusing its
            # incarnation while a participant still holds a vote on it.
            self._log(begin, force=bool(peers))
            if peers:
                self._verdict[identifier] = False
                trace_event(self, "xshard_begin", identifier, shards=begin["shards"])
            self._cross("begin_logged")

        # Phase 1: everyone must be prepared and willing — own legs
        # first, then the peer sites.
        veto: Optional[str] = None
        for participant in own:
            if not participant.is_prepared() or not self._vote(participant):
                veto = str(participant)
                break
            self._cross(f"vote:{participant}")
        if veto is None:
            for site in sorted(peers):
                veto = self._request_vote(site, identifier, peers[site])
                if veto is not None:
                    break
                self._cross(f"vote:{site}")
        self._cross("votes_collected")

        commit = veto is None
        if commit:
            # The recovery anchor; it carries the own legs' writes for
            # recovery to redo, and as the group's one record its legs
            # and process.  An abort is logged either way: every group
            # takes an LSN, which keeps incarnations unique.
            decision: Dict[str, object] = {"type": "2pc_commit", "group": identifier}
            if self._wal is not None:
                if not whole:
                    decision["participants"] = list(names)
                    decision["process"] = group_process(identifier)
                carry_redo(decision, (p.subsystem.redo_entry(p.txn_id) for p in own))
            self._log(decision, force=whole)
        else:
            self._log({"type": "2pc_abort", "group": identifier, "veto": veto})
        if peers:
            self._verdict[identifier] = commit
            reason = {} if commit else {"veto": veto}
            trace_event(self, "xshard_decision", identifier, commit=commit, **reason)
        self._cross("decision_logged" if commit else "abort_logged")

        # Phase 2: resolve the own legs, hand the decision to the peers.
        for participant in own:
            if commit:
                participant.subsystem.commit_prepared(participant.txn_id)
                self._cross(f"committed:{participant}")
            elif participant.is_prepared():
                participant.subsystem.rollback_prepared(participant.txn_id)
        if peers:
            self._deliver(identifier, commit, peers)
        elif commit and whole:
            self._end(identifier)
        return CommitOutcome(identifier, commit, names, veto, one_record=not whole)

    def _end(self, group: str) -> None:
        """Every site has applied the commit: the group is finished."""
        self._log({"type": "2pc_end", "group": group})
        self._cross("end_logged")

    def _log(self, record: dict, force: bool = False) -> None:
        if self._wal is not None:
            self._wal.append(record, force)

    def decision_for(self, group: str) -> Optional[bool]:
        """This coordinator's authoritative verdict, if it owns the group.

        A group begun with peers always has one (an interrupted one is
        presumed aborted); an unknown group is not ours to answer —
        ``None``.
        """
        return self._verdict.get(group)

    # -- the transport to peer sites ----------------------------------
    # Its trivial instance is this class: every leg is at the own site,
    # reached by direct call, and neither method is ever called.

    def _request_vote(
        self, site: str, group: str, legs: List[str]
    ) -> Optional[str]:
        """Ask ``site`` to vote on its ``legs``; the veto, or ``None``."""
        raise NotImplementedError

    def _deliver(
        self, group: str, commit: bool, peers: Mapping[str, List[str]]
    ) -> None:
        """Get the decision to every peer; :meth:`_end` the group once
        all have acknowledged a commit."""
        raise NotImplementedError
