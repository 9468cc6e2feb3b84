"""Two-phase commit of deferred non-compensatable activities (Lemma 1).

The paper requires that "the commitment of all non-compensatable
activities of ``P_j`` has to be performed atomically by exploiting a two
phase commit protocol in order to ensure that either all activities
commit or none of them".  The scheduler therefore leaves every pivot and
retriable activity *prepared* in its subsystem and, once no conflicting
active predecessor remains, commits the whole group through the
coordinator implemented here.

The coordinator follows the classical presumed-abort protocol:

1. **Vote phase** — every participant must be in the prepared state
   (the subsystems prepared them at invocation time); a participant may
   veto (used by failure injection), in which case the group is rolled
   back.
2. **Decision** — the decision is logged to the write-ahead log *before*
   phase two, so crash recovery can finish an interrupted group
   deterministically: a logged commit decision is re-applied, a group
   without one is presumed aborted and rolled back.
3. **Completion phase** — all participants commit (or roll back).

Crash tolerance is testable at every message boundary: the coordinator
invokes its optional ``boundary`` hook after each protocol step
(``begin_logged``, ``vote:<participant>``, ``votes_collected``,
``abort_logged``, ``decision_logged``, ``committed:<participant>``,
``end_logged``).  A hook that raises :class:`CoordinatorCrash` models
the coordinator dying at exactly that point; recovery then resolves the
interrupted group from the log (see :mod:`repro.subsystems.recovery`
and the federation's cooperative termination protocol).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.subsystems.subsystem import Subsystem
from repro.subsystems.transaction import LocalTransaction, TransactionState
from repro.subsystems.wal import WriteAheadLog

__all__ = [
    "Participant",
    "CommitOutcome",
    "CoordinatorCrash",
    "TwoPhaseCoordinator",
]


class CoordinatorCrash(RuntimeError):
    """The coordinator crash-stopped at a protocol message boundary.

    Raised by ``boundary`` hooks (crash-point injection); carries the
    boundary name so harnesses can sweep every interruption point.
    """

    def __init__(self, boundary: str) -> None:
        super().__init__(f"coordinator crashed at boundary {boundary!r}")
        self.boundary = boundary


@dataclass(frozen=True)
class Participant:
    """One prepared local transaction taking part in a commit group."""

    subsystem: Subsystem
    txn_id: str

    def __str__(self) -> str:
        return f"{self.subsystem.name}:{self.txn_id}"


@dataclass(frozen=True)
class CommitOutcome:
    """Result of running the protocol on one group."""

    group_id: str
    committed: bool
    participants: Tuple[str, ...]
    #: Participant that vetoed, when the group aborted in the vote phase.
    veto: Optional[str] = None


#: Callback deciding whether a participant votes yes; used by tests to
#: inject vote failures.  Receives the participant, returns ``True`` to
#: vote commit.
VoteFunction = Callable[[Participant], bool]

#: Hook invoked after every protocol message boundary (crash-point
#: injection).  Receives the boundary name; raising
#: :class:`CoordinatorCrash` models the coordinator dying there.
BoundaryHook = Callable[[str], None]


class TwoPhaseCoordinator:
    """Coordinates atomic commitment of prepared transaction groups."""

    def __init__(
        self,
        wal: Optional[WriteAheadLog] = None,
        vote: Optional[VoteFunction] = None,
        shard_id: Optional[str] = None,
        boundary: Optional[BoundaryHook] = None,
    ) -> None:
        self._wal = wal
        self._vote = vote or (lambda participant: True)
        #: Group-id sequence is *per coordinator* (a class-level counter
        #: would leak ids across instances and break reproducibility
        #: when multiple coordinators — scheduler shards — coexist in
        #: one process) and is namespaced by the shard id when given.
        self._group_ids = itertools.count(1)
        self.shard_id = shard_id
        self._boundary = boundary

    def _fresh_group_id(self) -> str:
        number = next(self._group_ids)
        if self.shard_id is not None:
            return f"{self.shard_id}:2pc-{number}"
        return f"2pc-{number}"

    def _cross(self, name: str) -> None:
        """Cross a protocol message boundary (crash-point hook)."""
        if self._boundary is not None:
            self._boundary(name)

    def commit_group(
        self,
        participants: Sequence[Participant],
        group_id: Optional[str] = None,
    ) -> CommitOutcome:
        """Run 2PC over the group; returns the outcome.

        An empty group commits trivially.  On a veto or a participant
        found not prepared, every participant is rolled back and the
        outcome reports the abort — the caller (the scheduler) then
        treats the owning process's non-compensatable activities as
        failed.
        """
        identifier = group_id or self._fresh_group_id()
        names = tuple(str(participant) for participant in participants)
        self._log(
            {
                "type": "2pc_begin",
                "group": identifier,
                "participants": list(names),
            }
        )
        self._cross("begin_logged")

        # Phase 1: collect votes; everyone must be prepared and willing.
        veto: Optional[str] = None
        for participant in participants:
            transaction = self._find_transaction(participant)
            if transaction is None or transaction.state is not TransactionState.PREPARED:
                veto = str(participant)
                break
            if not self._vote(participant):
                veto = str(participant)
                break
            self._cross(f"vote:{participant}")
        self._cross("votes_collected")

        if veto is not None:
            self._log({"type": "2pc_abort", "group": identifier, "veto": veto})
            self._cross("abort_logged")
            self._rollback_all(participants)
            return CommitOutcome(
                group_id=identifier,
                committed=False,
                participants=names,
                veto=veto,
            )

        # Decision durable before phase 2 — the recovery anchor; the
        # force also covers the begin record and the legs' events.
        self._log({"type": "2pc_commit", "group": identifier}, force=True)
        self._cross("decision_logged")

        # Phase 2: commit everyone.
        for participant in participants:
            participant.subsystem.commit_prepared(participant.txn_id)
            self._cross(f"committed:{participant}")
        self._log({"type": "2pc_end", "group": identifier})
        self._cross("end_logged")
        return CommitOutcome(
            group_id=identifier, committed=True, participants=names
        )

    def _rollback_all(self, participants: Sequence[Participant]) -> None:
        for participant in participants:
            transaction = self._find_transaction(participant)
            if transaction is not None and transaction.state is TransactionState.PREPARED:
                participant.subsystem.rollback_prepared(participant.txn_id)

    @staticmethod
    def _find_transaction(participant: Participant) -> Optional[LocalTransaction]:
        for transaction in participant.subsystem.prepared_transactions():
            if transaction.txn_id == participant.txn_id:
                return transaction
        return None

    def _log(self, record: dict, force: bool = False) -> None:
        if self._wal is not None:
            self._wal.append(record, force)
