"""Restart recovery after a scheduler crash (Definition 8 2(b)).

When the transactional process scheduler fails, all processes that were
active must be treated as aborted through the set-oriented group abort
``A(P_{n_1}, …, P_{n_s})`` — each is finished via its completion
``C(P_i)``: backward-recoverable processes are compensated, forward-
recoverable ones are driven down their retriable forward-recovery path.

Recovery proceeds in four phases:

1. **Analysis** — scan the write-ahead log: which processes started and
   terminated, which activity events committed (and in which order),
   which invocations were prepared, rolled back, or covered by a logged
   2PC commit decision (for a local group, its one record, DESIGN.md
   §3m).  The scan is *checkpoint-aware*: a
   ``checkpoint`` record carries a serialized :class:`WalScanState`
   (written by :meth:`TransactionalProcessScheduler.checkpoint`), so
   replay cost is bounded by the distance to the last checkpoint, not
   the total history length.  **Redo** follows: what a power cut took
   from a store since its last sync comes back, by version, from the
   records that explain those commits.
2. **In-doubt resolution** — prepared transactions with a logged 2PC
   commit decision are re-committed (the decision is the anchor);
   prepared transactions without one are presumed aborted and rolled
   back, and their events removed from the recovered history.
3. **State rebuild** — each active process's
   :class:`~repro.core.instance.ProcessInstance` is reconstructed by
   replaying its surviving events.  Replay is performed with the
   scheduler's WAL suppressed — the log already holds these records,
   so recovery never duplicates them.
4. **Group abort** — a fresh scheduler executes every completion under
   the normal protocol rules (so Lemmas 2/3 orderings hold during
   recovery too) and the combined pre+post-crash history is certified.

Recovery is **restartable**: it brackets its own work with
``recovery_begin`` / ``recovery_end`` records, and every completion
step it drives is itself WAL-logged by the scheduler.  A crash *during*
recovery therefore resumes idempotently — the next :func:`recover`
replays the already-logged compensations as history instead of
re-executing them (no double compensation, no dropped forward path) —
and running :func:`recover` again after a completed recovery appends
nothing and aborts nothing.

Returns a :class:`RecoveryReport` carrying the recovered scheduler, the
full history and per-phase details.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.core.activity import Direction
from repro.core.conflict import ConflictRelation
from repro.core.process import Process
from repro.core.schedule import ProcessSchedule
from repro.core.scheduler import (
    SchedulerRules,
    TransactionalProcessScheduler,
)
from repro.errors import UnknownProcessError
from repro.obs.spans import group_process, split_leg
from repro.subsystems.subsystem import Subsystem, SubsystemRegistry
from repro.subsystems.wal import CHECKPOINT, WriteAheadLog

__all__ = [
    "WalScanState",
    "CoordinatedGroup",
    "TimelineEntry",
    "analyze_wal",
    "schedule_from_timeline",
    "replay_history",
    "RecoveryReport",
    "TxnFilter",
    "recover",
]

#: Predicate restricting phase-2 in-doubt resolution to transactions a
#: node created; receives (subsystem_name, txn_id).
TxnFilter = Callable[[str, str], bool]


class CoordinatedGroup(NamedTuple):
    """What a log says about one cross-shard group its node began."""

    #: The begin record's ``"subsystem:txn"`` legs.
    legs: List[str]
    #: The verdict logged in the coordinator role (``None``: begun,
    #: never decided — the coordinator was interrupted).
    verdict: Optional[bool]
    #: Phase 2 completed: every participant shard acknowledged.
    ended: bool


class TimelineEntry(NamedTuple):
    """One surviving entry of the recovered timeline, in log order."""

    #: ``"event"``, ``"commit"`` or ``"abort"``.
    kind: str
    process: str
    #: Events only: the activity and its direction exponent (1 / -1).
    activity: Optional[str] = None
    direction: int = 0
    #: Federation-wide sequence number of the entry's log record
    #: (``None`` on a single scheduler's log, which carries none).
    seq: Optional[int] = None


def _seq(record: Mapping[str, object]) -> List[object]:
    """A record's sequence number as the tail of its timeline entry."""
    return [record["seq"]] if "seq" in record else []


#: ``prepared`` flag of a held invocation whose process already has a
#: decided harden group: that decision does not cover it, it awaits one
#: of its own (until then it is presumed aborted like any other).
_AWAITING = 2


#: Fields marked sparse are serialized only when non-empty: only a
#: federated shard's log fills them, and a single scheduler's
#: checkpoints keep exactly the keys they always had.
_SPARSE = {"sparse": True}


@dataclass
class WalScanState:
    """The log, folded once: everything any reader asks of it.

    The *fields* are the raw, checkpointable fold (phase 1a) — a
    prepared event is recorded as prepared, not yet classified as
    presumed-aborted, because resolution depends on records that may
    arrive after a checkpoint (the 2PC commit decision).  The scheduler
    serializes them into ``checkpoint`` records; the scan resumes from
    there.  The *properties* are the resolved views (phase 1b) every
    reader works from — recovery, history replay, the cross-shard
    coordinator and agent, the federation's merge and audits — computed
    on first use, so fold the whole log before asking.
    """

    #: instance id -> process template id is identical in this library.
    started: List[str] = field(default_factory=list)
    committed: Set[str] = field(default_factory=set)
    aborted: Set[str] = field(default_factory=set)
    #: Unified ordered entries (JSON-safe lists), each optionally
    #: followed by its record's federation-wide sequence number:
    #: ``["event", process, activity, direction, prepared]`` (prepared
    #: is a bool, or :data:`_AWAITING`) /
    #: ``["rollback", process, activity]`` /
    #: ``["commit", process]`` / ``["abort", process]``.
    entries: List[List[object]] = field(
        default_factory=list, metadata={"key": "timeline"}
    )
    #: transaction id -> 2PC group it participates in.
    txn_groups: Dict[str, str] = field(default_factory=dict)
    #: Groups with a logged commit decision.
    decided_groups: Set[str] = field(default_factory=set)
    #: transaction id -> group for cross-coordinator groups this node
    #: voted YES on (``2pc_vote`` records).  A voted transaction must
    #: not be unilaterally presumed aborted: the remote coordinator may
    #: still decide commit, so recovery holds it in doubt for the
    #: cooperative termination protocol.
    voted_txns: Dict[str, str] = field(default_factory=dict)
    #: Cross-shard groups begun on this log, in begin order: group ->
    #: the begin record's ``coordinator`` and ``participants``
    #: (``"subsystem:txn"`` legs; their owners give the shards).
    coordinated: Dict[str, Dict[str, object]] = field(
        default_factory=dict, metadata=_SPARSE
    )
    #: group -> the verdict logged for it in the coordinator role.
    verdicts: Dict[str, bool] = field(default_factory=dict, metadata=_SPARSE)
    #: Cross-shard groups begun on this log whose phase 2 completed.
    ended: Set[str] = field(default_factory=set, metadata=_SPARSE)
    #: group -> the decision this node applied in the participant role.
    applied: Dict[str, bool] = field(default_factory=dict, metadata=_SPARSE)
    #: Restartable-recovery bookkeeping.
    recovery_begun: int = 0
    recovery_ended: int = 0
    #: Processes named by the latest ``recovery_begin`` without a
    #: matching ``recovery_end`` — a recovery that crashed mid-flight;
    #: the next recover() resumes them.
    recovery_pending: List[str] = field(default_factory=list)
    #: Records iterated by this scan (excluding those folded into a
    #: loaded checkpoint) — the replay-cost metric of benchmark X9.
    #: Belongs to one scan, not to the log: never serialized.
    records_scanned: int = field(default=0, init=False, compare=False)
    #: Processes a decided harden group covers (from ``decided_groups``).
    hardened: Set[str] = field(
        default_factory=set, init=False, compare=False, repr=False
    )
    #: Store commits logged since the checkpoint, ``[subsystem, txn,
    #: writes]`` in log order.  Never serialized: a checkpoint syncs the
    #: stores before it compacts their records away.
    redo: List[Tuple[str, str, List[List[object]]]] = field(
        default_factory=list, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        self.hardened = {
            pid
            for pid in map(group_process, self.decided_groups)
            if pid is not None
        }

    def _decided(self, group: str) -> None:
        """``group`` has a logged commit decision — phase 2 of recovery
        commits its legs — so its process's held events await nothing."""
        pid = group_process(group)
        if pid is None:
            return
        if pid in self.hardened:
            # Replaced, not mutated: entries loaded from a checkpoint
            # are the log's own lists, and a scan must not rewrite the
            # log it reads.
            for index, entry in enumerate(self.entries):
                if entry[0] == "event" and entry[1] == pid and entry[4] == _AWAITING:
                    self.entries[index] = [*entry[:4], True, *entry[5:]]
        self.hardened.add(pid)

    def _legs(self, record: Mapping[str, object]) -> str:
        """Map each ``"subsystem:txn"`` leg ``record`` names to its group
        (voted on, for a vote); returns the group."""
        group = str(record["group"])
        for participant in record.get("participants", ()):  # type: ignore[union-attr]
            txn_id = split_leg(participant)[1]
            self.txn_groups[txn_id] = group
            if record["type"] == "2pc_vote":
                self.voted_txns[txn_id] = group
        return group

    def observe(self, record: Mapping[str, object]) -> None:
        """Fold one log record into the scan state."""
        self.records_scanned += 1
        kind = record.get("type")
        if kind == "process_submit":
            pid = str(record["process"])
            if pid not in self.started:
                self.started.append(pid)
        elif kind == "process_commit":
            pid = str(record["process"])
            self.committed.add(pid)
            self.entries.append(["commit", pid, *_seq(record)])
        elif kind == "process_abort":
            pid = str(record["process"])
            self.aborted.add(pid)
            self.entries.append(["abort", pid, *_seq(record)])
        elif kind == "activity_commit":
            self.redo.extend(record.get("redo", ()))  # type: ignore[arg-type]
            pid = str(record["process"])
            prepared: object = bool(record.get("prepared"))
            if prepared and pid in self.hardened:
                prepared = _AWAITING
            self.entries.append(
                [
                    "event",
                    pid,
                    str(record["activity"]),
                    int(record["direction"]),  # type: ignore[arg-type]
                    prepared,
                    *_seq(record),
                ]
            )
        elif kind == "activity_rollback":
            # Position matters: a rollback cancels the nearest preceding
            # surviving forward event of this activity, so a later
            # forward *re-execution* (F-REC after a vetoed group) is a
            # distinct surviving event.
            self.entries.append(
                ["rollback", str(record["process"]), str(record["activity"])]
            )
        elif kind in ("2pc_begin", "2pc_vote"):
            group = self._legs(record)
            if kind == "2pc_begin" and record.get("coordinator") is not None:
                self.coordinated[group] = {
                    "coordinator": record["coordinator"],
                    "participants": list(record.get("participants", ())),  # type: ignore[call-overload]
                }
        elif kind in ("2pc_commit", "2pc_abort"):
            # A local group's one record, the decision, names its legs.
            group = self._legs(record)
            commit = kind == "2pc_commit"
            if commit:
                self.redo.extend(record.get("redo", ()))  # type: ignore[arg-type]
                self.decided_groups.add(group)
                self._decided(group)
            if record.get("role") == "participant":
                self.applied[group] = commit
            elif group in self.coordinated:
                self.verdicts[group] = commit
        elif kind == "2pc_end" and record["group"] in self.coordinated:
            self.ended.add(str(record["group"]))
        elif kind == "recovery_begin":
            self.recovery_begun += 1
            self.recovery_pending = [
                str(pid) for pid in record.get("processes", ())  # type: ignore[union-attr]
            ]
        elif kind == "recovery_end":
            self.recovery_ended += 1
            self.recovery_pending = []

    def prune(self) -> "WalScanState":
        """Drop per-event state of terminated processes (checkpointing).

        Recovery only replays events of processes that were *active* at
        the crash; a checkpoint therefore retains the cheap identity
        sets for every process but the timeline only for live ones, so
        checkpoint size tracks the active working set, not history.
        """
        terminal = self.committed | self.aborted
        return replace(
            self,
            entries=[
                entry for entry in self.entries if entry[1] not in terminal
            ],
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe serialization for checkpoint records."""
        payload: Dict[str, object] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if not spec.init or (spec.metadata.get("sparse") and not value):
                continue
            payload[spec.metadata.get("key", spec.name)] = (
                sorted(value) if isinstance(value, set) else copy(value)
            )
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "WalScanState":
        """Inverse of :meth:`to_dict`.  Keys this build does not know —
        older checkpoints carry a ``rolled_back`` set nothing reads —
        are ignored; keys a checkpoint lacks keep their empty default."""
        state = cls()
        for spec in fields(cls):
            key = spec.metadata.get("key", spec.name)
            if spec.init and key in payload:
                kind = type(getattr(state, spec.name))
                setattr(state, spec.name, kind(payload[key]))  # type: ignore[call-arg]
        state.__post_init__()
        return state

    # -- resolved views (phase 1b) -------------------------------------

    @cached_property
    def _resolved(self) -> Tuple[List[TimelineEntry], List[Tuple[str, str]]]:
        """``(timeline, presumed_aborted)``, resolved in one pass."""
        # A rollback record cancels the nearest preceding surviving
        # forward event of its activity — positional, so that a later
        # forward re-execution of the same activity (F-REC after a
        # vetoed group) survives as its own event.
        surviving: List[Optional[List[object]]] = []
        open_forward: Dict[Tuple[object, object], List[int]] = {}
        for entry in self.entries:
            if entry[0] == "rollback":
                stack = open_forward.get((entry[1], entry[2]))
                if stack:
                    surviving[stack.pop()] = None
                continue
            if entry[0] == "event" and entry[3] == 1:
                forward = (entry[1], entry[2])
                open_forward.setdefault(forward, []).append(len(surviving))
            surviving.append(entry)
        timeline: List[TimelineEntry] = []
        presumed_aborted: List[Tuple[str, str]] = []
        for entry in surviving:
            if entry is None:
                continue
            if entry[0] != "event":
                kind, process_id, *seq = entry
                timeline.append(TimelineEntry(kind, process_id, None, 0, *seq))  # type: ignore[arg-type]
                continue
            _, process_id, activity, direction, was_prepared, *seq = entry
            if (
                direction == 1
                and was_prepared
                and process_id not in self.committed
                and (
                    process_id not in self.hardened
                    or was_prepared == _AWAITING
                )
            ):
                # Prepared, never covered by a commit decision: presumed
                # aborted; the invocation's effects never became durable.
                presumed_aborted.append((process_id, activity))  # type: ignore[arg-type]
                continue
            timeline.append(
                TimelineEntry("event", process_id, activity, direction, *seq)  # type: ignore[arg-type]
            )
        return timeline, presumed_aborted

    @property
    def timeline(self) -> List[TimelineEntry]:
        """Surviving events interleaved with terminations, in log order."""
        return self._resolved[0]

    @property
    def presumed_aborted(self) -> List[Tuple[str, str]]:
        """(process, activity) pairs whose prepared invocation lacks a
        2PC commit decision."""
        return self._resolved[1]

    @cached_property
    def events(self) -> List[Tuple[str, str, int]]:
        """Ordered surviving activity events: (process, activity,
        direction)."""
        return [
            (entry.process, entry.activity, entry.direction)  # type: ignore[misc]
            for entry in self.timeline
            if entry.kind == "event"
        ]

    @property
    def active(self) -> List[str]:
        return [
            pid
            for pid in self.started
            if pid not in self.committed and pid not in self.aborted
        ]

    def coordinated_by(self, shard_id: str) -> Dict[str, CoordinatedGroup]:
        """The cross-shard groups ``shard_id`` began as coordinator on
        this log, in begin order."""
        return {
            group: CoordinatedGroup(
                [str(leg) for leg in begin["participants"]],  # type: ignore[union-attr]
                self.verdicts.get(group),
                group in self.ended,
            )
            for group, begin in self.coordinated.items()
            if begin["coordinator"] == shard_id
        }

    @property
    def group_legs(self) -> Dict[str, Set[str]]:
        """group -> transaction ids of the legs logged for it (begin and
        vote records alike) — what the decision audit checks."""
        legs: Dict[str, Set[str]] = {}
        for txn_id, group in self.txn_groups.items():
            legs.setdefault(group, set()).add(txn_id)
        return legs


def analyze_wal(wal: WriteAheadLog) -> WalScanState:
    """Phase 1: fold the log into its scan state, checkpoint-aware.

    A ``checkpoint`` record *replaces* the accumulated state with its
    serialized snapshot — on a compacted log the scan therefore starts
    at the checkpoint; on an uncompacted one it reaches the same state
    either way.  This is the one place log records are interpreted:
    every reader works from the returned state and its views.
    """
    state = WalScanState()
    for record in wal.records():
        if record.get("type") == CHECKPOINT:
            state = WalScanState.from_dict(record["state"])  # type: ignore[arg-type]
            continue
        state.observe(record)
    return state


def _direction(exponent: int) -> Direction:
    return Direction.FORWARD if exponent == 1 else Direction.COMPENSATION


def schedule_from_timeline(
    processes: Iterable[Process],
    conflicts: Optional[ConflictRelation],
    timeline: Iterable[TimelineEntry],
) -> ProcessSchedule:
    """The :class:`ProcessSchedule` over ``processes`` that a resolved
    timeline (or any ordered selection or merge of timelines) spells."""
    schedule = ProcessSchedule(processes, conflicts)
    for entry in timeline:
        if entry.kind == "event":
            schedule.record(
                entry.process,
                entry.activity,  # type: ignore[arg-type]
                _direction(entry.direction),
            )
        elif entry.kind == "commit":
            schedule.record_commit(entry.process)
        else:
            schedule.record_abort(entry.process)
    return schedule


def _known(analysis: WalScanState, processes: Mapping[str, Process]) -> None:
    for pid in analysis.started:
        if pid not in processes:
            raise UnknownProcessError(
                f"WAL references process {pid!r} missing from the repository"
            )


def replay_history(
    wal: WriteAheadLog,
    processes: Mapping[str, Process],
    conflicts: Optional[ConflictRelation] = None,
) -> ProcessSchedule:
    """Reconstruct the full logged history as a :class:`ProcessSchedule`.

    Includes every surviving activity event and every termination event
    the log retains, across *all* processes (also those that terminated
    before a crash) — the combined pre+post-crash history the offline
    checkers certify.  On a checkpoint-compacted log, reconstruction
    reaches back as far as the retained records/checkpoint state do.
    """
    analysis = analyze_wal(wal)
    _known(analysis, processes)
    present = {entry.process for entry in analysis.timeline}
    return schedule_from_timeline(
        (
            processes[pid].renamed(pid)
            for pid in analysis.started
            if pid in present
        ),
        conflicts,
        analysis.timeline,
    )


def _redo(analysis: WalScanState, registry: SubsystemRegistry) -> None:
    """Reinstall, by version, the logged store commits a power cut took
    back to a store's last sync; idempotent, appends nothing.  Runs
    before in-doubt resolution, so the legs that phase commits land on
    exact versions, and skips them — redone too, they would move twice.
    A log without redo (older builds) leaves each store authoritative.
    """
    lost: Dict[str, List[List[object]]] = {}
    for name, txn_id, writes in analysis.redo:
        if name in registry and not registry.get(name).is_prepared(txn_id):
            lost.setdefault(name, []).extend(writes)
    for name, writes in lost.items():
        registry.get(name).store.redo(writes)


@dataclass
class RecoveryReport:
    """Result of restart recovery."""

    analysis: WalScanState
    #: Processes finished by the recovery group abort.
    group_aborted: Tuple[str, ...]
    #: The scheduler that executed the recovery (reusable afterwards).
    scheduler: TransactionalProcessScheduler
    #: Combined pre-crash + recovery history.
    history: ProcessSchedule
    #: Prepared transactions rolled back during in-doubt resolution.
    rolled_back_in_doubt: int = 0
    re_committed_in_doubt: int = 0
    #: (subsystem, txn_id) pairs left prepared because this node voted
    #: YES for a remote coordinator whose decision is unknown — the
    #: federation's termination protocol resolves them.
    held_in_doubt: Tuple[Tuple[str, str], ...] = ()
    #: This recovery resumed one that crashed mid-group-abort.
    resumed: bool = False
    #: Nothing was active: recovery appended and executed nothing.
    noop: bool = False


def recover(
    wal: WriteAheadLog,
    registry: SubsystemRegistry,
    processes: Mapping[str, Process],
    conflicts: Optional[ConflictRelation] = None,
    rules: Optional[SchedulerRules] = None,
    txn_filter: Optional[TxnFilter] = None,
    coordinator: Optional[object] = None,
) -> RecoveryReport:
    """Run restart recovery; returns the report with the full history.

    ``processes`` maps instance ids (as submitted pre-crash) to their
    templates — the process repository every workflow system persists.

    ``txn_filter`` restricts phase-2 in-doubt resolution to the prepared
    transactions this node created — a federated shard shares subsystem
    objects with its peers and must not resolve *their* transactions.
    The ones it voted YES on are in its custody whatever the filter says.
    ``coordinator`` is passed through to the recovered scheduler (a
    shard substitutes its cross-shard coordinator).

    Restartable: a crash during a previous recovery is resumed (the
    logged completion steps replay as history, the rest executes), and
    calling :func:`recover` again after a completed recovery is a
    no-op — nothing is re-compensated and nothing is appended.
    """
    analysis = analyze_wal(wal)
    _known(analysis, processes)

    # Phase 2: resolve in-doubt prepared transactions at the subsystems —
    # the in-doubt rule, applied once: a logged commit decision on the
    # transaction's group re-commits it, a YES vote without one holds it,
    # anything else is presumed aborted and rolled back.
    # A really-killed store backend (procpool SIGKILL) is respawned
    # first: the in-doubt writes live in the prepared transactions and
    # must land on the *surviving* on-disk state, not fail against a
    # dead worker.
    for subsystem in registry.subsystems():
        # Federation registries hold foreign-shard proxies without a
        # local store of their own — only real subsystems are respawned.
        if isinstance(subsystem, Subsystem):
            subsystem.store.ensure_alive()
    _redo(analysis, registry)
    redone = 0
    undone = 0
    held: List[Tuple[str, str]] = []
    for subsystem, transaction in registry.prepared_transactions():
        txn_id = transaction.txn_id
        voted = txn_id in analysis.voted_txns
        foreign = txn_filter is not None and not txn_filter(subsystem.name, txn_id)
        if foreign and not voted:
            continue  # a peer shard's transaction
        if analysis.txn_groups.get(txn_id) in analysis.decided_groups:
            subsystem.commit_prepared(txn_id)
            redone += 1
        elif voted:
            # Voted YES for a remote coordinator: its decision may still
            # be commit, so unilateral presumed abort would be wrong.
            # Leave it prepared; the termination protocol resolves it.
            held.append((subsystem.name, txn_id))
        else:
            subsystem.rollback_prepared(txn_id)
            undone += 1

    # Phase 3+4: rebuild instances and run the group abort under a fresh
    # scheduler, seeded with the surviving pre-crash events.  The replay
    # happens with WAL writes suppressed: these records are already in
    # the log, and re-appending them is what made a crash mid-recovery
    # double-count history.
    scheduler = TransactionalProcessScheduler(
        registry=registry,
        conflicts=conflicts,
        rules=rules,
        wal=wal,
        coordinator=coordinator,  # type: ignore[arg-type]
    )
    pre_crash: Dict[str, List[TimelineEntry]] = {}
    for entry in analysis.timeline:
        if entry.kind == "event":
            pre_crash.setdefault(entry.process, []).append(entry)

    active = analysis.active
    scheduler.begin_replay()
    try:
        for pid in active:
            scheduler.submit(processes[pid], instance_id=pid)
        # Replay the surviving events in their ORIGINAL GLOBAL ORDER — the
        # interleaving determines the conflict edges, and per-process
        # grouping would invent edges that never existed (and can deadlock
        # the group abort against itself).
        live = set(active)
        for process_id, activity, direction in analysis.events:
            if process_id not in live:
                continue  # events of processes that terminated pre-crash
            managed = scheduler.managed(process_id)
            scheduler._record_event(  # noqa: SLF001 - recovery is a friend
                managed, activity, _direction(direction)
            )
        for pid in active:
            managed = scheduler.managed(pid)
            # Rebuild the instance from its surviving events through the
            # failure-inference replay of ProcessSchedule.instance_state,
            # so that alternative switches and in-flight aborts are
            # reconstructed exactly.  Its moves wake what sleeps on it.
            on_revision = managed.instance.on_revision
            managed.instance = schedule_from_timeline(
                [processes[pid].renamed(pid)],
                scheduler.conflicts,
                pre_crash.get(pid, ()),
            ).instance_state(pid)
            managed.instance.instance_id = pid
            managed.instance.on_revision = on_revision
            # Surviving non-compensatable events were covered by a logged
            # 2PC decision (otherwise presumed aborted in analysis): they
            # are hardened.
            for entry in pre_crash.get(pid, ()):
                definition = processes[pid].activity(entry.activity)  # type: ignore[arg-type]
                if entry.direction == 1 and not definition.kind.is_compensatable:
                    managed.hardened.add(entry.activity)  # type: ignore[arg-type]
    finally:
        scheduler.end_replay()

    resumed = bool(active and analysis.recovery_pending)
    if active:
        wal.append(
            {
                "type": "recovery_begin",
                "processes": list(active),
                "attempt": analysis.recovery_begun + 1,
                "resumed": resumed,
            }
        )
        for pid, activity in analysis.presumed_aborted:
            if pid in analysis.hardened:
                # A hardened process goes on and executes the activity
                # again; without this its presumed-aborted attempt would
                # pass for covered by the next decision of the group.
                wal.append(
                    {
                        "type": "activity_rollback",
                        "process": pid,
                        "activity": activity,
                    }
                )
        for pid in active:
            managed = scheduler.managed(pid)
            if managed.instance.status.is_terminal:
                # The rebuilt instance already reached a terminal state
                # (its completion had fully executed pre-crash); record it.
                scheduler.step(pid)
            elif not managed.abort_pending:
                scheduler.abort(pid, reason="restart recovery group abort")
        history = scheduler.run()
        wal.append(
            {"type": "recovery_end", "processes": list(active)}, force=True
        )
    else:
        # Idempotent no-op: every process already reached its terminal
        # record; append nothing, execute nothing.
        history = scheduler.history()
    return RecoveryReport(
        analysis=analysis,
        group_aborted=tuple(active),
        scheduler=scheduler,
        history=history,
        rolled_back_in_doubt=undone,
        re_committed_in_doubt=redone,
        held_in_doubt=tuple(held),
        resumed=resumed,
        noop=not active,
    )
