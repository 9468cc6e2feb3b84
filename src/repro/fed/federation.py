"""Sharded scheduler federation.

Each shard runs a full :class:`TransactionalProcessScheduler` with its
own write-ahead log over a *shard registry*: the real subsystems it
owns plus a :class:`ForeignSubsystem` proxy for every service owned by
a peer.  A proxy delegates invocations to the peer's real subsystem but
stamps the transaction id with the home shard
(``"<home>@<subsystem>/t<n>"``), which gives the federation its
**transaction custody** rule — a shard's recovery resolves exactly the
prepared transactions it created (its native ids and its ``home@``
prefixed foreign legs) plus those it voted YES on, and never touches a
peer's.

Cross-shard correctness rests on three pieces:

* **edge exchange** — when a process starts, its home shard posts the
  process's full potential service footprint on the reliable-eventual
  channel to every shard homing potentially conflicting work; the
  receiving shard's *foreign view* feeds the runner's conflict gate,
  which refuses to *start* a process while a potentially conflicting
  foreign process is active.  Conflicting cross-shard pairs are
  therefore fully serialized (the second never executes anything while
  the first is unterminated) — the invariant that keeps the merged
  history PRED-certifiable *and* makes shard-crash recovery safe: the
  completions a recovering shard drives (compensations and retriable
  forward paths, executed inside :func:`recover` beyond the runner's
  gates) can never conflict with an active foreign process;
* **cross-shard 2PC** (:mod:`repro.fed.twopc`) — pivot groups with
  foreign legs commit through the message protocol with presumed-abort
  recovery and the cooperative termination protocol for in-doubt
  participants;
* the **decision ledger audit** (:meth:`Federation.validate`) — every
  prepared-transaction resolution is observed at the subsystem, and at
  the end of a run each logged 2PC group is checked: decided groups
  committed every leg exactly once, undecided groups committed none,
  and no prepared residue remains anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core.conflict import (
    ConflictRelation,
    NoConflicts,
    UnionConflicts,
    normalize_service,
)
from repro.core.process import Process
from repro.core.schedule import AbortEvent, CommitEvent, ProcessSchedule
from repro.core.scheduler import TransactionalProcessScheduler
from repro.fed.messages import FederationNetwork
from repro.fed.router import ShardRouter
from repro.fed.twopc import CrossShardCoordinator, DecisionLedger, ShardCommitAgent
from repro.obs.bus import tracing
from repro.obs.explain import DecisionRecord
from repro.obs.spans import group_process, leg_name
from repro.subsystems.recovery import (
    analyze_wal,
    recover,
    schedule_from_timeline,
)
from repro.subsystems.subsystem import Subsystem, SubsystemRegistry
from repro.subsystems.wal import InMemoryWAL
from repro.errors import SubsystemUnavailable

__all__ = [
    "ForeignSubsystem",
    "ForeignProcess",
    "Shard",
    "FederationAudit",
    "Federation",
]


class ForeignSubsystem:
    """Local stand-in for a subsystem owned by another shard.

    Duck-types the :class:`~repro.subsystems.subsystem.Subsystem`
    surface the scheduler uses, delegating every operation to the real
    subsystem object while injecting home-prefixed transaction ids.
    While the owner shard is unreachable the proxy presents as *down*,
    so the scheduler's ordinary unavailability handling (and the
    runner's ``fed-shard-unreachable`` gate) applies.
    """

    def __init__(
        self,
        home_shard: str,
        owner_shard: str,
        real: Subsystem,
        network: FederationNetwork,
        clock: Optional[object] = None,
    ) -> None:
        self.home_shard = home_shard
        self.owner_shard = owner_shard
        self.real = real
        self.network = network
        self.clock = clock
        self.name = real.name
        self.trace = None
        self.on_resolve = None  # ledger binds the real subsystem only
        self._txn_ids = itertools.count(1)
        self._prefix = f"{home_shard}@"

    # -- identity / lookup ---------------------------------------------

    def provides(self, name: str) -> bool:
        return self.real.provides(name)

    def services(self):
        return self.real.services()

    @property
    def store(self):
        return self.real.store

    @property
    def is_down(self) -> bool:
        if self.real.is_down:
            return True
        now = float(self.clock.now) if self.clock is not None else 0.0
        return not self.network.reachable(
            self.home_shard, self.owner_shard, now
        )

    # -- delegated operations ------------------------------------------

    def invoke(self, service_name: str, *args: Any, **kwargs: Any):
        if self.is_down and not self.real.is_down:
            raise SubsystemUnavailable(
                f"shard {self.owner_shard!r} (owner of subsystem "
                f"{self.name!r}) is unreachable from {self.home_shard!r}",
                retry_after=1.0,
            )
        kwargs["txn_id"] = (
            f"{self._prefix}{self.name}/t{next(self._txn_ids)}"
        )
        return self.real.invoke(service_name, *args, **kwargs)

    def commit_prepared(self, txn_id: str) -> None:
        self.real.commit_prepared(txn_id)

    def rollback_prepared(self, txn_id: str) -> None:
        self.real.rollback_prepared(txn_id)

    def is_prepared(self, txn_id: str) -> bool:
        return txn_id.startswith(self._prefix) and self.real.is_prepared(txn_id)

    def prepared_transactions(self):
        return [
            transaction
            for transaction in self.real.prepared_transactions()
            if transaction.txn_id.startswith(self._prefix)
        ]


@dataclass
class ForeignProcess:
    """What a shard knows about a peer's *active* process via edge
    exchange (the entry is dropped when the termination arrives)."""

    process_id: str
    home_shard: str
    #: The process's announced potential footprint (base service names).
    services: FrozenSet[str] = frozenset()


@dataclass
class Shard:
    """One scheduler shard with its log, agent and coordinator."""

    shard_id: str
    registry: SubsystemRegistry
    wal: InMemoryWAL
    scheduler: TransactionalProcessScheduler
    coordinator: CrossShardCoordinator
    agent: ShardCommitAgent
    alive: bool = True
    kills: int = 0
    recoveries: int = 0
    #: pid -> template, for restart recovery's process repository.
    processes: Dict[str, Process] = field(default_factory=dict)


@dataclass
class FederationAudit:
    """End-of-run decision audit (zero lost / zero duplicated)."""

    groups_checked: int = 0
    lost_decisions: List[str] = field(default_factory=list)
    dup_applications: List[str] = field(default_factory=list)
    in_doubt_residue: List[str] = field(default_factory=list)
    #: Submitted processes with no durable terminal outcome anywhere —
    #: a recovery that dropped a process instead of B/F-REC-ing it.
    lost_processes: List[str] = field(default_factory=list)
    dup_suppressed: int = 0

    @property
    def clean(self) -> bool:
        return not (
            self.lost_decisions
            or self.dup_applications
            or self.in_doubt_residue
            or self.lost_processes
        )


class Federation:
    """N scheduler shards, one conflict-correct distributed history."""

    def __init__(
        self,
        router: ShardRouter,
        subsystems: Iterable[Subsystem],
        network: Optional[FederationNetwork] = None,
        conflicts: Optional[ConflictRelation] = None,
        clock: Optional[object] = None,
        trace: Optional[object] = None,
        indoubt_timeout: float = 5.0,
    ) -> None:
        self.router = router
        self.network = network if network is not None else FederationNetwork()
        if trace is not None and self.network.trace is None:
            self.network.trace = trace
        self.trace = trace
        self.clock = clock
        self.indoubt_timeout = indoubt_timeout
        self.ledger = DecisionLedger()
        self._explicit = conflicts if conflicts is not None else NoConflicts()

        reals = list(subsystems)
        self._global_registry = SubsystemRegistry(reals)
        #: subsystem name -> owner shard (via the services it provides).
        self._sub_owner: Dict[str, str] = {}
        for subsystem in reals:
            owners = {
                self.router.owner(service.name)
                for service in subsystem.services()
            }
            if len(owners) != 1:
                raise ValueError(
                    f"subsystem {subsystem.name!r} spans owner shards "
                    f"{sorted(owners)}; a subsystem must live on one shard"
                )
            self._sub_owner[subsystem.name] = owners.pop()
            # Every shard's scheduler may commit in it (foreign
            # invocations, recovery of foreign legs): no one log's force
            # orders its commits, so it writes through (DESIGN.md §3b).
            subsystem.store.shared = True
            if clock is not None:
                subsystem.clock = clock
            self.ledger.bind(subsystem)

        #: Combined conflict relation every shard (and the merged
        #: certification) evaluates: explicit + global semantic.
        self.conflicts: ConflictRelation = UnionConflicts(
            (self._explicit, self._global_registry.semantic_conflicts())
        )

        #: One counter numbers the records of every shard's log at
        #: append time — the merge order authority of the merged history.
        self._sequence = itertools.count(1)
        self.shards: Dict[str, Shard] = {}
        for shard_id in self.router.shard_ids:
            self.shards[shard_id] = self._build_shard(shard_id, reals)

        #: pid -> template (global process repository).
        self.templates: Dict[str, Process] = {}
        #: pid -> home shard.
        self.homes: Dict[str, str] = {}
        #: shard -> base services used by processes homed there.
        self._shard_use: Dict[str, Set[str]] = {
            shard: set() for shard in self.shards
        }
        #: (home, base service) -> shards to announce to (memo).  This
        #: and :attr:`_overlaps` hold for :attr:`_derived_version` of the
        #: conflict relation (:meth:`_derived_current`).
        self._gate_memo: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        #: pid -> :meth:`has_conflict_potential`, dropped with the above.
        self._potential: Dict[str, bool] = {}
        #: pid -> base-service footprint (memo).
        self._footprints: Dict[str, Set[str]] = {}
        #: Per-shard foreign views fed by the edge exchange: the peers'
        #: processes announced active and not yet terminated.
        self.views: Dict[str, Dict[str, ForeignProcess]] = {
            shard: {} for shard in self.shards
        }
        #: Per shard: processes whose termination has arrived.  Posts
        #: are delayed independently and may be duplicated, so an
        #: ``active`` can land after its ``terminated``; it must not
        #: resurrect a blocker.
        self._view_closed: Dict[str, Set[str]] = {
            shard: set() for shard in self.shards
        }
        #: Per shard: bumped on every inbox message — the only writer of
        #: :attr:`views`.
        self._view_versions: Dict[str, int] = {
            shard: 0 for shard in self.shards
        }
        #: (footprint, announced footprint) -> do they conflict.
        self._overlaps: Dict[Tuple[FrozenSet[str], FrozenSet[str]], bool] = {}
        self._derived_version = self.conflicts.version
        #: pid -> shards that received the activation announcement
        #: (termination announcements go to exactly these).
        self._announced: Dict[str, Set[str]] = {}

    # -- construction --------------------------------------------------

    def _build_shard(self, shard_id: str, reals: List[Subsystem]) -> Shard:
        members: List[Any] = []
        for real in reals:
            owner = self._sub_owner[real.name]
            if owner == shard_id:
                members.append(real)
            else:
                members.append(
                    ForeignSubsystem(
                        shard_id, owner, real, self.network, self.clock
                    )
                )
        registry = SubsystemRegistry(members)
        wal = InMemoryWAL()
        wal.sequence = self._sequence
        coordinator = self._coordinator(shard_id, wal)
        scheduler = TransactionalProcessScheduler(
            registry=registry,
            conflicts=self._explicit,
            wal=wal,
            auto_provision=False,
            coordinator=coordinator,
        )
        if self.trace is not None:
            scheduler.attach_trace(self.trace)
        shard = Shard(
            shard_id=shard_id,
            registry=registry,
            wal=wal,
            scheduler=scheduler,
            coordinator=coordinator,
            agent=self._agent(shard_id, wal, registry),
        )
        # Late-bound handlers: recovery swaps the agent/coordinator and
        # the closures must follow.
        self.network.bind(
            shard_id,
            rpc=lambda payload, s=shard: self._handle_rpc(s, payload),
            inbox=lambda src, payload, s=shard: self._handle_inbox(
                s, src, payload
            ),
        )
        return shard

    def _coordinator(self, shard_id: str, wal: InMemoryWAL) -> CrossShardCoordinator:
        """A shard's coordinator role over its log (fresh or recovering)."""
        return CrossShardCoordinator(
            shard_id=shard_id,
            wal=wal,
            network=self.network,
            owner_of=self._sub_owner.__getitem__,
            clock=self.clock,
            trace=self.trace,
        )

    def _agent(
        self, shard_id: str, wal: InMemoryWAL, registry: SubsystemRegistry
    ) -> ShardCommitAgent:
        """A shard's participant role over its log (fresh or recovering)."""
        return ShardCommitAgent(
            shard_id,
            wal,
            registry,
            ledger=self.ledger,
            trace=self.trace,
            clock=self.clock,
        )

    def _handle_rpc(self, shard: Shard, payload: Dict[str, Any]):
        if not shard.alive:
            return {"error": "down"}
        if payload.get("op") == "query":
            group = str(payload.get("group"))
            verdict = shard.coordinator.decision_for(group)
            if verdict is not None:
                return {"known": True, "commit": verdict}
            return shard.agent.answer_query(group)
        return shard.agent.handle(payload)

    def _handle_inbox(
        self, shard: Shard, src: str, payload: Dict[str, Any]
    ) -> None:
        view = self.views[shard.shard_id]
        closed = self._view_closed[shard.shard_id]
        pid = str(payload.get("process"))
        if payload.get("kind") == "active":
            if pid not in closed:
                entry = view.get(pid)
                if entry is None:
                    entry = view[pid] = ForeignProcess(pid, home_shard=src)
                entry.services |= frozenset(
                    str(service) for service in payload.get("services", ())
                )
        elif payload.get("kind") == "terminated":
            view.pop(pid, None)
            closed.add(pid)
        self._view_versions[shard.shard_id] += 1
        bus = tracing(self.trace)
        if bus is not None:
            data = {
                "src": src,
                "dst": shard.shard_id,
                "kind_": str(payload.get("kind")),
            }
            ctx = payload.get("_ctx")
            if ctx is not None:
                data["cause"] = ctx
            bus.emit("edge_exchange", process=pid, **data)

    # -- submission ----------------------------------------------------

    def submit(self, process: Process, failures=None) -> Tuple[str, str]:
        """Route and submit a process; returns ``(shard, instance_id)``.

        ``failures`` is an optional
        :class:`~repro.subsystems.failures.FailurePolicy` threaded to
        the home shard's scheduler — how the nemesis harness drives
        planned subsystem faults through a federated run.
        """
        home = self.router.route(process)
        shard = self.shards[home]
        pid = shard.scheduler.submit(
            process, instance_id=process.process_id, failures=failures
        )
        # The home shard answers for the process from here on: nobody
        # would resubmit it, so its submission may not be lost.
        shard.wal.sync()
        shard.processes[pid] = process
        self.templates[pid] = process
        self.homes[pid] = home
        use = self._shard_use[home]
        for definition in process.activities():
            if definition.service is not None:
                use.add(normalize_service(definition.service))
        self._gate_memo.clear()
        self._potential.clear()
        return home, pid

    # -- edge exchange -------------------------------------------------

    def _derived_current(self) -> None:
        """Drop what was derived from the conflict relation once it has
        moved: an answer may not depend on who asked before the move."""
        if self._derived_version != self.conflicts.version:
            self._derived_version = self.conflicts.version
            self._gate_memo.clear()
            self._potential.clear()
            self._overlaps.clear()

    def gate_targets(self, home: str, service: str) -> Tuple[str, ...]:
        """Peer shards homing processes whose services conflict with
        ``service`` — both the announcement fan-out and (symmetrically)
        the evidence that a service needs the inbound-barrier gate."""
        self._derived_current()
        base = normalize_service(service)
        key = (home, base)
        cached = self._gate_memo.get(key)
        if cached is not None:
            return cached
        targets = tuple(
            shard
            for shard, used in sorted(self._shard_use.items())
            if shard != home and self.conflicts.conflicting(base, used)
        )
        self._gate_memo[key] = targets
        return targets

    def process_footprint(self, pid: str) -> Set[str]:
        """Base service names a process can possibly touch (memoized)."""
        footprint = self._footprints.get(pid)
        if footprint is None:
            footprint = {
                normalize_service(definition.service)
                for definition in self.templates[pid].activities()
                if definition.service is not None
            }
            self._footprints[pid] = footprint
        return footprint

    def announce_active(self, home: str, pid: str, now: float) -> None:
        """Announce a starting process's full potential footprint.

        Posted once, the instant before the process executes its first
        action, to every peer shard homing potentially conflicting
        work.  Peers defer *starting* their own conflicting processes
        until this one terminates, which fully serializes conflicting
        cross-shard pairs.
        """
        if pid in self._announced:
            return
        services = self.process_footprint(pid)
        targets: Set[str] = set()
        for service in services:
            targets.update(self.gate_targets(home, service))
        self._announced[pid] = targets
        payload = {
            "kind": "active",
            "process": pid,
            "services": sorted(services),
        }
        for target in sorted(targets):
            self.network.post(home, target, dict(payload), now)

    def announce_termination(self, pid: str, now: float) -> None:
        home = self.homes.get(pid)
        for target in sorted(self._announced.get(pid, ())):
            self.network.post(
                home or "?",
                target,
                {"kind": "terminated", "process": pid},
                now,
            )

    def foreign_blockers(
        self, shard_id: str, services: Iterable[str]
    ) -> List[str]:
        """Active foreign processes whose announced potential footprint
        conflicts with any of ``services`` (the start-gate evidence)."""
        bases = frozenset(map(normalize_service, services))
        # Whether two footprints conflict is a function of the two
        # service sets and the conflict relation: memoised per pair of
        # sets until the relation moves, so a view change costs only
        # the entries it brought.  (Reachability, pending inbound
        # messages and breakers are time-dependent; the runner asks
        # those live.)
        self._derived_current()
        blockers: List[str] = []
        for entry in self.views[shard_id].values():
            key = (bases, entry.services)
            overlap = self._overlaps.get(key)
            if overlap is None:
                overlap = self._overlaps[key] = any(
                    self.conflicts.conflicting(base, entry.services)
                    for base in bases
                )
            if overlap:
                blockers.append(entry.process_id)
        return blockers

    def view_version(self, shard_id: str) -> int:
        """Moves whenever the shard's foreign view may have changed."""
        return self._view_versions[shard_id]

    def has_conflict_potential(self, home: str, pid: str) -> bool:
        """Whether any peer shard homes work conflicting with ``pid``."""
        self._derived_current()
        if pid not in self._potential:
            self._potential[pid] = any(
                self.gate_targets(home, service)
                for service in self.process_footprint(pid)
            )
        return self._potential[pid]

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Every subsystem's committed store — the observable terminal
        state an equivalence check compares across fleet shapes."""
        return self._global_registry.snapshot()

    # -- what the logs say --------------------------------------------

    def merged_history(self) -> ProcessSchedule:
        """The cross-shard history in global append order.

        Each shard's WAL analysis yields its *surviving* timeline
        (rolled back and presumed-aborted events removed), every entry
        carrying the federation-wide number its record was given when
        it was appended; the merge orders all shards' entries by that
        number into one :class:`ProcessSchedule`.
        """
        merged = sorted(
            (
                entry
                for shard in self.shards.values()
                for entry in analyze_wal(shard.wal).timeline
            ),
            key=lambda entry: entry.seq,
        )
        present = {entry.process for entry in merged}
        return schedule_from_timeline(
            (
                self.templates[pid].renamed(pid)
                for pid in sorted(present)
                if pid in self.templates
            ),
            self.conflicts,
            merged,
        )

    def outcomes(self) -> Tuple[Set[str], Set[str]]:
        """``(committed, aborted)`` process ids over every shard's WAL —
        the one place every outcome is durable, whoever applied it."""
        committed: Set[str] = set()
        aborted: Set[str] = set()
        for shard in self.shards.values():
            analysis = analyze_wal(shard.wal)
            committed |= analysis.committed
            aborted |= analysis.aborted
        return committed, aborted

    # -- chaos: kill / recover -----------------------------------------

    def kill(self, shard_id: str, now: float) -> None:
        """Crash a whole shard: scheduler state is gone, and of its WAL
        only what a power cut keeps — the forced part — survives."""
        shard = self.shards[shard_id]
        if not shard.alive:
            return
        shard.scheduler.crash()
        shard.wal.lose_tail()
        shard.alive = False
        shard.kills += 1
        self.network.mark_down(shard_id)
        bus = tracing(self.trace)
        if bus is not None:
            bus.emit("shard_kill", shard=shard_id)

    def recover_shard(self, shard_id: str, now: float) -> None:
        """Restart a killed shard from its WAL.

        Phase order matters: the network comes up first (recovery's
        group abort may need foreign legs), the coordinator rebuilds
        from the log (presumed-abort of interrupted groups, resend list
        of decided ones), then :func:`repro.subsystems.recovery.recover`
        runs under the shard's transaction-custody filter, and finally
        the participant agent re-enters its voted groups into the
        in-doubt table for the termination protocol.
        """
        shard = self.shards[shard_id]
        if shard.alive:
            return
        self.network.mark_up(shard_id)
        prefix = f"{shard_id}@"
        coordinator = self._coordinator(shard_id, shard.wal)
        coordinator.rebuild()
        report = recover(
            shard.wal,
            shard.registry,
            shard.processes,
            conflicts=self._explicit,
            # Custody: native ids and this shard's own foreign legs (the
            # ones it voted on are recovery's to hold in any case).
            txn_filter=lambda name, txn: (
                "@" not in txn or txn.startswith(prefix)
            ),
            coordinator=coordinator,
        )
        scheduler = report.scheduler
        if self.trace is not None:
            scheduler.attach_trace(self.trace)

        # The group abort's terminations are announced at the recovery
        # instant, in the order recovery reached them.
        for event in report.history.events:
            if isinstance(event, (CommitEvent, AbortEvent)):
                self.announce_termination(event.process_id, now)

        agent = self._agent(shard_id, shard.wal, shard.registry)
        agent.rebuild(report, now)
        shard.scheduler = scheduler
        shard.coordinator = coordinator
        shard.agent = agent
        for group in agent.groups.values():
            self._record_in_doubt(shard, group)
        shard.alive = True
        shard.recoveries += 1
        bus = tracing(self.trace)
        if bus is not None:
            bus.emit(
                "shard_recovered",
                shard=shard_id,
                group_aborted=len(report.group_aborted),
                held_in_doubt=len(report.held_in_doubt),
            )

    # -- progress pump -------------------------------------------------

    def pump(self, now: float) -> bool:
        """Drive the message layer one round; True when anything moved.

        Delivers due edge-exchange messages, lets live coordinators
        resend undelivered decisions, and runs the cooperative
        termination protocol for overdue in-doubt participant groups.
        """
        progressed = self.network.deliver_due(now) > 0
        for shard in self.shards.values():
            if not shard.alive:
                continue
            if shard.coordinator.pending and shard.coordinator.resend(now):
                progressed = True
        for shard in self.shards.values():
            if shard.alive and self._terminate_in_doubt(shard, now):
                progressed = True
        return progressed

    def _terminate_in_doubt(self, shard: Shard, now: float) -> bool:
        """One termination-protocol round for the shard's overdue
        in-doubt groups; True when one of them was resolved."""
        overdue = shard.agent.in_doubt(now, self.indoubt_timeout)
        if not overdue:
            return False
        peers = sorted(
            peer
            for peer in self.shards
            if peer != shard.shard_id and self.shards[peer].alive
        )

        def ask(peer: str, query: Dict[str, Any]):
            return self.network.request(shard.shard_id, peer, query, now)

        progressed = False
        for group in overdue:
            if not group.held:
                group.held = True
                self._record_in_doubt(shard, group)
            resolved = shard.agent.terminate(group, peers, ask)
            if resolved is not None:
                self._record_terminated(shard, group.group_id, *resolved)
                progressed = True
        return progressed

    def _record_in_doubt(self, shard: Shard, group) -> None:
        pid = group_process(group.group_id) or group.group_id
        record = DecisionRecord(
            kind="deferred",
            rule="fed-in-doubt-hold",
            reason=(
                f"voted YES in cross-shard group {group.group_id!r}; "
                f"decision unknown — prepared legs held in doubt"
            ),
            process=pid,
            detail={"group": group.group_id, "shard": shard.shard_id},
        )
        bus = tracing(self.trace)
        cause = None
        if bus is not None:
            cause = bus.emit(
                "xshard_indoubt",
                process=pid,
                shard=shard.shard_id,
                group=group.group_id,
            )
        shard.scheduler.note_decision(record, group=group.group_id, cause=cause)

    def _record_terminated(
        self, shard: Shard, group: str, peer: str, commit: bool
    ) -> None:
        record = DecisionRecord(
            kind="deferred",
            rule="fed-termination-protocol",
            reason=(
                f"in-doubt group {group!r} resolved to "
                f"{'commit' if commit else 'abort'} by querying "
                f"shard {peer!r}"
            ),
            process=group_process(group) or group,
            detail={"group": group, "via": peer},
        )
        shard.scheduler.note_decision(record, group=group)

    def quiescent(self) -> bool:
        """No pending messages, resends or in-doubt groups remain."""
        if self.network.next_due() is not None:
            return False
        for shard in self.shards.values():
            if not shard.alive:
                continue
            if shard.coordinator.pending or shard.agent.has_in_doubt():
                return False
        return True

    def all_terminated(self) -> bool:
        return all(
            shard.scheduler.all_terminated()
            for shard in self.shards.values()
            if shard.alive
        )

    # -- audit ---------------------------------------------------------

    def validate(self) -> FederationAudit:
        """Audit 2PC outcomes against the resolution ledger.

        For every group logged anywhere: a *decided* (commit-logged)
        group must have committed each participant leg exactly once; an
        undecided group must have committed none.  Any prepared
        transaction still open anywhere is in-doubt residue.
        """
        audit = FederationAudit(dup_suppressed=self.ledger.dup_suppressed)
        groups: Dict[str, Set[str]] = {}
        decided: Set[str] = set()
        for shard in self.shards.values():
            analysis = analyze_wal(shard.wal)
            for group, legs in analysis.group_legs.items():
                groups.setdefault(group, set()).update(legs)
            decided |= analysis.decided_groups
        for group, txns in sorted(groups.items()):
            audit.groups_checked += 1
            for txn in sorted(txns):
                commits = self.ledger.commits.get(txn, 0)
                if group in decided:
                    if commits == 0:
                        audit.lost_decisions.append(f"{group}:{txn}")
                    elif commits > 1:
                        audit.dup_applications.append(f"{group}:{txn}")
                else:
                    if commits > 0:
                        audit.dup_applications.append(f"{group}:{txn}")
        for subsystem in self._global_registry.subsystems():
            for transaction in subsystem.prepared_transactions():
                audit.in_doubt_residue.append(
                    leg_name(subsystem.name, transaction.txn_id)
                )
        committed, aborted = self.outcomes()
        audit.lost_processes = sorted(set(self.templates) - committed - aborted)
        return audit

    def counters(self) -> Dict[str, int]:
        """Aggregated federation-level counters for results/benchmarks."""
        totals: Dict[str, int] = {
            "kills": sum(s.kills for s in self.shards.values()),
            "recoveries": sum(s.recoveries for s in self.shards.values()),
            "dup_suppressed": self.ledger.dup_suppressed
            + sum(s.agent.dup_suppressed for s in self.shards.values()),
        }
        totals.update(self.network.counters())
        return totals
