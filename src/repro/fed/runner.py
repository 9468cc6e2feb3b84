"""Discrete-event driver for a scheduler federation.

One virtual clock, one event queue, N shards.  Each round the runner
pumps the message layer (edge-exchange delivery, decision resends, the
termination protocol), then offers every live shard's runnable
processes a dispatch chance subject to four gates:

* the **local strong-order gate** (same as the single-shard runner): a
  conflicting activity may not start while a conflicting one is in
  flight on the same shard;
* the **capacity gate**: at most ``capacity`` concurrently executing
  activities per shard — keeping per-shard capacity fixed is what makes
  the scaling sweep's aggregate throughput meaningful;
* ``fed-shard-unreachable``: an activity whose service is owned by a
  dead/partitioned/breaker-open shard is deferred, as is the commit
  step of a process with prepared legs on an unreachable shard;
* ``fed-foreign-conflict`` — the **start gate**: a process whose
  potential service footprint conflicts with foreign-homed work may
  not *start* while edge-exchange messages are still undelivered to
  this shard (the conservative barrier) or while the foreign view
  shows an active potentially-conflicting process.  Once started, a
  process runs without foreign interference — every potentially
  conflicting foreign process defers to it until it terminates, so
  conflicting cross-shard pairs are fully serialized and a shard
  crash-recovery's completions can never conflict with live foreign
  work.

The rounds, passes, flights and sleepers are the single driver's
(``repro.sim.runner.Driver``): each live shard is a pass, and the
federation's gates are its admission check.  A gate's deferral sleeps
until a post or a delivery to the shard wakes it; while a shard is down
or a link is cut the gates are asked of everyone, since time alone
heals a link.  The decisions, the log and the trace are those of asking
every gate every round, bit for bit (DESIGN.md §3n).

Shard kills, recoveries and network partitions are scheduled as events
on the same queue; a genuine distributed stall is resolved by aborting
the cheapest federation-deferred process (cross-shard victim), falling
back to each shard's local stall resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.instance import ActionType
from repro.errors import SchedulerError
from repro.fed.federation import Federation
from repro.obs.explain import DecisionRecord
from repro.sim.engine import EventQueue
from repro.sim.runner import Driver, StrongOrderGate, constant_durations

__all__ = ["FederationRunMetrics", "FederationRunner"]


@dataclass
class FederationRunMetrics:
    """What a federated run produced, for results and benchmarks."""

    makespan: float = 0.0
    committed: int = 0
    aborted: int = 0
    dispatched: int = 0
    fed_deferrals: int = 0
    #: Strong-order and start-gate evaluations actually performed.
    gate_evaluations: int = 0
    cross_victims: int = 0
    iterations: int = 0
    #: (start, end) per terminated process.
    process_spans: Dict[str, Tuple[float, float]] = field(
        default_factory=dict
    )

    @property
    def throughput(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.committed / self.makespan


def _deferred(pid: str, rule: str, reason: str, **fields) -> DecisionRecord:
    """A federation gate's verdict: defer ``pid`` by ``rule``."""
    fields.update(kind="deferred", rule=rule, reason=reason, process=pid)
    return DecisionRecord(**fields)


class FederationRunner(Driver):
    """Drives a :class:`~repro.fed.federation.Federation` in virtual
    time: one pass over each live shard per round, at most ``capacity``
    activities executing per shard, the federation's gates as the
    admission check."""

    #: Virtual time one federated activity takes, before any injected
    #: latency spike its subsystem reported.
    ACTIVITY_DURATION = 1.0

    def __init__(
        self,
        federation: Federation,
        capacity: int = 4,
        kills: Sequence[Tuple[float, str, float]] = (),
        partitions: Sequence[Tuple[float, str, str, float]] = (),
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        super().__init__()
        self.fed = federation
        self.capacity = capacity
        self.durations = constant_durations(self.ACTIVITY_DURATION)
        self.queue = EventQueue(clock=federation.clock)  # type: ignore[arg-type]
        self.trace = federation.trace
        if self.trace is not None:
            self.trace.attach_clock(self.queue.clock)
        #: Per shard: its executing activities and the strong order.
        self._gates: Dict[str, StrongOrderGate] = {
            shard: StrongOrderGate() for shard in federation.shards
        }
        #: Last federation-gate decision per process, to avoid
        #: re-recording (and re-tracing) an unchanged deferral every
        #: round of a long wait.
        self._last_gate: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
        #: pids currently deferred by a federation gate (victim pool).
        self._fed_deferred: Set[str] = set()
        #: pids that passed the start gate (announced + stepped once).
        self._started: Set[str] = set()
        self.metrics = FederationRunMetrics()
        #: ``(time, shard, downtime)`` kill schedule.
        self._kills = list(kills)
        self._partitions = list(partitions)
        #: Optional per-round observer ``callback(now)`` invoked after
        #: the message pump and shard steps of every loop iteration —
        #: the nemesis monitor's hook for online invariant checks and
        #: state-triggered fault arming.  Exceptions propagate and stop
        #: the run.
        self.on_round = None

    # -- chaos events --------------------------------------------------

    def _kill_event(self, shard_id: str):
        def fire() -> None:
            # The shard's processes die with it (recovery terminates
            # every one under a new scheduler, whose stamps restart):
            # none stays a stall victim, no verdict about one survives.
            for pid in self.fed.shards[shard_id].scheduler.live_ids():
                self._forget(pid)
            self.fed.kill(shard_id, self.queue.clock.now)
            # In-flight activities die with the shard: their events are
            # logged (they happened), and they land on the dead gate.
            self._gates[shard_id] = StrongOrderGate()

        return fire

    def _recover_event(self, shard_id: str):
        def fire() -> None:
            self.fed.recover_shard(shard_id, self.queue.clock.now)

        return fire

    # -- gating --------------------------------------------------------

    def _fed_gate(
        self, shard_id: str, pid: str, now: float
    ) -> Optional[DecisionRecord]:
        """The cross-shard gates; a record means 'defer, this rule'."""
        self.metrics.gate_evaluations += 1
        fed = self.fed
        scheduler = fed.shards[shard_id].scheduler
        managed = scheduler.managed(pid)
        action = managed.instance.next_action()
        if action.type is ActionType.FINISHED or action.activity is None:
            # Commit step: hardening needs every prepared leg's owner
            # shard reachable — otherwise the 2PC would veto and abort a
            # process that only suffered a transient link failure.
            for prepared in managed.prepared:
                owner = fed._sub_owner.get(prepared.subsystem.name)
                if (
                    owner is not None
                    and owner != shard_id
                    and not fed.network.reachable(shard_id, owner, now)
                ):
                    return _deferred(
                        pid,
                        "fed-shard-unreachable",
                        f"prepared leg {prepared.txn_id!r} lives on "
                        f"unreachable shard {owner!r}; commit deferred",
                        service=prepared.subsystem.name,
                        waiting_for=(owner,),
                    )
            return None
        definition = managed.instance.definition(action.activity)
        service = definition.service
        if service is not None:
            owner = fed.router.owner(service)
            if owner != shard_id and not fed.network.reachable(
                shard_id, owner, now
            ):
                return _deferred(
                    pid,
                    "fed-shard-unreachable",
                    f"service {service!r} is owned by shard "
                    f"{owner!r}, which is dead, partitioned away or "
                    f"breaker-open",
                    activity=action.activity,
                    service=service,
                    waiting_for=(owner,),
                )
        if pid in self._started:
            # The start gate was passed: this process owns every
            # cross-shard conflict it can touch until it terminates
            # (potentially conflicting foreign processes defer to it),
            # so no further foreign-conflict checks apply — including
            # to its compensations.
            return None
        if not fed.has_conflict_potential(shard_id, pid):
            return None
        if fed.network.pending_inbound(shard_id) > 0:
            return _deferred(
                pid,
                "fed-foreign-conflict",
                f"process {pid!r} has foreign conflict potential "
                f"and edge-exchange messages are still in flight to this "
                f"shard; start deferred until the view is current",
                activity=action.activity,
                service=service,
            )
        blockers = fed.foreign_blockers(
            shard_id, fed.process_footprint(pid)
        )
        if blockers:
            return _deferred(
                pid,
                "fed-foreign-conflict",
                f"potentially conflicting foreign processes are "
                f"active: {', '.join(sorted(blockers))}; start deferred "
                f"until they terminate",
                activity=action.activity,
                service=service,
                waiting_for=tuple(sorted(blockers)),
            )
        return None

    # -- the round -----------------------------------------------------

    def _round(self, now: float) -> bool:
        """Pump the message layer, then one pass over every live shard."""
        fed = self.fed
        progressed = fed.pump(now)
        # Link state moves only at queue events and in ``on_round``,
        # neither of which runs between here and the end of the passes.
        links_up = fed.network.all_links_up(now)
        for shard_id, shard in fed.shards.items():
            if not shard.alive:
                continue
            scheduler = shard.scheduler
            asleep: Optional[Set[str]] = scheduler.asleep
            if not links_up:
                # Time alone heals a link, so a verdict may change with
                # nothing pushed: nobody is passed over or sleeps on a
                # gate, and the start-gate sleepers wake.
                self._wake_gated(shard_id)
                asleep = None
            gate = self._gates[shard_id]
            relations = (scheduler.conflicts, fed.conflicts)
            order = scheduler.live_ids()
            if self._pass(
                shard_id, scheduler, gate, relations, order, asleep, now
            ):
                progressed = True
        if self.on_round is not None:
            self.on_round(now)
        return progressed

    def _admit(self, shard_id, scheduler, pid: str, asleep, now) -> bool:
        """The federation's gates, then the start.  A deferral is noted
        (and traced) once per signature, not again each time a push
        wakes the process; it sleeps on the verdict while the links are
        up."""
        record = self._fed_gate(shard_id, pid, now)
        if record is not None:
            signature = (record.rule, record.waiting_for)
            if self._last_gate.get(pid) != signature:
                self._last_gate[pid] = signature
                self.metrics.fed_deferrals += 1
                scheduler.note_decision(
                    record,
                    deferral=True,
                    service=record.service,
                    waiting_for=list(record.waiting_for),
                )
            self._fed_deferred.add(pid)
            if asleep is not None:
                scheduler.sleep(pid)
                self._gated[shard_id].add(pid)
            return False
        if pid not in self._started:
            # Commit to starting: announce the footprint *before* the
            # first step so peers stepped later this round see the
            # pending message (the barrier closes the simultaneous-start
            # race).
            self._started.add(pid)
            self.fed.announce_active(shard_id, pid, now)
        return True

    def _wake_gated(self, shard_id: str) -> None:
        """The shard's start-gate sleepers wake: a post to the shard or
        a delivery to it (the network's push; a delivery is also the
        only writer of the foreign view) moved what their gate reads,
        or a link is down."""
        gated = self._gated[shard_id]
        self.fed.shards[shard_id].scheduler.asleep.difference_update(gated)
        gated.clear()

    def _forget(self, pid: str) -> None:
        """``pid`` moved on: no deferral of it is current any more."""
        self._gated[self.fed.homes[pid]].discard(pid)
        self._last_gate.pop(pid, None)
        self._fed_deferred.discard(pid)

    def _ended(self, event, now: float) -> None:
        self.fed.announce_termination(event.process_id, now)

    def _resolve_stall(self) -> None:
        """Nothing moved anywhere: sacrifice a cross-shard victim."""
        candidates: List[Tuple[int, str, str]] = []
        for pid in self._fed_deferred:
            shard_id = self.fed.homes[pid]
            managed = self.fed.shards[shard_id].scheduler.managed(pid)
            if managed.abort_pending:
                continue
            if managed.is_hardened:
                continue  # F-REC: must run forward, never a victim
            weight = managed.instance.step_count
            candidates.append((weight, pid, shard_id))
        if candidates:
            _, pid, shard_id = min(candidates)
            self.fed.shards[shard_id].scheduler.abort(
                pid, reason="federation cross-shard stall victim"
            )
            self._forget(pid)
            self.metrics.cross_victims += 1
            return
        for shard in self.fed.shards.values():
            if shard.alive and not shard.scheduler.all_terminated():
                shard.scheduler.resolve_stall()
                return
        raise SchedulerError("federation stall with no victim available")

    def _motion(self) -> Tuple[object, ...]:
        """The federation's relation version and every shard's motion:
        a round that moved one of them is not a stall."""
        fed = self.fed
        motions = [shard.scheduler.motion for shard in fed.shards.values()]
        return (fed.conflicts.version, *motions)

    def _pending(self) -> bool:
        """A landing, kill, recovery, partition or heal is scheduled."""
        return not self.queue.empty

    def _idle(self, now: float) -> bool:
        """Wake the loop at the earliest future instant at which blocked
        work could move: a message due, a breaker reopening, an in-doubt
        group timing out."""
        fed = self.fed
        times = [fed.network.next_due(), fed.network.next_reopen()]
        for shard in fed.shards.values():
            if shard.alive:
                times.extend(
                    group.voted_at + fed.indoubt_timeout
                    for group in shard.agent.groups.values()
                )
        future = [time for time in times if time is not None and time > now]
        if not future:
            return False
        self.queue.schedule_at(min(future), lambda: None)
        self.queue.run_next()
        return True

    def _finished(self) -> bool:
        return (
            all(shard.alive for shard in self.fed.shards.values())
            and self.fed.all_terminated()
            and self.fed.quiescent()
            and not any(gate.flights for gate in self._gates.values())
        )

    def run(self) -> FederationRunMetrics:
        for time, shard, downtime in self._kills:
            self.queue.schedule_at(time, self._kill_event(shard))
            self.queue.schedule_at(
                time + downtime, self._recover_event(shard)
            )
        partition = self.fed.network.policy.partition
        for time, a, b, duration in self._partitions:
            until = time + duration
            self.queue.schedule_at(time, partial(partition, a, b, until=until))
            # Wake the loop at heal time so blocked work resumes.
            self.queue.schedule_at(until, lambda: None)
        self.fed.network.on_inbound = self._wake_gated
        self.metrics.iterations = self._drive()
        self.metrics.makespan = self.queue.clock.now
        self.metrics.dispatched = self.dispatched
        self.metrics.gate_evaluations += self.examined
        # Terminations applied inside shard recovery (B-REC/F-REC of
        # processes that were live at the kill) never pass through the
        # runner's event flow, and a recovered scheduler only re-manages
        # processes that were still live at the crash — the WAL is the
        # one place every outcome is durable.  Tally from there.
        committed, aborted = self.fed.outcomes()
        self.metrics.committed = len(committed)
        self.metrics.aborted = len(aborted - committed)
        return self.metrics
