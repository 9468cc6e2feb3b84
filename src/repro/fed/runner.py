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

A deferral is *until* something named — a conflicting flight finishes,
an announcement lands, a foreign process terminates — so a round does
not ask the gates again of a process they deferred: it is **passed
over** until an input of the gate that deferred it has moved
(:meth:`FederationRunner._stamp` writes the inputs down,
:meth:`FederationRunner._unmoved` is the one predicate), and a process
the scheduler holds parked is passed over before the gates.  The
decisions, the log and the trace are those of asking every gate every
round, bit for bit (DESIGN.md §3n); while a shard is down or a link is
cut the gates *are* asked every round.

Shard kills, recoveries and network partitions are scheduled as events
on the same queue; a genuine distributed stall is resolved by aborting
the cheapest federation-deferred process (cross-shard victim), falling
back to each shard's local stall resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.instance import ActionType
from repro.core.schedule import AbortEvent, ActivityEvent, CommitEvent
from repro.errors import SchedulerError
from repro.fed.federation import Federation
from repro.obs.bus import tracing
from repro.obs.explain import DecisionRecord
from repro.sim.engine import EventQueue
from repro.sim.runner import MAX_ITERATIONS, Flight, StrongOrderGate

__all__ = ["FederationRunMetrics", "FederationRunner"]

#: ``(strong-order gate's inputs, start gate's inputs)`` of one process
#: in one round, or ``None`` while a shard is down or a link is cut.
_Stamp = Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]


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


class FederationRunner:
    """Drives a :class:`~repro.fed.federation.Federation` in virtual time."""

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
        self.fed = federation
        self.capacity = capacity
        self.queue = EventQueue(clock=federation.clock)  # type: ignore[arg-type]
        if federation.trace is not None:
            federation.trace.attach_clock(self.queue.clock)
        #: Per shard: its executing activities and the strong order.
        self._gates: Dict[str, StrongOrderGate] = {
            shard: StrongOrderGate() for shard in federation.shards
        }
        #: pid -> ``(gate, inputs)``: which gate of :meth:`_stamp` last
        #: deferred the process and what it read then.
        self._passed: Dict[str, Optional[Tuple[int, Tuple[int, ...]]]] = {}
        #: The shard-level inputs of :meth:`_stamp` in this shard pass
        #: (``()`` while a shard is down or a link is cut), read once
        #: and again after whatever may move them; ``None`` = unread.
        self._pass_inputs: Optional[Tuple[int, ...]] = None
        #: Last federation-gate decision per process, to avoid
        #: re-recording (and re-tracing) an unchanged deferral every
        #: round of a long wait.
        self._last_gate: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
        #: pids currently deferred by a federation gate (victim pool).
        self._fed_deferred: Set[str] = set()
        #: pids that passed the start gate (announced + stepped once).
        self._started: Set[str] = set()
        self._spans_start: Dict[str, float] = {}
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

    # -- chaos schedule ------------------------------------------------

    def _schedule_chaos(self) -> None:
        for time, shard, downtime in self._kills:
            self.queue.schedule_at(time, self._kill_event(shard))
            self.queue.schedule_at(
                time + downtime, self._recover_event(shard)
            )
        for time, a, b, duration in self._partitions:
            until = time + duration
            self.queue.schedule_at(time, self._partition_event(a, b, until))
            # Wake the loop at heal time so blocked work resumes.
            self.queue.schedule_at(until, lambda: None)

    def _kill_event(self, shard_id: str):
        def fire() -> None:
            # The shard's processes die with it (recovery terminates
            # every one under a new scheduler, whose stamps restart):
            # none stays a stall victim, no verdict about one survives.
            for pid in self.fed.shards[shard_id].scheduler.live_ids():
                self._forget(pid)
            self.fed.kill(shard_id, self.queue.clock.now)
            # In-flight activities die with the shard: their events are
            # logged (they happened), but completions never fire.
            self._gates[shard_id] = StrongOrderGate()

        return fire

    def _recover_event(self, shard_id: str):
        def fire() -> None:
            self.fed.recover_shard(shard_id, self.queue.clock.now)

        return fire

    def _partition_event(self, a: str, b: str, until: float):
        def fire() -> None:
            self.fed.network.policy.partition(a, b, until=until)

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
                    return DecisionRecord(
                        kind="deferred",
                        rule="fed-shard-unreachable",
                        reason=(
                            f"prepared leg {prepared.txn_id!r} lives on "
                            f"unreachable shard {owner!r}; commit deferred"
                        ),
                        process=pid,
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
                return DecisionRecord(
                    kind="deferred",
                    rule="fed-shard-unreachable",
                    reason=(
                        f"service {service!r} is owned by shard "
                        f"{owner!r}, which is dead, partitioned away or "
                        f"breaker-open"
                    ),
                    process=pid,
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
            return DecisionRecord(
                kind="deferred",
                rule="fed-foreign-conflict",
                reason=(
                    f"process {pid!r} has foreign conflict potential and "
                    f"edge-exchange messages are still in flight to this "
                    f"shard; start deferred until the view is current"
                ),
                process=pid,
                activity=action.activity,
                service=service,
            )
        blockers = fed.foreign_blockers(
            shard_id, fed.process_footprint(pid)
        )
        if blockers:
            return DecisionRecord(
                kind="deferred",
                rule="fed-foreign-conflict",
                reason=(
                    f"potentially conflicting foreign processes are "
                    f"active: {', '.join(sorted(blockers))}; start "
                    f"deferred until they terminate"
                ),
                process=pid,
                activity=action.activity,
                service=service,
                waiting_for=tuple(sorted(blockers)),
            )
        return None

    def _record_gate(
        self, shard_id: str, pid: str, record: DecisionRecord
    ) -> None:
        signature = (record.rule, record.waiting_for)
        if self._last_gate.get(pid) == signature:
            return
        self._last_gate[pid] = signature
        self.metrics.fed_deferrals += 1
        self.fed.shards[shard_id].scheduler.note_decision(
            record,
            deferral=True,
            service=record.service,
            waiting_for=list(record.waiting_for),
        )

    # -- passing over --------------------------------------------------

    def _stamp(self, shard_id: str, pid: str, now: float) -> _Stamp:
        """Everything a gate that defers ``pid`` reads, gate by gate.

        Either gate is a function of the process's next action (its own
        stamp) and the conflict relation it asks; the strong order adds
        the shard's flights, the start gate the shard's foreign view and
        whether announcements are still on their way to it.  Who moves
        each input is tabled in DESIGN.md §3n.  Reachability joins them
        only while a shard is down or a link cut — and time alone heals
        a link — so then there is no stamp and the gates are asked every
        round.  The shard-level inputs are read once per shard pass and
        again after each announcement and step (:attr:`_pass_inputs`).
        """
        fed = self.fed
        scheduler = fed.shards[shard_id].scheduler
        inputs = self._pass_inputs
        if inputs is None:
            inputs = ()
            if fed.network.all_links_up(now):
                inputs = (
                    scheduler.conflicts.version,
                    self._gates[shard_id].moves,
                    fed.conflicts.version,
                    fed.view_version(shard_id),
                    fed.network.pending_inbound(shard_id),
                )
            self._pass_inputs = inputs
        if not inputs:
            return None
        own = scheduler.managed(pid).stamp
        version, flights, fed_version, view, inbound = inputs
        return ((own, version, flights), (own, fed_version, view, inbound))

    def _unmoved(self, shard_id: str, pid: str, stamp: _Stamp) -> bool:
        """Would this round pass ``pid`` over again and change nothing?

        Yes while nothing the gate that deferred it read has moved
        (``stamp`` is this round's), or while the scheduler holds it
        parked — asked before the gates: a parked process is past its
        start gate, and the strong order has no say over a process the
        step would refuse anyway.
        """
        if stamp is None:
            return False
        passed = self._passed.get(pid)
        if passed is not None and passed[1] == stamp[passed[0]]:
            return True
        return self.fed.shards[shard_id].scheduler.is_parked(pid)

    def _forget(self, pid: str) -> None:
        """``pid`` moved on: no deferral of it is current any more."""
        self._passed.pop(pid, None)
        self._last_gate.pop(pid, None)
        self._fed_deferred.discard(pid)

    # -- stepping ------------------------------------------------------

    def _step_shard(self, shard_id: str, now: float) -> bool:
        shard = self.fed.shards[shard_id]
        if not shard.alive:
            return False
        scheduler = shard.scheduler
        strong = self._gates[shard_id]
        progressed = False
        self._pass_inputs = None
        for pid in scheduler.live_ids():
            if pid in strong.busy:
                continue
            if len(strong.flights) >= self.capacity:
                break
            stamp = self._stamp(shard_id, pid, now)
            if self._unmoved(shard_id, pid, stamp):
                continue
            # Deferred by a gate: remember what it read (nothing, if
            # there is no stamp to hold the verdict to).
            # Strong temporal order within the shard.
            self.metrics.gate_evaluations += 1
            if strong.blocks(scheduler, pid):
                self._passed[pid] = stamp and (0, stamp[0])
                continue
            gate = self._fed_gate(shard_id, pid, now)
            if gate is not None:
                self._record_gate(shard_id, pid, gate)
                self._fed_deferred.add(pid)
                self._passed[pid] = stamp and (1, stamp[1])
                continue
            if pid not in self._started:
                # Commit to starting: announce the footprint *before*
                # the first step so peers stepped later this round see
                # the pending message (the barrier closes the
                # simultaneous-start race).
                self._started.add(pid)
                self.fed.announce_active(shard_id, pid, now)
            before = scheduler.timeline_length()
            stepped = scheduler.step_instance(pid)
            # Announcing and stepping may move any shard-level input.
            self._pass_inputs = None
            if not stepped:
                continue
            progressed = True
            self._forget(pid)
            self._spans_start.setdefault(pid, now)
            self._absorb(shard_id, before, now)
        return progressed

    def _absorb(self, shard_id: str, before: int, now: float) -> None:
        shard = self.fed.shards[shard_id]
        scheduler = shard.scheduler
        for index in range(before, scheduler.timeline_length()):
            event = scheduler.timeline_event(index)
            if isinstance(event, ActivityEvent):
                latency = scheduler.timeline_latency(index)
                duration = self.ACTIVITY_DURATION + latency
                flight = self._gates[shard_id].take_off(
                    event.process_id, event.conflict_service
                )
                self.queue.schedule(
                    duration, self._completion(shard_id, flight)
                )
                self.metrics.dispatched += 1
                bus = tracing(self.fed.trace)
                if bus is not None:
                    bus.emit(
                        "exec",
                        process=event.process_id,
                        activity=event.activity.activity_name,
                        service=event.service,
                        duration=duration,
                        direction=event.activity.direction.exponent,
                        shard=shard_id,
                    )
            elif isinstance(event, (CommitEvent, AbortEvent)):
                self.fed.announce_termination(event.process_id, now)
                start = self._spans_start.get(event.process_id, now)
                self.metrics.process_spans[event.process_id] = (start, now)

    def _completion(self, shard_id: str, flight: Flight):
        def on_finish() -> None:
            gate = self._gates[shard_id]
            # Not in flight: the shard was killed meanwhile.
            if flight in gate.flights:
                gate.land(flight)

        return on_finish

    # -- stall resolution ----------------------------------------------

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

    # -- the loop ------------------------------------------------------

    def _next_wakeup(self, now: float) -> Optional[float]:
        """Earliest future instant at which blocked work could move."""
        times: List[float] = []
        due = self.fed.network.next_due()
        if due is not None:
            times.append(max(due, now))
        reopen = self.fed.network.next_reopen()
        if reopen is not None and reopen > now:
            times.append(reopen)
        for shard in self.fed.shards.values():
            if not shard.alive:
                continue
            for group in shard.agent.groups.values():
                times.append(
                    max(group.voted_at + self.fed.indoubt_timeout, now)
                )
        future = [time for time in times if time > now]
        return min(future) if future else None

    def _finished(self) -> bool:
        return (
            all(shard.alive for shard in self.fed.shards.values())
            and self.fed.all_terminated()
            and self.fed.quiescent()
            and not any(gate.flights for gate in self._gates.values())
        )

    def run(self) -> FederationRunMetrics:
        self._schedule_chaos()
        iterations = 0
        while not self._finished():
            iterations += 1
            if iterations > MAX_ITERATIONS:
                raise SchedulerError("federated simulation did not converge")
            now = self.queue.clock.now
            progressed = self.fed.pump(now)
            for shard_id in self.fed.shards:
                if self._step_shard(shard_id, now):
                    progressed = True
            if self.on_round is not None:
                self.on_round(now)
            if progressed:
                continue
            if any(gate.flights for gate in self._gates.values()):
                self.queue.run_next()
                continue
            if not self.queue.empty:
                self.queue.run_next()
                continue
            wake = self._next_wakeup(now)
            if wake is not None:
                self.queue.schedule_at(wake, lambda: None)
                self.queue.run_next()
                continue
            self._resolve_stall()
        while not self.queue.empty:
            self.queue.run_next()
        self.metrics.makespan = self.queue.clock.now
        self.metrics.iterations = iterations
        # Terminations applied inside shard recovery (B-REC/F-REC of
        # processes that were live at the kill) never pass through the
        # runner's event flow, and a recovered scheduler only re-manages
        # processes that were still live at the crash — the WAL is the
        # one place every outcome is durable.  Tally from there.
        committed, aborted = self.fed.outcomes()
        self.metrics.committed = len(committed)
        self.metrics.aborted = len(aborted - committed)
        return self.metrics
