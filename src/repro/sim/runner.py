"""Virtual-time execution of scheduler runs (benchmarks X1-X3).

The logical schedulers decide *admissibility* — which activity may run
next so that the history stays correct.  This runner adds *time*: every
activity has a virtual duration, activities of different processes
overlap when the scheduler admits them, and the run's **makespan** and
per-process latencies fall out of a discrete-event simulation.

Temporal ordering modes (paper §3.6):

* ``strong`` (default) — a conflicting activity may only *start* after
  the conflicting in-flight activity *finished*: the strong order
  enforces sequential execution of conflicting work.
* ``weak`` — conflicting activities may overlap in time; the subsystem
  is assumed to guarantee the overall effect equals the strong order
  (commit-order serializability), so only the logical admission rules
  constrain the start.  The makespan gap between the two modes is the
  parallelism the composite-systems weak order buys (benchmark X3).

There is one driver loop, :class:`Driver`: :class:`SimulationRunner`
and ``repro.fed.runner.FederationRunner`` step their schedulers through
it and differ only in data (capacity, the relations whose version wakes
a pass, the sleep set, the shard on the trace) or one overridden method
each (DESIGN.md §3n).

The runner drives any scheduler exposing the uniform stepping interface
(``instance_ids`` / ``is_terminated`` / ``step_instance`` /
``resolve_stall`` / ``timeline_length`` / ``timeline_event`` /
``managed`` / ``asleep``), i.e. both the PRED scheduler and every
baseline.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.instance import ActionType
from repro.core.process import Process
from repro.core.schedule import AbortEvent, ActivityEvent, CommitEvent
from repro.errors import SchedulerError
from repro.obs.bus import tracing
from repro.sim.engine import EventQueue
from repro.sim.metrics import RunMetrics
from repro.subsystems.failures import FailurePolicy

__all__ = [
    "Arrival",
    "Driver",
    "DurationModel",
    "Flight",
    "MAX_ITERATIONS",
    "constant_durations",
    "StrongOrderGate",
    "SimulationRunner",
    "simulate_run",
]


#: Maps a service name to its virtual duration.
DurationModel = Callable[[str], float]

#: Driver rounds after which a run (single-scheduler or federated) is
#: declared non-convergent.
MAX_ITERATIONS = 1_000_000


def constant_durations(duration: float = 1.0) -> DurationModel:
    """Every service takes the same virtual time."""
    return lambda service: duration


@dataclass(frozen=True)
class Arrival:
    """One open-loop offer: a process arriving at a virtual time.

    Unlike the ``arrivals`` dict (pre-submitted processes whose
    *dispatch* is delayed), an :class:`Arrival` is offered to the
    scheduler's admission front door only when its time comes — under
    overload it may be queued or turned away, so the open-loop model
    needs a scheduler exposing ``offer()``.
    """

    time: float
    process: Process
    failures: Optional[FailurePolicy] = None


@dataclass(eq=False)
class Flight:
    """One executing activity (both drivers' in-flight bookkeeping).

    Compared by identity: a completion event removes *its* flight, not
    one that merely runs the same service for the same process.
    """

    process_id: str
    conflict_service: str


class StrongOrderGate:
    """One scheduler's executing activities (both drivers' in-flight
    bookkeeping), and the strong temporal order over them (paper §3.6):
    a conflicting activity may only *start* once the conflicting one in
    flight has finished.

    A deferral is *until* the named flights land, so the gate remembers,
    per process, every conflicting flight in the air when it derived the
    verdict and the process's ``ManagedProcess.stamp`` then.  While one
    of them is in the air and neither the stamp (the next action) nor
    the relation's version moved, the process is blocked again without a
    scan; the last of them to land drops the verdict and releases the
    process.  A process without a stamp (a baseline's) is always
    scanned.  Pairwise service conflicts are
    memoised as well; both memos hold for one version of the relation.
    """

    def __init__(self) -> None:
        #: Executing activities in start order (an ordered set), and per
        #: process how many of its activities are executing.
        self.flights: Dict[Flight, None] = {}
        self.busy: Dict[str, int] = {}
        self._memo: Dict[Tuple[str, str], bool] = {}
        self._version: Optional[int] = None
        #: pid -> its verdict: ``[its stamp then, how many of the
        #: flights that blocked it are still in the air]``, and flight ->
        #: the verdicts that name it.
        self._blocked: Dict[str, List[int]] = {}
        self._waiters: Dict[Flight, List[Tuple[str, List[int]]]] = {}
        #: Verdicts derived by scanning the flights.
        self.derivations = 0

    def take_off(self, process_id: str, conflict_service: str) -> Flight:
        flight = Flight(process_id, conflict_service)
        self.flights[flight] = None
        self.busy[process_id] = self.busy.get(process_id, 0) + 1
        return flight

    def land(self, flight: Flight) -> List[str]:
        """The flight landed.  Returns the processes it released: those
        whose verdict named it, and its own once nothing of it flies."""
        del self.flights[flight]
        released = []
        # The process stays busy while *any* of its activities runs.
        pid = flight.process_id
        self.busy[pid] -= 1
        if not self.busy[pid]:
            del self.busy[pid]
            released.append(pid)
        for waiting, verdict in self._waiters.pop(flight, ()):
            if self._blocked.get(waiting) is verdict:
                verdict[1] -= 1
                if not verdict[1]:
                    del self._blocked[waiting]
                    released.append(waiting)
        return released

    def blocks(self, scheduler, pid: str) -> bool:
        """Would dispatching ``pid``'s next action overlap a conflicting
        activity of another process in flight?"""
        relation = scheduler.conflicts
        version = getattr(relation, "version", 0)
        if version != self._version:
            self._version = version
            self._memo.clear()
            self._blocked.clear()
            self._waiters.clear()
        managed = scheduler.managed(pid)
        blocked = self._blocked.get(pid)
        if blocked is not None and blocked[0] == managed.stamp:
            return True
        self.derivations += 1
        self._blocked.pop(pid, None)  # this verdict replaces any older
        action = managed.instance.next_action()
        if action.type is ActionType.FINISHED or action.activity is None:
            return False
        service = managed.instance.definition(action.activity).service
        if service is None:
            return False
        memo = self._memo
        blocking = []
        for flight in self.flights:
            if flight.process_id == pid:
                continue
            key = (flight.conflict_service, service)
            conflicting = memo.get(key)
            if conflicting is None:
                conflicting = relation.conflicts(*key)
                memo[key] = conflicting
            if conflicting:
                blocking.append(flight)
        if not blocking:
            return False
        # Read after next_action(), whose lazy transitions move it.
        stamp = getattr(managed, "stamp", None)
        if stamp is not None:
            verdict = self._blocked[pid] = [stamp, len(blocking)]
            for flight in blocking:
                self._waiters.setdefault(flight, []).append((pid, verdict))
        return True


class Driver:
    """What both drivers share: the pass (:meth:`_pass`), the absorb of
    a step's events into flights (:meth:`_absorb`), the landing and
    relation-version pushes (:meth:`_land`, :meth:`_woken`) and the
    round loop with its stall ladder (:meth:`_drive`).  A driver adds
    ``_round``, ``_pending``, ``_idle``, ``_motion``, ``_resolve_stall``,
    ``_finished`` and ``_ended`` (a commit or abort was absorbed)."""

    #: Executing activities a pass lets one scheduler have at once.
    capacity: float = math.inf
    strong = True
    #: A metrics registry (the PRED scheduler's) fed activity-duration
    #: and process-sojourn histograms.
    _metrics_registry = None

    def __init__(self) -> None:
        #: instance id -> virtual arrival time; before it, the instance
        #: is not dispatched.  Unlisted instances arrive at time 0.
        self.arrivals: Dict[str, float] = {}
        #: Per pass (its shard, or ``None``): the sum of the (growing)
        #: relation versions its sleepers were put to sleep under, and
        #: the processes asleep on a verdict of the admission check.
        self._versions: Dict[Optional[str], int] = {}
        self._gated: Dict[Optional[str], Set[str]] = defaultdict(set)
        self._spans_start: Dict[str, float] = {}
        #: Processes asked the strong order, and activities taken off.
        self.examined = self.dispatched = 0

    def _pass(self, shard, scheduler, gate, relations, order, asleep, now):
        """Offer each process of ``order`` a step; True when one
        progressed.  ``asleep`` is the set the pass may pass over with
        one lookup; ``None`` passes nobody over and puts nobody to sleep
        on a verdict."""
        self._woken(shard, scheduler, relations)
        busy, flights, arrivals = gate.busy, gate.flights, self.arrivals
        passed = () if asleep is None else asleep
        progressed = False
        # Only a take-off in this pass fills the capacity: check it then.
        if len(flights) >= self.capacity:
            return progressed
        for pid in order:
            if pid in busy or pid in passed:
                continue
            if scheduler.is_terminated(pid) or arrivals.get(pid, 0.0) > now:
                continue
            self.examined += 1
            # The step itself refuses a parked process.
            if self.strong and gate.blocks(scheduler, pid):
                if asleep is not None and pid in gate._blocked:
                    scheduler.sleep(pid)  # remembered: until it lands
                continue
            if not self._admit(shard, scheduler, pid, asleep, now):
                continue
            before = scheduler.timeline_length()
            stepped = scheduler.step_instance(pid)
            self._woken(shard, scheduler, relations)
            if not stepped:
                continue
            progressed = True
            self._forget(pid)
            self._spans_start.setdefault(pid, now)
            self._absorb(shard, scheduler, gate, before, now)
            if len(flights) >= self.capacity:
                break
        return progressed

    def _admit(self, shard, scheduler, pid: str, asleep, now) -> bool:
        """May ``pid`` step, past the strong order?  A process this
        defers and puts to sleep joins ``_gated[shard]``."""
        return True

    def _forget(self, pid: str) -> None:
        """``pid`` moved on: no deferral of it is current any more."""

    def _absorb(self, shard, scheduler, gate, before: int, now: float) -> None:
        """The timeline events a step appended: activities take off as
        flights for their virtual duration, terminations end a span."""
        latency_of = getattr(scheduler, "timeline_latency", None)
        trace = tracing(self.trace)
        registry = self._metrics_registry
        for index in range(before, scheduler.timeline_length()):
            event = scheduler.timeline_event(index)
            if isinstance(event, ActivityEvent):
                duration = self.durations(event.conflict_service)
                if latency_of is not None:
                    duration += latency_of(index)
                flight = gate.take_off(
                    event.process_id, event.conflict_service
                )
                self.queue.schedule(
                    duration, partial(self._land, scheduler, gate, flight)
                )
                self.dispatched += 1
                if trace is not None:
                    where = {} if shard is None else {"shard": shard}
                    trace.emit(
                        "exec",
                        process=event.process_id,
                        activity=event.activity.activity_name,
                        service=event.service,
                        duration=duration,
                        direction=event.activity.direction.exponent,
                        **where,
                    )
                if registry is not None:
                    registry.histogram("sim.activity_duration").observe(
                        duration
                    )
            elif isinstance(event, (CommitEvent, AbortEvent)):
                start = self._spans_start.get(event.process_id, now)
                self.metrics.process_spans[event.process_id] = (start, now)
                if registry is not None:
                    registry.histogram("sim.process_sojourn").observe(
                        now - start
                    )
                self._ended(event, now)

    def _land(self, scheduler, gate: StrongOrderGate, flight: Flight) -> None:
        """The flight landed: wake what it released.  A killed shard's
        flights land on its dead gate and wake its dead scheduler."""
        scheduler.asleep.difference_update(gate.land(flight))

    def _woken(self, shard, scheduler, relations) -> None:
        """Everyone the pass keeps asleep wakes when one of its
        relations' versions moved — which happens only while scheduler
        code runs: before a pass, and inside a step."""
        version = 0
        for relation in relations:
            version += relation.version
        if self._versions.get(shard) != version:
            self._versions[shard] = version
            scheduler.asleep.clear()
            self._gated[shard].clear()

    def _drive(self) -> int:
        """Rounds until the run is finished; returns how many."""
        rounds = 0
        while not self._finished():
            rounds += 1
            if rounds > MAX_ITERATIONS:
                raise SchedulerError("simulation did not converge")
            now = self.queue.clock.now
            # Only a round that starts with nothing pending can end in a
            # stall: a round runs no event, so what was pending still is.
            pending = self._pending()
            motion = None if pending else self._motion()
            if self._round(now):
                continue
            if pending or self._pending():
                self.queue.run_next()
            elif not self._idle(now) and self._motion() == motion:
                # A round that moved a state or a relation woke whoever
                # waited on it: not a stall, the next round steps them.
                self._resolve_stall()
        # Drain remaining completions so the makespan covers them.
        while not self.queue.empty:
            self.queue.run_next()
        return rounds


class SimulationRunner(Driver):
    """Discrete-event driver around one steppable scheduler: one pass a
    round in ``dispatch_order``, unbounded capacity, no admission check
    past the strong order (DESIGN.md §3j)."""

    def __init__(
        self,
        scheduler,
        durations: Optional[DurationModel] = None,
        order: str = "strong",
        arrivals: Optional[Dict[str, float]] = None,
        offers: Optional[Sequence[Arrival]] = None,
    ) -> None:
        if order not in ("strong", "weak"):
            raise ValueError(f"order must be 'strong' or 'weak', got {order!r}")
        if offers and not hasattr(scheduler, "offer"):
            raise SchedulerError(
                "open-loop offers require a scheduler exposing offer()"
            )
        super().__init__()
        self.scheduler = scheduler
        self.queue = EventQueue()
        #: Open-loop arrivals, offered to the scheduler when their
        #: virtual time comes (admission may queue or reject them).
        self.offers: List[Arrival] = sorted(
            offers or [], key=lambda arrival: arrival.time
        )
        self._pending_offers = len(self.offers)
        self.durations = durations or constant_durations()
        self.strong = order == "strong"
        self._gate = StrongOrderGate()
        self.arrivals = dict(arrivals or {})
        #: The scheduler's resilience layer, if any: its virtual clock
        #: becomes the simulation clock so timeouts, backoff windows and
        #: breaker reopen times live on the same timeline as the run.
        self.resilience = getattr(scheduler, "resilience", None)
        if self.resilience is not None:
            previous = self.resilience.clock
            self.resilience.attach_clock(self.queue.clock)
            registry = getattr(scheduler, "registry", None)
            if registry is not None:
                for subsystem in registry.subsystems():
                    if subsystem.clock is None or subsystem.clock is previous:
                        subsystem.clock = self.queue.clock
        #: The scheduler's trace bus, if attached: timestamp its events
        #: from the simulation clock (virtual time).
        self.trace = getattr(scheduler, "trace", None)
        if self.trace is not None:
            self.trace.attach_clock(self.queue.clock)
        self._metrics_registry = getattr(scheduler, "metrics", None)
        #: The admission queue's depth (none without an admission door).
        self._queue_depth = getattr(scheduler, "queue_depth", lambda: 0)
        self.metrics = RunMetrics(
            scheduler_name=getattr(scheduler, "name", "pred")
        )

    def run(self) -> RunMetrics:
        # Wake the loop at each arrival time so the clock reaches it.
        for arrival in set(self.arrivals.values()):
            if arrival > 0:
                self.queue.schedule_at(arrival, lambda: None)
        # Open-loop offers arrive as events on the virtual timeline.
        for offer in self.offers:
            self.queue.schedule_at(offer.time, partial(self._offer, offer))
        self._drive()
        self.metrics.makespan = self.queue.clock.now
        self._fill_stats(self.metrics)
        return self.metrics

    def _round(self, now: float) -> bool:
        scheduler = self.scheduler
        progressed = False
        pump = getattr(scheduler, "pump_admission", None)
        if pump is not None:
            # Admission is progress: a pumped process gets its first
            # dispatch chance in this very round.
            progressed = bool(pump(now=now))
            self._sample_queue_depth()
        order = getattr(scheduler, "dispatch_order", scheduler.instance_ids)()
        relations = (scheduler.conflicts,)
        asleep = scheduler.asleep
        return self._pass(
            None, scheduler, self._gate, relations, order, asleep, now
        ) or progressed

    def _pending(self) -> bool:
        """Flights are in the air (arrivals and offers only add load)."""
        return bool(self._gate.flights)

    def _idle(self, now: float) -> bool:
        # Nothing in flight: blocked work may just be waiting on the
        # clock (retry backoff, open breakers) — turn the next
        # resilience deadline into a wake-up event.
        if self.resilience is not None:
            deadline = self.resilience.next_deadline()
            if deadline is not None and deadline > now:
                self.queue.schedule_at(deadline, lambda: None)
                self.queue.run_next()
                return True
        # A blocked *arrived* process with nothing in flight and no
        # clock deadline is a logical stall.  Future arrivals only add
        # load — they never unblock existing waits — so the stall is
        # resolved now rather than idling toward them.  With nothing
        # arrived and nothing scheduled, the loop condition (pending
        # offers / queued admissions) decides.
        scheduler = self.scheduler
        if not self.queue.empty and not any(
            not scheduler.is_terminated(pid)
            and self.arrivals.get(pid, 0.0) <= now
            for pid in scheduler.instance_ids()
        ):
            self.queue.run_next()
            return True
        return False

    def _motion(self):
        # A baseline has no motion: every round without progress is a stall.
        return getattr(self.scheduler, "motion", None)

    def _resolve_stall(self) -> None:
        self.scheduler.resolve_stall()

    def _ended(self, event, now: float) -> None:
        if isinstance(event, CommitEvent):
            self.metrics.processes_committed += 1
        else:
            self.metrics.processes_aborted += 1

    def _finished(self) -> bool:
        """Done only when admitted work, offers and the queue drained."""
        return (
            self.scheduler.all_terminated()
            and self._pending_offers == 0
            and self._queue_depth() == 0
        )

    def _offer(self, offer: Arrival) -> None:
        self._pending_offers -= 1
        decision = self.scheduler.offer(
            offer.process, failures=offer.failures, now=self.queue.clock.now
        )
        if decision.instance_id is not None and not decision.rejected:
            self.arrivals[decision.instance_id] = offer.time
        self._sample_queue_depth()

    def _sample_queue_depth(self) -> None:
        depth = self._queue_depth()
        series = self.metrics.queue_depth_series
        if not series or series[-1][1] != depth:
            series.append((self.queue.clock.now, depth))

    def _fill_stats(self, metrics: RunMetrics) -> None:
        """Copy the scheduler's counter groups into the run's metrics."""
        groups = self.scheduler.counters()
        metrics.perf = dict(groups.get("perf", {}))
        stats = groups["sched"]
        metrics.activities_dispatched = stats.get("dispatched", 0)
        metrics.deferrals = stats.get("deferred", 0)
        metrics.victim_aborts = stats.get(
            "victim_aborts", stats.get("aborts", 0)
        )
        metrics.restarts = stats.get("restarts", 0)
        metrics.degradations = stats.get("degradations", 0)
        metrics.processes_offered = stats.get("offered", 0)
        metrics.processes_rejected = stats.get("rejected", 0)
        metrics.processes_shed = stats.get("shed", 0)
        metrics.starvation_boosts = stats.get("starvation_boosts", 0)
        metrics.livelock_escalations = stats.get("livelock_escalations", 0)
        resilience = groups.get("resilience")
        if resilience is not None:
            metrics.retries = resilience.get("retries", 0)
            metrics.timeouts = resilience.get("timeouts", 0)
            metrics.degradations = resilience.get(
                "degradations", metrics.degradations
            )
            metrics.breaker_trips = resilience.get("breaker_trips", 0)
            metrics.breaker_recoveries = resilience.get(
                "breaker_recoveries", 0
            )


def simulate_run(
    scheduler,
    durations: Optional[DurationModel] = None,
    order: str = "strong",
    arrivals: Optional[Dict[str, float]] = None,
) -> RunMetrics:
    """Run a prepared scheduler under virtual time; returns its metrics."""
    return SimulationRunner(
        scheduler, durations=durations, order=order, arrivals=arrivals
    ).run()
