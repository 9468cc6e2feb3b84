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

The runner drives any scheduler exposing the uniform stepping interface
(``instance_ids`` / ``is_terminated`` / ``step_instance`` /
``resolve_stall`` / ``timeline_length`` / ``timeline_event`` /
``managed``), i.e. both the PRED scheduler and every baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.instance import ActionType
from repro.core.process import Process
from repro.core.schedule import AbortEvent, ActivityEvent, CommitEvent
from repro.errors import SchedulerError
from repro.sim.engine import EventQueue
from repro.sim.metrics import RunMetrics
from repro.subsystems.failures import FailurePolicy

__all__ = [
    "Arrival",
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
        #: Bumped whenever a flight starts or lands.
        self.moves = 0
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
        self.moves += 1
        return flight

    def land(self, flight: Flight) -> List[str]:
        """The flight landed.  Returns the processes it released: those
        whose verdict named it, and its own once nothing of it flies."""
        del self.flights[flight]
        self.moves += 1
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


class SimulationRunner:
    """Discrete-event driver around a steppable scheduler.

    Each round offers every live process a step, in ``dispatch_order``,
    except a sleeper (``scheduler.asleep``): parked, held behind a
    flight or busy, it is passed over with one lookup until a push wakes
    it — so every step offered is one asking everyone would offer
    (DESIGN.md §3j).
    """

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
        self.scheduler = scheduler
        #: Open-loop arrivals, offered to the scheduler when their
        #: virtual time comes (admission may queue or reject them).
        self.offers: List[Arrival] = sorted(
            offers or [], key=lambda arrival: arrival.time
        )
        self._pending_offers = 0
        self.durations = durations or constant_durations()
        self.order = order
        self.queue = EventQueue()
        self._gate = StrongOrderGate()
        #: The sleepers a run passes over and how to add one (the
        #: scheduler's, see run()).
        self._asleep: Set[str] = set()
        self._sleep: Callable[[str], None] = self._asleep.add
        #: instance id -> virtual arrival time; before it, the instance
        #: is not dispatched (open-system workloads).  Unlisted
        #: instances arrive at time 0.
        self.arrivals: Dict[str, float] = dict(arrivals or {})
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
        #: Metrics registry (PRED scheduler only): the runner feeds
        #: activity-duration and process-sojourn histograms.
        self._metrics_registry = getattr(scheduler, "metrics", None)

    # -- the simulation loop ----------------------------------------------------

    def run(self) -> RunMetrics:
        scheduler = self.scheduler
        metrics = RunMetrics(scheduler_name=getattr(scheduler, "name", "pred"))
        spans_start: Dict[str, float] = {}
        iterations = 0

        # Wake the loop at each arrival time so the clock reaches it.
        for arrival in set(self.arrivals.values()):
            if arrival > 0:
                self.queue.schedule_at(arrival, lambda: None)
        # Open-loop offers arrive as events on the virtual timeline.
        for offer in self.offers:
            self._pending_offers += 1
            self.queue.schedule_at(offer.time, self._offer_event(offer, metrics))

        pump = getattr(scheduler, "pump_admission", None)
        order_of = getattr(scheduler, "dispatch_order", None)
        # A baseline keeps no sleepers: only its busy processes sleep.
        asleep = getattr(scheduler, "asleep", None)
        sleep = getattr(scheduler, "sleep", None)
        if asleep is None or sleep is None:
            asleep = set()
            sleep = asleep.add
        self._asleep, self._sleep = asleep, sleep
        gate, strong = self._gate, self.order == "strong"
        version = None
        while not self._finished():
            iterations += 1
            if iterations > MAX_ITERATIONS:
                raise SchedulerError("simulation did not converge")
            progressed = False
            now = self.queue.clock.now
            if pump is not None:
                # Admission is progress: a pumped process gets its first
                # dispatch chance in this very round.
                if pump(now=now):
                    progressed = True
                self._sample_queue_depth(metrics)
            order = order_of() if order_of is not None else scheduler.instance_ids()
            version = self._woken(version)
            for pid in order:
                if pid in asleep:
                    continue
                if scheduler.is_terminated(pid):
                    continue
                if pid in gate.busy:
                    sleep(pid)
                    continue
                if self.arrivals.get(pid, 0.0) > now:
                    continue
                # The step itself refuses a parked process.
                if strong and gate.blocks(scheduler, pid):
                    if pid in gate._blocked:  # remembered: until it lands
                        sleep(pid)
                    continue
                before = scheduler.timeline_length()
                stepped = scheduler.step_instance(pid)
                version = self._woken(version)
                if not stepped:
                    continue
                progressed = True
                spans_start.setdefault(
                    pid, max(self.arrivals.get(pid, 0.0), now)
                )
                self._absorb_new_events(pid, before, metrics, spans_start)
            if progressed:
                continue
            if gate.flights:
                # Activities are executing; their completion events end
                # the wait.
                self.queue.run_next()
                continue
            # Nothing in flight: blocked work may just be waiting on
            # the clock (retry backoff, open breakers) — turn the next
            # resilience deadline into a wake-up event.
            if self.resilience is not None:
                deadline = self.resilience.next_deadline()
                if deadline is not None and deadline > self.queue.clock.now:
                    self.queue.schedule_at(deadline, lambda: None)
                    self.queue.run_next()
                    continue
            # A blocked *arrived* process with nothing in flight and no
            # clock deadline is a logical stall.  Future arrivals only
            # add load — they never unblock existing waits — so the
            # stall is resolved now rather than idling toward them.
            if any(
                not scheduler.is_terminated(pid)
                and self.arrivals.get(pid, 0.0) <= now
                for pid in scheduler.instance_ids()
            ):
                scheduler.resolve_stall()
                continue
            if not self.queue.empty:
                self.queue.run_next()
                continue
            # Nothing arrived, nothing scheduled: the loop condition
            # (pending offers / queued admissions) decides.
            scheduler.resolve_stall()

        # Drain remaining completions so the makespan covers them.
        while not self.queue.empty:
            self.queue.run_next()
        metrics.makespan = self.queue.clock.now
        self._fill_stats(metrics)
        return metrics

    def _finished(self) -> bool:
        """Done only when admitted work, offers and the queue drained."""
        return (
            self.scheduler.all_terminated()
            and self._pending_offers == 0
            and self._queue_depth() == 0
        )

    def _offer_event(
        self, offer: Arrival, metrics: RunMetrics
    ) -> Callable[[], None]:
        def fire() -> None:
            self._pending_offers -= 1
            decision = self.scheduler.offer(
                offer.process,
                failures=offer.failures,
                now=self.queue.clock.now,
            )
            if decision.instance_id is not None and not decision.rejected:
                self.arrivals[decision.instance_id] = offer.time
            self._sample_queue_depth(metrics)

        return fire

    def _queue_depth(self) -> int:
        depth_of = getattr(self.scheduler, "queue_depth", None)
        return depth_of() if depth_of is not None else 0

    def _sample_queue_depth(self, metrics: RunMetrics) -> None:
        depth = self._queue_depth()
        series = metrics.queue_depth_series
        if not series or series[-1][1] != depth:
            series.append((self.queue.clock.now, depth))

    def _absorb_new_events(
        self,
        pid: str,
        before: int,
        metrics: RunMetrics,
        spans_start: Dict[str, float],
    ) -> None:
        now = self.queue.clock.now
        latency_of = getattr(self.scheduler, "timeline_latency", None)
        trace = self.trace
        registry = self._metrics_registry
        for index in range(before, self.scheduler.timeline_length()):
            event = self.scheduler.timeline_event(index)
            if isinstance(event, ActivityEvent):
                duration = self.durations(event.conflict_service)
                if latency_of is not None:
                    duration += latency_of(index)
                flight = self._gate.take_off(
                    event.process_id, event.conflict_service
                )
                self._sleep(event.process_id)  # busy until it lands
                self.queue.schedule(duration, partial(self._land, flight))
                if trace is not None and trace.enabled:
                    trace.emit(
                        "exec",
                        process=event.process_id,
                        activity=event.activity.activity_name,
                        service=event.service,
                        duration=duration,
                        direction=event.activity.direction.exponent,
                    )
                if registry is not None:
                    registry.histogram("sim.activity_duration").observe(
                        duration
                    )
            elif isinstance(event, (CommitEvent, AbortEvent)):
                start = spans_start.get(event.process_id, now)
                metrics.process_spans[event.process_id] = (start, now)
                if registry is not None:
                    registry.histogram("sim.process_sojourn").observe(
                        now - start
                    )
                if isinstance(event, CommitEvent):
                    metrics.processes_committed += 1
                else:
                    metrics.processes_aborted += 1

    def _land(self, flight: Flight) -> None:
        self._asleep.difference_update(self._gate.land(flight))

    def _woken(self, version: Optional[int]) -> int:
        """Everyone wakes when the conflict relation's version moved —
        which happens only while scheduler code runs: before a round's
        visits, and inside a step.  Returns the version now."""
        now = getattr(self.scheduler.conflicts, "version", 0)
        if now != version:
            self._asleep.clear()
        return now

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
