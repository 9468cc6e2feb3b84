"""Property: the incremental scheduling core equals scratch recomputation.

The scheduler maintains its process serialization graph, per-service
inverted indexes and topological order *incrementally* — updated on
every effectiveness transition of the log (append, compensation
pairing, native rollback), never bulk-invalidated.  Decision
equivalence with the old recompute-per-operation path rests on these
structures being exactly equal to what a from-scratch rebuild over the
effective log produces, after **any** prefix of **any** legal workload.

These shadow checks run inside a scheduler listener, so they fire at
every recorded event of a random workload (random interleavings,
injected failures exercising compensation, rollback and abort paths)
and compare:

* the incremental edge multiset against the O(E²) pairwise rebuild;
* the maintained (Pearce–Kelly) topological order against the edges —
  every edge goes strictly forward, or a cycle genuinely exists;
* the graph's `conflicting_events`, `_conflicting_successors` and
  `_last_effective_position` against their reference full-log scans;
* the per-process service signatures against the effective log;
* the forward-recovery potential edges of §3.5, maintained across
  state moves (``IncrementalSerializationGraph.set_forward`` and
  ``potential_edges``), against
  the pair sweep over every recorded process that they replaced: the
  forward services of every live process against a fresh read of its
  completion, each process's sources against a full scan of every
  process's services, and the index query behind them likewise —
  through switches, aborts from outside, 2PC vetoes (native rollbacks)
  and a conflict declared or retracted mid-run.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conflict import ExplicitConflicts, normalize_service
from repro.core.scheduler import SchedulerRules, TransactionalProcessScheduler
from repro.core.sergraph import IncrementalSerializationGraph
from repro.errors import UnrecoverableStateError
from repro.subsystems.failures import FailurePlan
from repro.subsystems.twophase import TwoPhaseCoordinator

from tests.property.strategies import (
    SERVICES,
    conflict_relations,
    well_formed_processes,
)


# -- reference implementations: full scans over ``scheduler._log`` ---------
#
# What the scheduler did before the incremental structures existed; they
# live here, beside their only caller, so that no production path can
# reach them.


def _conflicting_predecessors_scan(scheduler, pid, service):
    """Effective events of other processes conflicting with ``service``."""
    found = []
    for position, entry in enumerate(scheduler._log):
        if entry.process_id == pid or not entry.is_effective:
            continue
        if scheduler.conflicts.conflicts(entry.event.conflict_service, service):
            found.append((entry.process_id, position))
    return found


def _conflicting_successors_scan(scheduler, pid, service, after):
    """Live processes with conflicting effective work past ``after``."""
    start = -1 if after is None else after
    dependents = set()
    for position, entry in enumerate(scheduler._log):
        if position <= start or entry.process_id == pid:
            continue
        if not entry.is_effective:
            continue
        if (
            entry.event.is_compensation
            and entry.compensates is not None
            and entry.compensates > start
        ):
            continue
        if scheduler.managed(entry.process_id).status.is_terminal:
            continue
        if scheduler.conflicts.conflicts(entry.event.conflict_service, service):
            dependents.add(entry.process_id)
    return dependents


def _last_effective_position_scan(scheduler, pid, activity_name):
    """Backwards scan for the activity's last effective forward event."""
    for position in range(len(scheduler._log) - 1, -1, -1):
        entry = scheduler._log[position]
        if (
            entry.process_id == pid
            and entry.event.activity.activity_name == activity_name
            and not entry.event.is_compensation
            and not entry.rolled_back
            and not entry.compensated
        ):
            return position
    return None


def _edges_recompute(scheduler):
    """O(E²) pairwise rebuild of the process serialization graph."""
    graph = {pid: set() for pid in scheduler.instance_ids()}
    effective = [entry for entry in scheduler._log if entry.is_effective]
    for left_index, left in enumerate(effective):
        for right in effective[left_index + 1:]:
            if left.process_id == right.process_id:
                continue
            if scheduler.conflicts.conflicts(
                left.event.conflict_service, right.event.conflict_service
            ):
                graph[left.process_id].add(right.process_id)
    return graph


def _potential_edges_sweep(scheduler, forward):
    """Every recorded process against every active process's forward
    services: ``src → dst`` when an executed service of ``src``
    conflicts with one ``dst``'s completion would still run."""
    graph = scheduler._graph_sync()
    base = graph.adjacency()
    edges = set()
    for src_pid in graph.process_services():
        signature = graph.service_signature(src_pid)
        if not signature:
            continue
        reachable = graph.reachable_services(signature)
        for dst_pid, targets in forward.items():
            if dst_pid == src_pid or dst_pid in base.get(src_pid, ()):
                continue
            if not reachable.isdisjoint(targets):
                edges.add((src_pid, dst_pid))
    return edges


def _conflicting_with_scan(graph, targets):
    """Processes with an effective service conflicting with ``targets``,
    asked of the conflict relation for every service of every process."""
    return {
        pid
        for pid, services in graph.process_services().items()
        if any(
            graph.conflicts.conflicts(service, target)
            for service in services
            for target in targets
        )
    }


def _forward_sweep(scheduler):
    """Every live process's forward services, read afresh."""
    forward = {}
    for pid, managed in scheduler._live.items():
        services = scheduler._forward_of(managed)
        if services:
            forward[pid] = services
    return forward


def _assert_potential_edges_equal(scheduler) -> None:
    graph = scheduler._graph_sync()
    # Bring the maintained base up to date past the edge cache (and put
    # the cache back), so the check is of the maintenance.
    saved = scheduler._potential_cache
    scheduler._potential_cache = None
    forward, edges = scheduler._potential_edges_base(graph)
    scheduler._potential_cache = saved
    assert forward == _forward_sweep(scheduler)
    assert edges == _potential_edges_sweep(scheduler, forward)
    sources = graph.sources
    assert set(sources) == set(forward)
    for dst, targets in forward.items():
        assert sources[dst] == _conflicting_with_scan(graph, targets) - {dst}
    target_sets = list(forward.values())
    target_sets += [frozenset({graph.ensure_service(s)}) for s in SERVICES]
    for targets in target_sets:
        assert graph.processes_conflicting_with(
            targets
        ) == _conflicting_with_scan(graph, targets)


def _assert_shadow_equal(scheduler: TransactionalProcessScheduler) -> None:
    graph = scheduler._graph_sync()

    # Serialization graph: incremental edge multiset == pairwise rebuild.
    recomputed = _edges_recompute(scheduler)
    live = {pid: set(targets) for pid, targets in graph.adjacency().items()}
    assert live == recomputed, f"edges drifted: {live} != {recomputed}"

    # Topological order: valid ⇒ every edge goes strictly forward;
    # invalid ⇒ the recorded graph genuinely contains a cycle.
    if graph.order_is_valid():
        positions = graph.order_positions()
        for source, targets in recomputed.items():
            for target in targets:
                assert positions[source] < positions[target], (
                    f"order violates edge {source}->{target}: {positions}"
                )
    else:
        assert _has_cycle(recomputed), "order invalid but graph acyclic"

    # Inverted indexes against the reference full-log scans.
    for pid in scheduler.instance_ids():
        for service in SERVICES:
            assert graph.conflicting_events(
                service, pid
            ) == _conflicting_predecessors_scan(scheduler, pid, service)
            for after in (None, 0, len(scheduler._log) // 2):
                assert scheduler._conflicting_successors(
                    pid, service, after
                ) == _conflicting_successors_scan(
                    scheduler, pid, service, after
                )

    # Last-effective-position per (pid, activity) that ever hit the log.
    seen = set()
    signatures = {pid: set() for pid in scheduler.instance_ids()}
    for entry in scheduler._log:
        key = (entry.process_id, entry.event.activity.activity_name)
        if key not in seen:
            seen.add(key)
            assert scheduler._last_effective_position(
                *key
            ) == _last_effective_position_scan(scheduler, *key)
        if entry.is_effective:
            signatures[entry.process_id].add(
                normalize_service(entry.event.conflict_service)
            )

    # Per-process service signatures match the effective log.
    for pid, expected in signatures.items():
        assert graph.service_signature(pid) == frozenset(expected)

    _assert_potential_edges_equal(scheduler)


def _has_cycle(edges) -> bool:
    in_degree = {pid: 0 for pid in edges}
    for targets in edges.values():
        for target in targets:
            in_degree[target] += 1
    frontier = [pid for pid, degree in in_degree.items() if not degree]
    peeled = 0
    while frontier:
        node = frontier.pop()
        peeled += 1
        for target in edges[node]:
            in_degree[target] -= 1
            if not in_degree[target]:
                frontier.append(target)
    return peeled != len(edges)


def _run_checked(
    processes, conflicts, failing_services, seed, hook=None,
    tolerate_stall=False, cls=TransactionalProcessScheduler, **pieces,
):
    rng = random.Random(seed)

    def shuffled(ids):
        ids = list(ids)
        rng.shuffle(ids)
        return ids

    scheduler = cls(conflicts=conflicts, interleaving=shuffled, **pieces)
    events = {"count": 0}

    def listener(kind, payload):
        events["count"] += 1
        if hook is not None:
            hook(scheduler, events["count"])
        _assert_shadow_equal(scheduler)

    scheduler.add_listener(listener)
    for index, process in enumerate(processes):
        scheduler.submit(
            process,
            instance_id=f"P{index}",
            failures=FailurePlan.fail_once(failing_services),
        )
    if tolerate_stall:
        # Mutating the conflict relation mid-run can create wait cycles
        # the protocol never admits on its own (e.g. two hardened
        # processes suddenly in conflict).  The scheduler reports those
        # as unrecoverable; the shadow property must hold regardless —
        # the listener has asserted it at every event up to the stall.
        try:
            scheduler.run()
        except UnrecoverableStateError:
            pass
    else:
        scheduler.run()
    _assert_shadow_equal(scheduler)
    return scheduler


@settings(max_examples=40, deadline=None)
@given(
    first=well_formed_processes(),
    second=well_formed_processes(),
    conflicts=conflict_relations(),
    failing=st.sets(st.sampled_from(SERVICES), max_size=2),
    seed=st.integers(0, 10_000),
)
def test_incremental_structures_match_recompute(
    first, second, conflicts, failing, seed
):
    """After every event of a random run, incremental == scratch."""
    scheduler = _run_checked([first, second], conflicts, failing, seed)
    assert scheduler.all_terminated()


@settings(max_examples=20, deadline=None)
@given(
    first=well_formed_processes(),
    second=well_formed_processes(),
    third=well_formed_processes(),
    conflicts=conflict_relations(),
    failing=st.sets(st.sampled_from(SERVICES), max_size=1),
    seed=st.integers(0, 10_000),
)
def test_three_process_structures_match_recompute(
    first, second, third, conflicts, failing, seed
):
    scheduler = _run_checked(
        [first, second, third], conflicts, failing, seed
    )
    assert scheduler.all_terminated()


@settings(max_examples=20, deadline=None)
@given(
    first=well_formed_processes(),
    second=well_formed_processes(),
    conflicts=conflict_relations(),
    pair=st.tuples(
        st.sampled_from(SERVICES), st.sampled_from(SERVICES)
    ),
    seed=st.integers(0, 10_000),
)
def test_structures_survive_mid_run_conflict_mutation(
    first, second, conflicts, pair, seed
):
    """Declaring (or, if declared, retracting) a conflict mid-run forces
    a graph rebuild (epoch bump); the rebuilt structures must again
    equal scratch recomputation."""

    def mutate(scheduler, event_count):
        if event_count == 3:
            if conflicts.conflicts(*pair):
                conflicts.retract(*pair)
            else:
                conflicts.declare(*pair)

    _run_checked(
        [first, second], conflicts, set(), seed, mutate,
        tolerate_stall=True,
    )


@settings(max_examples=20, deadline=None)
@given(
    processes=st.lists(well_formed_processes(), min_size=2, max_size=3),
    conflicts=conflict_relations(),
    failing=st.sets(st.sampled_from(SERVICES), max_size=1),
    votes=st.lists(st.booleans(), max_size=6),
    abort_round=st.none() | st.integers(1, 12),
    seed=st.integers(0, 10_000),
)
def test_structures_survive_rollbacks_and_aborts(
    processes, conflicts, failing, votes, abort_round, seed
):
    """Vetoed 2PC groups roll prepared pivots back natively, and between
    two rounds a process is aborted from outside; the maintained
    potential edges follow both."""
    ballot = iter(votes)

    class Aborting(TransactionalProcessScheduler):
        def dispatch_order(self):
            if self._round + 1 == abort_round:
                for pid in sorted(self._live):
                    managed = self.managed(pid)
                    if not (managed.abort_pending or managed.is_hardened):
                        self.abort(pid, reason="from outside")
                        break
            return super().dispatch_order()

    _run_checked(
        processes, conflicts, failing, seed,
        tolerate_stall=True,
        cls=Aborting,
        rules=SchedulerRules(eager_hardening=False),
        coordinator=TwoPhaseCoordinator(
            vote=lambda participant: next(ballot, True)
        ),
    )


# -- the service-index query on its edge cases --------------------------------


def test_query_finds_a_self_conflicting_service():
    """A service in conflict with itself reaches its own processes."""
    graph = IncrementalSerializationGraph(ExplicitConflicts([("s0", "s0")]))
    graph.add_event(0, "P0", "a", "s0", True)
    graph.add_event(1, "P1", "b", "s1", True)
    own = frozenset({graph.ensure_service("s0")})
    other = frozenset({graph.ensure_service("s1")})
    assert graph.processes_conflicting_with(own) == {"P0"}
    assert graph.processes_conflicting_with(other) == set()
    assert graph.processes_conflicting_with(own) == _conflicting_with_scan(
        graph, own
    )


def test_query_skips_a_compensated_process():
    """A compensated activity leaves an empty position list in the
    service index; its process no longer conflicts through it."""
    graph = IncrementalSerializationGraph(ExplicitConflicts([("s0", "s1")]))
    graph.add_event(0, "P0", "a", "s0", True)
    graph.add_event(1, "P0", "a", "s0", False)  # the compensation
    graph.add_event(2, "P1", "b", "s0", True)
    graph.remove_event(0)
    graph.remove_event(1)
    assert graph._svc_index["s0"]["P0"] == []
    targets = frozenset({graph.ensure_service("s1")})
    assert graph.processes_conflicting_with(targets) == {"P1"}
    assert _conflicting_with_scan(graph, targets) == {"P1"}
