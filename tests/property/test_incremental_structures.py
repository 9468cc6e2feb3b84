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
* `_conflicting_predecessors` / `_conflicting_successors` /
  `_last_effective_position` against their reference full-log scans;
* the per-process service signatures against the effective log.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conflict import normalize_service
from repro.core.scheduler import TransactionalProcessScheduler
from repro.errors import UnrecoverableStateError
from repro.subsystems.failures import FailurePlan

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
            assert scheduler._conflicting_predecessors(
                pid, service
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
    tolerate_stall=False,
):
    rng = random.Random(seed)

    def shuffled(ids):
        ids = list(ids)
        rng.shuffle(ids)
        return ids

    scheduler = TransactionalProcessScheduler(
        conflicts=conflicts, interleaving=shuffled
    )
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
    """Declaring a conflict mid-run forces a graph rebuild (epoch bump);
    the rebuilt structures must again equal scratch recomputation."""

    def mutate(scheduler, event_count):
        if event_count == 3:
            conflicts.declare(*pair)

    _run_checked(
        [first, second], conflicts, set(), seed, mutate,
        tolerate_stall=True,
    )
