"""Incrementally maintained process serialization graph.

The online PRED scheduler (rules R1–R7, Lemmas 1–3) consults the
process serialization graph and per-service dependency queries on every
admission decision.  Recomputing them per operation costs O(E²) in the
length of the recorded history; this module maintains the same
structures *incrementally*, so each log mutation (append, native
rollback, compensation pairing, group abort) costs amortized
O(affected) instead of O(history):

``service index``
    ``service → pid → sorted effective log positions`` — the inverted
    index behind conflicting-predecessor/-successor queries,
    last-effective lookups and the sources of §3.5's potential edges.

``conflict adjacency``
    ``service → {conflicting services}`` — a memoised service×service
    conflict matrix built lazily per service from the (cached)
    :class:`~repro.core.conflict.ConflictRelation`.

``edge multiset``
    ``(P, Q) → count`` of ordered conflicting event pairs with the
    ``P`` event first.  An edge exists in the serialization graph iff
    its count is positive, so removing one event decrements precisely
    the pair counts it contributed (computed with two ``bisect`` calls
    per conflicting process) and edges disappear exactly when the last
    contributing pair does — the cache is never bulk-invalidated.

``potential-edge sources``
    Per live process, the services its completion would still run (as
    the owner sets them) and the processes whose executed services
    conflict with them — §3.5's potential edges — kept current across
    state moves instead of re-derived after each one.

``topological order``
    A Pearce–Kelly style order over the processes: inserting an edge
    that already goes forward costs O(1); a back edge triggers a local
    reorder of the affected region only.  The order certifies
    acyclicity — a hypothetical edge set whose edges all go strictly
    forward in a valid order can not close a cycle, which turns the
    scheduler's R2 cycle check into an O(new edges) fast path.  Under
    rule ablations the recorded graph may legitimately become cyclic;
    the order then switches itself off and is lazily rebuilt (Kahn)
    once edge removals make acyclicity possible again.

Every structure is also rebuildable from scratch
(:meth:`IncrementalSerializationGraph.rebuild`) — used when the
conflict relation itself mutates mid-run, and by the shadow-check
property tests that prove the incremental path equals the recompute
path after arbitrary operation sequences.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.conflict import ConflictRelation, normalize_service
from repro.core.perf import PerfCounters

__all__ = ["IncrementalSerializationGraph"]


class IncrementalSerializationGraph:
    """Serialization graph + dependency indexes over effective events.

    The owner feeds every effectiveness transition of its log into
    :meth:`add_event` / :meth:`remove_event`; all queries then answer
    from the maintained indexes.  Events are identified by their log
    position (strictly increasing on append), processes by id.
    """

    def __init__(
        self,
        conflicts: ConflictRelation,
        perf: Optional[PerfCounters] = None,
    ) -> None:
        self.conflicts = conflicts
        self.perf = perf if perf is not None else PerfCounters()
        #: service → set of conflicting services (within the universe of
        #: services seen so far); lazily extended by :meth:`ensure_service`.
        self._adj: Dict[str, Set[str]] = {}
        #: service → pid → sorted effective positions of that pid's
        #: events on that service.
        self._svc_index: Dict[str, Dict[str, List[int]]] = {}
        #: position → (pid, normalised service, forward key or None).
        self._events: Dict[int, Tuple[str, str, Optional[Tuple[str, str]]]] = {}
        #: ordered edge multiset: source pid → target pid → pair count.
        self._edge_counts: Dict[str, Dict[str, int]] = {}
        #: adjacency views (edges with positive count only).
        self._out: Dict[str, Set[str]] = {}
        self._in: Dict[str, Set[str]] = {}
        #: pid → service → count of its effective events on the service.
        self._pid_services: Dict[str, Dict[str, int]] = {}
        #: (pid, activity name) → sorted effective *forward* positions.
        self._forward_index: Dict[Tuple[str, str], List[int]] = {}
        #: Pearce–Kelly topological order (pid → index, and its inverse).
        self._ord: Dict[str, int] = {}
        self._order: List[str] = []
        #: False while the graph is cyclic (possible under ablations).
        self._order_valid = True
        #: True when edges were removed while invalid — a Kahn rebuild
        #: may restore the order; done lazily on the next order query.
        self._order_stale = False
        #: Interning epoch: bumped on :meth:`rebuild`, when every
        #: previously interned service leaves the universe.  Callers
        #: that cache interned names key their caches on it.
        self.epoch = 0
        #: pid → frozenset of its executed services (lazy; dropped when
        #: the pid's service *set* — not just the counts — changes).
        self._pid_signature: Dict[str, FrozenSet[str]] = {}
        #: §3.5's potential edges (:meth:`set_forward`,
        #: :meth:`potential_edges`): pid → the interned services its
        #: completion would still run; pid → the other processes with an
        #: effective event on a service conflicting with one of them;
        #: service → the pids whose forward services hold it; pid → the
        #: executed services its memberships reflect, and the pids whose
        #: service set moved since.
        self.forward: Dict[str, FrozenSet[str]] = {}
        self.sources: Dict[str, Set[str]] = {}
        self._holders: Dict[str, Set[str]] = {}
        self._rows: Dict[str, FrozenSet[str]] = {}
        self._moved_rows: Set[str] = set()
        #: signature → union of conflicting services.  Cleared whenever
        #: a new service is interned, since interning extends existing
        #: adjacency rows in place.
        self._reach_memo: Dict[FrozenSet[str], FrozenSet[str]] = {}

    # -- processes and services -------------------------------------------------

    def add_process(self, pid: str) -> None:
        """Register a process node (idempotent)."""
        if pid in self._out:
            return
        self._out[pid] = set()
        self._in[pid] = set()
        self._pid_services[pid] = {}
        self._ord[pid] = len(self._order)
        self._order.append(pid)

    def ensure_service(self, service: str) -> str:
        """Intern a (normalised) service into the conflict adjacency."""
        name = normalize_service(service)
        if name not in self._adj:
            row: Set[str] = set()
            for other, other_row in self._adj.items():
                if self.conflicts.conflicts(name, other):
                    row.add(other)
                    other_row.add(name)
            if self.conflicts.conflicts(name, name):
                row.add(name)
            self._adj[name] = row
            self._reach_memo.clear()
        return name

    # -- event maintenance ------------------------------------------------------

    def add_event(
        self,
        position: int,
        pid: str,
        activity_name: str,
        service: str,
        is_forward: bool,
    ) -> None:
        """Index a newly effective event at ``position``.

        Must be called in increasing-position order relative to the
        events currently indexed for correctness of the pair counts
        (append order satisfies this; :meth:`rebuild` feeds log order).
        """
        name = self.ensure_service(service)
        self.add_process(pid)
        self.perf.graph_events += 1
        # Every already-indexed event sits at an earlier position, so
        # each conflicting event of process Q contributes one (Q, pid)
        # ordered pair.
        for other_service in self._adj[name]:
            per_pid = self._svc_index.get(other_service)
            if not per_pid:
                continue
            for other_pid, positions in per_pid.items():
                if other_pid == pid or not positions:
                    continue
                self._edge_add(other_pid, pid, len(positions))
        self._svc_index.setdefault(name, {}).setdefault(pid, []).append(
            position
        )
        forward_key = (pid, activity_name) if is_forward else None
        self._events[position] = (pid, name, forward_key)
        counts = self._pid_services[pid]
        updated = counts.get(name, 0) + 1
        counts[name] = updated
        if updated == 1:
            self._pid_signature.pop(pid, None)
            self._moved_rows.add(pid)
        if forward_key is not None:
            insort(self._forward_index.setdefault(forward_key, []), position)

    def remove_event(self, position: int) -> None:
        """Drop the event at ``position`` (rollback / compensation pairing)."""
        record = self._events.pop(position, None)
        if record is None:
            return
        pid, name, forward_key = record
        self.perf.graph_events += 1
        own = self._svc_index[name][pid]
        del own[bisect_left(own, position)]
        for other_service in self._adj[name]:
            per_pid = self._svc_index.get(other_service)
            if not per_pid:
                continue
            for other_pid, positions in per_pid.items():
                if other_pid == pid or not positions:
                    continue
                before = bisect_left(positions, position)
                after = len(positions) - before
                if before:
                    self._edge_sub(other_pid, pid, before)
                if after:
                    self._edge_sub(pid, other_pid, after)
        counts = self._pid_services[pid]
        counts[name] -= 1
        if not counts[name]:
            del counts[name]
            self._pid_signature.pop(pid, None)
            self._moved_rows.add(pid)
        if forward_key is not None:
            forwards = self._forward_index[forward_key]
            del forwards[bisect_left(forwards, position)]

    def rebuild(
        self,
        pids: Iterable[str],
        entries: Iterable[Tuple[int, str, str, str, bool]],
    ) -> None:
        """Recompute everything from scratch.

        ``entries`` are ``(position, pid, activity_name, service,
        is_forward)`` tuples of the *effective* log entries in log
        order.  Needed only when the conflict relation itself mutates —
        the per-service adjacency memo is then stale as a whole.
        """
        self.perf.graph_rebuilds += 1
        self._adj.clear()
        self._svc_index.clear()
        self._events.clear()
        self._edge_counts.clear()
        self._out.clear()
        self._in.clear()
        self._pid_services.clear()
        self._forward_index.clear()
        self._ord.clear()
        self._order = []
        self._order_valid = True
        self._order_stale = False
        self._pid_signature.clear()
        self._reach_memo.clear()
        for potential in (
            self.forward, self.sources, self._holders, self._rows
        ):
            potential.clear()
        self.epoch += 1
        for pid in pids:
            self.add_process(pid)
        for position, pid, activity_name, service, is_forward in entries:
            self.add_event(position, pid, activity_name, service, is_forward)

    # -- edge multiset ----------------------------------------------------------

    def _edge_add(self, source: str, target: str, count: int) -> None:
        row = self._edge_counts.setdefault(source, {})
        updated = row.get(target, 0) + count
        row[target] = updated
        self.perf.edge_updates += 1
        if updated == count:  # 0 → positive: the edge appears
            self._out[source].add(target)
            self._in[target].add(source)
            self._on_edge_inserted(source, target)

    def _edge_sub(self, source: str, target: str, count: int) -> None:
        row = self._edge_counts[source]
        updated = row[target] - count
        self.perf.edge_updates += 1
        if updated:
            row[target] = updated
            return
        del row[target]
        self._out[source].discard(target)
        self._in[target].discard(source)
        if not self._order_valid:
            # Losing an edge may have broken the cycle; recheck lazily.
            self._order_stale = True

    # -- topological order (Pearce–Kelly) --------------------------------------

    def _on_edge_inserted(self, source: str, target: str) -> None:
        if not self._order_valid:
            return
        ord_map = self._ord
        if ord_map[source] < ord_map[target]:
            return
        lower, upper = ord_map[target], ord_map[source]
        # Forward search from target over the affected region; reaching
        # source means the new edge closed a cycle.  Any path
        # target ↝ source has monotonically increasing order positions
        # (the invariant held before the insertion), so restricting to
        # positions ≤ upper loses nothing.
        delta_forward: List[str] = []
        stack = [target]
        seen_forward = {target}
        while stack:
            node = stack.pop()
            delta_forward.append(node)
            for successor in self._out[node]:
                if successor == source:
                    self._order_valid = False
                    return
                if (
                    successor not in seen_forward
                    and ord_map[successor] <= upper
                ):
                    seen_forward.add(successor)
                    stack.append(successor)
        # Backward search from source over the affected region.
        delta_backward: List[str] = []
        stack = [source]
        seen_backward = {source}
        while stack:
            node = stack.pop()
            delta_backward.append(node)
            for predecessor in self._in[node]:
                if (
                    predecessor not in seen_backward
                    and ord_map[predecessor] >= lower
                ):
                    seen_backward.add(predecessor)
                    stack.append(predecessor)
        # Reassign the union of freed positions: sources-of-the-back-edge
        # region first, then the forward region, each keeping its
        # internal relative order.
        delta_forward.sort(key=ord_map.__getitem__)
        delta_backward.sort(key=ord_map.__getitem__)
        pool = sorted(
            ord_map[node] for node in delta_backward + delta_forward
        )
        for node, index in zip(delta_backward + delta_forward, pool):
            ord_map[node] = index
            self._order[index] = node
        self.perf.topo_shifts += 1

    def _ensure_order(self) -> bool:
        """Return whether a valid topological order is available."""
        if self._order_valid:
            return True
        if not self._order_stale:
            return False
        self._order_stale = False
        order = self._kahn()
        if order is None:
            return False
        self._order = order
        self._ord = {pid: index for index, pid in enumerate(order)}
        self._order_valid = True
        return True

    def _kahn(self) -> Optional[List[str]]:
        self.perf.topo_recomputes += 1
        in_degree = {pid: len(sources) for pid, sources in self._in.items()}
        frontier = [pid for pid, degree in in_degree.items() if not degree]
        order: List[str] = []
        while frontier:
            node = frontier.pop()
            order.append(node)
            for successor in self._out[node]:
                in_degree[successor] -= 1
                if not in_degree[successor]:
                    frontier.append(successor)
        if len(order) != len(self._in):
            return None
        return order

    # -- queries ----------------------------------------------------------------

    def adjacency(self) -> Dict[str, Set[str]]:
        """The live serialization graph ``pid → {successor pids}``.

        Callers only read it (or copy before extending) — the sets are
        the maintained views, not snapshots.
        """
        return self._out

    def predecessors(self, pid: str) -> Set[str]:
        """Processes with a conflict edge into ``pid``."""
        return self._in.get(pid, frozenset())  # type: ignore[return-value]

    def conflicting_events(
        self, service: str, exclude_pid: str
    ) -> List[Tuple[str, int]]:
        """Effective events of other processes conflicting with ``service``,
        as ``(pid, position)`` in log order."""
        name = self.ensure_service(service)
        found: List[Tuple[int, str]] = []
        for other_service in self._adj[name]:
            per_pid = self._svc_index.get(other_service)
            if not per_pid:
                continue
            for other_pid, positions in per_pid.items():
                if other_pid == exclude_pid:
                    continue
                for position in positions:
                    found.append((position, other_pid))
        found.sort()
        return [(pid, position) for position, pid in found]

    def conflicting_processes_after(
        self, service: str, exclude_pid: str, after: int
    ) -> Set[str]:
        """Processes with an effective conflicting event at a position
        strictly greater than ``after``."""
        name = self.ensure_service(service)
        dependents: Set[str] = set()
        for other_service in self._adj[name]:
            per_pid = self._svc_index.get(other_service)
            if not per_pid:
                continue
            for other_pid, positions in per_pid.items():
                if other_pid == exclude_pid or other_pid in dependents:
                    continue
                if positions and positions[-1] > after:
                    dependents.add(other_pid)
        return dependents

    def last_forward_position(
        self, pid: str, activity_name: str
    ) -> Optional[int]:
        """Last effective forward occurrence of the activity, or ``None``."""
        positions = self._forward_index.get((pid, activity_name))
        if not positions:
            return None
        return positions[-1]

    def process_services(self) -> Dict[str, Dict[str, int]]:
        """``pid → {service: effective event count}`` (live view)."""
        return self._pid_services

    def service_signature(self, pid: str) -> FrozenSet[str]:
        """The set of services ``pid`` has effective events on.

        Cached per process and dropped only when the service *set*
        changes, so repeated admission checks share one frozenset (and
        thereby one :meth:`reachable_services` memo entry)."""
        signature = self._pid_signature.get(pid)
        if signature is None:
            signature = frozenset(self._pid_services.get(pid, ()))
            self._pid_signature[pid] = signature
        return signature

    def reachable_services(self, signature: FrozenSet[str]) -> FrozenSet[str]:
        """Union of services conflicting with any member of ``signature``.

        Members must be interned names.  Memoised per signature; the
        memo self-clears when interning a new service extends adjacency
        rows, so entries never go stale."""
        reachable = self._reach_memo.get(signature)
        if reachable is None:
            union: Set[str] = set()
            for name in signature:
                union |= self._adj[name]
            reachable = frozenset(union)
            self._reach_memo[signature] = reachable
        return reachable

    def processes_conflicting_with(self, targets: FrozenSet[str]) -> Set[str]:
        """Processes with an effective event on a service that conflicts
        with a member of ``targets`` (interned names).

        The adjacency is symmetric, so these are exactly the processes
        whose signature's :meth:`reachable_services` meets ``targets``
        — found through the service index, at a cost proportional to
        the conflicting processes rather than to every process ever
        recorded.  Position lists emptied by :meth:`remove_event` mean
        "no effective event any more" and are skipped."""
        found: Set[str] = set()
        for name in self.reachable_services(targets):
            per_pid = self._svc_index.get(name)
            if per_pid:
                found.update(
                    pid for pid, positions in per_pid.items() if positions
                )
        return found

    def set_forward(self, pid: str, services: FrozenSet[str]) -> None:
        """``pid``'s completion would now run ``services`` (interned;
        empty: nothing, or ``pid`` terminated).  Its sources are found
        again only when they changed."""
        if self.forward.get(pid, frozenset()) == services:
            return
        for service in self.forward.pop(pid, ()):
            self._holders[service].discard(pid)
        if not services:
            self.sources.pop(pid, None)
            return
        self.forward[pid] = services
        for service in services:
            self._holders.setdefault(service, set()).add(pid)
        found = self.processes_conflicting_with(services)
        found.discard(pid)
        self.sources[pid] = found

    def potential_edges(self) -> Set[Tuple[str, str]]:
        """``src → dst`` for every source of ``dst`` not already ordered
        before it by a recorded edge.  A process whose service set moved
        is re-tested first, against the processes holding a forward
        service that conflicts with one it gained or lost."""
        for src in self._moved_rows:
            signature = self.service_signature(src)
            affected: Set[str] = set()
            for service in self._rows.get(src, frozenset()) ^ signature:
                for target in self._adj[service]:
                    affected |= self._holders.get(target, set())
            self._rows[src] = signature
            affected.discard(src)
            reachable = self.reachable_services(signature)
            for dst in affected:
                if reachable.isdisjoint(self.forward[dst]):
                    self.sources[dst].discard(src)
                else:
                    self.sources[dst].add(src)
        self._moved_rows.clear()
        return {
            (src, dst)
            for dst, sources in self.sources.items()
            for src in sources
            if dst not in self._out[src]
        }

    def order_permits(
        self, new_edges: Iterable[Tuple[str, str]]
    ) -> bool:
        """True iff a valid order exists and every hypothetical edge goes
        strictly forward in it — then adding them all cannot close a
        cycle.  ``False`` is merely "not certified" (caller falls back)."""
        if not self._ensure_order():
            return False
        ord_map = self._ord
        for source, target in new_edges:
            source_pos = ord_map.get(source)
            target_pos = ord_map.get(target)
            if source_pos is None or target_pos is None:
                return False
            if source_pos >= target_pos:
                return False
        return True

    def has_path(self, source: str, target: str) -> bool:
        """Reachability ``source ↝ target`` over the current edges."""
        if source not in self._out or target not in self._out:
            return False
        pruned = self._ensure_order()
        ord_map = self._ord
        if pruned and ord_map[source] >= ord_map[target]:
            # In a valid topological order every path goes strictly
            # forward; this also rules out source == target (a self-path
            # would need a cycle).
            return False
        limit = ord_map[target] if pruned else None
        seen: Set[str] = set()
        stack = list(self._out[source])
        while stack:
            node = stack.pop()
            if node == target:
                return True
            if node in seen:
                continue
            seen.add(node)
            for successor in self._out[node]:
                if successor in seen:
                    continue
                if limit is not None and ord_map[successor] > limit:
                    continue
                stack.append(successor)
        return False

    def order_is_valid(self) -> bool:
        """Whether a certified topological order currently exists."""
        return self._ensure_order()

    def order_positions(self) -> Dict[str, int]:
        """The current topological positions (only when valid)."""
        return dict(self._ord)
