"""Graph utilities over processes and schedules.

Thin, dependency-free helpers shared by the checkers, the viz module
and the tests: cycle detection, topological orders, reachability and
conflict-graph construction in explicit dictionary form (the heavier
lifting inside the schedulers uses specialised inline versions; these
are the reference implementations the property tests compare against).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.schedule import ProcessSchedule

__all__ = [
    "topological_order",
    "find_cycle",
    "reachable",
    "transitive_closure",
    "conflict_graph",
]

Graph = Dict[str, Set[str]]


def topological_order(graph: Graph) -> Optional[List[str]]:
    """Deterministic topological order, or ``None`` if cyclic."""
    nodes = set(graph)
    for targets in graph.values():
        nodes.update(targets)
    in_degree = {node: 0 for node in nodes}
    for source, targets in graph.items():
        for target in targets:
            in_degree[target] += 1
    frontier = sorted(node for node, degree in in_degree.items() if degree == 0)
    order: List[str] = []
    while frontier:
        current = frontier.pop(0)
        order.append(current)
        for target in sorted(graph.get(current, ())):
            in_degree[target] -= 1
            if in_degree[target] == 0:
                frontier.append(target)
        frontier.sort()
    if len(order) != len(nodes):
        return None
    return order


def find_cycle(graph: Graph) -> Optional[List[str]]:
    """Some elementary cycle as a node list, or ``None``."""
    visiting: Set[str] = set()
    visited: Set[str] = set()
    stack: List[str] = []

    def visit(node: str) -> Optional[List[str]]:
        visiting.add(node)
        stack.append(node)
        for target in sorted(graph.get(node, ())):
            if target in visiting:
                index = stack.index(target)
                return stack[index:] + [target]
            if target not in visited:
                found = visit(target)
                if found is not None:
                    return found
        visiting.discard(node)
        visited.add(node)
        stack.pop()
        return None

    for node in sorted(graph):
        if node not in visited:
            found = visit(node)
            if found is not None:
                return found
    return None


def reachable(graph: Graph, source: str) -> Set[str]:
    """All nodes reachable from ``source`` (exclusive of the source
    unless it lies on a cycle)."""
    seen: Set[str] = set()
    stack = list(graph.get(source, ()))
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(graph.get(current, ()))
    return seen


def transitive_closure(graph: Graph) -> Graph:
    """The reachability closure of a graph."""
    return {node: reachable(graph, node) for node in graph}


def conflict_graph(schedule: ProcessSchedule) -> Graph:
    """Process-level conflict graph of a schedule (reference version)."""
    graph: Graph = {}
    events = [event for _, event in schedule.activity_events()]
    for left_index in range(len(events)):
        left = events[left_index]
        graph.setdefault(left.process_id, set())
        for right_index in range(left_index + 1, len(events)):
            right = events[right_index]
            if left.process_id == right.process_id:
                continue
            if schedule.events_conflict(left, right):
                graph[left.process_id].add(right.process_id)
    return graph
