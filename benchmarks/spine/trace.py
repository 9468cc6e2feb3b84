"""From-outside span tracing: class-level wrappers around public calls.

``Tracer.install()`` replaces each entry point below with a wrapper that
records one span per call — name, start, end, parent span and one probed
argument (the process instance id where the call carries one, so the
spans of one process share an identifier) — onto an in-memory list with
a parent stack.  ``remove()`` puts the originals back.  Nothing inside
``src/`` knows about it; wall-clock spans inside ``obs/critpath.py`` are
a later issue.

A layer's self time is the sum over its spans of duration minus the
children's durations, so the layer rows add up to the root span exactly.
"""

from __future__ import annotations

import json
import os
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.scheduler import TransactionalProcessScheduler
from repro.core.sergraph import IncrementalSerializationGraph
from repro.fed.federation import Federation
from repro.fed.messages import FederationNetwork
from repro.fed.runner import FederationRunner
from repro.fed.twopc import CrossShardCoordinator, ShardCommitAgent
from repro.resilience import ResilienceManager
from repro.sim.runner import SimulationRunner
from repro.subsystems import recovery
from repro.subsystems.backend import MemoryBackend, SqliteBackend
from repro.subsystems.subsystem import Subsystem
from repro.subsystems.twophase import TwoPhaseCoordinator
from repro.subsystems.wal import FileWAL, InMemoryWAL

__all__ = ["ENTRY_POINTS", "LAYERS", "Tracer", "LayerTable"]

Probe = Callable[[tuple, dict], object]


def _pid_arg(args: tuple, kwargs: dict) -> object:
    return args[1] if len(args) > 1 else None


def _process_arg(args: tuple, kwargs: dict) -> object:
    process = args[1] if len(args) > 1 else kwargs.get("process")
    return getattr(process, "process_id", None)


def _wal_size(args: tuple, kwargs: dict) -> object:
    """Log size just before a checkpoint compacts it away."""
    path = getattr(args[0], "path", None)
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def _entries(layer, owner, names, probes=None):
    probes = probes or {}
    return [(layer, owner, name, probes.get(name)) for name in names]


#: ``(layer, owner class or module, attribute, probe)``.
#: ``ConflictRelation.conflicts`` is too hot to wrap: it is counted (via
#: the public ``perf_snapshot()``), not timed.
ENTRY_POINTS: List[Tuple[str, object, str, Optional[Probe]]] = [
    *_entries("sim.runner", SimulationRunner, ["run"]),
    *_entries("fed.runner", FederationRunner, ["run"]),
    *_entries(
        "core.scheduler",
        TransactionalProcessScheduler,
        [
            "submit",
            "step_instance",
            "resolve_stall",
            "dispatch_order",
            "all_terminated",
            "history",
        ],
        {"submit": _process_arg, "step_instance": _pid_arg},
    ),
    *_entries(
        "core.admission",
        TransactionalProcessScheduler,
        ["offer", "pump_admission", "shed"],
        {"offer": _process_arg, "shed": _pid_arg},
    ),
    *_entries(
        "core.sergraph",
        IncrementalSerializationGraph,
        [
            "add_event",
            "remove_event",
            "order_permits",
            "has_path",
            "conflicting_events",
            "conflicting_processes_after",
            "rebuild",
        ],
    ),
    *_entries(
        "subsystems.subsystem",
        Subsystem,
        ["invoke", "commit_prepared", "rollback_prepared"],
    ),
    *_entries(
        "subsystems.wal",
        FileWAL,
        ["append", "sync", "checkpoint"],
        {"checkpoint": _wal_size},
    ),
    *_entries("subsystems.wal", InMemoryWAL, ["append", "checkpoint"]),
    *_entries("subsystems.backend", SqliteBackend, ["apply", "get"]),
    *_entries("subsystems.backend", MemoryBackend, ["apply", "get"]),
    *_entries("subsystems.twophase", TwoPhaseCoordinator, ["commit_group"]),
    *_entries("subsystems.recovery", recovery, ["recover", "analyze_wal"]),
    *_entries(
        "fed.federation",
        Federation,
        [
            "submit",
            "pump",
            "foreign_blockers",
            "announce_active",
            "announce_termination",
            "merged_history",
        ],
        {"submit": _process_arg},
    ),
    *_entries("fed.twopc", CrossShardCoordinator, ["commit_group", "resend"]),
    *_entries("fed.twopc", ShardCommitAgent, ["handle", "apply_decision"]),
    *_entries(
        "fed.messages", FederationNetwork, ["request", "post", "deliver_due"]
    ),
    *_entries(
        "resilience",
        ResilienceManager,
        ["ready", "breaker_allows", "on_success", "on_failure", "next_deadline"],
    ),
]

#: Layers in table order (first appearance above).
LAYERS: List[str] = list(dict.fromkeys(entry[0] for entry in ENTRY_POINTS))

#: One recorded call: (name index, start ns, end ns, parent span, probed arg).
Span = Tuple[int, int, int, int, object]


class Tracer:
    """Installs the wrappers for one pass and collects its spans."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, original, probe: Optional[Probe]):
        key = len(self.names)
        self.names.append(f"{layer}.{name}")
        self.layers.append(layer)
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            arg = probe(args, kwargs) if probe is not None else None
            stack.append(index)
            start = perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (key, start, end, parent, arg)

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, owner, name, probe in ENTRY_POINTS:
            original = vars(owner)[name]
            setattr(owner, name, self._wrap(layer, name, original, probe))
            self._saved.append((owner, name, original))
        return self

    def remove(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.remove()

    @staticmethod
    def installed() -> List[str]:
        """Entry points that currently carry a wrapper (should be none)."""
        return [
            f"{layer}.{name}"
            for layer, owner, name, _ in ENTRY_POINTS
            if hasattr(vars(owner)[name], "__wrapped__")
        ]

    # -- reading the spans back ------------------------------------------

    def write_chrome_trace(self, path: str) -> None:
        """Spans as a Chrome-trace (Perfetto-loadable) JSON, written once."""
        origin = min(
            (span[1] for span in self.spans if span is not None), default=0
        )
        events = []
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            key, start, end, parent, arg = span
            args: Dict[str, object] = {"span": index, "parent": parent}
            if arg is not None:
                args["arg"] = arg
            events.append(
                {
                    "name": self.names[key],
                    "cat": self.layers[key],
                    "ph": "X",
                    "ts": (start - origin) / 1000.0,
                    "dur": (end - start) / 1000.0,
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


class LayerTable:
    """Per-layer calls and self time inside the first ``root_name`` span."""

    def __init__(self, tracer: Tracer, root_name: str) -> None:
        spans = tracer.spans
        names = tracer.names
        self.names = names
        root = next(
            (
                index
                for index, span in enumerate(spans)
                if span is not None and names[span[0]] == root_name
            ),
            None,
        )
        if root is None:
            raise RuntimeError(f"no {root_name!r} span was recorded")
        root_end = spans[root][2]  # type: ignore[index]
        self.root_ns = root_end - spans[root][1]  # type: ignore[index]
        # Spans are appended at call time, so the root's descendants are
        # the contiguous run of later spans that started before it ended.
        last = root
        while (
            last + 1 < len(spans)
            and spans[last + 1] is not None
            and spans[last + 1][1] < root_end  # type: ignore[index]
        ):
            last += 1
        self.inside: List[Span] = spans[root:last + 1]  # type: ignore[assignment]
        children = [0] * len(self.inside)
        for key, start, end, parent, _ in self.inside[1:]:
            children[parent - root] += end - start
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.calls_by_name: Dict[str, int] = {}
        self.durations_by_name: Dict[str, List[int]] = {}
        for offset, (key, start, end, _, _) in enumerate(self.inside):
            layer = tracer.layers[key]
            self.calls[layer] += 1
            self.self_ns[layer] += (end - start) - children[offset]
            name = names[key]
            self.calls_by_name[name] = self.calls_by_name.get(name, 0) + 1
            self.durations_by_name.setdefault(name, []).append(end - start)

    def count(self, name: str) -> int:
        return self.calls_by_name.get(name, 0)

    def durations_ns(self, name: str) -> List[int]:
        return self.durations_by_name.get(name, [])

    def probed(self, name: str) -> List[object]:
        return [
            span[4] for span in self.inside if self.names[span[0]] == name
        ]
