"""The structured trace bus and its sinks.

A :class:`TraceBus` assigns sequence numbers and sim-clock timestamps
to :class:`~repro.obs.events.TraceEvent` records and fans them out to
sinks.  The contract every instrumented call site follows:

    trace = self._trace
    if trace is not None and trace.enabled:
        trace.emit("deferred", process=pid, activity=name, rule=rule)

i.e. *no* event, payload dict or string is constructed unless a sink is
actually attached — tracing disabled costs one attribute test on the
hot path (verified by the X12 benchmark).

Call sites holding a *maybe-bus* (an optional, possibly foreign object)
use :func:`tracing` instead of hand-rolled ``getattr`` guards:

    bus = tracing(self.trace)
    if bus is not None:
        bus.emit("shard_kill", shard=shard_id)

:meth:`TraceBus.emit` returns the emitted event's sequence number, which
doubles as a causal anchor: a later event naming it in ``data["cause"]``
declares a happens-before edge (the span DAG the critical-path analysis
and the Perfetto flow arrows are built from).
"""

from __future__ import annotations

import json
import logging
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.obs.events import EVENT_CATEGORIES, TraceEvent

__all__ = ["TraceBus", "MemorySink", "JsonlSink", "LoggingSink", "tracing"]


def tracing(trace: Optional[Any]) -> Optional["TraceBus"]:
    """The bus iff ``trace`` is an enabled trace bus, else ``None``.

    The one guard for every instrumented call site that holds an
    optional (possibly duck-typed) trace object: emission code runs
    exactly when ``tracing(trace)`` returns non-``None``, and a bus
    without sinks costs the same as no bus at all.
    """
    if trace is not None and getattr(trace, "enabled", False):
        return trace
    return None


class TraceBus:
    """Fan-out point for trace events.

    ``enabled`` is true exactly when at least one sink is subscribed;
    emitters guard on it so a bus without sinks behaves like no bus.
    Timestamps come from an attached simulation clock (any object with
    a ``now`` attribute, e.g. :class:`repro.sim.clock.VirtualClock`) and
    default to ``0.0`` before one is attached.
    """

    __slots__ = ("enabled", "_sinks", "_clock", "_seq")

    def __init__(self, clock: Optional[Any] = None) -> None:
        self.enabled = False
        self._sinks: List[Any] = []
        self._clock = clock
        self._seq = 0

    # -- wiring -------------------------------------------------------
    def subscribe(self, sink: Any) -> Any:
        """Attach a sink (enabling the bus) and return it."""
        self._sinks.append(sink)
        self.enabled = True
        return sink

    def unsubscribe(self, sink: Any) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)
        self.enabled = bool(self._sinks)

    def attach_clock(self, clock: Any) -> None:
        """Timestamp subsequent events from ``clock.now`` (sim time)."""
        self._clock = clock

    def now(self) -> float:
        clock = self._clock
        if clock is None:
            return 0.0
        return float(clock.now)

    # -- emission -----------------------------------------------------
    def emit(
        self,
        kind: str,
        process: Optional[str] = None,
        activity: Optional[str] = None,
        **data: Any,
    ) -> Optional[int]:
        """Emit one event; returns its ``seq`` (a causal anchor).

        Callers must guard on ``enabled`` first; a disabled bus returns
        ``None`` without constructing anything.
        """
        if not self.enabled:
            return None
        seq = self._seq
        event = TraceEvent(
            seq,
            self.now(),
            kind,
            EVENT_CATEGORIES[kind],
            process,
            activity,
            data,
        )
        self._seq = seq + 1
        for sink in self._sinks:
            sink.handle(event)
        return seq

    def emit_payload(self, kind: str, payload: Dict[str, Any]) -> Optional[int]:
        """Emit from a listener-style payload dict; returns the ``seq``.

        Used by the scheduler's ``_notify`` bridge: ``process`` and
        ``activity`` keys become correlation ids, everything else is
        the event payload.  The caller's dict is not mutated.
        """
        if not self.enabled:
            return None
        data = dict(payload)
        process = data.pop("process", None)
        activity = data.pop("activity", None)
        seq = self._seq
        event = TraceEvent(
            seq,
            self.now(),
            kind,
            EVENT_CATEGORIES[kind],
            process,
            activity,
            data,
        )
        self._seq = seq + 1
        for sink in self._sinks:
            sink.handle(event)
        return seq

    def close(self) -> None:
        """Close all sinks (flushes file-backed ones)."""
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


class MemorySink:
    """Keeps events in memory (optionally a bounded ring)."""

    def __init__(self, maxlen: Optional[int] = None) -> None:
        self.events: Deque[TraceEvent] = deque(maxlen=maxlen)

    def handle(self, event: TraceEvent) -> None:
        self.events.append(event)

    def records(self) -> List[Dict[str, Any]]:
        """The captured events as exported-JSONL-shaped dicts."""
        return [event.to_dict() for event in self.events]

    def __len__(self) -> int:
        return len(self.events)


class JsonlSink:
    """Writes one JSON object per line to a file."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = open(path, "w", encoding="utf-8")

    def handle(self, event: TraceEvent) -> None:
        self._handle.write(json.dumps(event.to_dict(), separators=(",", ":")))
        self._handle.write("\n")

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class LoggingSink:
    """Bridges trace events onto the stdlib :mod:`logging` logger
    ``repro.trace``.

    The ``repro`` package logger carries a :class:`logging.NullHandler`,
    so nothing is printed unless the embedding application configures
    logging — the library never warns about missing handlers.
    """

    def __init__(
        self,
        level: int = logging.DEBUG,
        formatter: Optional[Callable[[TraceEvent], str]] = None,
    ) -> None:
        self.logger = logging.getLogger("repro.trace")
        self.level = level
        self.formatter = formatter

    def handle(self, event: TraceEvent) -> None:
        if not self.logger.isEnabledFor(self.level):
            return
        if self.formatter is not None:
            message = self.formatter(event)
        else:
            who = event.process or "-"
            if event.activity:
                who = f"{who}/{event.activity}"
            message = f"t={event.ts:.3f} {event.kind} {who} {event.data}"
        self.logger.log(self.level, message)
