"""Inter-shard messaging with seeded fault injection.

The federation's shards communicate over two primitives:

* :meth:`FederationNetwork.request` — an **unreliable RPC** used by the
  cross-shard 2PC and the cooperative termination protocol.  A request
  can fail (partition, dead shard, injected drop, open link breaker) in
  which case the caller gets ``None`` and must treat the peer as
  unreachable; an injected *duplicate* invokes the handler twice,
  exercising the receiver's idempotence.
* :meth:`FederationNetwork.post` — a **reliable-eventual channel** used
  by the serialization-graph edge exchange.  Posted messages are
  delivered by :meth:`deliver_due` once their (possibly fault-delayed)
  due time passes and the link is up; drops and partitions translate
  into retransmission, never loss — conflict knowledge may be late but
  is never silently missing, which is what makes deferral-based gating
  safe.

Faults are injected by :class:`MessageFaultPolicy` in the spirit of
:mod:`repro.subsystems.failures`: per-message probabilities for drop /
delay / duplicate plus explicit named partitions, all deterministic
given the seed.  Every directed link carries a
:class:`~repro.resilience.breaker.CircuitBreaker` so repeated failures
fast-fail (PR 1's breakers reused for inter-shard links).

When a trace bus is attached, every message carries a **trace context**:
the sender emits ``msg_send`` and stamps its sequence number into the
payload under ``_ctx``; the delivery emits ``msg_recv`` with
``cause=<that seq>``.  The pair is the cross-shard happens-before edge
the span DAG (and the Perfetto flow arrows) hang 2PC vote/decision
rounds and edge-exchange propagation on.  With tracing disabled the
payload is never copied for stamping and no context key exists.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.obs.bus import tracing
from repro.resilience.breaker import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
)

__all__ = [
    "Envelope",
    "MessageFaultPolicy",
    "FederationNetwork",
]


@dataclass
class Envelope:
    """One queued reliable-eventual message."""

    seq: int
    src: str
    dst: str
    payload: Dict[str, Any]
    due: float


class MessageFaultPolicy:
    """Seeded drop / delay / duplicate / partition injection.

    ``partitions`` maps an unordered shard pair to the virtual time the
    partition heals (``None`` = until explicitly healed).  Rates are
    per-message probabilities; injected counts are kept per kind.
    """

    def __init__(
        self,
        drop_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay_span: Tuple[float, float] = (0.5, 2.0),
        duplicate_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        for name, rate in (
            ("drop_rate", drop_rate),
            ("delay_rate", delay_rate),
            ("duplicate_rate", duplicate_rate),
        ):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        self.drop_rate = drop_rate
        self.delay_rate = delay_rate
        self.delay_span = delay_span
        self.duplicate_rate = duplicate_rate
        self._rng = random.Random(seed)
        self._partitions: Dict[FrozenSet[str], Optional[float]] = {}
        #: Faults injected, by kind.
        self.injected: Dict[str, int] = {
            "drop": 0,
            "delay": 0,
            "duplicate": 0,
            "partition": 0,
        }

    # -- partitions ----------------------------------------------------

    def partition(self, a: str, b: str, until: Optional[float] = None) -> None:
        """Cut the link between ``a`` and ``b`` (healing at ``until``)."""
        self._partitions[frozenset((a, b))] = until
        self.injected["partition"] += 1

    def heal(self, a: str, b: str) -> None:
        self._partitions.pop(frozenset((a, b)), None)

    def partitioned(self, a: str, b: str, now: float) -> bool:
        key = frozenset((a, b))
        until = self._partitions.get(key, _MISSING)
        if until is _MISSING:
            return False
        if until is not None and now >= until:
            del self._partitions[key]
            return False
        return True

    def any_partition(self, now: float) -> bool:
        """Is any link cut at ``now``?"""
        return any(
            until is None or now < until
            for until in self._partitions.values()
        )

    # -- per-message verdicts ------------------------------------------

    def drop(self) -> bool:
        if self.drop_rate and self._rng.random() < self.drop_rate:
            self.injected["drop"] += 1
            return True
        return False

    def delay(self) -> float:
        if self.delay_rate and self._rng.random() < self.delay_rate:
            self.injected["delay"] += 1
            return self._rng.uniform(*self.delay_span)
        return 0.0

    def duplicate(self) -> bool:
        if self.duplicate_rate and self._rng.random() < self.duplicate_rate:
            self.injected["duplicate"] += 1
            return True
        return False


_MISSING = object()


#: Synchronous RPC handler: payload in, response out.
RpcHandler = Callable[[Dict[str, Any]], Dict[str, Any]]
#: Asynchronous inbox handler for edge-exchange deliveries.
InboxHandler = Callable[[str, Dict[str, Any]], None]


class FederationNetwork:
    """Message fabric between scheduler shards.

    Tracks which shards are up, applies the fault policy to every
    message, and guards each *directed* link with a circuit breaker so
    a persistently unreachable peer is fast-failed instead of hammered.
    """

    #: Retransmission interval for dropped reliable-eventual messages.
    RETRANSMIT = 0.5
    #: Every directed link's circuit breaker.
    LINK_BREAKER = BreakerConfig(failure_threshold=3, reset_timeout=2.0)

    def __init__(self, policy: Optional[MessageFaultPolicy] = None) -> None:
        self.policy = policy if policy is not None else MessageFaultPolicy()
        self._breakers: Dict[Tuple[str, str], CircuitBreaker] = {}
        self._rpc: Dict[str, RpcHandler] = {}
        self._inbox: Dict[str, InboxHandler] = {}
        self._down: set = set()
        self._pending: List[Envelope] = []
        #: shard -> undelivered messages addressed to it.
        self._inbound: Dict[str, int] = {}
        #: Told the destination whenever a post to it or a delivery to
        #: it moves :meth:`pending_inbound` (a driver's wake-up push).
        self.on_inbound: Callable[[str], None] = lambda shard_id: None
        self._seq = itertools.count(1)
        #: Trace bus, set by the :class:`~repro.fed.federation.Federation`
        #: that owns this network when it is traced.
        self.trace: Optional[object] = None
        #: Delivery/fault counters surfaced by the harness.
        self.requests_sent = 0
        self.requests_failed = 0
        self.posts_delivered = 0
        self.duplicates_delivered = 0

    # -- membership ----------------------------------------------------

    def bind(
        self,
        shard_id: str,
        rpc: Optional[RpcHandler] = None,
        inbox: Optional[InboxHandler] = None,
    ) -> None:
        if rpc is not None:
            self._rpc[shard_id] = rpc
        if inbox is not None:
            self._inbox[shard_id] = inbox

    def mark_down(self, shard_id: str) -> None:
        self._down.add(shard_id)

    def mark_up(self, shard_id: str) -> None:
        self._down.discard(shard_id)

    def breaker(self, src: str, dst: str) -> CircuitBreaker:
        key = (src, dst)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(f"{src}->{dst}", self.LINK_BREAKER)
            self._breakers[key] = breaker
        return breaker

    def reachable(self, src: str, dst: str, now: float) -> bool:
        """Link health check *without* consuming a breaker probe."""
        if dst in self._down or src in self._down:
            return False
        if self.policy.partitioned(src, dst, now):
            return False
        return True

    def all_links_up(self, now: float) -> bool:
        """No shard is down and no link is cut at ``now``:
        :meth:`reachable` holds for every pair."""
        return not self._down and not self.policy.any_partition(now)

    def next_reopen(self) -> Optional[float]:
        """Earliest open-breaker reopen time (a driver wake-up hint)."""
        times = [
            breaker.reopen_at
            for breaker in self._breakers.values()
            if breaker.state is BreakerState.OPEN
        ]
        return min(times) if times else None

    # -- unreliable RPC (2PC / termination protocol) -------------------

    def request(
        self, src: str, dst: str, payload: Dict[str, Any], now: float
    ) -> Optional[Dict[str, Any]]:
        """One synchronous RPC; ``None`` means the peer is unreachable."""
        self.requests_sent += 1
        bus = tracing(self.trace)
        op = str(payload.get("op", "")) if bus is not None else ""
        ctx = (
            bus.emit("msg_send", channel="rpc", op=op, src=src, dst=dst)
            if bus is not None
            else None
        )
        breaker = self.breaker(src, dst)
        if not self.reachable(src, dst, now):
            self._fault("unreachable", src, dst, payload)
            breaker.record_failure(now)
            self.requests_failed += 1
            return None
        if not breaker.allow(now):
            self._fault("breaker_open", src, dst, payload)
            self.requests_failed += 1
            return None
        if self.policy.drop():
            self._fault("drop", src, dst, payload)
            breaker.record_failure(now)
            self.requests_failed += 1
            return None
        handler = self._rpc.get(dst)
        if handler is None:
            breaker.record_failure(now)
            self.requests_failed += 1
            return None
        # Delays on the RPC path only add latency bookkeeping — the
        # discrete-event driver charges them to the run, not the caller.
        self.policy.delay()
        message = dict(payload)
        if ctx is not None:
            message["_ctx"] = ctx
            bus.emit(
                "msg_recv",
                channel="rpc",
                op=op,
                src=src,
                dst=dst,
                cause=ctx,
            )
        response = handler(message)
        if self.policy.duplicate():
            # The duplicate reaches the same handler again; the first
            # response is the one the caller observes.
            self._fault("duplicate", src, dst, payload)
            self.duplicates_delivered += 1
            if ctx is not None:
                bus.emit(
                    "msg_recv",
                    channel="rpc",
                    op=op,
                    src=src,
                    dst=dst,
                    cause=ctx,
                    duplicate=True,
                )
            handler(dict(message))
        breaker.record_success(now)
        return response

    # -- reliable-eventual channel (edge exchange) ---------------------

    def post(
        self, src: str, dst: str, payload: Dict[str, Any], now: float
    ) -> None:
        """Queue a message for eventual delivery (never lost)."""
        due = now + self.policy.delay()
        message = dict(payload)
        bus = tracing(self.trace)
        if bus is not None:
            message["_ctx"] = bus.emit(
                "msg_send",
                channel="post",
                kind_=str(payload.get("kind", "")),
                src=src,
                dst=dst,
            )
        self._pending.append(
            Envelope(next(self._seq), src, dst, message, due)
        )
        self._inbound[dst] = self._inbound.get(dst, 0) + 1
        self.on_inbound(dst)

    def pending_inbound(self, shard_id: str) -> int:
        """Undelivered messages addressed to ``shard_id``."""
        return self._inbound.get(shard_id, 0)

    def next_due(self) -> Optional[float]:
        if not self._pending:
            return None
        return min(env.due for env in self._pending)

    def deliver_due(self, now: float) -> int:
        """Deliver every due message whose link is up; returns count.

        A drop fault on delivery retransmits (due pushed out) instead of
        losing the message; a duplicate fault invokes the inbox twice.
        """
        due = self.next_due()
        if due is None or due > now:
            return 0
        delivered = 0
        remaining: List[Envelope] = []
        for env in sorted(self._pending, key=lambda e: (e.due, e.seq)):
            if env.due > now or not self.reachable(env.src, env.dst, now):
                remaining.append(env)
                continue
            if self.policy.drop():
                self._fault("drop", env.src, env.dst, env.payload)
                env.due = now + self.RETRANSMIT
                remaining.append(env)
                continue
            handler = self._inbox.get(env.dst)
            if handler is not None:
                self._trace_recv(env)
                handler(env.src, dict(env.payload))
                if self.policy.duplicate():
                    self._fault("duplicate", env.src, env.dst, env.payload)
                    self.duplicates_delivered += 1
                    self._trace_recv(env, duplicate=True)
                    handler(env.src, dict(env.payload))
            delivered += 1
            self.posts_delivered += 1
            self._inbound[env.dst] -= 1
            self.on_inbound(env.dst)
        self._pending = remaining
        return delivered

    # -- instrumentation -----------------------------------------------

    def _trace_recv(self, env: Envelope, duplicate: bool = False) -> None:
        bus = tracing(self.trace)
        if bus is None:
            return
        data: Dict[str, Any] = {
            "channel": "post",
            "kind_": str(env.payload.get("kind", "")),
            "src": env.src,
            "dst": env.dst,
        }
        ctx = env.payload.get("_ctx")
        if ctx is not None:
            data["cause"] = ctx
        if duplicate:
            data["duplicate"] = True
        bus.emit("msg_recv", **data)

    def _fault(
        self, kind: str, src: str, dst: str, payload: Dict[str, Any]
    ) -> None:
        bus = tracing(self.trace)
        if bus is not None:
            bus.emit(
                "msg_fault",
                fault=kind,
                src=src,
                dst=dst,
                op=str(payload.get("op", "")),
            )

    def counters(self) -> Dict[str, int]:
        return {
            "requests_sent": self.requests_sent,
            "requests_failed": self.requests_failed,
            "posts_delivered": self.posts_delivered,
            "duplicates_delivered": self.duplicates_delivered,
            "breaker_trips": sum(b.trips for b in self._breakers.values()),
            "breaker_fast_fails": sum(
                b.fast_fails for b in self._breakers.values()
            ),
            **{f"fault_{k}": v for k, v in self.policy.injected.items()},
        }
