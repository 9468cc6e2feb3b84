"""Service definitions provided by transactional subsystems (paper §3.1).

Each subsystem provides a limited set of transactional services — the
global service alphabet ``Â`` — that processes invoke as activities.  A
:class:`Service` couples a name with a handler that runs inside a local
transaction (through the :class:`ServiceContext`), plus metadata used by
the theory layer: declared read/write sets (from which semantic
conflicts are derived) and effect-freeness.

Factory helpers build the service patterns the scenarios need:

* :func:`write_service` / :func:`read_service` — plain state access;
* :func:`counter_service` — increment with a decrementing compensation
  (the classic semantically commuting operation pair);
* :func:`append_service` — append to a list with a removing
  compensation;
* :func:`flag_service` — set a flag with an unsetting compensation;
* :func:`noop_service` — effect-free placeholder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.core.conflict import ReadWriteConflicts
from repro.subsystems.transaction import LocalTransaction

__all__ = [
    "ServiceContext",
    "Service",
    "ServicePair",
    "write_service",
    "read_service",
    "counter_service",
    "append_service",
    "flag_service",
    "noop_service",
    "provision_noop_services",
    "conflicts_from_services",
]


class ServiceContext:
    """Execution context handed to a service handler.

    Wraps the local transaction and the invocation parameters; all state
    access must go through :meth:`read` / :meth:`write` /
    :meth:`increment` so atomicity and locking are preserved.
    """

    def __init__(
        self,
        transaction: LocalTransaction,
        params: Mapping[str, object],
        subsystem_name: str,
    ) -> None:
        self._transaction = transaction
        self.params = dict(params)
        self.subsystem_name = subsystem_name

    def read(self, key: str, default: object = None) -> object:
        return self._transaction.read(key, default)

    def write(self, key: str, value: object) -> None:
        self._transaction.write(key, value)

    def increment(self, key: str, amount: float = 1) -> float:
        return self._transaction.increment(key, amount)

    def param(self, name: str, default: object = None) -> object:
        return self.params.get(name, default)

    @property
    def txn_id(self) -> str:
        """Identifier of the enclosing local transaction.

        Unique per invocation — handlers that need collision-free keys
        (ledger-style appends) derive them from it.
        """
        return self._transaction.txn_id


Handler = Callable[[ServiceContext], object]


@dataclass(frozen=True)
class Service:
    """A transactional service of the global alphabet ``Â``.

    ``reads``/``writes`` declare the touched resources for semantic
    conflict derivation (Definition 6 via read/write overlap);
    ``effect_free`` marks activities removable under the reduction's
    effect-free rule.
    """

    name: str
    handler: Handler
    reads: FrozenSet[str] = frozenset()
    writes: FrozenSet[str] = frozenset()
    effect_free: bool = False

    def run(self, context: ServiceContext) -> object:
        return self.handler(context)


@dataclass(frozen=True)
class ServicePair:
    """A compensatable service together with its compensation.

    Registering the pair on a subsystem makes the forward service
    compensatable in the Definition-2 sense: executing the compensation
    right after the forward service is effect-free on the store.
    """

    forward: Service
    compensation: Service


def write_service(
    name: str,
    key: str,
    value: object = None,
    value_param: Optional[str] = None,
) -> Service:
    """Write ``value`` (or the named parameter) to ``key``."""

    def handler(context: ServiceContext) -> object:
        payload = context.param(value_param) if value_param else value
        context.write(key, payload)
        return payload

    return Service(
        name=name, handler=handler, writes=frozenset({key})
    )


def read_service(name: str, key: str) -> Service:
    """Read ``key``; effect-free by construction."""

    def handler(context: ServiceContext) -> object:
        return context.read(key)

    return Service(
        name=name, handler=handler, reads=frozenset({key}), effect_free=True
    )


def counter_service(
    name: str,
    key: str,
    amount: float = 1,
    compensation_name: Optional[str] = None,
) -> ServicePair:
    """Increment ``key`` by ``amount`` with a decrementing compensation."""

    def forward(context: ServiceContext) -> object:
        return context.increment(key, amount)

    def inverse(context: ServiceContext) -> object:
        return context.increment(key, -amount)

    keys = frozenset({key})
    return ServicePair(
        forward=Service(name=name, handler=forward, reads=keys, writes=keys),
        compensation=Service(
            name=compensation_name or name + "~inv",
            handler=inverse,
            reads=keys,
            writes=keys,
        ),
    )


def append_service(
    name: str,
    key: str,
    item_param: str = "item",
    compensation_name: Optional[str] = None,
) -> ServicePair:
    """Append a parameter to the list at ``key``; compensation removes it."""

    def forward(context: ServiceContext) -> object:
        item = context.param(item_param)
        current = list(context.read(key, []) or [])  # type: ignore[arg-type]
        current.append(item)
        context.write(key, current)
        return item

    def inverse(context: ServiceContext) -> object:
        item = context.param(item_param)
        current = list(context.read(key, []) or [])  # type: ignore[arg-type]
        if item in current:
            current.reverse()
            current.remove(item)
            current.reverse()
        context.write(key, current)
        return item

    keys = frozenset({key})
    return ServicePair(
        forward=Service(name=name, handler=forward, reads=keys, writes=keys),
        compensation=Service(
            name=compensation_name or name + "~inv",
            handler=inverse,
            reads=keys,
            writes=keys,
        ),
    )


def flag_service(
    name: str,
    key: str,
    value: object = True,
    reset: object = False,
    compensation_name: Optional[str] = None,
) -> ServicePair:
    """Set ``key`` to ``value``; compensation restores ``reset``."""

    def forward(context: ServiceContext) -> object:
        context.write(key, value)
        return value

    def inverse(context: ServiceContext) -> object:
        context.write(key, reset)
        return reset

    keys = frozenset({key})
    return ServicePair(
        forward=Service(name=name, handler=forward, writes=keys),
        compensation=Service(
            name=compensation_name or name + "~inv",
            handler=inverse,
            writes=keys,
        ),
    )


def noop_service(name: str) -> Service:
    """A service without any effect (useful for abstract scenarios)."""
    return Service(name=name, handler=lambda context: None, effect_free=True)


def provision_noop_services(process, subsystem_for) -> None:
    """Register no-op services for activities lacking a provider.

    Abstract scenarios (the paper's figures) declare activities with
    conflicts but without real services; provisioning keeps them
    runnable without boilerplate.  ``subsystem_for(definition,
    create=True)`` names (or creates) the subsystem of an activity.
    """
    for definition in process.activities():
        subsystem = subsystem_for(definition, create=True)
        if not subsystem.provides(definition.service):
            subsystem.register(noop_service(definition.service))
        if definition.is_compensatable:
            inverse = definition.compensation_service
            if not subsystem.provides(inverse):
                subsystem.register(noop_service(inverse))


def conflicts_from_services(services: Iterable[Service]) -> ReadWriteConflicts:
    """Derive the semantic conflict relation from service access sets."""
    relation = ReadWriteConflicts()
    for service in services:
        relation.register(service.name, reads=service.reads, writes=service.writes)
    return relation
