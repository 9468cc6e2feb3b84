"""Transactional subsystems (paper §2.3).

A transactional subsystem executes service invocations as atomic local
transactions and offers, per the paper's assumptions, *either* the
ability to compensate already committed services *or* support for a
two-phase commit protocol (prepared transactions with deferred commit).
Our subsystems offer both; which one an activity uses is decided by its
termination guarantee:

* **compensatable** activities commit their local transaction
  immediately — their compensation service undoes the effect later if
  needed;
* **pivot** and **retriable** activities are left *prepared* (``hold``)
  so the process scheduler can defer and atomically commit them through
  2PC (Lemma 1), or roll them back natively if the process becomes an
  abort victim before its pivot group hardens.

The :class:`SubsystemRegistry` routes invocations by subsystem name and
is the single integration point for the scheduler, the baselines and
the examples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.core.conflict import ConflictRelation
from repro.errors import (
    ServiceNotFoundError,
    ServiceTimeout,
    StorageFault,
    SubsystemError,
    SubsystemUnavailable,
    TransactionAborted,
)
from repro.subsystems.backend import MemoryBackend, StoreBackend
from repro.subsystems.failures import Fault, FaultKind, FailurePolicy, NoFailures
from repro.subsystems.resource import LockManager, WouldBlock
from repro.subsystems.services import (
    Service,
    ServiceContext,
    ServicePair,
    conflicts_from_services,
)
from repro.subsystems.transaction import LocalTransaction, TransactionState

__all__ = ["Invocation", "Subsystem", "SubsystemRegistry"]


@dataclass
class Invocation:
    """Result of a successful service invocation."""

    subsystem: str
    service: str
    transaction: LocalTransaction
    return_value: object
    #: Extra virtual time an injected latency spike added to the call
    #: (below the invoker's timeout — otherwise the call would have
    #: been abandoned instead of succeeding).
    latency: float = 0.0

    @property
    def txn_id(self) -> str:
        return self.transaction.txn_id

    @property
    def is_prepared(self) -> bool:
        return self.transaction.state is TransactionState.PREPARED


class Subsystem:
    """One transactional subsystem with its store, locks and services."""

    _txn_ids = itertools.count(1)

    #: Fallback virtual wait charged to a hang when the invoker set no
    #: timeout (the hang must still release eventually).
    DEFAULT_HANG_BUDGET = 10.0

    def __init__(
        self,
        name: str,
        initial_state: Optional[Mapping[str, object]] = None,
        backend: Optional[StoreBackend] = None,
    ) -> None:
        self.name = name
        #: The versioned store: in memory by default; a durable backend
        #: that already holds state keeps the disk's truth over the seed.
        self.store: StoreBackend = (
            backend if backend is not None else MemoryBackend()
        )
        if initial_state:
            self.store.seed(initial_state)
        self.locks = LockManager()
        self._services: Dict[str, Service] = {}
        self._transactions: Dict[str, LocalTransaction] = {}
        #: Virtual clock consulted for crash-stop recovery; ``None``
        #: means outages last until :meth:`restore` is called.
        self.clock = None
        #: Virtual time until which the subsystem is crash-stopped.
        self._down_until: Optional[float] = None
        #: Optional structured trace bus (wired by the scheduler's
        #: ``attach_trace``); fault injections are emitted on it.
        self.trace = None
        #: Optional observer ``(txn_id, committed) -> None`` invoked on
        #: every prepared-transaction resolution — the federation's
        #: decision ledger audits lost/duplicated 2PC outcomes with it.
        self.on_resolve = None

    def close(self) -> None:
        """Release the store backend's resources (idempotent)."""
        self.store.close()

    def __enter__(self) -> "Subsystem":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- registration ---------------------------------------------------------

    def register(self, service: Union[Service, ServicePair]) -> "Subsystem":
        """Register a service or a compensatable service pair."""
        if isinstance(service, ServicePair):
            self._register_one(service.forward)
            self._register_one(service.compensation)
        else:
            self._register_one(service)
        return self

    def _register_one(self, service: Service) -> None:
        if service.name in self._services:
            raise SubsystemError(
                f"service {service.name!r} already registered on "
                f"subsystem {self.name!r}"
            )
        self._services[service.name] = service

    def service(self, name: str) -> Service:
        try:
            return self._services[name]
        except KeyError:
            raise ServiceNotFoundError(
                f"subsystem {self.name!r} provides no service {name!r}"
            ) from None

    def services(self) -> Iterator[Service]:
        return iter(self._services.values())

    def provides(self, name: str) -> bool:
        return name in self._services

    # -- invocation --------------------------------------------------------------

    def invoke(
        self,
        service_name: str,
        params: Optional[Mapping[str, object]] = None,
        hold: bool = False,
        attempt: int = 1,
        failures: Optional[FailurePolicy] = None,
        txn_id: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Invocation:
        """Invoke a service as an atomic local transaction.

        With ``hold=True`` the transaction is *prepared* instead of
        committed — the deferred-commit mode for non-compensatable
        activities.  Raises :class:`TransactionAborted` when the
        invocation fails (injected or raised by the handler) and
        :class:`WouldBlock` when a lock conflict requires waiting; in
        both cases the transaction is rolled back and no effects remain.

        ``timeout`` is the invoker's patience in virtual time: a hang
        fault (or a latency spike at least that long) abandons the call
        with :class:`~repro.errors.ServiceTimeout`.  While the subsystem
        is crash-stopped, every invocation fails fast with
        :class:`~repro.errors.SubsystemUnavailable`.
        """
        service = self.service(service_name)
        policy = failures or NoFailures()
        self._check_available(service_name)
        identifier = txn_id or f"{self.name}/t{next(self._txn_ids)}"
        transaction = LocalTransaction(identifier, self.store, self.locks)
        self._transactions[identifier] = transaction
        latency = 0.0
        try:
            fault = policy.fault_for(service_name, attempt)
            if fault is not None:
                latency = self._apply_fault(
                    fault, service_name, attempt, timeout
                )
            context = ServiceContext(transaction, params or {}, self.name)
            value = service.run(context)
        except (TransactionAborted, WouldBlock):
            transaction.rollback()
            del self._transactions[identifier]
            raise
        except Exception as error:
            transaction.rollback()
            del self._transactions[identifier]
            raise TransactionAborted(
                f"service {service_name!r} raised {error!r}"
            ) from error
        if hold:
            transaction.prepare()
        else:
            try:
                transaction.commit()
            except StorageFault:
                # The backend failed to make the batch durable (injected
                # fsync fault, dead worker) and rolled it back; abort the
                # transaction so no locks leak — atomicity holds, the
                # invocation surfaces as an ordinary failed attempt.
                transaction.rollback()
                del self._transactions[identifier]
                raise
            del self._transactions[identifier]
        return Invocation(
            subsystem=self.name,
            service=service_name,
            transaction=transaction,
            return_value=value,
            latency=latency,
        )

    # -- fault injection ------------------------------------------------------

    def _apply_fault(
        self,
        fault: Fault,
        service_name: str,
        attempt: int,
        timeout: Optional[float],
    ) -> float:
        """Realise an injected fault; returns survivable extra latency."""
        trace = self.trace
        if trace is not None and trace.enabled:
            trace.emit(
                "fault",
                fault=fault.kind.value,
                service=service_name,
                subsystem=self.name,
                attempt=attempt,
                duration=fault.duration,
            )
        where = (
            f"{service_name!r} (attempt {attempt}) on subsystem {self.name!r}"
        )
        if fault.kind is FaultKind.ABORT:
            raise TransactionAborted(f"injected abort of {where}")
        if fault.kind is FaultKind.HANG:
            budget = timeout if timeout is not None else (
                fault.duration or self.DEFAULT_HANG_BUDGET
            )
            raise ServiceTimeout(
                f"injected hang of {where}: abandoned after {budget} "
                f"virtual time units",
                elapsed=budget,
            )
        if fault.kind is FaultKind.LATENCY:
            if timeout is not None and fault.duration >= timeout:
                raise ServiceTimeout(
                    f"injected latency spike of {fault.duration:.3f} on "
                    f"{where} exceeded the timeout of {timeout}",
                    elapsed=timeout,
                )
            return fault.duration
        if fault.kind is FaultKind.CRASH:
            # The crash-stop *kills* the in-flight transaction — a real
            # failed attempt, so retry counters advance — and downs the
            # subsystem.  Invocations arriving during the outage get the
            # transient :class:`SubsystemUnavailable` refusal instead
            # (see :meth:`_check_available`).
            self.crash_for(fault.duration)
            raise TransactionAborted(
                f"injected crash-stop of subsystem {self.name!r} killed "
                f"{where}; down for {fault.duration:.3f} virtual time units"
            )
        raise SubsystemError(  # pragma: no cover - exhaustive enum
            f"unknown fault kind {fault.kind!r}"
        )

    def _check_available(self, service_name: str) -> None:
        if self._down_until is None:
            return
        now = self.clock.now if self.clock is not None else None
        if now is not None and now >= self._down_until:
            self._down_until = None  # outage over: crash-recover
            # A killable backend really lost its process; respawn it so
            # the recovered subsystem serves from the surviving state.
            self.store.ensure_alive()
            return
        remaining = (
            self._down_until - now if now is not None else float("inf")
        )
        raise SubsystemUnavailable(
            f"subsystem {self.name!r} is crash-stopped; {service_name!r} "
            f"rejected",
            retry_after=remaining,
        )

    def crash_for(self, duration: float) -> None:
        """Crash-stop the subsystem for ``duration`` virtual time.

        Without a :attr:`clock`, the outage lasts until
        :meth:`restore` — the crash-stop-without-recovery model.
        """
        if self.clock is not None:
            until = self.clock.now + duration
            self._down_until = max(self._down_until or 0.0, until)
        else:
            self._down_until = float("inf")
        # On a killable backend the crash-stop is physical: the storage
        # worker process is really SIGKILLed.  Committed state survives
        # on disk; the outage-end/restore path respawns the worker.
        self.store.kill()

    def restore(self) -> None:
        """Bring a crash-stopped subsystem back (manual recovery)."""
        self._down_until = None
        self.store.ensure_alive()

    @property
    def is_down(self) -> bool:
        if self._down_until is None:
            return False
        now = self.clock.now if self.clock is not None else None
        return now is None or now < self._down_until

    # -- prepared transaction management -------------------------------------------

    def commit_prepared(self, txn_id: str) -> None:
        """Commit a prepared transaction (2PC phase two).

        Phase two happens *after* the coordinator durably logged the
        commit decision, so this commit must eventually succeed —
        injected fsync faults are therefore suspended here (the real
        system retries phase two until the disk heals; presumed-commit
        anchoring, Lemma 1).  A genuinely dead storage worker still
        raises :class:`~repro.errors.StorageFault` with the transaction
        left prepared: the caller respawns and retries.
        """
        transaction = self._require_transaction(txn_id)
        transaction.require_prepared()
        faults = self.store.faults
        if faults is not None:
            suspended = faults.suspended
            faults.suspended = True
            try:
                transaction.commit()
            finally:
                faults.suspended = suspended
        else:
            transaction.commit()
        del self._transactions[txn_id]
        if self.on_resolve is not None:
            self.on_resolve(txn_id, True)

    def rollback_prepared(self, txn_id: str) -> None:
        """Roll back a prepared transaction (2PC abort / victim abort)."""
        transaction = self._require_transaction(txn_id)
        transaction.require_prepared()
        transaction.rollback()
        del self._transactions[txn_id]
        if self.on_resolve is not None:
            self.on_resolve(txn_id, False)

    def is_prepared(self, txn_id: str) -> bool:
        """Whether ``txn_id`` is open here and still awaits its decision."""
        transaction = self._transactions.get(txn_id)
        return (
            transaction is not None
            and transaction.state is TransactionState.PREPARED
        )

    def redo_entry(self, txn_id: str) -> Optional[List[object]]:
        """Prepared ``txn_id``'s commit as its decision record carries it
        (:meth:`LocalTransaction.redo_entry`)."""
        return self._transactions[txn_id].redo_entry(self.name)

    def prepared_transactions(self) -> List[LocalTransaction]:
        """In-doubt transactions, e.g. to be resolved by crash recovery."""
        return [
            transaction
            for transaction in self._transactions.values()
            if transaction.state is TransactionState.PREPARED
        ]

    def _require_transaction(self, txn_id: str) -> LocalTransaction:
        try:
            return self._transactions[txn_id]
        except KeyError:
            raise SubsystemError(
                f"subsystem {self.name!r} knows no open transaction "
                f"{txn_id!r}"
            ) from None


class SubsystemRegistry:
    """Routes service invocations to subsystems by name.

    Also aggregates the semantic conflict relation over all registered
    services, which the scheduler combines with any explicitly declared
    conflicts.
    """

    def __init__(
        self,
        subsystems: Iterable[Subsystem] = (),
        backend_factory: Optional[Callable[[str], StoreBackend]] = None,
    ) -> None:
        self._subsystems: Dict[str, Subsystem] = {}
        #: ``name -> StoreBackend`` factory consulted whenever a
        #: subsystem is auto-provisioned (scheduler/baselines create
        #: subsystems on demand for services no one registered).  A
        #: :class:`~repro.subsystems.backend.BackendHub`'s
        #: ``backend_for`` is the canonical factory; ``None`` keeps the
        #: seed's in-memory default.
        self.backend_factory = backend_factory
        for subsystem in subsystems:
            self.add(subsystem)

    def provision(self, name: str) -> Subsystem:
        """Create, register and return a subsystem named ``name``,
        backed through :attr:`backend_factory` when one is set."""
        backend = (
            self.backend_factory(name)
            if self.backend_factory is not None
            else None
        )
        subsystem = Subsystem(name, backend=backend)
        self.add(subsystem)
        return subsystem

    def close(self) -> None:
        """Close every subsystem's store backend (idempotent)."""
        for subsystem in self._subsystems.values():
            subsystem.close()

    def add(self, subsystem: Subsystem) -> "SubsystemRegistry":
        if subsystem.name in self._subsystems:
            raise SubsystemError(
                f"duplicate subsystem name {subsystem.name!r}"
            )
        self._subsystems[subsystem.name] = subsystem
        return self

    def get(self, name: str) -> Subsystem:
        try:
            return self._subsystems[name]
        except KeyError:
            raise SubsystemError(f"unknown subsystem {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._subsystems

    def subsystems(self) -> Iterator[Subsystem]:
        return iter(self._subsystems.values())

    def find_provider(self, service_name: str) -> Subsystem:
        """The subsystem providing a service (names must be unique)."""
        providers = [
            subsystem
            for subsystem in self._subsystems.values()
            if subsystem.provides(service_name)
        ]
        if not providers:
            raise ServiceNotFoundError(
                f"no subsystem provides service {service_name!r}"
            )
        if len(providers) > 1:
            raise SubsystemError(
                f"service {service_name!r} provided by multiple subsystems: "
                f"{[subsystem.name for subsystem in providers]}"
            )
        return providers[0]

    def semantic_conflicts(self) -> ConflictRelation:
        """Conflicts derived from all services' read/write sets."""
        return conflicts_from_services(
            service
            for subsystem in self._subsystems.values()
            for service in subsystem.services()
        )

    def prepared_transactions(self) -> List[Tuple[Subsystem, LocalTransaction]]:
        """All in-doubt transactions across subsystems."""
        found: List[Tuple[Subsystem, LocalTransaction]] = []
        for subsystem in self._subsystems.values():
            for transaction in subsystem.prepared_transactions():
                found.append((subsystem, transaction))
        return found

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Value snapshot of every store (for effect-freeness checks)."""
        return {
            name: subsystem.store.snapshot()
            for name, subsystem in self._subsystems.items()
        }
