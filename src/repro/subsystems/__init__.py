"""Substrate: transactional subsystems, 2PC, WAL, agents, failures."""

from repro.subsystems.agent import ApplicationOperation, CoordinationAgent
from repro.subsystems.failures import (
    ChaosPolicy,
    CountedFailures,
    FailurePlan,
    FailurePolicy,
    Fault,
    FaultKind,
    NoFailures,
    ProbabilisticFailures,
)
from repro.subsystems.resource import LockManager, LockMode, WouldBlock
from repro.subsystems.services import (
    Service,
    ServiceContext,
    ServicePair,
    append_service,
    conflicts_from_services,
    counter_service,
    flag_service,
    noop_service,
    read_service,
    write_service,
)
from repro.subsystems.subsystem import Invocation, Subsystem, SubsystemRegistry
from repro.subsystems.transaction import LocalTransaction, TransactionState
from repro.subsystems.twophase import CommitOutcome, Participant, TwoPhaseCoordinator
from repro.subsystems.wal import FileWAL, InMemoryWAL, WriteAheadLog
from repro.subsystems.weak_order import WeakEnlistment, WeakOrderSession
from repro.subsystems.repository import ProcessRepository, RepositoryView
