"""Property: any seeded workload + any crash LSN recovers certified.

The crash-point harness's contract, quantified: wherever the log was
cut short — including inside 2PC windows, between an activity and its
termination record, or during a previous recovery — restart recovery
must terminate every process, clear every in-doubt transaction, yield
a PRED combined history, and be idempotent (a second ``recover()``
appends nothing and the log's reconstructed history is unchanged).
"""

import os
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import TransactionalProcessScheduler
from repro.sim.crashpoints import (
    CrashingWAL,
    CrashPointSpec,
    SimulatedCrash,
    crash_once,
)
from repro.sim.workload import WorkloadSpec, generate_workload
from repro.subsystems.recovery import recover, replay_history
from repro.subsystems.wal import InMemoryWAL

SMALL = WorkloadSpec(
    processes=3,
    prefix_range=(1, 2),
    suffix_range=(1, 2),
    service_pool=6,
    conflict_rate=0.1,
)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=60),
    crash_lsn=st.integers(min_value=0, max_value=70),
    abort_rate=st.sampled_from([0.0, 0.3]),
    checkpoint_interval=st.sampled_from([None, 6]),
)
def test_any_crash_point_recovers_certified(
    seed, crash_lsn, abort_rate, checkpoint_interval
):
    spec = CrashPointSpec(
        workload=SMALL,
        seed=seed,
        abort_rate=abort_rate,
        checkpoint_interval=checkpoint_interval,
    )
    result = crash_once(spec, crash_lsn)
    assert result.certified, result.describe()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=60),
    crash_lsn=st.integers(min_value=0, max_value=50),
    recovery_crash=st.integers(min_value=1, max_value=6),
)
def test_crash_during_recovery_still_certifies(
    seed, crash_lsn, recovery_crash
):
    spec = CrashPointSpec(workload=SMALL, seed=seed, abort_rate=0.3)
    result = crash_once(
        spec, crash_lsn, recovery_crash_after=recovery_crash
    )
    assert result.certified, result.describe()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=60),
    crash_lsn=st.integers(min_value=0, max_value=60),
)
def test_recover_twice_yields_same_history(seed, crash_lsn):
    workload = generate_workload(replace(SMALL, seed=seed))
    wal = InMemoryWAL()
    scheduler = TransactionalProcessScheduler(
        conflicts=workload.conflicts,
        wal=CrashingWAL(wal, crash_lsn=crash_lsn),
    )
    try:
        for process in workload.processes:
            scheduler.submit(process)
        while not scheduler.all_terminated():
            if not scheduler.step_round():
                scheduler.resolve_stall()
    except SimulatedCrash:
        pass
    scheduler.crash()
    repository = {
        process.process_id: process for process in workload.processes
    }

    recover(wal, scheduler.registry, repository, conflicts=workload.conflicts)
    length = len(wal)
    first = replay_history(wal, repository, workload.conflicts)

    again = recover(
        wal, scheduler.registry, repository, conflicts=workload.conflicts
    )
    assert again.noop
    assert len(wal) == length
    second = replay_history(wal, repository, workload.conflicts)
    assert list(first.events) == list(second.events)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=60),
    crash_lsn=st.integers(min_value=0, max_value=70),
    keep=st.integers(min_value=0, max_value=4),
    backend=st.sampled_from(["memory", "sqlite"]),
    abort_rate=st.sampled_from([0.0, 0.3]),
    recovery_crash=st.sampled_from([None, 1, 3]),
)
def test_any_surviving_cut_recovers_certified(
    seed, crash_lsn, keep, backend, abort_rate, recovery_crash
):
    """A power cut keeps the forced part of the log and any prefix of
    the rest (``keep`` records of it; more than there are keeps them
    all), while a store page may have reached the disk at any moment:
    the stores may be ahead of it.
    Whatever survives must recover: certified, nothing left in doubt,
    idempotent, and the ledger stores equal to the surviving history."""
    spec = CrashPointSpec(
        workload=SMALL, seed=seed, abort_rate=abort_rate, backend=backend
    )
    result = crash_once(
        spec, crash_lsn, recovery_crash_after=recovery_crash, keep=keep
    )
    assert result.certification.certified, result.describe()
    assert result.in_doubt_clear, result.describe()
    assert result.idempotent and result.durable, result.describe()
    assert not result.ledger, result.describe()
    assert result.outcomes_kept, result.describe()


#: CI's harness-smoke job runs this property with more examples.
REDO_EXAMPLES = int(os.environ.get("REDO_PROPERTY_EXAMPLES", "200"))


@settings(max_examples=REDO_EXAMPLES, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=60),
    crash_lsn=st.integers(min_value=0, max_value=70),
    keep=st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
    stores_lost=st.booleans(),
    checkpoint_interval=st.sampled_from([None, 6, 12]),
)
def test_redo_restores_what_the_stores_lost(
    seed, crash_lsn, keep, stores_lost, checkpoint_interval
):
    """Stores sync only at checkpoints, so a power cut may take each
    back to its last sync, whatever the log kept.  Recovery must redo
    what they lost from the surviving records: certified, the ledger
    stores equal to the surviving history, and a second ``recover()``
    after one more such cut a no-op whose redo alone restores them."""
    spec = CrashPointSpec(
        workload=SMALL,
        seed=seed,
        abort_rate=0.3,
        checkpoint_interval=checkpoint_interval,
    )
    result = crash_once(spec, crash_lsn, keep=keep, stores_lost=stores_lost)
    assert result.certified, result.describe()
