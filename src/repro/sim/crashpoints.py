"""Crash-point torture harness: crash everywhere, recover, certify.

The paper's recovery story (Definition 8 2(b)) promises that a crash at
*any* moment leaves the process manager able to finish every active
process through its completion.  This harness makes "any moment"
operational: for a seeded workload it

* crashes the scheduler after **every LSN** the write-ahead log ever
  reaches (a :class:`CrashingWAL` wrapper raises
  :class:`SimulatedCrash` right after a chosen record is appended),
* recovers from **every surviving cut** of each such crash: a power
  cut keeps what the last force covered and an arbitrary prefix of
  what was appended since (:meth:`WriteAheadLog.lose_tail`), so every
  log between "only the forced part" and "everything up to the crash
  LSN" must recover.  A store keeps anything between its last sync and
  its last commit; the sweep takes both ends — every log cut with the
  stores intact (as far ahead of the log as a store gets), and the
  whole log with every store back at its last sync (:func:`power_cut`:
  recovery must redo what they lost),
* crashes **recovery itself** after every record the recovery pass
  appends (the second-crash-during-recovery case restartable recovery
  exists for),
* injects **file-level faults** — torn tails and bit flips — into an
  on-disk :class:`~repro.subsystems.wal.FileWAL` and checks the salvage
  / typed-corruption contract,

then re-runs :func:`~repro.subsystems.recovery.recover` and certifies
the combined pre+post-crash history with the offline PRED/RED and
termination checkers (:func:`~repro.sim.certify.certify_history`, shared
with every other harness).  Each crash point also checks that every
termination acknowledged before the crash survived it, that the stores
hold exactly the surviving history's effects (the workload's services
are ledgers: one row per invocation), that a returned recovery is
itself durable, and recovery *idempotence*: a second :func:`recover`
must append nothing and abort nothing.

Faults can be mixed in: an abort-rate chaos policy (deterministic per
seed) exercises alternative paths and compensations before the crash,
so crash points land inside partially-compensated histories too.

Entry points:

* :func:`run_crashpoints` — the full seeded sweep (benchmark X9, CLI
  ``python -m repro crashpoints``);
* :func:`crash_once` — one crash point, recovered and certified;
* :func:`run_file_faults` — torn-tail / bit-flip torture on a FileWAL.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.schedule import ActivityEvent
from repro.errors import LogCorruptionError, StoreCorruptionError
from repro.sim.certify import Certification, GradedRun, certify_history
from repro.sim.workload import WorkloadSpec, build_world, generate_workload
from repro.subsystems.backend import (
    BackendHub,
    SqliteBackend,
    check_backend_kind,
    tear_file,
)
from repro.subsystems.failures import (
    ChaosPolicy,
    DiskFaultPolicy,
    FailurePolicy,
    NoFailures,
)
from repro.subsystems.recovery import (
    analyze_wal,
    recover,
    replay_history,
)
from repro.subsystems.services import Service, ServicePair
from repro.subsystems.wal import FileWAL, InMemoryWAL, WriteAheadLog

__all__ = [
    "SimulatedCrash",
    "CrashingWAL",
    "CrashPointSpec",
    "RecoveryVerdict",
    "CrashPointResult",
    "CrashPointSweep",
    "FaultResult",
    "RealKillResult",
    "baseline_lsns",
    "build_crash_world",
    "drive_to_crash",
    "power_cut",
    "recover_and_certify",
    "crash_once",
    "run_crashpoints",
    "run_file_faults",
    "run_disk_faults",
    "run_real_kill",
]


class SimulatedCrash(Exception):
    """Control signal: the simulated machine died at this instant.

    Deliberately **not** a :class:`~repro.errors.ReproError` — the
    scheduler's typed error handling must never catch it, exactly as no
    exception handler survives a real power failure.  ``lsn`` is the
    last record that made it to the log before the lights went out.
    """

    def __init__(self, lsn: int) -> None:
        super().__init__(f"simulated crash after lsn {lsn}")
        self.lsn = lsn


class CrashingWAL(WriteAheadLog):
    """WAL wrapper that kills the process after a chosen append.

    The crash fires *after* the inner append returns — the record is on
    the log, the scheduler never learns it succeeded — and nothing
    after it happened.  How much of the log survives is the inner
    log's :meth:`lose_tail`, called by whoever plays the power cut.
    Two triggers:

    * ``crash_lsn`` — fire once a record with this LSN (or beyond, for
      LSNs consumed by checkpoint compaction) is written;
    * ``crash_after_appends`` — fire after the N-th append *through
      this wrapper* (used to crash recovery at each of its own steps).
    """

    def __init__(
        self,
        inner: WriteAheadLog,
        crash_lsn: Optional[int] = None,
        crash_after_appends: Optional[int] = None,
    ) -> None:
        self.inner = inner
        self.crash_lsn = crash_lsn
        self.crash_after_appends = crash_after_appends
        self.appends = 0
        self.fired = False
        #: The records checkpoints compacted away, oldest first: what an
        #: audit of the whole run reads (recovery never does).
        self.compacted: List[Dict[str, object]] = []

    def _after_write(self, lsn: int) -> None:
        if self.fired:
            return
        self.appends += 1
        if self.crash_lsn is not None and lsn >= self.crash_lsn:
            self.fired = True
            raise SimulatedCrash(lsn)
        if (
            self.crash_after_appends is not None
            and self.appends >= self.crash_after_appends
        ):
            self.fired = True
            raise SimulatedCrash(lsn)

    def append(self, record: Dict[str, object], force: bool = False) -> int:
        lsn = self.inner.append(record, force)
        self._after_write(lsn)
        return lsn

    @property
    def forces(self) -> int:  # type: ignore[override]
        return self.inner.forces

    @property
    def next_lsn(self) -> int:
        return self.inner.next_lsn

    def lose_tail(self, keep: int = 0) -> int:
        return self.inner.lose_tail(keep)

    def checkpoint(self, state: Dict[str, object]) -> int:
        retained = self.inner.records()
        lsn = self.inner.checkpoint(state)
        # After the first compaction the log starts with a checkpoint
        # record, which is no part of the history.
        self.compacted.extend(retained[1:] if self.compacted else retained)
        self._after_write(lsn)
        return lsn

    def records(self) -> List[Dict[str, object]]:
        return self.inner.records()

    def truncate(self) -> None:
        self.inner.truncate()

    def close(self) -> None:
        self.inner.close()

    def sync(self) -> None:
        self.inner.sync()


@dataclass(frozen=True)
class CrashPointSpec:
    """One torture campaign: workload shape + fault knobs + coverage."""

    name: str = "crashpoints"
    workload: WorkloadSpec = field(
        default_factory=lambda: WorkloadSpec(
            processes=4,
            prefix_range=(1, 3),
            service_pool=8,
            conflict_rate=0.08,
        )
    )
    #: Pre-crash chaos: per-attempt abort injection (deterministic per
    #: seed; 0 disables).  Aborts force alternative paths and
    #: compensations, so crash points land in mid-recovery shapes.
    abort_rate: float = 0.25
    #: Auto-checkpoint the scheduler every N WAL appends (None: never).
    checkpoint_interval: Optional[int] = None
    #: Crash after every ``stride``-th LSN (1 = every single one).
    stride: int = 1
    #: Also crash *recovery* after each of its own appends, at every
    #: ``recovery_stride``-th crash LSN (0 disables the inner sweep).
    recovery_stride: int = 1
    #: Master seed (workload and chaos derive from it).
    seed: int = 0
    #: Store backend behind every subsystem (``memory``/``sqlite``/
    #: ``procpool``).  Scheduler decisions are backend-independent, so
    #: every crash point must certify identically over real storage;
    #: ``sqlite`` additionally runs the disk-fault torture and
    #: ``procpool`` the real-SIGKILL run.
    backend: str = "memory"

    def __post_init__(self) -> None:
        check_backend_kind(self.backend)

    def with_seed(self, seed: int) -> "CrashPointSpec":
        return replace(self, seed=seed)


@dataclass
class RecoveryVerdict:
    """What :func:`recover_and_certify` found after one recovery."""

    certification: Certification
    #: Second recover() appended nothing and aborted nothing.
    idempotent: bool
    #: No prepared transactions survived recovery.
    in_doubt_clear: bool
    #: Records the (first, completing) recovery pass appended.
    recovery_appends: int
    #: A power cut right after recover() returned lost nothing.
    durable: bool
    #: Ledger worlds: store rows differing from the surviving history's
    #: events (``""``: equal, or not a ledger world).
    ledger: str

    @property
    def certified(self) -> bool:
        return (
            self.certification.certified
            and self.idempotent
            and self.in_doubt_clear
            and self.durable
            and not self.ledger
        )

    def describe(self) -> str:
        return (
            f"{self.certification.describe()} "
            f"idempotent={self.idempotent} in_doubt_clear={self.in_doubt_clear} "
            f"durable={self.durable} ledger={self.ledger or 'equal'}"
        )


@dataclass
class CrashPointResult(RecoveryVerdict):
    """Verdict for one crash point (optionally one recovery crash)."""

    crash_lsn: int
    #: Recovery was additionally crashed after this many of its own
    #: appends before the final, completing recovery (None: it wasn't).
    recovery_crash_after: Optional[int]
    #: The surviving cut: how many of the records no force had covered
    #: each crash kept (None: all of them — the crash lost nothing).
    keep: Optional[int]
    #: Each crash also took every store back to its last sync.
    stores_lost: bool
    #: Records no force had covered when the scheduler crashed.
    unforced: int
    #: Every termination appended before the crash survived the cut.
    outcomes_kept: bool
    #: The workload actually reached the crash point (late LSNs may
    #: complete first — those runs certify the undisturbed history).
    crashed: bool
    #: The final recovery resumed a crashed one (recovery_begin without
    #: recovery_end in the log).
    resumed: bool
    #: Records the final recovery's analysis had to iterate.
    records_scanned: int
    #: Retained log length after everything settled.
    log_length: int

    @property
    def certified(self) -> bool:
        return super().certified and self.outcomes_kept

    def describe(self) -> str:
        where = f"lsn {self.crash_lsn}"
        if self.keep is not None:
            where += f" keeping {self.keep} of {self.unforced} unforced"
        if self.stores_lost:
            where += ", stores at their last sync"
        if self.recovery_crash_after is not None:
            where += f" + recovery append {self.recovery_crash_after}"
        return (
            f"crash at {where}: {super().describe()} "
            f"outcomes_kept={self.outcomes_kept}"
        )


@dataclass
class CrashPointSweep:
    """Every crash point of one campaign, certified."""

    spec: CrashPointSpec
    #: Log length of the undisturbed baseline run (the LSN space swept).
    total_lsns: int
    results: List[CrashPointResult]
    file_faults: List["FaultResult"] = field(default_factory=list)
    #: Injected *store*-level disk faults (sqlite backend only).
    disk_faults: List["FaultResult"] = field(default_factory=list)
    #: Real-SIGKILL runs (procpool backend only).
    real_kills: List["RealKillResult"] = field(default_factory=list)

    @property
    def all_certified(self) -> bool:
        return not self.failures

    @property
    def failures(self) -> List[str]:
        """One note per crash point, fault or kill that did not pass."""
        notes = [
            result.describe()
            for result in self.results
            if not result.certified
        ]
        notes.extend(
            f"{kind} fault {fault.fault}: {fault.detail}"
            for kind, faults in (
                ("file", self.file_faults), ("disk", self.disk_faults)
            )
            for fault in faults
            if not fault.passed
        )
        notes.extend(
            f"real kill: {kill.describe()}"
            for kill in self.real_kills
            if not kill.passed
        )
        return notes

    def row(self) -> Dict[str, object]:
        """Flat summary row for sweep tables."""
        whole = [result for result in self.results if result.keep is None]
        recovery_crashes = sum(
            1 for result in whole if result.recovery_crash_after is not None
        )
        return {
            "seed": self.spec.seed,
            "backend": self.spec.backend,
            "lsns": self.total_lsns,
            "crash_points": len(whole) - recovery_crashes,
            "recovery_crashes": recovery_crashes,
            "tail_cuts": len(self.results) - len(whole),
            "file_faults": len(self.file_faults),
            "disk_faults": len(self.disk_faults),
            "real_kills": len(self.real_kills),
            "max_scanned": max(
                (result.records_scanned for result in self.results),
                default=0,
            ),
            "certified": self.all_certified,
        }


def _ledger_service(name: str) -> ServicePair:
    """A write-bearing service pair for the store-level tortures.

    Every forward invocation appends a ``+1`` entry under a key derived
    from its transaction id; the compensation appends the reversing
    ``-1`` entry (ledger-style undo).  Physical keys are unique per
    invocation, so commits always carry a non-empty write batch — real
    fsyncs on ``sqlite``, real IPC on ``procpool`` — without the lock
    contention a shared counter key would add between held (prepared)
    transactions and immediate ones.
    """

    def forward(context) -> object:
        context.write(f"{name}/{context.txn_id}", 1)
        return 1

    def inverse(context) -> object:
        context.write(f"{name}~inv/{context.txn_id}", -1)
        return -1

    return ServicePair(
        forward=Service(name=name, handler=forward),
        compensation=Service(name=f"{name}~inv", handler=inverse),
    )


def build_crash_world(
    spec: CrashPointSpec,
    wal: WriteAheadLog,
    hub: Optional[BackendHub] = None,
    ledger: bool = False,
    trace=None,
    metrics=None,
):
    """Deterministic scheduler + repository for one campaign seed.

    Processes are *not* submitted here — submission already writes the
    log, so it belongs inside :func:`drive_to_crash`'s crash scope.
    ``hub`` backs every auto-provisioned subsystem with real storage;
    the same hub must span a crash/recover cycle (its store files are
    the surviving state).

    ``ledger`` selects what the workload's service names resolve to:
    effect-free placeholders, or :func:`_ledger_service` pairs whose
    commits carry non-empty write batches, so durable backends actually
    fsync, worker processes actually hold state, and the stores can be
    audited against a history (:func:`ledger_mismatch`).  The scheduler
    decides the same either way; the LSN sweep, the disk-fault and the
    real-kill tortures use ledgers — a crash or store-fault harness
    over stores nothing ever writes to would be vacuous.
    """
    workload = generate_workload(replace(spec.workload, seed=spec.seed))
    failures: FailurePolicy
    if spec.abort_rate > 0.0:
        failures = ChaosPolicy(abort_rate=spec.abort_rate, seed=spec.seed + 1)
    else:
        failures = NoFailures()
    scheduler, _ = build_world(
        workload,
        hub=hub,
        services=_ledger_service if ledger else None,
        wal=wal,
        checkpoint_interval=spec.checkpoint_interval,
        submit=False,
        trace=trace,
        metrics=metrics,
    )
    repository = {process.process_id: process for process in workload.processes}
    return scheduler, repository, workload, failures


def drive_to_crash(scheduler, workload, failures) -> bool:
    """Submit and run the workload; True if a crash cut it short.

    Submission is inside the crash scope: the very first LSNs belong to
    ``process_submit`` records, and a crash there must be survivable
    like any other.
    """
    try:
        for process in workload.processes:
            scheduler.submit(process, failures=failures)
        scheduler.run()
        return False
    except SimulatedCrash:
        return True


def ledger_mismatch(registry, history) -> str:
    """How a ledger world's stores differ from ``history`` (``""``: not
    at all): every surviving event of a service has its one row, and no
    row is without its event — a store that got ahead of its log, or a
    log ahead of its store, shows here and nowhere else."""
    events = Counter(
        event.service
        for event in history.events
        if isinstance(event, ActivityEvent)
    )
    rows = Counter(
        key.split("/", 1)[0]
        for store in registry.snapshot().values()
        for key in store
    )
    if rows == events:
        return ""
    return f"store rows {dict(rows)} != history events {dict(events)}"


def power_cut(wal: WriteAheadLog, registry, keep: int = 0) -> int:
    """A power cut that leaves the log its forced part and ``keep`` more
    records, and every store what it last synced; returns how many
    records the log lost."""
    for subsystem in registry.subsystems():
        subsystem.store.lose_unsynced()
    return wal.lose_tail(keep)


def recover_and_certify(
    wal: WriteAheadLog,
    registry,
    repository,
    workload,
    compacted: Sequence[Dict[str, object]] = (),
    ledger: bool = False,
):
    """Recover, certify the combined history, and recover once more.

    Returns ``(report, verdict)``: the first recovery's report and the
    :class:`RecoveryVerdict` — offline certification of the combined
    pre+post-crash history, no prepared transaction left in doubt, a
    recovery that is durable once it returned, on a ``ledger`` world
    (:func:`build_crash_world`) stores that hold exactly the surviving
    history's effects, and idempotence (a completed recovery leaves
    nothing for another: a power cut takes every store back to its last
    sync, and the second :func:`recover` must then append nothing and
    abort nothing — its redo alone makes the stores hold those effects
    again).

    The combined history is rebuilt from the log — on a compacted one,
    from the records the checkpoints dropped (:attr:`CrashingWAL.
    compacted`) and the retained ones; without those it covers the
    processes the checkpoint did not prune.
    """
    length_before = len(wal)
    report = recover(wal, registry, repository, conflicts=workload.conflicts)
    recovery_appends = len(wal) - length_before
    durable = wal.lose_tail() == 0
    whole = wal
    if compacted:
        whole = InMemoryWAL()
        for record in [*compacted, *wal.records()[1:]]:
            whole.append(record)
    history = replay_history(whole, repository, workload.conflicts)
    certification = certify_history(history, not analyze_wal(wal).active)
    in_doubt_clear = not registry.prepared_transactions()
    mismatch = ledger_mismatch(registry, history) if ledger else ""
    power_cut(wal, registry)
    length_before = len(wal)
    again = recover(wal, registry, repository, conflicts=workload.conflicts)
    if ledger and not mismatch:
        mismatch = ledger_mismatch(registry, history)
    return report, RecoveryVerdict(
        certification=certification,
        idempotent=again.noop and len(wal) == length_before,
        in_doubt_clear=in_doubt_clear,
        recovery_appends=recovery_appends,
        durable=durable,
        ledger=mismatch,
    )


def crash_once(
    spec: CrashPointSpec,
    crash_lsn: int,
    recovery_crash_after: Optional[int] = None,
    keep: Optional[int] = None,
    stores_lost: bool = False,
    trace=None,
    metrics=None,
) -> CrashPointResult:
    """Crash at one LSN (optionally once more during recovery), recover
    fully, and certify the outcome.

    ``keep`` picks the surviving cut: each crash is a power cut that
    keeps that many of the records no force had covered (``0``: only
    the forced part) — ``None`` keeps them all, the crash that loses
    nothing.  With ``stores_lost`` it is a :func:`power_cut` that also
    takes every store back to its last sync.  The run's
    :class:`BackendHub` spans the whole crash/recover cycle — on a
    durable backend the store files are the surviving state the
    recovered completions execute against.
    """
    inner = InMemoryWAL()
    context = {"seed": spec.seed, "crash_lsn": crash_lsn}

    def crash() -> int:
        kept = inner.unforced if keep is None else keep
        if stores_lost:
            return power_cut(inner, scheduler.registry, kept)
        return inner.lose_tail(kept)

    with GradedRun(
        "crashpoints", spec.seed, spec.backend, trace=trace
    ) as run:
        crashing = CrashingWAL(inner, crash_lsn=crash_lsn)
        scheduler, repository, workload, failures = build_crash_world(
            spec, crashing, hub=run.hub, ledger=True, trace=trace,
            metrics=metrics,
        )
        run.begin(
            **context,
            recovery_crash_after=recovery_crash_after,
            backend=spec.backend,
        )
        crashed = drive_to_crash(scheduler, workload, failures)
        scheduler.crash()
        acknowledged = analyze_wal(inner)
        unforced = inner.unforced
        survived = analyze_wal(inner) if crash() else acknowledged

        if crashed and recovery_crash_after is not None:
            # Second crash: kill the first recovery after its N-th append.
            try:
                recover(
                    CrashingWAL(
                        inner, crash_after_appends=recovery_crash_after
                    ),
                    scheduler.registry,
                    repository,
                    conflicts=workload.conflicts,
                )
            except SimulatedCrash:
                pass  # the recovery died; the next one must resume it
            crash()

        report, verdict = recover_and_certify(
            inner,
            scheduler.registry,
            repository,
            workload,
            compacted=crashing.compacted,
            ledger=True,
        )
    run.end(
        **context,
        crashed=crashed,
        certified=verdict.certification.certified,
        idempotent=verdict.idempotent,
    )
    return CrashPointResult(
        **vars(verdict),
        crash_lsn=crash_lsn,
        recovery_crash_after=recovery_crash_after,
        keep=keep,
        stores_lost=stores_lost,
        unforced=unforced,
        outcomes_kept=(
            acknowledged.committed <= survived.committed
            and acknowledged.aborted <= survived.aborted
        ),
        crashed=crashed,
        resumed=report.resumed,
        records_scanned=report.analysis.records_scanned,
        log_length=len(inner),
    )


def baseline_lsns(spec: CrashPointSpec, ledger: bool = False) -> int:
    """Log length of the undisturbed run — the crash-LSN space."""
    inner = InMemoryWAL()
    scheduler, _, workload, failures = build_crash_world(
        spec, CrashingWAL(inner), ledger=ledger
    )
    if drive_to_crash(scheduler, workload, failures):
        raise AssertionError("baseline run must not crash")
    # Compaction consumes LSNs too: the next LSN is the space bound.
    records = inner.records()
    if not records:
        return 0
    return int(records[-1]["lsn"]) + 1  # type: ignore[call-overload]


def run_crashpoints(
    spec: CrashPointSpec,
    file_faults: bool = True,
    trace=None,
    metrics=None,
) -> CrashPointSweep:
    """The full torture sweep for one seed.

    Crashes after every ``stride``-th LSN of the baseline run and
    recovers from every surviving cut of each crash — everything up to
    the crash LSN, the same with every store back at its last sync, then
    each shorter log down to what the last force covered; at every
    ``recovery_stride``-th of those crash points additionally sweeps a
    second crash through each append the recovery pass makes, at both
    ends of the log range and with the stores lost.  With
    ``file_faults`` the torn-tail / bit-flip torture runs as well.  On
    the ``sqlite`` backend the sweep additionally injects *store*-level
    disk faults (:func:`run_disk_faults`); on ``procpool`` it performs
    one real-SIGKILL run (:func:`run_real_kill`).
    """
    total = baseline_lsns(spec, ledger=True)
    results: List[CrashPointResult] = []

    def sweep(
        crash_lsn: int, keep: Optional[int], twice: bool, lost: bool = False
    ) -> Optional[int]:
        """One cut of one crash (and, with ``twice``, every second crash
        of its recovery); how many records no force had covered, or
        ``None`` when the run finished before the crash point."""
        once = crash_once(
            spec, crash_lsn, keep=keep, stores_lost=lost, trace=trace,
            metrics=metrics,
        )
        results.append(once)
        if not once.crashed:
            return None
        steps = once.recovery_appends if twice else 0
        for step in range(1, steps + 1):
            results.append(
                crash_once(
                    spec,
                    crash_lsn,
                    recovery_crash_after=step,
                    keep=keep,
                    stores_lost=lost,
                    trace=trace,
                    metrics=metrics,
                )
            )
        return once.unforced

    for index, crash_lsn in enumerate(range(0, total, spec.stride)):
        twice = bool(
            spec.recovery_stride and index % spec.recovery_stride == 0
        )
        unforced = sweep(crash_lsn, None, twice)
        if unforced is None:
            continue
        sweep(crash_lsn, unforced, twice, lost=True)
        for keep in reversed(range(unforced)):
            sweep(crash_lsn, keep, twice and keep == 0)
    faults = run_file_faults(spec) if file_faults else []
    disk_faults = run_disk_faults(spec) if spec.backend == "sqlite" else []
    real_kills = (
        [run_real_kill(spec)] if spec.backend == "procpool" else []
    )
    return CrashPointSweep(
        spec=spec,
        total_lsns=total,
        results=results,
        file_faults=faults,
        disk_faults=disk_faults,
        real_kills=real_kills,
    )


# ---------------------------------------------------------------------------
# File-level fault torture
# ---------------------------------------------------------------------------


@dataclass
class FaultResult:
    """Outcome of one injected fault: on the on-disk log (``torn_tail``,
    ``bit_flip_tail``, ``bit_flip_mid``) or on a sqlite store
    (``fsync_fail``, ``torn_write``, ``short_read``, ``durable_reopen``)."""

    fault: str
    passed: bool
    detail: str = ""


def run_file_faults(
    spec: CrashPointSpec, crash_lsn: int = 12
) -> List[FaultResult]:
    """Torn-tail and bit-flip torture against the on-disk log.

    * a torn tail (truncated mid-record, as a crash mid-append leaves
      it) must salvage: the log reopens minus the torn record and
      recovery certifies;
    * a flipped bit in the *last* record must fail its checksum and
      salvage the same way;
    * a flipped bit in an *earlier* record must raise the typed
      :class:`~repro.errors.LogCorruptionError` — mid-log damage is not
      explainable by a crash and recovery must not guess.
    """
    results: List[FaultResult] = []
    for fault in ("torn_tail", "bit_flip_tail", "bit_flip_mid"):
        with tempfile.TemporaryDirectory(prefix="crashpoints-") as tmp:
            problem = _file_fault(
                spec, fault, os.path.join(tmp, "wal.jsonl"), crash_lsn
            )
        results.append(FaultResult(fault, not problem, problem))
    return results


def _file_fault(
    spec: CrashPointSpec, fault: str, path: str, crash_lsn: int
) -> str:
    """Inject one fault into the log at ``path``; what went wrong, or
    ``""`` when the salvage / typed-corruption contract held."""
    # Drive the seeded workload over a FileWAL until the crash point.
    wal = FileWAL(path)
    scheduler, repository, workload, failures = build_crash_world(
        spec, CrashingWAL(wal, crash_lsn=crash_lsn)
    )
    drive_to_crash(scheduler, workload, failures)
    scheduler.crash()
    wal.close()
    with open(path, "rb") as handle:
        raw = bytearray(handle.read())
    if len(raw) < 40:
        return "log too short to damage"
    if fault == "torn_tail":
        damaged = bytes(raw[: len(raw) - 9])
    elif fault == "bit_flip_tail":
        line_start = raw.rstrip(b"\n").rfind(b"\n") + 1
        raw[line_start + 20] ^= 0x04
        damaged = bytes(raw)
    else:  # bit_flip_mid: damage the first record's payload
        raw[14] ^= 0x04
        damaged = bytes(raw)
    with open(path, "wb") as handle:
        handle.write(damaged)

    if fault == "bit_flip_mid":
        try:
            FileWAL(path)
        except LogCorruptionError as error:
            return "" if error.offset == 0 else f"wrong offset: {error.offset}"
        return "mid-log corruption not detected"

    wal = FileWAL(path)
    try:
        if wal.salvaged is None:
            return "tail damage not salvaged"
        _, verdict = recover_and_certify(
            wal, scheduler.registry, repository, workload
        )
        return "" if verdict.certified else verdict.describe()
    finally:
        wal.close()


# ---------------------------------------------------------------------------
# Store-level disk-fault torture (sqlite backend)
# ---------------------------------------------------------------------------


def _run_sqlite_workload(
    spec: CrashPointSpec, hub: BackendHub
) -> Tuple[Certification, Dict[str, Dict[str, object]], object]:
    """Drive the seeded workload to completion over the hub's stores."""
    scheduler, _, workload, failures = build_crash_world(
        spec, CrashingWAL(InMemoryWAL()), hub=hub, ledger=True
    )
    if drive_to_crash(scheduler, workload, failures):
        raise AssertionError("undisturbed sqlite workload must not crash")
    certification = certify_history(
        scheduler.history(), scheduler.all_terminated()
    )
    snapshot = scheduler.registry.snapshot()
    return certification, snapshot, scheduler.registry


def run_disk_faults(spec: CrashPointSpec) -> List[FaultResult]:
    """Inject real disk faults into sqlite stores; certify the contract.

    * **fsync failures** — a bounded run of commits cannot be made
      durable; each surfaces as a clean
      :class:`~repro.errors.StorageFault` abort (atomicity holds, the
      scheduler retries or takes alternatives) and the workload still
      terminates with a certified history;
    * **torn write** — bytes damaged at chosen offsets in the closed
      store file; every reopen must either raise the typed
      :class:`~repro.errors.StoreCorruptionError` or serve exactly the
      committed snapshot (damage in dead space) — never silently serve
      wrong values;
    * **short read** — a reopen that sees a truncated header must raise
      the typed error, then heal on the next (full) reopen with every
      committed value intact;
    * **durable reopen** — a plain close/reopen serves exactly what was
      committed (a clean close syncs).

    The torture drives the spec's workload *without* abort chaos: the
    injected disk faults must be the only failure source, both so the
    fsync-fault budget is reliably consumed by real commits and so any
    certification failure is attributable to the storage layer alone.
    """
    spec = replace(spec, abort_rate=0.0)
    results: List[FaultResult] = []

    # fsync failures: bounded injection, clean aborts, still certifies.
    faults = DiskFaultPolicy(fail_fsync=3)
    with BackendHub("sqlite", faults=faults) as hub:
        certification, _, registry = _run_sqlite_workload(spec, hub)
        delivered = faults.delivered["fsync"]
        ok = certification.certified and delivered == 3
        results.append(
            FaultResult(
                "fsync_fail",
                ok,
                "" if ok else (
                    f"{certification.describe()} delivered={delivered}"
                ),
            )
        )
        registry.close()

    # One clean run provides the committed snapshot the file-damage
    # checks compare against.
    with BackendHub("sqlite") as hub:
        certification, snapshots, registry = _run_sqlite_workload(spec, hub)
        registry.close()
        if not certification.certified:
            return results + [
                FaultResult(
                    "durable_reopen", False, certification.describe()
                )
            ]
        stores = {
            name: hub.path_for(name)
            for name in snapshots
        }

        # Durable reopen: the files outlive every connection.
        for name, path in stores.items():
            with SqliteBackend(path) as reopened:
                served = reopened.snapshot()
            if served != snapshots[name]:
                results.append(
                    FaultResult(
                        "durable_reopen",
                        False,
                        f"{name}: reopened snapshot diverged",
                    )
                )
                break
        else:
            results.append(FaultResult("durable_reopen", True))

        # Torn writes: damage a copy at a sweep of offsets.  The
        # contract is "detected or harmless", never silently wrong.
        name, path = next(iter(stores.items()))
        size = os.path.getsize(path)
        offsets = sorted(
            {0, 7, 16, 100, min(1060, size - 1), size // 2, max(0, size - 24)}
        )
        torn_ok = True
        detail = ""
        detections = 0
        for offset in offsets:
            copy = f"{path}.torn{offset}"
            shutil.copyfile(path, copy)
            if tear_file(copy, offset) == 0:
                continue
            try:
                with SqliteBackend(copy) as damaged:
                    served = damaged.snapshot()
            except StoreCorruptionError:
                detections += 1
                continue
            if served != snapshots[name]:
                torn_ok = False
                detail = (
                    f"offset {offset}: damage served silently with "
                    f"wrong values"
                )
                break
        if torn_ok and detections == 0:
            torn_ok = False
            detail = "no torn offset was ever detected"
        results.append(
            FaultResult(
                "torn_write",
                torn_ok,
                detail if not torn_ok else f"{detections} offsets detected",
            )
        )

        # Short read on reopen: typed error first, heals on retry.
        short = DiskFaultPolicy(short_read=True)
        try:
            SqliteBackend(path, faults=short)
        except StoreCorruptionError:
            with SqliteBackend(path, faults=short) as healed:
                served = healed.snapshot()
            ok = served == snapshots[name]
            results.append(
                FaultResult(
                    "short_read",
                    ok,
                    "" if ok else "post-heal snapshot diverged",
                )
            )
        else:
            results.append(
                FaultResult(
                    "short_read", False, "short read not detected"
                )
            )
    return results


# ---------------------------------------------------------------------------
# Real-SIGKILL torture (procpool backend)
# ---------------------------------------------------------------------------


@dataclass
class RealKillResult(RecoveryVerdict):
    """Outcome of one real worker-process SIGKILL + WAL recovery."""

    killed_pid: int
    respawned_pid: Optional[int]
    crashed: bool
    #: Honest wall-clock seconds from the SIGKILL to the respawned
    #: worker answering again (benchmark X14's latency metric).
    kill_to_recovered_s: Optional[float]

    @property
    def passed(self) -> bool:
        return (
            self.crashed
            and self.certified
            and self.respawned_pid is not None
            and self.respawned_pid != self.killed_pid
        )

    def describe(self) -> str:
        return (
            f"killed pid {self.killed_pid}, respawned "
            f"{self.respawned_pid}: {super().describe()}"
        )


def run_real_kill(
    spec: CrashPointSpec, crash_lsn: Optional[int] = None
) -> RealKillResult:
    """One genuine crash: SIGKILL the storage worker, recover, certify.

    The seeded workload runs over the ``procpool`` backend until the
    scheduler's crash point, then the worker OS process is killed with
    a real ``SIGKILL`` (no cleanup handlers run — committed sqlite
    state survives on disk, everything else dies).  Restart recovery
    must respawn the worker and replay the WAL against the surviving
    on-disk state: in-doubt transactions resolve, completions execute
    through the new process, the combined history certifies, and a
    second recovery is a no-op.
    """
    if crash_lsn is None:
        crash_lsn = max(1, baseline_lsns(spec, ledger=True) // 2)
    inner = InMemoryWAL()
    crashing = CrashingWAL(inner, crash_lsn=crash_lsn)
    with BackendHub("procpool") as hub:
        scheduler, repository, workload, failures = build_crash_world(
            spec, crashing, hub=hub, ledger=True
        )
        assert hub.host is not None
        crashed = drive_to_crash(scheduler, workload, failures)
        scheduler.crash()

        # The real kill: no simulated flag, an actual signal.  The next
        # IPC would fail with StorageFault; recovery respawns first.
        killed_pid = hub.host.ensure_alive()
        os.kill(killed_pid, signal.SIGKILL)

        _, verdict = recover_and_certify(
            inner, scheduler.registry, repository, workload,
            crashing.compacted, ledger=True,
        )
        respawned_pid = hub.host.pid
        latency = (
            hub.host.kill_to_recovered[-1]
            if hub.host.kill_to_recovered
            else None
        )
    return RealKillResult(
        **vars(verdict),
        killed_pid=killed_pid,
        respawned_pid=respawned_pid,
        crashed=crashed,
        kill_to_recovered_s=latency,
    )
