"""The measurement protocol: calibrated sub-runs, phases and checks.

A *sub-run* builds a fresh world from seeded inputs and runs one
simulation to completion.  Wall-clock samples are divided by the time of
an adjacent pure-Python calibration kernel, because on a shared box the
raw medians of identical runs differ by 13–31 % between invocations
(machine speed, not pre-emption) while the ratio to the kernel repeats
within 1–5 %; see README.md for the evidence.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import os
import resource
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.reduction import reduce_schedule
from repro.core.schedule import ActivityEvent
from repro.core.serialize import schedule_to_dict
from repro.obs.bus import MemorySink, TraceBus
from repro.sim.crashpoints import CrashingWAL, SimulatedCrash
from repro.sim.metrics import percentile
from repro.subsystems import recovery
from repro.subsystems.backend import SqliteBackend
from repro.subsystems.wal import FileWAL

from .trace import LAYERS, LayerTable, Tracer
from .worlds import (
    SWEEP_RATES,
    DurableClosed,
    OpenSteady,
    Outcome,
    fresh_directory,
)

__all__ = [
    "CheckFailed",
    "measure_phase",
    "count_phase",
    "layer_phase",
    "recovery_phase",
    "sweep_phase",
    "peak_rss_mb",
]

#: The kernel's best time on the build box, in seconds.  A literal, never
#: re-measured: calibrated seconds are "seconds on the build box", which
#: keeps numbers taken on different days and machines comparable.
C_REF = 0.005000
#: Iterations of the calibration kernel (~5 ms; three back to back ≈ 15 ms).
KERNEL_LOOPS = 20_000
KERNEL_REPEATS = 3
#: The same for storage: seconds of one small append + fsync on the build
#: box.  Only worlds that wait on real fsyncs are scaled by it.
F_REF = 0.000240
FSYNC_PROBES = 48
#: Slowest probe samples left out of the mean: one isolated stall of the
#: disk during a probe says nothing about the sub-run beside it.
FSYNC_TRIM = 2

#: Latency limit and floor on the committed share for ``vt_rate_at_slo``.
SLO_P95 = 30.0
SLO_COMMITTED = 0.85
SWEEP_SEEDS = 4
#: Seeds whose history is reduced in full and on evenly spaced prefixes
#: (the full ``check_pred`` is 94 s at 200 processes — unaffordable).
DEEP_SEEDS = 4
DEEP_PREFIXES = 8


class CheckFailed(Exception):
    """A correctness or determinism check did not hold."""


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


class _Accumulator:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, value: int) -> None:
        self.total += value


def _kernel() -> int:
    """Fixed pure-Python work: dict stores, int arithmetic, a method call."""
    accumulator = _Accumulator()
    add = accumulator.add
    table: Dict[int, int] = {}
    x = 1
    for i in range(KERNEL_LOOPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & 1023] = i
        add(x >> 16)
    return accumulator.total + len(table)


def kernel_seconds() -> float:
    """Current machine speed: the best of a few back-to-back kernels.

    Interference only ever adds time, so the minimum estimates the speed
    the neighbouring sub-run saw without inheriting a pre-emption spike.
    """
    best = float("inf")
    for _ in range(KERNEL_REPEATS):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best


def fsync_seconds(directory: str) -> float:
    """Current storage speed: the mean small append + fsync.

    The host's fsync latency drifts with its I/O load (wall time of
    identical durable sub-runs moved between 0.73 and 1.42 s within seven
    minutes, and 3.5× during one burst); time blocked in a sub-run follows
    this probe to within ≈ ±10 %, which no CPU kernel can see.  Blocked
    time is a sum of latencies, so the probe is a mean, not a median: under
    load the tail grows before the median does.
    """
    samples = []
    with open(os.path.join(directory, "fsync.probe"), "ab") as handle:
        for _ in range(FSYNC_PROBES):
            start = perf_counter()
            handle.write(b"x" * 128 + b"\n")
            handle.flush()
            os.fsync(handle.fileno())
            samples.append(perf_counter() - start)
    kept = sorted(samples)[:-FSYNC_TRIM]
    return sum(kept) / len(kept)


@dataclass
class Speed:
    """Machine speed at one instant: CPU kernel and, if asked, fsync."""

    kernel: float
    fsync: Optional[float]

    @classmethod
    def probe(cls, io_directory: Optional[str]) -> "Speed":
        return cls(
            kernel_seconds(),
            fsync_seconds(io_directory) if io_directory else None,
        )


class Stopwatch:
    """Wall and CPU seconds of one region, calibrated by its brackets."""

    def __init__(self) -> None:
        self.started = perf_counter()
        self._cpu_started = process_time()
        self.wall = self.cpu = 0.0

    def stop(self) -> None:
        self.wall = perf_counter() - self.started
        self.cpu = process_time() - self._cpu_started

    def calibrated(self, before: Speed, after: Speed) -> float:
        """Busy time in reference CPU, blocked time in reference fsyncs."""
        cpu_factor = C_REF / ((before.kernel + after.kernel) / 2)
        if before.fsync is None or after.fsync is None:
            return self.wall * cpu_factor
        blocked = max(self.wall - self.cpu, 0.0)
        io_factor = F_REF / ((before.fsync + after.fsync) / 2)
        return self.cpu * cpu_factor + blocked * io_factor


def lower_quartile(values: Sequence[float]) -> float:
    """The reported value of a wall-clock metric (interference adds time)."""
    return percentile(values, 0.25)


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count, printed beside every timing."""
    return {
        "p25": percentile(values, 0.25),
        "median": percentile(values, 0.50),
        "p75": percentile(values, 0.75),
        "samples": len(values),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# sub-runs and correctness
# ---------------------------------------------------------------------------


def history_hash(history) -> str:
    """sha256 of the serialized history.

    ``schedule_to_dict`` holds processes and events only — no transaction
    ids or other process-global counters, so the hash is a function of
    the scheduling decisions alone.
    """
    payload = json.dumps(schedule_to_dict(history), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class SubRun:
    #: Raw and calibrated seconds of world construction and the run phase.
    setup_raw: float
    run_raw: float
    setup_s: float
    run_s: float
    outcome: Outcome
    digest: str


def sub_run(
    world_cls,
    seed: int,
    workdir: str,
    inspect: Optional[Callable[[object, Outcome], None]] = None,
    profile: Optional[cProfile.Profile] = None,
    calibrate: bool = True,
    inputs=None,
    **world_args,
) -> SubRun:
    """Build a fresh world for ``seed``, run it, read the outcome back.

    Order: probe, build (timed), ``gc.collect()``, probe, run (timed),
    probe.  Each timed region is scaled by the mean of its two bracketing
    speed probes.  ``inspect`` runs before the world is closed, outside
    every timed region.
    """
    if inputs is None:
        inputs = world_cls.inputs(seed)
    directory = fresh_directory(workdir, "world")
    io_directory = workdir if world_cls.durable else None
    gc.collect()
    before = Speed.probe(io_directory) if calibrate else None
    if profile is not None:
        profile.enable()
    setup = Stopwatch()
    world = world_cls(inputs, directory, **world_args)
    setup.stop()
    if profile is not None:
        profile.disable()
    try:
        gc.collect()
        between = Speed.probe(io_directory) if calibrate else None
        if profile is not None:
            profile.enable()
        run = Stopwatch()
        world.run()
        run.stop()
        if profile is not None:
            profile.disable()
        after = Speed.probe(io_directory) if calibrate else None
        outcome = world.outcome()
        if inspect is not None:
            inspect(world, outcome)
    finally:
        world.close()
    return SubRun(
        setup_raw=setup.wall,
        run_raw=run.wall,
        setup_s=setup.calibrated(before, between) if calibrate else setup.wall,
        run_s=run.calibrated(between, after) if calibrate else run.wall,
        outcome=outcome,
        digest=history_hash(outcome.history),
    )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def reducible_on_prefixes(history) -> int:
    """Reduce the full history and evenly spaced prefixes; events checked."""
    lengths = [len(history)] + [
        len(history) * step // (DEEP_PREFIXES + 1)
        for step in range(1, DEEP_PREFIXES + 1)
    ]
    for length in lengths:
        _require(
            reduce_schedule(history.prefix(length)).is_reducible,
            f"history prefix of length {length} is not reducible",
        )
    return sum(lengths)


def verify(world, outcome: Outcome, deep: bool) -> None:
    """Phase V's checks on one finished sub-run (never timed)."""
    label = world.name
    _require(outcome.terminated, f"{label}: a process did not terminate")
    _require(
        len(outcome.latencies) == outcome.committed,
        f"{label}: {outcome.committed} commits but "
        f"{len(outcome.latencies)} latencies",
    )
    _require(outcome.committed > 0, f"{label}: nothing committed")
    for problem in world.audit():
        raise CheckFailed(f"{label}: {problem}")
    if deep:
        reducible_on_prefixes(outcome.history)


# ---------------------------------------------------------------------------
# Phase V + T: verify, virtual time and wall clock over the seed window
# ---------------------------------------------------------------------------


def measure_phase(
    world_cls,
    seeds: Sequence[int],
    seconds: float,
    min_sub_runs: int,
    workdir: str,
    strict: bool = True,
) -> Dict[str, object]:
    """Whole passes over ``seeds`` until ``seconds`` of sub-run time.

    The first pass doubles as Phase V: every sub-run is verified, hashed
    and tallied in virtual time after its timed regions.  Later passes
    are identical sub-runs and must reproduce the first pass's hashes.
    Per seed, the lower quartile of its calibrated samples is kept; the
    wall-clock metrics are sums over the window.
    """
    digests: Dict[int, str] = {}
    setup_samples: Dict[int, List[float]] = {seed: [] for seed in seeds}
    run_samples: Dict[int, List[float]] = {seed: [] for seed in seeds}
    # Phase V's pooled tallies; the histories themselves are not kept, so
    # peak memory is the system's and not the benchmark's.
    offered = committed = forward = compensating = 0
    makespan = 0.0
    latencies: List[float] = []
    raw_seconds = 0.0
    sub_runs = 0
    passes = 0
    # Whole passes only: at least one, then as many as come nearest to
    # ``seconds`` of sub-run time.
    while (
        passes == 0
        or sub_runs < min_sub_runs
        or raw_seconds * (1 + 0.5 / passes) < seconds
    ):
        passes += 1
        for position, seed in enumerate(seeds):
            if seed not in digests:
                deep = position < (DEEP_SEEDS if strict else 1)
                result = sub_run(
                    world_cls,
                    seed,
                    workdir,
                    inspect=lambda world, outcome: verify(world, outcome, deep),
                )
                digests[seed] = result.digest
                outcome = result.outcome
                offered += outcome.offered
                committed += outcome.committed
                makespan += outcome.makespan
                latencies.extend(outcome.latencies)
                for event in outcome.history.events:
                    if isinstance(event, ActivityEvent):
                        if event.activity.direction.exponent == 1:
                            forward += 1
                        else:
                            compensating += 1
            else:
                result = sub_run(world_cls, seed, workdir)
                _require(
                    result.digest == digests[seed],
                    f"{world_cls.name}: seed {seed} gave history "
                    f"{result.digest[:16]}, Phase V gave "
                    f"{digests[seed][:16]}",
                )
            setup_samples[seed].append(result.setup_s)
            run_samples[seed].append(result.run_s)
            raw_seconds += result.setup_raw + result.run_raw
            sub_runs += 1

    beyond_p95 = len(latencies) - int(0.95 * len(latencies))
    # ``--quick`` pools too few seeds for a supported p95.
    _require(
        beyond_p95 >= 10 or not strict,
        f"{world_cls.name}: only {beyond_p95} latency samples beyond p95",
    )
    run_s = sum(lower_quartile(run_samples[seed]) for seed in seeds)
    setup_s = sum(lower_quartile(setup_samples[seed]) for seed in seeds)
    return {
        "metrics": {
            "setup_s": setup_s / len(seeds),
            "commits_per_s": committed / run_s,
            "committed_fraction": committed / offered,
            "vt_goodput": committed / makespan,
            "vt_latency_p50": percentile(latencies, 0.50),
            "vt_latency_p95": percentile(latencies, 0.95),
            # 1 − lost_work_fraction: the driver needs metrics that are
            # never 0, and durable-closed compensates nothing.
            "kept_work_fraction": 1 - compensating / forward,
        },
        "attempted": offered,
        "failed": offered - committed,
        "hashes": {str(seed): digests[seed] for seed in seeds},
        "info": {
            "sub_runs": sub_runs,
            "raw_seconds": raw_seconds,
            "latency_samples": len(latencies),
            "run_s_per_seed": {
                str(seed): spread(run_samples[seed]) for seed in seeds
            },
            "setup_s_per_seed": {
                str(seed): spread(setup_samples[seed]) for seed in seeds
            },
        },
    }


# ---------------------------------------------------------------------------
# Phase C: exact call counts
# ---------------------------------------------------------------------------


def count_phase(
    world_cls,
    seeds: Sequence[int],
    hashes: Dict[str, str],
    workdir: str,
) -> Dict[str, object]:
    """Function calls (built-ins included) under cProfile, per commit.

    Set-up and run phase are both counted.  Runs last, after every seed
    has been through the process once, so in-process caches are in the
    same state on every invocation and the count repeats exactly.
    """
    profile = cProfile.Profile()
    committed = 0
    for seed in seeds:
        result = sub_run(
            world_cls, seed, workdir, profile=profile, calibrate=False
        )
        _require(
            result.digest == hashes.get(str(seed), result.digest),
            f"{world_cls.name}: seed {seed} under cProfile gave another "
            f"history than before",
        )
        committed += result.outcome.committed
    calls = sum(entry.callcount for entry in profile.getstats())
    return {
        "metrics": {"calls_per_commit": calls / committed},
        "info": {"calls": calls, "committed": committed, "seeds": list(seeds)},
    }


# ---------------------------------------------------------------------------
# Phase L: the layer table, from outside
# ---------------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _table_metrics(
    table: LayerTable, committed: int, factor: float
) -> Dict[str, float]:
    """The generic triple for every layer seen inside the table's root."""
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = table.calls[layer] / committed
        metrics[f"{layer}.self_ms"] = (
            table.self_ns[layer] / 1e6 * factor / committed
        )
        metrics[f"{layer}.share"] = table.self_ns[layer] / table.root_ns
    return metrics


def _extras(
    table: LayerTable, outcome: Outcome, factor: float
) -> Dict[str, float]:
    """Named per-layer extras, counted at the same boundaries as the spans."""
    counts = outcome.counts
    committed = outcome.committed
    offered = outcome.offered
    dispatched = counts.get("dispatched", 0)
    rounds = counts.get(
        "driver_rounds", table.count("core.scheduler.dispatch_order")
    )
    cycle_checks = counts.get("cycle_dfs", 0) + counts.get("cycle_fast_path", 0)
    appends = table.count("subsystems.wal.append")
    wal_bytes = counts.get("wal_final_bytes", 0) + sum(
        table.probed("subsystems.wal.checkpoint")  # type: ignore[arg-type]
    )
    append_us = [
        ns / 1e3 * factor for ns in table.durations_ns("subsystems.wal.append")
    ]
    apply_us = [
        ns / 1e3 * factor
        for ns in table.durations_ns("subsystems.backend.apply")
    ]
    checkpoint_ms = [
        ns / 1e6 * factor
        for ns in table.durations_ns("subsystems.wal.checkpoint")
    ]
    round_ms = [
        ns / 1e6 * factor
        for ns in table.durations_ns("fed.twopc.commit_group")
    ]
    messages = table.count("fed.messages.request") + table.count(
        "fed.messages.post"
    )
    return {
        "core.scheduler.requests_per_activity": _ratio(
            dispatched + counts.get("deferred", 0), dispatched
        ),
        "sim.runner.rounds_per_activity": _ratio(rounds, dispatched),
        "core.scheduler.stall_resolutions_per_offered": _ratio(
            table.count("core.scheduler.resolve_stall"), offered
        ),
        "core.scheduler.victim_aborts_per_offered": _ratio(
            counts.get("victim_aborts", 0), offered
        ),
        "core.sergraph.edge_updates_per_activity": _ratio(
            counts.get("edge_updates", 0), dispatched
        ),
        "core.sergraph.cycle_dfs_fraction": _ratio(
            counts.get("cycle_dfs", 0), cycle_checks
        ),
        "core.conflict.lookups_per_activity": _ratio(
            counts.get("conflict_lookups", 0), dispatched
        ),
        "core.conflict.cache_hit_rate": _ratio(
            counts.get("conflict_cache_hits", 0),
            counts.get("conflict_lookups", 0),
        ),
        "core.admission.rejected_fraction": _ratio(
            counts.get("rejected", 0), offered
        ),
        "core.admission.shed_fraction": _ratio(counts.get("shed", 0), offered),
        "core.admission.queue_peak": counts.get("queue_peak", 0),
        "subsystems.wal.records_per_commit": _ratio(appends, committed),
        "subsystems.wal.bytes_per_commit": _ratio(wal_bytes, committed),
        "subsystems.wal.fsyncs_per_commit": _ratio(
            counts.get("wal_fsyncs", 0), committed
        ),
        "subsystems.wal.append_us_p50": percentile(append_us, 0.50),
        "subsystems.wal.append_us_p95": percentile(append_us, 0.95),
        "subsystems.backend.fsyncs_per_commit": _ratio(
            counts.get("store_fsyncs", 0), committed
        ),
        "subsystems.backend.apply_us_p50": percentile(apply_us, 0.50),
        "subsystems.backend.apply_us_p95": percentile(apply_us, 0.95),
        "subsystems.twophase.groups_per_commit": _ratio(
            counts.get("2pc_groups", 0), committed
        ),
        "subsystems.wal.checkpoints": len(checkpoint_ms),
        "subsystems.wal.checkpoint_ms_max": max(checkpoint_ms, default=0.0),
        "fed.messages.msgs_per_commit": _ratio(messages, committed),
        "fed.messages.retry_fraction": _ratio(
            counts.get("requests_failed", 0), counts.get("requests_sent", 0)
        ),
        "fed.twopc.rounds_per_commit": _ratio(len(round_ms), committed),
        "fed.twopc.round_ms_p50": percentile(round_ms, 0.50),
        "fed.federation.gate_deferrals_per_activity": _ratio(
            counts.get("fed_deferrals", 0), dispatched
        ),
        "fed.federation.cross_victims_per_offered": _ratio(
            counts.get("cross_victims", 0), offered
        ),
        "resilience.retries_per_offered": _ratio(
            counts.get("resilience_retries", 0), offered
        ),
        "resilience.breaker_trips": counts.get("breaker_trips", 0),
    }


def layer_phase(
    world_cls,
    seed: int,
    repeats: int,
    workdir: str,
    trace_path: str,
) -> Dict[str, object]:
    """Seed ``seed`` untraced, with the repo's bus, and with the wrappers.

    The three variants are interleaved ``repeats`` times and must all
    produce the same history; the layer table is read from the fastest
    traced repetition.
    """
    plain: List[SubRun] = []
    bussed: List[SubRun] = []
    traced: List[SubRun] = []
    tracers: List[Tracer] = []
    events = 0
    for _ in range(repeats):
        plain.append(sub_run(world_cls, seed, workdir))
        bus = TraceBus()
        sink = bus.subscribe(MemorySink())
        bussed.append(sub_run(world_cls, seed, workdir, trace=bus))
        events = len(sink)
        with Tracer() as tracer:
            traced.append(sub_run(world_cls, seed, workdir))
        tracers.append(tracer)
    _require(not Tracer.installed(), "span wrappers were left installed")
    digests = {run.digest for run in plain + bussed + traced}
    _require(
        len(digests) == 1,
        f"{world_cls.name}: tracing changed the history of seed {seed}",
    )
    fastest = min(range(repeats), key=lambda index: traced[index].run_s)
    best, best_run = tracers[fastest], traced[fastest]
    outcome = best_run.outcome
    factor = best_run.run_s / best_run.run_raw
    table = LayerTable(best, world_cls.root_span)
    metrics = _table_metrics(table, outcome.committed, factor)
    metrics.update(_extras(table, outcome, factor))
    metrics["obs.bus.events_per_commit"] = events / outcome.committed
    # Each variant against the untraced run of its own repetition: the
    # median of paired ratios shrugs off drift between repetitions.
    metrics["obs.bus.overhead_ratio"] = percentile(
        [on.run_s / off.run_s for on, off in zip(bussed, plain)], 0.5
    )
    metrics["spine.trace_overhead_ratio"] = percentile(
        [on.run_s / off.run_s for on, off in zip(traced, plain)], 0.5
    )
    before = Speed.probe(None)
    verifying = Stopwatch()
    checked = reducible_on_prefixes(outcome.history)
    verifying.stop()
    metrics["core.reduction.verify_ms_per_event"] = (
        verifying.calibrated(before, Speed.probe(None)) * 1e3 / checked
    )
    best.write_chrome_trace(trace_path)
    layer_sum = sum(table.self_ns.values())
    _require(
        abs(layer_sum - table.root_ns) <= 0.01 * table.root_ns,
        f"{world_cls.name}: layer self times sum to {layer_sum} ns, "
        f"root span is {table.root_ns} ns",
    )
    return {
        "metrics": metrics,
        "attempted": outcome.offered,
        "failed": outcome.offered - outcome.committed,
        "hash": best_run.digest,
        "info": {
            "root_ms": table.root_ns / 1e6,
            "spans": len(table.inside),
            "untraced_run_s": min(run.run_s for run in plain),
            "repeats": repeats,
        },
    }


# ---------------------------------------------------------------------------
# Phase R: recovery, the durable layer used the other way round
# ---------------------------------------------------------------------------


def _ledger_rows(path: str) -> Dict[str, int]:
    """Rows per ledger service in a sqlite store reopened from disk."""
    backend = SqliteBackend(path)
    try:
        rows: Dict[str, int] = {}
        for key, value in backend.snapshot().items():
            service = key.split("/", 1)[0]
            expected = -1 if service.endswith("~inv") else 1
            _require(value == expected, f"ledger row {key!r} holds {value!r}")
            rows[service] = rows.get(service, 0) + 1
        return rows
    finally:
        backend.close()


def _check_recovery(world: DurableClosed, reopened: FileWAL, report) -> None:
    """Phase R's checks on one finished recovery (never timed)."""
    registry = world.scheduler.registry
    conflicts = world.workload.conflicts
    length = len(reopened)
    again = recovery.recover(
        reopened, registry, world.repository, conflicts=conflicts
    )
    _require(
        again.noop and len(reopened) == length,
        "second recover() was not a no-op",
    )
    _require(
        not registry.prepared_transactions(),
        "a prepared transaction survived recovery",
    )
    replayed = recovery.replay_history(reopened, world.repository, conflicts)
    _require(
        reduce_schedule(replayed).is_reducible,
        "replayed history is not reducible",
    )
    # Every surviving activity of the combined history has its row on
    # disk: +1 per forward event, −1 per compensation.  Processes that
    # terminated before the crash are read from the crashed scheduler,
    # the others from the recovery's history.
    recovered = set(report.group_aborted)
    events = [
        event
        for event in world.scheduler.history().events
        if event.process_id not in recovered
    ] + list(report.history.events)
    expected: Dict[str, int] = {}
    for event in events:
        if isinstance(event, ActivityEvent):
            expected[event.service] = expected.get(event.service, 0) + 1
    world.close()
    rows = _ledger_rows(world.hub.path_for("default"))
    _require(
        rows == expected,
        f"sqlite rows {rows} differ from the history's events {expected}",
    )


def _crash_and_recover(
    seed: int, crash_lsn: int, workdir: str
) -> Dict[str, float]:
    """Drive the durable world into a crash at ``crash_lsn``, then time
    reopening the WAL file and ``recover()`` to completion, and check it."""
    world = DurableClosed(
        DurableClosed.inputs(seed),
        fresh_directory(workdir, "world"),
        wrap_wal=lambda inner: CrashingWAL(inner, crash_lsn=crash_lsn),
    )
    try:
        try:
            world.run()
        except SimulatedCrash:
            pass
        else:
            raise CheckFailed(f"no crash at LSN {crash_lsn}")
        world.scheduler.crash()
        world.wal.close()
        gc.collect()
        before = Speed.probe(workdir)
        watch = Stopwatch()
        reopened = FileWAL(world.wal_path, fsync=True)
        opened = perf_counter()
        try:
            report = recovery.recover(
                reopened,
                world.scheduler.registry,
                world.repository,
                conflicts=world.workload.conflicts,
            )
            watch.stop()
            after = Speed.probe(workdir)
            _check_recovery(world, reopened, report)
        finally:
            reopened.close()
    finally:
        world.close()
    recovery_s = watch.calibrated(before, after)
    factor = recovery_s / watch.wall
    return {
        "factor": factor,
        "recovery_s": recovery_s,
        "reopen_ms": (opened - watch.started) * 1e3 * factor,
        "recover_ms": (watch.started + watch.wall - opened) * 1e3 * factor,
        "records_scanned": report.analysis.records_scanned,
        "completions": len(report.group_aborted),
    }


def recovery_phase(seed: int, samples: int, workdir: str) -> Dict[str, object]:
    """``samples`` timed recoveries of seed ``seed`` crashed at 60 % of
    the clean run's last LSN (chosen by LSN only, never by wall clock),
    plus one traced recovery for the layer's own triple."""
    clean: List[int] = []
    sub_run(
        DurableClosed,
        seed,
        workdir,
        inspect=lambda world, outcome: clean.append(
            int(world.wal.records()[-1]["lsn"])
        ),
        calibrate=False,
    )
    crash_lsn = int(0.6 * clean[0])
    runs = [
        _crash_and_recover(seed, crash_lsn, workdir) for _ in range(samples)
    ]
    with Tracer() as tracer:
        traced = _crash_and_recover(seed, crash_lsn, workdir)
    table = LayerTable(tracer, "subsystems.recovery.recover")
    completions = max(traced["completions"], 1)
    layer = "subsystems.recovery"
    for name in ("records_scanned", "completions"):
        _require(
            len({run[name] for run in runs + [traced]}) == 1,
            f"recovery {name} differs between identical crashes",
        )
    return {
        "metrics": {
            "recovery_s": lower_quartile([run["recovery_s"] for run in runs]),
            f"{layer}.reopen_ms": lower_quartile(
                [run["reopen_ms"] for run in runs]
            ),
            f"{layer}.recover_ms": lower_quartile(
                [run["recover_ms"] for run in runs]
            ),
            f"{layer}.records_scanned": runs[0]["records_scanned"],
            f"{layer}.completions": runs[0]["completions"],
            f"{layer}.calls": table.calls[layer] / completions,
            f"{layer}.self_ms": table.self_ns[layer]
            / 1e6
            * traced["factor"]
            / completions,
            f"{layer}.share": table.self_ns[layer] / table.root_ns,
        },
        "info": {
            "crash_lsn": crash_lsn,
            "recovery_s": spread([run["recovery_s"] for run in runs]),
        },
    }


# ---------------------------------------------------------------------------
# the open-loop rate sweep
# ---------------------------------------------------------------------------


def sweep_phase(seed: int, seeds: int, workdir: str) -> Dict[str, object]:
    """Pooled p95 and committed share at each swept rate; the knee.

    ``vt_rate_at_slo`` is the highest rate whose pooled p95 stays within
    ``SLO_P95``, whose committed share stays above ``SLO_COMMITTED`` and
    which ends with an empty admission queue.
    """
    rows = []
    best = 0.0
    for rate in SWEEP_RATES:
        latencies: List[float] = []
        offered = committed = 0
        drained = True
        for offset in range(seeds):
            result = sub_run(
                OpenSteady,
                seed + offset,
                workdir,
                calibrate=False,
                inputs=OpenSteady.inputs(seed + offset, rate),
            )
            outcome = result.outcome
            latencies.extend(outcome.latencies)
            offered += outcome.offered
            committed += outcome.committed
            drained = drained and outcome.terminated
        p95 = percentile(latencies, 0.95)
        fraction = committed / offered
        meets = drained and p95 <= SLO_P95 and fraction >= SLO_COMMITTED
        if meets:
            best = max(best, rate)
        rows.append(
            {
                "rate": rate,
                "vt_latency_p95": p95,
                "committed_fraction": fraction,
                "meets_slo": meets,
            }
        )
    return {"metrics": {"vt_rate_at_slo": best}, "info": {"sweep": rows}}
