"""Command-line interface: ``python -m repro <command>``.

``python -m repro --help`` lists the commands and ``<command> --help``
their flags; what the help text does not say:

``check <schedule.json>`` / ``render <process.json>`` / ``dot <file.json>``
    Classify, pretty-print or export serialized schedules and process
    templates; ``check`` exits 1 unless the schedule is PRED.

``workload`` / ``sweep``
    The X2 benchmark à la carte: one random well-formed workload under
    one discipline (metrics row plus correctness grades), or a
    conflict-rate sweep over several.

``demo``
    The built-in CIM demonstration (the paper's Figure 1).

``chaos`` / ``crashpoints`` / ``overload`` / ``federation``
    The fault harnesses.  Each prints one row per run and exits
    non-zero unless every run certifies (PRED + reducible + terminated)
    and its own audit is clean: ``crashpoints`` additionally demands
    idempotent, durable recovery and stores equal to the surviving
    history at every crash point and every surviving cut of the log
    (a power cut keeps only what was forced), ``overload`` zero F-REC
    sheds and positive goodput, ``federation`` zero lost / duplicated
    commit decisions, no in-doubt residue and no lost processes.

``nemesis search|run|replay``
    One seeded fault plan drives every injector family; ``search``
    shrinks and bundles what it finds, ``replay`` must reproduce the
    identical violation.

``explain`` / ``top`` / ``slow`` ``<trace.jsonl>``
    Read an exported trace: the rule behind a blocking decision
    (``--check`` validates the stream first), the ops console replayed,
    or one process's commit latency attributed to phases.  ``explain``
    and ``slow`` exit 0 when something is named, 1 when the trace has
    nothing to name, 2 on a malformed trace.

Exit codes follow :mod:`repro.sim.certify`: 0 healthy, 1 correctness
violation, 2 usage or typed error.  The run commands all accept
``--trace PATH`` (structured JSONL trace), ``--chrome-trace PATH``
(Chrome/Perfetto trace-event JSON), ``--metrics PATH`` (Prometheus text
format) and ``--live-interval T`` (render the live ops console to
stderr every ``T`` units of virtual time while the run streams).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from types import SimpleNamespace
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.analysis.dot import process_to_dot, schedule_to_dot
from repro.analysis.viz import render_process, render_schedule
from repro.core.flex import enumerate_executions
from repro.core.pred import check_pred
from repro.core.recoverability import check_process_recoverability
from repro.core.reduction import reduce_schedule
from repro.core.serialize import (
    process_from_json,
    schedule_from_dict,
)
from repro.errors import CorrectnessViolation, ReproError
from repro.obs import (
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    OpsConsole,
    TraceBus,
    TraceEvent,
    attribution,
    critical_paths,
    explain_trace,
    read_trace,
    validate_stream,
    write_chrome_trace,
    write_prometheus,
)
from repro.sim.certify import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION
from repro.sim.experiments import DISCIPLINES
from repro.sim.workload import WorkloadSpec
from repro.subsystems.backend import BACKEND_KINDS


#: Fault kinds a chaos mix injects (``--<kind>-rate`` overrides one).
CHAOS_FAULT_KINDS = ("abort", "latency", "hang", "crash")


@contextlib.contextmanager
def _observed(args: argparse.Namespace) -> Iterator[SimpleNamespace]:
    """CLI-side observability wiring shared by the run commands.

    Yields ``bus`` and ``registry`` (each ``None`` unless asked for): one
    trace bus and one metrics registry for the whole command (a sweep's
    runs share them, so sequence numbers stay monotone and metrics
    aggregate).  Leaving the block writes the requested exports — also
    when the run raised — with one stderr note per artefact.
    """
    registry = MetricsRegistry() if args.metrics else None
    bus = memory = console = None
    if args.trace or args.chrome_trace or args.live_interval:
        bus = TraceBus()
        if args.trace:
            bus.subscribe(JsonlSink(args.trace))
        if args.chrome_trace:
            memory = bus.subscribe(MemorySink())
        if args.live_interval:
            console = bus.subscribe(
                OpsConsole(interval=args.live_interval, out=sys.stderr)
            )
    try:
        yield SimpleNamespace(bus=bus, registry=registry)
    finally:
        if console is not None:
            print(console.render(), file=sys.stderr)
        if bus is not None:
            if memory is not None:
                write_chrome_trace(args.chrome_trace, memory.records())
                print(f"wrote chrome trace: {args.chrome_trace}", file=sys.stderr)
            bus.close()
            if args.trace:
                print(f"wrote trace: {args.trace}", file=sys.stderr)
        if registry is not None:
            write_prometheus(args.metrics, registry)
            print(f"wrote metrics: {args.metrics}", file=sys.stderr)


def _run_command(
    args: argparse.Namespace,
    sweep: Callable[[SimpleNamespace], Sequence],
    title: str,
    summarize: Callable[[Sequence], Tuple[str, bool]],
    fatal: tuple = (),
    fatal_code: int = EXIT_VIOLATION,
) -> int:
    """The shape the four fault-harness commands share.

    ``sweep(obs)`` runs under one observability session (exports are
    written even when it raises) and returns one result per run; their
    rows are printed as one table titled ``title``; ``summarize``
    turns them into the text printed below it and the health verdict
    the exit code reports.  Errors of the ``fatal`` types are reported
    on stderr and exit with ``fatal_code`` (everything else propagates
    to :func:`main`).
    """
    with _observed(args) as obs:
        try:
            results = sweep(obs)
        except fatal as error:
            print(f"error: {error}", file=sys.stderr)
            return fatal_code
    print(format_table([result.row() for result in results], title=title))
    summary, healthy = summarize(results)
    print(f"\n{summary}")
    return EXIT_OK if healthy else EXIT_VIOLATION


def _cmd_check(args: argparse.Namespace) -> int:
    with open(args.schedule, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    schedule = schedule_from_dict(payload)
    print(render_schedule(schedule))
    print()
    rows = [{"property": "legal execution", "verdict": schedule.is_legal()}]
    rows.append(
        {
            "property": "serializable",
            "verdict": schedule.is_serializable(),
            "witness": " ≪ ".join(schedule.serialization_order() or [])
            or "; ".join("→".join(c) for c in schedule.cycles()),
        }
    )
    reduction = reduce_schedule(schedule)
    rows.append(
        {
            "property": "reducible (RED)",
            "verdict": reduction.is_reducible,
            "witness": (
                f"cancelled {len(reduction.cancelled_pairs)} pairs"
                if reduction.is_reducible
                else "cycle " + "→".join(reduction.witness_cycle or ())
            ),
        }
    )
    pred = check_pred(schedule)
    rows.append(
        {
            "property": "prefix-reducible (PRED)",
            "verdict": pred.is_pred,
            "witness": (
                f"{pred.prefixes_checked} prefixes"
                if pred.is_pred
                else f"prefix {pred.violating_prefix_length} irreducible"
            ),
        }
    )
    proc_rec = check_process_recoverability(schedule)
    rows.append(
        {
            "property": "process-recoverable (Proc-REC)",
            "verdict": proc_rec.is_process_recoverable,
            "witness": (
                ""
                if proc_rec.is_process_recoverable
                else str(proc_rec.violations[0])
            ),
        }
    )
    print(
        format_table(
            rows,
            columns=["property", "verdict", "witness"],
            title=f"Classification of {args.schedule}",
        )
    )
    return 0 if pred.is_pred else 1


def _cmd_render(args: argparse.Namespace) -> int:
    with open(args.process, "r", encoding="utf-8") as handle:
        process = process_from_json(handle.read())
    print(render_process(process))
    if args.executions:
        print()
        print("valid executions:")
        for path in enumerate_executions(process):
            print(f"  {path}")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.sim.experiments import run_graded

    spec = WorkloadSpec(
        processes=args.processes,
        conflict_rate=args.conflicts,
        failure_rate=args.failures,
        seed=args.seed,
    )
    with _observed(args) as obs:
        instrumented = obs.bus is not None or obs.registry is not None
        if instrumented and args.scheduler != "pred":
            print(
                "note: --trace/--chrome-trace/--metrics instrument the "
                "pred scheduler; baseline disciplines emit no events",
                file=sys.stderr,
            )
        metrics, history = run_graded(
            args.scheduler,
            spec,
            order=args.order,
            backend=args.backend,
            trace=obs.bus,
            metrics=obs.registry,
        )
    print(format_table([metrics.row()], title=f"workload seed={args.seed}"))
    if args.perf_counters:
        print()
        print(
            format_table(
                [metrics.perf_row()],
                title="incremental-core perf counters",
            )
        )
    if args.show_history:
        print()
        print(render_schedule(history))
    return EXIT_OK


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.scenarios.cim import run_cim

    scenario, scheduler = run_cim(fail_test=args.fail_test)
    print(render_schedule(scheduler.history()))
    print()
    rows = [
        {
            "process": pid,
            "status": status.value,
        }
        for pid, status in sorted(scheduler.statuses().items())
    ]
    print(format_table(rows, title="CIM demo (paper §2, Figure 1)"))
    print(
        f"\nparts produced: "
        f"{scenario.registry.get('floor').store.get('produced')}"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sim.experiments import sweep

    rows = sweep(
        conflict_rates=args.conflicts,
        failure_rates=args.failures,
        disciplines=args.disciplines or None,
        processes=args.processes,
        seed=args.seed,
        order=args.order,
    )
    print(
        format_table(
            rows,
            columns=[
                "scheduler",
                "conflict_rate",
                "failure_rate",
                "makespan",
                "committed",
                "aborted",
                "restarts",
                "legal",
                "serializable",
                "pred",
            ],
            title="discipline sweep",
        )
    )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from dataclasses import replace

    import repro.sim.chaos as chaos

    mixes = chaos.default_mixes(processes=args.processes)
    if args.mix != "all":
        mixes = [spec for spec in mixes if spec.name == args.mix]
    overrides = {
        f"{kind}_rate": getattr(args, f"{kind}_rate")
        for kind in CHAOS_FAULT_KINDS
        if getattr(args, f"{kind}_rate") is not None
    }
    mixes = [
        replace(
            spec,
            timeout=args.timeout,
            max_attempts=args.max_attempts,
            breaker_threshold=args.breaker_threshold,
            breaker_reset=args.breaker_reset,
            backend=args.backend,
            **overrides,
        )
        for spec in mixes
    ]

    def summarize(results):
        certified = sum(1 for result in results if result.certified)
        degradations = sum(
            result.counters.get("degradations", 0) for result in results
        )
        return (
            f"{certified}/{len(results)} runs certified "
            f"(PRED + reducible + terminated); "
            f"{degradations} ◁-degradations taken"
        ), certified == len(results)

    return _run_command(
        args,
        lambda obs: chaos.chaos_sweep(
            mixes=mixes,
            seeds=args.seeds,
            certify=not args.no_certify,
            trace=obs.bus,
            metrics=obs.registry,
        ),
        f"chaos sweep (seeds {args.seeds})",
        summarize,
        fatal=(ValueError,),
        fatal_code=EXIT_USAGE,
    )


def _cmd_crashpoints(args: argparse.Namespace) -> int:
    import repro.sim.crashpoints as crashpoints

    base = crashpoints.CrashPointSpec(
        workload=WorkloadSpec(
            processes=args.processes,
            prefix_range=(1, 3),
            service_pool=8,
            conflict_rate=args.conflicts,
        ),
        abort_rate=args.abort_rate,
        checkpoint_interval=args.checkpoint_interval,
        stride=args.stride,
        recovery_stride=args.recovery_stride,
        backend=args.backend,
    )

    def summarize(sweeps):
        total = sum(len(sweep.results) for sweep in sweeps)
        faults = sum(len(sweep.file_faults) for sweep in sweeps)
        disk = sum(len(sweep.disk_faults) for sweep in sweeps)
        kills = sum(len(sweep.real_kills) for sweep in sweeps)
        certified = all(sweep.all_certified for sweep in sweeps)
        extras = ""
        if disk:
            extras += f" + {disk} disk faults"
        if kills:
            extras += f" + {kills} real kills"
        lines = [
            f"{total} crash points (each LSN at every surviving cut of the "
            f"log) + {faults} file faults{extras} swept; "
            f"{'all certified' if certified else 'CERTIFICATION FAILURES'} "
            f"(PRED + reducible + terminated + idempotent durable recovery "
            f"+ stores equal the surviving history)"
        ]
        lines.extend(
            f"  seed {sweep.spec.seed}: {note}"
            for sweep in sweeps
            for note in sweep.failures
        )
        return "\n".join(lines), certified

    return _run_command(
        args,
        lambda obs: [
            crashpoints.run_crashpoints(
                base.with_seed(seed),
                file_faults=not args.no_file_faults,
                trace=obs.bus,
                metrics=obs.registry,
            )
            for seed in args.seeds
        ],
        f"crash-point sweep (seeds {args.seeds})",
        summarize,
    )


def _cmd_overload(args: argparse.Namespace) -> int:
    import repro.sim.overload as overload

    base = overload.OverloadSpec(
        workload=WorkloadSpec(
            processes=args.processes,
            service_pool=16,
            conflict_rate=args.conflicts,
        ),
        max_active=args.max_active,
        max_queue_depth=args.queue_depth,
        max_queue_age=args.queue_age,
        shed_policy=args.shed_policy,
    )
    title = "overload sweep"
    if args.loads:
        loads = args.loads
    else:
        capacity = overload.estimate_capacity(base)
        loads = [capacity * factor for factor in (0.5, 1.0, 2.0, 4.0)]
        title += f" (capacity ~ {capacity:.3f} proc/t)"

    def summarize(results):
        certified = sum(1 for result in results if result.certified)
        frec_sheds = sum(result.frec_sheds for result in results)
        productive = sum(
            1 for result in results if result.metrics.processes_committed > 0
        )
        return (
            f"{certified}/{len(results)} runs certified "
            f"(PRED + reducible + terminated); {frec_sheds} F-REC sheds "
            f"(must be 0); {productive}/{len(results)} runs committed work"
        ), (
            certified == len(results)
            and frec_sheds == 0
            and productive == len(results)
        )

    return _run_command(
        args,
        lambda obs: overload.overload_sweep(
            loads,
            base=base,
            seeds=args.seeds,
            certify=not args.no_certify,
            trace=obs.bus,
            metrics=obs.registry,
        ),
        title,
        summarize,
        fatal=(ReproError,),
    )


def _cmd_federation(args: argparse.Namespace) -> int:
    from repro.sim.federation import (
        FederationSpec,
        run_federation,
        scaling_sweep,
    )

    def sweep(obs: SimpleNamespace):
        if args.scaling:
            counts = tuple(
                count for count in (1, 2, 4, 8) if count <= args.shards
            )
            return scaling_sweep(counts, seeds=args.seeds, trace=obs.bus)
        base = FederationSpec(
            shards=args.shards,
            service_groups=2 * args.shards,
            processes_per_group=args.processes,
            cross_shard_fraction=args.cross,
            conflict_rate=args.conflicts,
            shard_capacity=args.capacity,
            drop_rate=args.drop,
            delay_rate=args.delay,
            duplicate_rate=args.duplicate,
            kills=tuple(
                (args.kill_start + args.kill_spacing * index, index,
                 args.downtime)
                for index in range(args.shards)
            ) if args.kill else (),
            partitions=tuple(
                (2.0 + 4.0 * index, index, index + 1, 2.0)
                for index in range(args.partitions)
            ) if args.shards > 1 else (),
        )
        return [
            run_federation(base.with_seed(seed), strict=False, trace=obs.bus)
            for seed in args.seeds
        ]

    def summarize(results):
        certified = sum(1 for result in results if result.certified)
        audits = [result.audit for result in results]
        lost = sum(len(audit.lost_decisions) for audit in audits)
        dups = sum(len(audit.dup_applications) for audit in audits)
        residue = sum(len(audit.in_doubt_residue) for audit in audits)
        lost_procs = sum(len(audit.lost_processes) for audit in audits)
        summary = (
            f"{certified}/{len(results)} runs certified "
            f"(PRED + reducible + terminated + audit); "
            f"{lost} lost decisions, {dups} duplicated applications, "
            f"{residue} in-doubt residue, {lost_procs} lost processes "
            f"(all must be 0)"
        )
        if args.scaling and len(results) > 1:
            by_shards = {result.spec.shards: result for result in results}
            low = by_shards[min(by_shards)]
            high = by_shards[max(by_shards)]
            if low.throughput > 0:
                summary += (
                    f"\nthroughput x{high.throughput / low.throughput:.2f} "
                    f"at {high.spec.shards} shards vs {low.spec.shards}"
                )
        return summary, (
            certified == len(results)
            and not (lost or dups or residue or lost_procs)
        )

    title = "federation scaling sweep" if args.scaling else (
        "federation chaos sweep" if args.kill else "federation sweep"
    )
    return _run_command(args, sweep, title, summarize, fatal=(ReproError,))


def _nemesis_spec(args: argparse.Namespace):
    from repro.nemesis import NemesisSpec

    groups = args.groups if args.groups else max(2 * args.shards, 2)
    return NemesisSpec(backend=args.backend, horizon=args.horizon).shaped(
        shards=args.shards,
        service_groups=groups,
        processes_per_group=args.processes,
        cross_shard_fraction=args.cross,
        conflict_rate=args.conflicts,
        seed=args.seed,
    )


def _nemesis_invariants(args: argparse.Namespace):
    """Invariant factory from flags (``None`` = the default registry)."""
    if not args.canary:
        return None
    from repro.nemesis import CanaryInvariant, default_invariants

    families = tuple(
        name.strip() for name in args.canary.split(",") if name.strip()
    )

    def factory():
        return default_invariants() + [
            CanaryInvariant(
                families=families, threshold=args.canary_threshold
            )
        ]

    return factory


def _print_nemesis_coverage(coverage) -> None:
    from repro.nemesis import ALL_SITES

    payload = coverage.to_dict()
    fired = ", ".join(payload["fired"]) or "none"
    print(
        f"fault-site coverage: {payload['percent']:.0f}% "
        f"({len(payload['fired'])}/{len(ALL_SITES)} sites; "
        f"families: {', '.join(coverage.families_covered()) or 'none'})"
    )
    print(f"fired sites: {fired}")


def _cmd_nemesis_search(args: argparse.Namespace) -> int:
    from repro.nemesis import nemesis_search

    with _observed(args) as obs:
        try:
            result = nemesis_search(
                _nemesis_spec(args),
                plans=args.plans,
                seed=args.search_seed,
                actions=args.actions,
                invariants=_nemesis_invariants(args),
                max_shrink_runs=args.max_shrink_runs,
                bundle_dir=args.bundle_dir,
                bundle_trace=not args.no_bundle_trace,
                trace=obs.bus,
                metrics_registry=obs.registry,
            )
        except CorrectnessViolation as error:
            print(f"violation: {error}", file=sys.stderr)
            return EXIT_VIOLATION
    print(result.summary())
    _print_nemesis_coverage(result.coverage)
    print(f"total plan executions: {result.total_runs}")
    if args.min_coverage and result.coverage.percent < args.min_coverage:
        print(
            f"coverage {result.coverage.percent:.0f}% below required "
            f"{args.min_coverage:.0f}%",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    if args.expect_violation:
        if not result.found:
            print(
                "expected a violation but the search came up clean",
                file=sys.stderr,
            )
            return EXIT_VIOLATION
        return EXIT_OK
    return EXIT_VIOLATION if result.found else EXIT_OK


def _cmd_nemesis_run(args: argparse.Namespace) -> int:
    from repro.nemesis import FaultPlan, run_plan

    with open(args.plan, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    # Accept either a bare plan file or a full bundle.
    if payload.get("format") == "repro/nemesis-bundle":
        payload = payload["plan"]
    try:
        plan = FaultPlan.from_dict(payload)
    except (KeyError, ValueError) as error:
        print(f"error: not a fault plan: {error}", file=sys.stderr)
        return EXIT_USAGE
    factory = _nemesis_invariants(args)
    with _observed(args) as obs:
        result = run_plan(
            _nemesis_spec(args),
            plan,
            invariants=factory() if factory is not None else None,
            trace=obs.bus,
            metrics_registry=obs.registry,
        )
    if result.violation is not None:
        print(f"violation: {result.violation.describe()}")
    else:
        print(
            f"clean run: certified="
            f"{bool(result.certification and result.certification.certified)}"
            f" audit={result.audit_clean} rounds={result.rounds}"
        )
    _print_nemesis_coverage(result.coverage)
    return EXIT_OK if result.clean else EXIT_VIOLATION


def _cmd_nemesis_replay(args: argparse.Namespace) -> int:
    from repro.nemesis import replay_bundle

    with _observed(args) as obs:
        report = replay_bundle(
            args.bundle,
            runs=args.runs,
            invariants=_nemesis_invariants(args),
            trace=obs.bus,
            metrics_registry=obs.registry,
        )
    print(report.describe())
    if report.reproduced:
        print(f"reproduced: identical violation in {args.runs}/{args.runs} replays")
        return EXIT_OK
    print("NOT reproduced", file=sys.stderr)
    return EXIT_VIOLATION


def _cmd_explain(args: argparse.Namespace) -> int:
    records = read_trace(args.trace)
    if args.check:
        errors = validate_stream(records)
        if errors:
            for line in errors[:20]:
                print(f"invalid: {line}", file=sys.stderr)
            if len(errors) > 20:
                print(
                    f"... and {len(errors) - 20} more problems",
                    file=sys.stderr,
                )
            return 1
        print(f"trace OK: {len(records)} events")
        if args.target is None:
            return 0
    explanation = explain_trace(records, target=args.target)
    if explanation is None:
        who = args.target or "any process"
        print(
            f"no blocking/rejecting/aborting decision recorded for {who}",
            file=sys.stderr,
        )
        return 1
    print(explanation.render())
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    records = read_trace(args.trace)
    console = OpsConsole(interval=args.interval, out=sys.stdout)
    for record in records:
        console.handle(TraceEvent.from_dict(record))
    print(console.render())
    return 0


def _cmd_slow(args: argparse.Namespace) -> int:
    records = read_trace(args.trace)
    paths = critical_paths(records)
    if not paths:
        print("no process spans in trace", file=sys.stderr)
        return 1
    if args.process is not None:
        path = paths.get(args.process)
        if path is None:
            print(
                f"no process {args.process!r} in trace "
                f"({len(paths)} processes recorded)",
                file=sys.stderr,
            )
            return 1
    else:
        path = max(paths.values(), key=lambda p: (p.duration, p.process))
    dominant = path.dominant
    if dominant is None:
        print(
            f"{path.process}: zero-duration span, nothing to attribute",
            file=sys.stderr,
        )
        return 1
    rows = [
        {
            "phase": phase,
            "time": f"{time:.2f}",
            "share": f"{time / path.duration:.1%}"
            if path.duration > 0
            else "-",
            "slices": path.counts.get(phase, 0),
        }
        for phase, time in sorted(
            path.phases.items(), key=lambda item: -item[1]
        )
    ]
    print(
        format_table(
            rows,
            columns=["phase", "time", "share", "slices"],
            title=(
                f"{path.process}: {path.duration:.2f}t end-to-end "
                f"[{path.start:.2f}, {path.end:.2f}]"
            ),
        )
    )
    print(
        f"\ndominant phase: {dominant} "
        f"({path.phases[dominant]:.2f}t, "
        f"{path.phases[dominant] / path.duration:.0%} of end-to-end)"
    )
    if dominant in ("queue-wait", "graph-admission"):
        explanation = explain_trace(records, target=path.process)
        decision = (
            explanation.decision if explanation is not None else None
        )
        if decision is not None and not decision.waiting_for:
            # The *last* decision may blame nobody by name (e.g. an
            # in-flight edge-exchange barrier); fall back to the most
            # recent deferral that names concrete predecessors.
            for record in reversed(records):
                if (
                    record.get("kind") == "deferred"
                    and record.get("process") == path.process
                    and (record.get("data") or {}).get("waiting_for")
                ):
                    data = record.get("data") or {}
                    print(
                        f"waiting on: "
                        f"{', '.join(data['waiting_for'])} "
                        f"(rule {data.get('rule') or '?'}: "
                        f"{data.get('reason') or ''})"
                    )
                    break
            else:
                print(
                    f"waiting on: (no named blocker) "
                    f"(rule {decision.rule or '?'}: "
                    f"{decision.reason or ''})"
                )
        elif decision is not None:
            print(
                f"waiting on: {', '.join(decision.waiting_for)} "
                f"(rule {decision.rule or '?'}: {decision.reason or ''})"
            )
        if explanation is not None:
            for pair in explanation.conflict_pairs():
                print(f"  conflicting predecessor: {pair[0]} @ {pair[1]}")
    if args.fleet:
        table = attribution(paths)
        print()
        print(
            format_table(
                [
                    {
                        "phase": phase,
                        "total": f"{row['total']:.2f}",
                        "share": f"{row['share']:.1%}",
                        "p50": f"{row['p50']:.2f}",
                        "p95": f"{row['p95']:.2f}",
                        "p99": f"{row['p99']:.2f}",
                        "procs": int(row["processes"]),
                    }
                    for phase, row in table.items()
                ],
                columns=[
                    "phase", "total", "share", "p50", "p95", "p99", "procs",
                ],
                title=f"fleet attribution ({len(paths)} processes)",
            )
        )
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    kind = payload.get("format")
    if kind == "repro/process":
        from repro.core.serialize import process_from_dict

        print(process_to_dot(process_from_dict(payload)))
        return 0
    if kind == "repro/schedule":
        print(schedule_to_dot(schedule_from_dict(payload)))
        return 0
    print(f"error: unknown format {kind!r}", file=sys.stderr)
    return 2


#: Flag groups several commands declare alike: ``(flag, add_argument
#: options)`` rows, turned into argparse parent parsers by :func:`_flags`.
OBS_FLAGS = (
    ("--trace", dict(
        metavar="PATH", default=None,
        help="write a structured JSONL trace of the run",
    )),
    ("--chrome-trace", dict(
        metavar="PATH", default=None,
        help="write a Chrome/Perfetto trace-event JSON file",
    )),
    ("--metrics", dict(
        metavar="PATH", default=None,
        help="write Prometheus text-format metrics",
    )),
    ("--live-interval", dict(
        type=float, metavar="T", default=None,
        help="render the live ops console to stderr every T units of "
        "virtual time (throughput, goodput, queue depth, breakers, "
        "per-phase p95, shard health)",
    )),
)
SEEDS_FLAGS = (("--seeds", dict(type=int, nargs="+", default=[0])),)
BACKEND_FLAGS = (
    ("--backend", dict(
        choices=list(BACKEND_KINDS), default="memory",
        help="store backend behind every subsystem (sqlite: real "
        "files on sqlite's write-ahead journal, synced at checkpoints; "
        "procpool: the same store in an external worker process); "
        "certification must be identical over every choice",
    )),
)
SHAPE_FLAGS = (
    ("--processes", dict(type=int, default=5)),
    ("--conflicts", dict(type=float, default=0.1)),
)
NO_CERTIFY_FLAGS = (
    ("--no-certify", dict(
        action="store_true",
        help="report instead of raising when a run fails certification",
    )),
)
FLEET_FLAGS = (
    ("--shards", dict(type=int, default=3, help="scheduler shards")),
    ("--processes", dict(
        type=int, default=2, help="processes per service group",
    )),
    ("--cross", dict(
        type=float, default=0.35,
        help="fraction of processes with a cross-shard footprint",
    )),
    ("--conflicts", dict(
        type=float, default=0.05,
        help="probability that two services conflict",
    )),
)
CANARY_FLAGS = (
    ("--canary", dict(
        default=None, metavar="FAM1,FAM2",
        help="arm the canary invariant for these fault families (a "
        "deterministic fault-injection-of-the-injector fixture; a "
        "replay must arm what the bundle's search armed)",
    )),
    ("--canary-threshold", dict(
        type=int, default=1,
        help="faults per family before the canary fires",
    )),
)
NEMESIS_FLAGS = (
    ("--groups", dict(
        type=int, default=0, help="service groups (default: 2x shards)",
    )),
    ("--seed", dict(type=int, default=0, help="workload seed")),
    ("--horizon", dict(
        type=float, default=24.0,
        help="virtual-time horizon fault actions are drawn from",
    )),
)


def _flags(*groups: tuple, **defaults: object) -> argparse.ArgumentParser:
    """A parent parser carrying the given flag groups.

    ``defaults`` (by destination) replace a group's own.  Built afresh
    for every command: argparse parents share their action objects, so
    a per-command default cannot be patched on afterwards.
    """
    parent = argparse.ArgumentParser(add_help=False)
    for flag, options in (row for group in groups for row in group):
        action = parent.add_argument(flag, **options)
        action.default = defaults.get(action.dest, action.default)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Transactional process management (PODS'99 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="classify a schedule JSON file")
    check.add_argument("schedule", help="path to a serialized schedule")
    check.set_defaults(handler=_cmd_check)

    render = commands.add_parser("render", help="pretty-print a process")
    render.add_argument("process", help="path to a serialized process")
    render.add_argument(
        "--executions",
        action="store_true",
        help="also enumerate the valid executions",
    )
    render.set_defaults(handler=_cmd_render)

    workload = commands.add_parser(
        "workload",
        help="run a random workload under a discipline",
        parents=[_flags(SHAPE_FLAGS, BACKEND_FLAGS, OBS_FLAGS)],
    )
    workload.add_argument("--failures", type=float, default=0.0)
    workload.add_argument("--seed", type=int, default=0)
    workload.add_argument(
        "--scheduler", choices=sorted(DISCIPLINES), default="pred"
    )
    workload.add_argument(
        "--order", choices=["strong", "weak"], default="strong"
    )
    workload.add_argument("--show-history", action="store_true")
    workload.add_argument(
        "--perf-counters",
        action="store_true",
        help="print the incremental scheduling core's perf counters "
        "(conflict-cache hits, index lookups, graph/topo maintenance, "
        "certification cost)",
    )
    workload.set_defaults(handler=_cmd_workload)

    demo = commands.add_parser("demo", help="run the CIM demonstration")
    demo.add_argument(
        "--fail-test",
        action="store_true",
        help="make the test activity fail (§2.2's recovery scenario)",
    )
    demo.set_defaults(handler=_cmd_demo)

    dot = commands.add_parser(
        "dot", help="export a process/schedule JSON file as Graphviz DOT"
    )
    dot.add_argument("file", help="path to a serialized process or schedule")
    dot.set_defaults(handler=_cmd_dot)

    sweep = commands.add_parser(
        "sweep", help="compare disciplines over a conflict/failure grid"
    )
    sweep.add_argument(
        "--conflicts", type=float, nargs="+", default=[0.0, 0.1, 0.3]
    )
    sweep.add_argument("--failures", type=float, nargs="+", default=[0.0])
    sweep.add_argument(
        "--disciplines", nargs="*", choices=sorted(DISCIPLINES), default=None
    )
    sweep.add_argument("--processes", type=int, default=5)
    sweep.add_argument("--seed", type=int, default=7)
    sweep.add_argument("--order", choices=["strong", "weak"], default="strong")
    sweep.set_defaults(handler=_cmd_sweep)

    chaos = commands.add_parser(
        "chaos",
        help="seeded chaos runs through the resilience layer",
        parents=[
            _flags(
                SEEDS_FLAGS, BACKEND_FLAGS, NO_CERTIFY_FLAGS, OBS_FLAGS,
                seeds=[0, 1, 2],
            )
        ],
    )
    chaos.add_argument(
        "--mix",
        choices=["all", "aborts", "latency", "hangs", "crashes", "mixed"],
        default="all",
        help="named fault mix (default: the full standard sweep)",
    )
    chaos.add_argument("--processes", type=int, default=8)
    for kind in CHAOS_FAULT_KINDS:
        chaos.add_argument(
            f"--{kind}-rate",
            type=float,
            default=None,
            help=f"override the mix's {kind} rate",
        )
    chaos.add_argument(
        "--timeout",
        type=float,
        default=3.0,
        help="per-invocation timeout (virtual time)",
    )
    chaos.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="retry budget per activity before ◁-degradation",
    )
    chaos.add_argument(
        "--breaker-threshold",
        type=int,
        default=2,
        help="consecutive failures before a breaker opens",
    )
    chaos.add_argument(
        "--breaker-reset",
        type=float,
        default=8.0,
        help="open-window length before the half-open probe",
    )
    chaos.set_defaults(handler=_cmd_chaos)

    crashpoints = commands.add_parser(
        "crashpoints",
        help="crash after every LSN, lose any unforced tail of the log "
        "(and crash every recovery step), certify; "
        "--backend sqlite adds the disk-fault torture, procpool one "
        "real-SIGKILL recovery run",
        parents=[
            _flags(
                SHAPE_FLAGS, SEEDS_FLAGS, BACKEND_FLAGS, OBS_FLAGS,
                processes=4, conflicts=0.08,
            )
        ],
    )
    crashpoints.add_argument(
        "--abort-rate",
        type=float,
        default=0.25,
        help="pre-crash chaos abort injection rate",
    )
    crashpoints.add_argument(
        "--checkpoint-interval",
        type=int,
        default=None,
        help="auto-checkpoint the WAL every N appends (default: never)",
    )
    crashpoints.add_argument(
        "--stride",
        type=int,
        default=1,
        help="crash after every Nth LSN (1 = every single one)",
    )
    crashpoints.add_argument(
        "--recovery-stride",
        type=int,
        default=1,
        help=(
            "sweep second-crash-during-recovery at every Nth crash point "
            "(0 disables)"
        ),
    )
    crashpoints.add_argument(
        "--no-file-faults",
        action="store_true",
        help="skip the torn-tail / bit-flip FileWAL torture",
    )
    crashpoints.set_defaults(handler=_cmd_crashpoints)

    overload = commands.add_parser(
        "overload",
        help="open-loop overload sweep through bounded admission",
        parents=[
            _flags(
                SHAPE_FLAGS, SEEDS_FLAGS, NO_CERTIFY_FLAGS, OBS_FLAGS,
                processes=24, conflicts=0.03,
            )
        ],
    )
    overload.add_argument(
        "--loads",
        type=float,
        nargs="+",
        default=None,
        help=(
            "offered loads (proc/t); default sweeps 0.5x-4x the "
            "estimated capacity"
        ),
    )
    overload.add_argument(
        "--max-active",
        type=int,
        default=4,
        help="concurrent admitted processes (admission bound)",
    )
    overload.add_argument(
        "--queue-depth",
        type=int,
        default=8,
        help="admission queue depth bound",
    )
    overload.add_argument(
        "--queue-age",
        type=float,
        default=10.0,
        help="evict queued offers older than this (virtual time)",
    )
    overload.add_argument(
        "--shed-policy",
        choices=["reject-new", "shed-youngest-brec"],
        default="shed-youngest-brec",
    )
    overload.set_defaults(handler=_cmd_overload)

    federation = commands.add_parser(
        "federation",
        help="sharded federation: scaling and shard-kill chaos sweeps",
        parents=[
            _flags(FLEET_FLAGS, SEEDS_FLAGS, OBS_FLAGS, seeds=[0, 1, 2])
        ],
    )
    federation.add_argument(
        "--capacity", type=int, default=4, help="per-shard activity capacity"
    )
    federation.add_argument(
        "--drop", type=float, default=0.0, help="message drop rate"
    )
    federation.add_argument(
        "--delay", type=float, default=0.0, help="message delay rate"
    )
    federation.add_argument(
        "--duplicate", type=float, default=0.0, help="message duplicate rate"
    )
    federation.add_argument(
        "--partitions",
        type=int,
        default=0,
        help="number of timed network-partition windows to inject",
    )
    federation.add_argument(
        "--kill",
        action="store_true",
        help="kill and recover every shard once (staggered)",
    )
    federation.add_argument(
        "--kill-start",
        type=float,
        default=4.0,
        help="virtual time of the first shard kill",
    )
    federation.add_argument(
        "--kill-spacing",
        type=float,
        default=8.0,
        help="virtual time between successive shard kills",
    )
    federation.add_argument(
        "--downtime",
        type=float,
        default=4.0,
        help="how long a killed shard stays down",
    )
    federation.add_argument(
        "--scaling",
        action="store_true",
        help="run the service-disjoint scaling sweep (1..--shards shards) "
        "instead of the chaos workload",
    )
    federation.set_defaults(handler=_cmd_federation)

    nemesis = commands.add_parser(
        "nemesis",
        help="unified fault simulation: search, run and replay fault plans",
    )
    nemesis_commands = nemesis.add_subparsers(
        dest="nemesis_command", required=True
    )

    def under_test() -> argparse.ArgumentParser:
        return _flags(
            FLEET_FLAGS, NEMESIS_FLAGS, BACKEND_FLAGS, CANARY_FLAGS,
            OBS_FLAGS, shards=2, cross=0.25,
        )

    nemesis_search = nemesis_commands.add_parser(
        "search",
        help="explore seeded random fault plans; shrink + bundle on "
        "violation",
        parents=[under_test()],
    )
    nemesis_search.add_argument(
        "--plans", type=int, default=20, help="fault plans to explore"
    )
    nemesis_search.add_argument(
        "--search-seed", type=int, default=0, help="search campaign seed"
    )
    nemesis_search.add_argument(
        "--actions", type=int, default=8, help="fault actions per plan"
    )
    nemesis_search.add_argument(
        "--max-shrink-runs",
        type=int,
        default=128,
        help="replay budget for the delta-debugging shrinker",
    )
    nemesis_search.add_argument(
        "--bundle-dir",
        default=None,
        metavar="DIR",
        help="write a repro bundle here when a violation is found",
    )
    nemesis_search.add_argument(
        "--no-bundle-trace",
        action="store_true",
        help="skip the trace/explain artefacts in the bundle",
    )
    nemesis_search.add_argument(
        "--expect-violation",
        action="store_true",
        help="invert success: exit 0 only when a violation IS found "
        "(for canary fixtures in CI)",
    )
    nemesis_search.add_argument(
        "--min-coverage",
        type=float,
        default=0.0,
        help="fail unless fault-site coverage reaches this percentage",
    )
    nemesis_search.set_defaults(handler=_cmd_nemesis_search)

    nemesis_run = nemesis_commands.add_parser(
        "run",
        help="execute one fault plan JSON against the system",
        parents=[under_test()],
    )
    nemesis_run.add_argument(
        "plan", help="path to a fault-plan JSON (or a bundle.json)"
    )
    nemesis_run.set_defaults(handler=_cmd_nemesis_run)

    nemesis_replay = nemesis_commands.add_parser(
        "replay",
        help="re-execute a repro bundle; verify the identical violation",
        parents=[_flags(CANARY_FLAGS, OBS_FLAGS)],
    )
    nemesis_replay.add_argument(
        "bundle", help="bundle directory or bundle.json path"
    )
    nemesis_replay.add_argument(
        "--runs", type=int, default=2, help="number of replays"
    )
    nemesis_replay.set_defaults(handler=_cmd_nemesis_replay)

    explain = commands.add_parser(
        "explain",
        help="explain a scheduling decision from an exported trace",
    )
    explain.add_argument(
        "trace", help="path to a JSONL trace (from a --trace run)"
    )
    explain.add_argument(
        "target",
        nargs="?",
        default=None,
        help="process or activity id (default: first blocked process)",
    )
    explain.add_argument(
        "--check",
        action="store_true",
        help="validate the trace against the event schema first",
    )
    explain.set_defaults(handler=_cmd_explain)

    top = commands.add_parser(
        "top",
        help="replay a trace through the live ops console",
    )
    top.add_argument(
        "trace", help="path to a JSONL trace (from a --trace run)"
    )
    top.add_argument(
        "--interval",
        type=float,
        default=5.0,
        help="virtual-time period between snapshots",
    )
    top.set_defaults(handler=_cmd_top)

    slow = commands.add_parser(
        "slow",
        help="attribute a process's commit latency to phases",
    )
    slow.add_argument(
        "trace", help="path to a JSONL trace (from a --trace run)"
    )
    slow.add_argument(
        "process",
        nargs="?",
        default=None,
        help="process id (default: the slowest recorded process)",
    )
    slow.add_argument(
        "--fleet",
        action="store_true",
        help="also print the fleet-wide per-phase attribution table",
    )
    slow.set_defaults(handler=_cmd_slow)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (FileNotFoundError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
