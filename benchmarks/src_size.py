"""X19 — the tracker behind "src/ line count is a tracked metric".

``python benchmarks/src_size.py [SRC]`` prints the ``.py`` lines of every
package under ``SRC`` (default ``src``) and the number of independently
settable options — ``*Spec`` dataclass fields, constructor parameters
and CLI flags — and exits non-zero when the line total exceeds
:data:`CEILING`.  A PR that needs more room raises the ceiling here, in
the diff, where a reviewer sees it.
"""

import ast
import os
import sys

#: ``find src -name '*.py' | xargs cat | wc -l`` may not exceed this.
#: PR 21 raised it to 26 544 for the power-cut crash class and the force
#: contract; PR 22 (one writer for the 2PC protocol, EXPERIMENTS X26)
#: measured 26 539 and lowered it to that.  PR 24 (a federated round
#: touches what moved, EXPERIMENTS X27) measured 26 748 = 26 539 + 209:
#: fed/runner.py +84 (the stamp, the one predicate, ``_forget``, the
#: module docstring; the ``instance_ids()``/``is_terminated`` walks of
#: ``_step_shard`` and ``_resolve_stall`` went), core/conflict.py +79 (the
#: set-valued query, the adjacency and the resource index, which is
#: built on first ask and not in ``register`` to keep ``setup_s``),
#: fed/messages.py +16 (inbound counter in place of the scan,
#: ``all_links_up``), fed/federation.py +12 (``view_version``; the gate
#: memo now follows the conflict relation's version), core/scheduler.py
#: +13 (``live_ids``; ``stale_parks`` counts only parks that still
#: held), sim/runner.py +4, sim/federation.py +1.  The issue budgeted
#: +120; the two fixes the new oracle found and the lazy index are the
#: difference, and nothing was compressed to hide it.  One durable store
#: (EXPERIMENTS X28) measured 26 562 = 26 748 − 186 and lowered it to
#: that: subsystems/backend.py −91 (the worker's ``if op ==`` chain,
#: ``_WORKER_CONNS``, ProcPoolBackend's nine forwarding methods and its
#: copy of the commit rules, ``delete``/``exists``/``keys``/``__len__``/
#: ``sync``/``killable``/``tear``), core/instance.py −42
#: (``ProcessInstance.replay``), subsystems/failures.py −25 (the
#: torn-write arming), core/scheduler.py −8 (``_conflicting_predecessors``),
#: fed/federation.py −7, sim/crashpoints.py −6 (the hand-copied round
#: loop), fed/runner.py −3 (the unused ``durations`` model and its
#: imports went; ``ACTIVITY_DURATION`` and the latency fix came),
#: fed/messages.py −2, baselines/optimistic.py −2.  Store commits off
#: the fsync path (EXPERIMENTS X30) measured 26 761 = 26 562 + 199,
#: inside its +200 budget: subsystems/backend.py +80 (``redo``/``sync``/
#: ``lose_unsynced`` on the contract, memory and sqlite, the redo
#: statement, sync counting), sim/crashpoints.py +44 (``power_cut``, the
#: store-loss cut, the compacted records an audit of a checkpointed run
#: reads), subsystems/recovery.py +26 (the redo pass and the scan's redo
#: list), subsystems/transaction.py +25 (``redo_entry``, ``carry_redo``),
#: core/scheduler.py +13 (the direct commit's redo, the checkpoint's
#: sync), fed/twopc.py +7, subsystems/twophase.py +6,
#: subsystems/subsystem.py +5, subsystems/wal.py −7 (``FileWAL(salvage=)``).
#: Admission through the service index (EXPERIMENTS X32) measured
#: 26 747 = 26 761 − 14 and lowered it to that: core/scheduler.py −33
#: (the two sweeps over every recorded process, ``_forward_services``'s
#: unused hypothetical branch, the requester row's dedup re-check),
#: core/sergraph.py +19 (``processes_conflicting_with``).  Stores
#: writing behind the log (EXPERIMENTS X33) measured 26 922 = 26 747 +
#: 175 and raised it to that: subsystems/backend.py +106 (the queue and
#: its overlay on the contract — ``_commit``, ``write_behind``,
#: ``flush``, ``lose_unflushed``, ``behind``/``shared`` — reads through
#: the queue in ``get``/``version``/``snapshot`` over each kind's
#: ``_stored_version``/``_stored_snapshot``/``_install``, validation of
#: a batch that will install later, the log's type), core/scheduler.py
#: +21 (attaching the stores, the direct commit's force decision, the
#: checkpoint's force and flush, ``crash()`` dropping the queues),
#: wal.py +19 (the force installs the queues, the stores' type),
#: sim/crashpoints.py +14 (``crash_stores``, ``CrashingWAL.
#: stores_behind``), twophase.py +7 (the decision's force decision),
#: fed/federation.py +4 (stores shared), recovery.py +3 (the scan
#: replaces an entry instead of rewriting a checkpoint's), cli.py +1
#: (help text).  Delete by measurement (EXPERIMENTS X31,
#: ``benchmarks/reach.py``) measured 26 588 = 26 922 − 334 and lowered
#: it to that: core/process.py −46 (five queries and ``__repr__``/
#: ``kind``), obs/bus.py −37 (``LoggingSink``, ``unsubscribe``),
#: nemesis/plan.py −25 (``by_family``/``family_counts``/``without``,
#: ``FaultAction.family``), core/scheduler.py −16 (``_edges``; the
#: per-service policy lookups), resilience/manager.py −16
#: (``per_service``, ``protected``, ``policy_for``/``timeout_for``),
#: analysis/graphs.py −13, sim/experiments.py −13 (``grade_history``),
#: subsystems/subsystem.py −12, core/activity.py −11, core/schedule.py
#: −11, obs/metrics.py −10 (three ``__repr__``, ``__float__``;
#: ``max_samples`` and ``cap_per_window`` became constants),
#: core/conflict.py −9 (``AllConflicts(self_conflicts)``),
#: core/instance.py −9, fed/federation.py −9, resilience/breaker.py −9,
#: sim/crashpoints.py −9, sim/engine.py −9 (``run_until_empty``),
#: core/reduction.py −8, fed/messages.py −7, nemesis/coverage.py −7,
#: core/flex.py −6, obs/events.py −6, scenarios/cim.py −5,
#: nemesis/search.py −4, eight files −3 each, obs/__init__.py −2,
#: analysis/__init__.py −1.  A local harden group as one record
#: (EXPERIMENTS X34) measured 26 581 = 26 588 − 7 and lowered it to
#: that: subsystems/wal.py −18 (``truncate`` on the base and both logs
#: −19, which nothing outside its tests called; ``__iter__`` −3, which
#: only test_wal.py used; the checksum prefix read as a digit set
#: instead of ``_is_hex8`` −7; one write per line −2; the clean close's
#: force +3 and ``_release`` +5; the one encoder, shared with the
#: stores, +6; the docstring −1), subsystems/recovery.py −7
#: (``in_doubt_committed_groups`` and ``recovery_attempts`` −10, the
#: re-begun-group branch and its docstring −5, ``ended_groups`` became
#: the sparse ``ended``, the legs' loop became ``_legs`` +7, docstrings
#: +1), obs/events.py −1 (``wal_truncate``), subsystems/twophase.py +8
#: (the one-record branch +3, its outcome flag +3, docstrings +2),
#: core/scheduler.py +8 (the decision counted toward the checkpoint
#: interval where ``hardened`` was +3, the count split out of ``_wal``
#: as ``_counted`` +5), subsystems/backend.py +3 (``queued`` +5, the
#: close docstring +1, the log's type and encoder imported at run time
#: instead of under ``TYPE_CHECKING`` −3).  The strong-order gate's
#: memo (EXPERIMENTS X37) measured 26 564 = 26 581 − 17 and lowered it
#: to that: sim/runner.py +27 (the memo of the blocking flight, and the
#: in-flight bookkeeping both drivers kept a copy of, moved into the
#: gate: ``take_off``/``land``; ``_gated`` and ``_completion`` went),
#: core/process.py +15 (the flex tree and the topological order
#: derived once, shared by ``renamed``), fed/federation.py +7 (the
#: ``has_conflict_potential`` memo), core/instance.py +4
#: (``step_count``), core/scheduler.py +4 (no sort without watchdogs,
#: the direct park read), fed/messages.py +3 (``deliver_due`` returns
#: when nothing is due), fed/runner.py −8 (its flight, busy and
#: flight-move copies and ``_local_gated`` went; the once-per-pass
#: stamp inputs came), fed/router.py −35 (``footprint``,
#: ``is_cross_shard``, ``services_owned_by`` and ``partition``, which
#: only their tests called, −29; ``_base``, a copy of
#: ``normalize_service``, −6), sim/metrics.py −34
#: (``RunMetrics.is_correct`` and ``overload_row``, which only their
#: tests called).  One prefix walk (EXPERIMENTS X35) measured 26 563 =
#: 26 564 − 1 and lowered it to that: core/schedule.py −5
#: (``ProcessSchedule.prefixes``), core/pred.py −2 (the rebuild of
#: every prefix became a walk through ``PrefixCertifier``; the module
#: and function docstrings say so), core/scheduler.py −2 (the paranoid
#: message reads the prefix length off the walk's result; the docstring
#: names the shared walk), core/reduction.py +6 (a replica stops at its
#: process's termination and a commit makes none: the ended set +1,
#: ``observe`` +4, three event types imported +3; the docstring −2),
#: sim/certify.py +2 (a PRED history is not reduced again),
#: core/completion.py ±0 (the ``states`` contract reworded).  Work
#: follows what moved (EXPERIMENTS X38) measured 26 786 = 26 563 + 223
#: and raised it to that, per file: core/sergraph.py +69 (the
#: maintained potential-edge sources — ``set_forward``,
#: ``potential_edges`` re-testing the moved rows, the five structures,
#: the rebuild forgetting them, the moved-row marks, the module
#: docstring), core/scheduler.py +58 (``sleep`` and ``_wake``,
#: ``ManagedProcess.sleepers``, ``_WOKEN``, registering a park, the
#: forward-moved marks, the refresh's wake and the revision hook; net of
#: the re-derivation in ``_potential_edges_base`` and
#: ``_forward_services``, which went, and of the live filters written
#: as set intersections), sim/runner.py +54 (the sleepers in ``run``
#: net of the park lambda, ``_land``, ``_woken``, the take-off sleep, a
#: verdict held to its last flight with ``land`` returning what it
#: released, the class docstrings), core/instance.py +32 (the revision
#: hook, the next action derived once per state, the recovery-path memo,
#: the hypothetical's ``current``), core/process.py +8
#: (``recovery_paths``), subsystems/recovery.py +2 (the rebuilt
#: instance keeps the hook).  Options stay at 418.  A stall is a round
#: in which nothing moved (EXPERIMENTS X39) measured 26 781 = 26 786 − 5
#: and lowered it to that: core/scheduler.py −14 (the stall refresh's
#: loop and comment −22, the ``stale_parks`` count with it; ``motion``
#: +6, ``run`` comparing it, the state-move bump moved from ``_moved``
#: into ``_wake`` so that the revision hook bumps it too, docstrings),
#: core/perf.py −4 and sim/metrics.py −1 (``stale_parks``),
#: fed/runner.py +11 (``_motion``, its two reads and their comment),
#: sim/runner.py +3 (the motion read and the guard; the two stall sites
#: folded into one).  Options stay at 418: ``motion`` is a property.
#: One wake-up mechanism (EXPERIMENTS X40) measured 26 753 = 26 781 − 28
#: and lowered it to that: fed/runner.py −21 (``_Stamp``, ``_passed``,
#: ``_pass_inputs``, ``_stamp`` and ``_unmoved`` −81; the sleep seam
#: ``_sleepers``, ``_wake_gated``, ``_woken``, the start-gate sleepers
#: and the sleep calls in ``_step_shard`` +60), fed/federation.py −10
#: (``view_version`` and ``_view_versions``), sim/runner.py −4
#: (``StrongOrderGate.moves``), fed/messages.py +5 (the ``on_inbound``
#: push), core/scheduler.py +2 (a harden vetoed at commit is the step's
#: progress; the comment says so).  Options stay at 418: the push is an
#: attribute the driver sets, not a parameter.
CEILING = 26_753


def _sources(root):
    for directory, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def lines_per_package(root):
    """``{package: lines}`` — a package is a directory under ``repro``."""
    totals = {}
    for path in _sources(root):
        parts = os.path.relpath(path, root).split(os.sep)
        package = parts[1] if len(parts) > 2 else "(top level)"
        with open(path, encoding="utf-8") as handle:
            totals[package] = totals.get(package, 0) + sum(1 for _ in handle)
    return totals


def count_options(root):
    """``(*Spec fields, constructor parameters)`` read from the AST."""
    spec_fields = parameters = 0
    for path in _sources(root):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name.endswith("Spec"):
                spec_fields += sum(
                    isinstance(item, ast.AnnAssign) for item in node.body
                )
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    arguments = item.args
                    parameters += (
                        len(arguments.args) - 1 + len(arguments.kwonlyargs)
                    )
    return spec_fields, parameters


def count_cli_flags(root):
    """Option strings over every (sub)command, ``--help`` excluded."""
    import argparse

    sys.path.insert(0, os.path.abspath(root))
    from repro.cli import build_parser

    def flags(parser):
        total = 0
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                total += sum(flags(sub) for sub in action.choices.values())
            elif action.option_strings and action.dest != "help":
                total += 1
        return total

    return flags(build_parser())


def main(argv):
    root = argv[0] if argv else "src"
    packages = lines_per_package(root)
    total = sum(packages.values())
    for package, lines in sorted(packages.items()):
        print(f"{package:<14} {lines:>6}")
    print(f"{'total':<14} {total:>6}  (ceiling {CEILING})")
    spec_fields, parameters = count_options(root)
    cli_flags = count_cli_flags(root)
    print(
        f"options: {spec_fields} *Spec fields + {parameters} constructor "
        f"parameters + {cli_flags} CLI flags = "
        f"{spec_fields + parameters + cli_flags}"
    )
    if total > CEILING:
        print(f"src/ grew past its ceiling: {total} > {CEILING}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
