"""X31 — which functions of ``src/`` does anything but a test reach?

    python benchmarks/reach.py [REPO] [--save OUT.json | --load OUT.json]

Copies ``REPO`` (default: this checkout) to a temporary directory, so
that nothing a source writes lands in the checkout, and runs every
source of calls there under a call probe.  Each source is recorded
separately:

- ``tier-1``: the test suite, fixed Hypothesis seed (the one *test*
  source);
- ``goldens``: the golden corpus and every CLI golden case;
- ``spine``: the benchmark spine's driver form, ``--quick --trace
  both``, on each workload;
- ``ci``: every ``run:`` step of ``.github/workflows/ci.yml`` that
  neither installs packages nor starts pytest, read from the file;
- ``examples``: every script under ``examples/``;
- ``benchmarks``: ``benchmarks/test_*.py`` (the paper's figures and the
  X-series).

The probe is a ``sitecustomize.py`` in a temporary directory that a
``python``/``python3`` shim puts first on ``PYTHONPATH`` (so commands
that set ``PYTHONPATH=src`` keep it).  It appends each ``src/`` code
object, the first time the interpreter runs it, to a file of its own
process id: a forked storage worker that leaves by ``os._exit`` or
``SIGKILL`` has written what it ran.  Nothing in ``src/`` knows about
it.  A source's exit status is printed, not judged: under the probe a
wall-clock gate of a test or benchmark may fail.

A unit is a top-level function or a method; code nested in one (a
closure, a lambda, a comprehension) counts for it.  Every ``(owner,
name)`` in the spine's ``ENTRY_POINTS`` and every ``repro`` name the
spine imports is a *root*: the spine patches or imports it by name.

The report counts, per package, the units each category holds, with
their lines: reached by a non-test source (``bench-only`` when only the
benchmarks reach it), ``abstract`` (an abstract method, see
:func:`_abstract`, whose override a non-test source reaches), allowed
or ``pending`` by a row of :data:`ALLOWED`, and the rest — ``root``
(only the spine names it), ``test-only`` and ``unreached``.  It exits
non-zero when a unit of the rest has no row, or when a row is stale or
does not fit its kind.  ``--save`` keeps what each source reached, by
qualified name; ``--load`` reports from such a file against the current
tree without running anything.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
TEST_SOURCES = ("tier-1",)
SPINE_WORKLOADS = (
    "open-steady",
    "batch-contended",
    "durable-closed",
    "fed-cross",
)

#: The reasons a unit that no non-test source reaches may stay.
KINDS = {
    "spine": "a spine entry point or import",
    "reference": "a reference implementation a test compares against",
    "safety": "safety code (input validation, error handling, durability, "
    "fault detection or recovery)",
    "abstract": "an abstract method of an interface with a reached "
    "implementation",
    "hook": "a test-substitution hook",
    "feature": "a user-facing feature whose only view is itself",
    # Not a reason to keep: the tier-1 tests named would go with it or be
    # rewritten, and a change deletes few tests at a time so that each
    # deletion is reviewed.  These wait for later changes (ROADMAP item
    # 9); the list may only shrink.
    "pending": "waits for a change that may delete the tests named",
}

#: ``"path under src/repro::Qualified.name": (kind, reason)``.  A key
#: ending in ``::`` covers a module, one ending in ``.`` a class.
ALLOWED = {
    # -- spine --------------------------------------------------------------
    "core/sergraph.py::IncrementalSerializationGraph.has_path": (
        "spine",
        "benchmarks/spine/trace.py wraps it by vars(owner)[name], which "
        "raises KeyError without it; deletable once the spine stops naming "
        "it (ROADMAP 1(a))",
    ),
    # -- reference ----------------------------------------------------------
    "analysis/graphs.py::reachable": (
        "reference",
        "test_incremental_structures.py compares the scheduler's potential "
        "edges against a scan built on it",
    ),
    "core/sergraph.py::IncrementalSerializationGraph.process_services": (
        "reference",
        "read by test_incremental_structures.py's full scans, which the "
        "incremental graph is compared against",
    ),
    "core/sergraph.py::IncrementalSerializationGraph.order_is_valid": (
        "reference",
        "test_incremental_structures.py checks the maintained order against "
        "every edge through it",
    ),
    "core/sergraph.py::IncrementalSerializationGraph.order_positions": (
        "reference",
        "test_incremental_structures.py checks the maintained order against "
        "every edge through it",
    ),
    # -- safety -------------------------------------------------------------
    "core/sergraph.py::IncrementalSerializationGraph._kahn": (
        "safety",
        "recovers a valid topological order after an update left it stale "
        "(a cycle, later broken); the scheduler never builds one",
    ),
    "baselines/base.py::BaselineScheduler._on_stall": (
        "safety",
        "error handling: a baseline that stops making progress raises "
        "instead of looping",
    ),
    "baselines/optimistic.py::OptimisticScheduler._drain_abort": (
        "safety",
        "recovery: backward recovery of a process that failed validation",
    ),
    "errors.py::CorrectnessViolation.__init__": (
        "safety",
        "fault detection: what certification raises for an incorrect run",
    ),
    "errors.py::ProcessAbortedError.__init__": (
        "safety",
        "error handling: the scheduler raises it for an abort of a "
        "terminated process",
    ),
    "nemesis/executor.py::_Monitor.uncertified": (
        "safety",
        "fault detection: records a run whose history fails certification",
    ),
    "fed/federation.py::Federation._record_in_doubt": (
        "safety",
        "recovery: the cooperative termination protocol (test_federation.py"
        "::test_in_doubt_group_resolved_by_the_termination_protocol)",
    ),
    "fed/federation.py::Federation._record_terminated": (
        "safety",
        "recovery: the cooperative termination protocol",
    ),
    "fed/federation.py::ForeignSubsystem.commit_prepared": (
        "safety",
        "recovery: in-doubt resolution commits a prepared leg held at "
        "another shard through it",
    ),
    "fed/twopc.py::ShardCommitAgent.terminate": (
        "safety",
        "recovery: the cooperative termination protocol",
    ),
    "fed/twopc.py::ShardCommitAgent.answer_query": (
        "safety",
        "recovery: a peer's answer in the cooperative termination protocol",
    ),
    "sim/crashpoints.py::CrashingWAL.lose_tail": (
        "safety",
        "the crash model: what a crash does to the log it wraps",
    ),
    "sim/crashpoints.py::CrashingWAL.close": (
        "safety",
        "releases the log it wraps",
    ),
    "subsystems/subsystem.py::Subsystem.__enter__": (
        "safety",
        "releases the subsystem's store on leaving the block",
    ),
    "subsystems/subsystem.py::Subsystem.__exit__": (
        "safety",
        "releases the subsystem's store on leaving the block",
    ),
    "subsystems/wal.py::WriteAheadLog.__enter__": (
        "safety",
        "closes the log on leaving the block",
    ),
    "subsystems/wal.py::WriteAheadLog.__exit__": (
        "safety",
        "closes the log on leaving the block",
    ),
    # -- feature ------------------------------------------------------------
    "core/scheduler.py::TransactionalProcessScheduler.drain": (
        "feature",
        "graceful drain, README.md line 398 (`drain()`)",
    ),
    "core/scheduler.py::TransactionalProcessScheduler.draining": (
        "feature",
        "graceful drain, README.md line 398 (`drain()`)",
    ),
    "core/scheduler.py::TransactionalProcessScheduler.drained": (
        "feature",
        "graceful drain, README.md line 398 (`drain()`)",
    ),
    "core/scheduler.py::TransactionalProcessScheduler.explain": (
        "feature",
        "live explanations, README.md line 540 (`scheduler.explain(pid)`)",
    ),
    "core/scheduler.py::TransactionalProcessScheduler.parked_on": (
        "feature",
        "what scheduler.explain reports for a parked process, README.md "
        "line 540",
    ),
    "obs/explain.py::explain_scheduler": (
        "feature",
        "scheduler.explain's body, README.md line 540",
    ),
    "obs/explain.py::_default_rule": (
        "feature",
        "scheduler.explain's body, README.md line 540",
    ),
    "obs/explain.py::Explanation.found": (
        "feature",
        "scheduler.explain's result, README.md line 540",
    ),
    "obs/replay.py::replay_trace": (
        "feature",
        "rebuilding a schedule from a trace, README.md line 555",
    ),
    "nemesis/coverage.py::CoverageReport.publish": (
        "feature",
        "`repro nemesis search/run/replay --metrics PATH`, README.md line 187",
    ),
    "obs/metrics.py::Counter.": (
        "feature",
        "what nemesis --metrics exports, README.md line 187",
    ),
    "obs/metrics.py::Gauge.__init__": (
        "feature",
        "what nemesis --metrics exports, README.md line 187",
    ),
    "obs/metrics.py::Gauge.set": (
        "feature",
        "what nemesis --metrics exports, README.md line 187",
    ),
    "obs/metrics.py::MetricsRegistry.counter": (
        "feature",
        "what nemesis --metrics exports, README.md line 187",
    ),
    "obs/metrics.py::MetricsRegistry.gauge": (
        "feature",
        "what nemesis --metrics exports, README.md line 187",
    ),
    # -- pending ------------------------------------------------------------
    "subsystems/repository.py::": (
        "pending",
        "tests/unit/test_repository.py (10)",
    ),
    "subsystems/services.py::write_service": (
        "pending",
        "test_services.py TestWriteAndRead, TestConflictDerivation; "
        "test_subsystem.py's fixture",
    ),
    "subsystems/services.py::read_service": (
        "pending",
        "test_services.py TestWriteAndRead, TestConflictDerivation; "
        "test_subsystem.py's fixture",
    ),
    "subsystems/services.py::flag_service": (
        "pending",
        "test_services.py TestFlagService; test_subsystem_properties.py",
    ),
    "analysis/graphs.py::": ("pending", "test_analysis.py TestGraphUtilities"),
    "analysis/dot.py::serialization_graph_to_dot": (
        "pending",
        "test_dot.py TestSerializationGraphToDot",
    ),
    "analysis/viz.py::render_conflicts": (
        "pending",
        "test_analysis.py test_render_conflicts, test_render_conflicts_empty",
    ),
    "baselines/base.py::BaselineScheduler.run": (
        "pending",
        "test_baselines.py and the paper tests drive baselines through it",
    ),
    "core/activity.py::ActivityDef.label": (
        "pending",
        "test_activity.py test_label_uses_paper_superscript",
    ),
    "core/activity.py::ActivityId.": (
        "pending",
        "test_activity.py TestActivityId",
    ),
    "core/admission.py::AdmissionDecision.": (
        "pending",
        "test_admission.py asserts through admitted/queued",
    ),
    "core/conflict.py::AllConflicts.": (
        "pending",
        "test_conflict.py, test_conflict_cache.py, test_cycle_bounds.py",
    ),
    "core/conflict.py::NoConflicts.": (
        "pending",
        "test_conflict.py, test_conflict_cache.py",
    ),
    "core/conflict.py::ConflictRelation.": (
        "pending",
        "test_conflict.py (commute, |, the pairwise body)",
    ),
    "core/conflict.py::ExplicitConflicts.__len__": (
        "pending",
        "test_conflict.py",
    ),
    "core/conflict.py::ReadWriteConflicts.access_set": (
        "pending",
        "test_conflict.py test_incremental_registration_unions",
    ),
    "core/flex.py::ExecutionPath.": (
        "pending",
        "test_flex.py, test_example1_executions.py",
    ),
    "core/flex.py::is_well_formed": (
        "pending",
        "test_flex.py, the paper and scenario tests",
    ),
    "core/instance.py::Completion.activity_ids": (
        "pending",
        "test_instance.py, test_example2_completion.py",
    ),
    "core/process.py::Process.": (
        "pending",
        "test_process.py TestQueries (branch_activities, "
        "non_compensatable_names, services, unordered)",
    ),
    "core/process.py::ProcessBuilder.": (
        "pending",
        "most unit tests build their processes through it",
    ),
    "core/reduction.py::ReductionResult.__str__": (
        "pending",
        "test_reduction.py",
    ),
    "core/schedule.py::": (
        "pending",
        "test_schedule.py and the paper tests build schedules through it",
    ),
    "core/serialize.py::process_to_json": (
        "pending",
        "test_serialize.py, test_serialize_properties.py, test_cli.py",
    ),
    "fed/messages.py::MessageFaultPolicy.heal": (
        "pending",
        "test_fed_messages.py test_explicit_heal",
    ),
    "fed/router.py::ShardRouter.": (
        "pending",
        "test_fed_router.py (footprint, is_cross_shard, partition, "
        "services_owned_by)",
    ),
    "obs/metrics.py::Gauge.": (
        "pending",
        "test_obs_metrics.py TestGauge::test_set_inc_dec",
    ),
    "obs/metrics.py::MetricsRegistry.snapshot": (
        "pending",
        "test_obs_metrics.py, test_nemesis_plan.py",
    ),
    "resilience/breaker.py::BreakerBoard.": (
        "pending",
        "test_admission.py TestBackpressure (len), test_resilience.py "
        "(states)",
    ),
    "resilience/manager.py::_OwnedClock.advance_to": (
        "pending",
        "test_resilience.py drives the manager's own clock",
    ),
    "sim/certify.py::Certification.": (
        "pending",
        "test_chaos.py test_certify_raises_on_violation; test_force_points.py "
        "prints describe() when an assertion fails",
    ),
    "sim/crashpoints.py::": (
        "pending",
        "test_crash_recovery.py, test_force_points.py (describe, forces)",
    ),
    "sim/engine.py::EventQueue.": ("pending", "test_engine.py test_next_time"),
    "sim/metrics.py::RunMetrics.": (
        "pending",
        "test_metrics.py test_is_correct_requires_all_grades, "
        "test_illegal_history_never_correct, test_overload_row_shape",
    ),
    "subsystems/backend.py::": (
        "pending",
        "test_backends.py (seed, the worker kill)",
    ),
    "subsystems/failures.py::": (
        "pending",
        "test_failures.py and the tests that inject CountedFailures",
    ),
    "subsystems/resource.py::": (
        "pending",
        "test_resource.py TestLockManager",
    ),
    "subsystems/subsystem.py::": ("pending", "test_subsystem.py"),
    "subsystems/transaction.py::": ("pending", "test_transaction.py"),
    "subsystems/twophase.py::": (
        "pending",
        "test_fed_twopc.py (decision_for, boundaries), test_force_points.py "
        "TestCrossShard",
    ),
    "subsystems/weak_order.py::WeakOrderSession.abort": (
        "pending",
        "test_weak_order.py",
    ),
}

PROBE = r'''
import os, sys, threading

_out, _prefix = os.environ.get("REACH_OUT"), os.environ.get("REACH_SRC")
if _out and _prefix:
    _seen, _file = set(), [None, None]

    def _record(code):
        pid = os.getpid()
        if _file[0] != pid:
            path = os.path.join(_out, f"{pid}.txt")
            flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
            _file[:] = [pid, os.open(path, flags, 0o644)]
        row = f"{code.co_filename}\t{code.co_firstlineno}\n"
        os.write(_file[1], row.encode())

    def _probe(frame, event, arg):
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if code.co_filename.startswith(_prefix):
                _record(code)

    sys.settrace(_probe)
    threading.settrace(_probe)
'''

SHIM = (
    "#!/bin/sh\n"
    'PYTHONPATH="{probe}${{PYTHONPATH:+:$PYTHONPATH}}" exec {python} "$@"\n'
)

GOLDENS = (
    "from tests.golden import digests\n"
    "from tests.golden.cli import CASES, run_case\n"
    "from tests.golden.corpus import SCENARIOS\n"
    "for run in SCENARIOS.values():\n"
    "    digests(*run())\n"
    "for name in CASES:\n"
    "    run_case(name)\n"
)


# -- the units --------------------------------------------------------------


def units(src):
    """``{(path, qualname): (first line, last line, node)}`` of the
    functions and methods under ``src/repro``.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    found = {}
    package = os.path.join(src, "repro")
    for directory, _, files in sorted(os.walk(package)):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            relative = os.path.relpath(path, package).replace(os.sep, "/")
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            _collect(tree.body, "", relative, found)
    return found


def _collect(body, prefix, path, found):
    for node in body:
        if isinstance(node, ast.ClassDef):
            _collect(node.body, f"{prefix}{node.name}.", path, found)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines = [node.lineno] + [d.lineno for d in node.decorator_list]
            found[(path, prefix + node.name)] = (
                min(lines),
                node.end_lineno,
                node,
            )


def line_index(found):
    index = {}
    for (path, qualname), (first, last, _) in found.items():
        index.setdefault(path, []).append((first, last, (path, qualname)))
    return index


def locate(index, path, line):
    """The unit of ``path`` whose lines hold ``line``, or ``None``."""
    for first, last, key in index.get(path, ()):
        if first <= line <= last:
            return key
    return None


def _keys(index, package, rows):
    """The units that ``(filename, first line)`` rows fall in."""
    found = set()
    for filename, line in rows:
        path = os.path.relpath(filename, package).replace(os.sep, "/")
        key = locate(index, path, int(line))
        if key is not None:
            found.add(key)
    return found


# -- the sources ------------------------------------------------------------


def parse_yaml(text):
    """The subset of YAML a workflow file uses: block mappings and lists,
    ``|`` block scalars, plain, quoted and flow-list scalars."""
    lines = text.split("\n")

    def structural(i):
        while i < len(lines):
            stripped = lines[i].strip()
            if stripped and not stripped.startswith("#"):
                return i
            i += 1
        return i

    def indent_of(i):
        return len(lines[i]) - len(lines[i].lstrip(" "))

    def item_at(i, indent):
        return (
            i < len(lines)
            and indent_of(i) == indent
            and lines[i].lstrip().startswith("- ")
        )

    def scalar(text):
        text = text.strip()
        if text[:1] in "\"'":
            return text[1:-1]
        if text.startswith("["):
            items = text[1:-1].split(",")
            return [scalar(item) for item in items if item.strip()]
        return text.split(" #")[0].rstrip()

    def block(i, indent):
        i = structural(i)
        if item_at(i, indent):
            items = []
            while item_at(i, indent):
                lines[i] = " " * (indent + 2) + lines[i].lstrip()[2:]
                item, i = block(i, indent + 2)
                items.append(item)
                i = structural(i)
            return items, i
        mapping = {}
        while i < len(lines) and indent_of(i) == indent:
            if item_at(i, indent):
                break
            key, _, rest = lines[i].strip().partition(":")
            rest = rest.strip()
            if rest in ("|", "|-", ">"):
                body, i = [], i + 1
                while i < len(lines) and (
                    not lines[i].strip() or indent_of(i) > indent
                ):
                    body.append(lines[i])
                    i += 1
                depth = min(
                    (len(l) - len(l.lstrip(" ")) for l in body if l.strip()),
                    default=0,
                )
                text = "\n".join(l[depth:] for l in body)
                mapping[key] = text.strip("\n") + "\n"
            elif rest:
                mapping[key] = scalar(rest)
                i += 1
            else:
                nested = structural(i + 1)
                if nested < len(lines) and indent_of(nested) > indent:
                    mapping[key], i = block(nested, indent_of(nested))
                else:
                    mapping[key], i = None, i + 1
            i = structural(i)
        return mapping, i

    start = structural(0)
    return block(start, indent_of(start))[0]


def _expand(text, matrix):
    for key, value in matrix.items():
        text = text.replace("${{ matrix.%s }}" % key, str(value))
    return text


def _condition(expression, matrix):
    """A step's ``if:`` — matrix truthiness; ``failure()`` is never true."""
    if expression is None:
        return True
    expression = expression.strip()
    if expression.startswith("${{") and expression.endswith("}}"):
        expression = expression[3:-2].strip()
    negated = expression.startswith("!")
    expression = expression.lstrip("!").strip()
    if expression.startswith("matrix."):
        value = matrix.get(expression[len("matrix."):])
        return bool(value) != negated
    return False


def ci_commands(repo):
    """Every CI ``run:`` script that installs nothing and starts no
    pytest (and is not this tool)."""
    path = os.path.join(repo, ".github", "workflows", "ci.yml")
    with open(path, encoding="utf-8") as handle:
        workflow = parse_yaml(handle.read())
    skipped = ("pip install", "-m pytest", "reach.py")
    scripts = []
    for job in workflow["jobs"].values():
        matrix = (job.get("strategy") or {}).get("matrix") or {}
        combinations = matrix.get("include") or [
            {key: values[0] for key, values in matrix.items()}
        ]
        for combination in combinations:
            for step in job["steps"]:
                script = step.get("run")
                if script is None:
                    continue
                if not _condition(step.get("if"), combination):
                    continue
                script = _expand(script, combination)
                if not any(word in script for word in skipped):
                    scripts.append(script)
    return scripts


def sources(repo):
    """``{source: [argv, ...]}``; ``python`` resolves to the probing shim."""
    examples = sorted(
        os.path.join("examples", name)
        for name in os.listdir(os.path.join(repo, "examples"))
        if name.endswith(".py")
    )
    benchmarks = sorted(
        os.path.join("benchmarks", name)
        for name in os.listdir(os.path.join(repo, "benchmarks"))
        if name.startswith("test_") and name.endswith(".py")
    )
    pytest = ["python", "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    spine = ["python", "benchmarks/spine/run.py", "--quick", "--trace", "both"]
    return {
        "tier-1": [pytest + ["--hypothesis-seed=0"]],
        "goldens": [["python", "-c", GOLDENS]],
        "spine": [spine + ["--workload", name] for name in SPINE_WORKLOADS],
        "ci": [
            ["bash", "-eo", "pipefail", "-c", script]
            for script in ci_commands(repo)
        ],
        "examples": [["python", script] for script in examples],
        "benchmarks": [pytest + benchmarks],
    }


def run_sources(repo):
    """``{source: units reached}``, each source run in a copy of ``repo``."""
    reached = {}
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        copy = os.path.join(scratch, "repo")
        shutil.copytree(
            repo,
            copy,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".hypothesis", ".benchmarks"
            ),
        )
        index = line_index(units(os.path.join(copy, "src")))
        package = os.path.join(copy, "src", "repro") + os.sep
        probe = os.path.join(scratch, "probe")
        shims = os.path.join(scratch, "bin")
        os.makedirs(probe)
        os.makedirs(shims)
        with open(
            os.path.join(probe, "sitecustomize.py"), "w", encoding="utf-8"
        ) as handle:
            handle.write(PROBE)
        for name in ("python", "python3"):
            shim = os.path.join(shims, name)
            with open(shim, "w", encoding="utf-8") as handle:
                handle.write(SHIM.format(probe=probe, python=sys.executable))
            os.chmod(shim, 0o755)
        for source, commands in sources(copy).items():
            out = os.path.join(scratch, "out", source)
            os.makedirs(out)
            env = {
                **os.environ,
                "PATH": shims + os.pathsep + os.environ.get("PATH", ""),
                "PYTHONPATH": "src",
                "REACH_OUT": out,
                "REACH_SRC": package,
            }
            started = time.perf_counter()
            failed = sum(
                subprocess.run(
                    command,
                    cwd=copy,
                    env=env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                ).returncode
                != 0
                for command in commands
            )
            print(
                f"# {source}: {len(commands)} command(s), {failed} exited "
                f"non-zero, {time.perf_counter() - started:.0f} s",
                flush=True,
            )
            rows = []
            for name in os.listdir(out):
                with open(os.path.join(out, name), encoding="utf-8") as handle:
                    rows += [row.rstrip("\n").split("\t") for row in handle]
            reached[source] = _keys(index, package, rows)
    return reached


# -- the roots --------------------------------------------------------------


ROOTS = """
import ast, importlib, json, os, sys
sys.path[0:0] = ["benchmarks", "src"]
from spine.trace import ENTRY_POINTS
functions = [vars(owner)[name] for _, owner, name, _ in ENTRY_POINTS]
for name in sorted(os.listdir("benchmarks/spine")):
    if name.endswith(".py"):
        with open(os.path.join("benchmarks/spine", name)) as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            module = getattr(node, "module", None) or ""
            if isinstance(node, ast.ImportFrom) and module.startswith("repro"):
                module = importlib.import_module(module)
                functions += [getattr(module, a.name) for a in node.names]
functions = [getattr(f, "__func__", f) for f in functions]
codes = [getattr(f, "__code__", None) for f in functions]
print(json.dumps([[c.co_filename, c.co_firstlineno] for c in codes if c]))
"""


def spine_roots(repo, index):
    """Units the spine names: every ``(owner, name)`` of ``ENTRY_POINTS``
    and every ``repro`` function its modules import."""
    done = subprocess.run(
        [sys.executable, "-c", ROOTS],
        cwd=repo,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        check=True,
    )
    package = os.path.join(repo, "src", "repro") + os.sep
    return _keys(index, package, json.loads(done.stdout))


# -- the report -------------------------------------------------------------


def _abstract(node):
    """A body that is only a docstring, ``...`` or ``raise
    NotImplementedError``."""
    body = node.body
    docstring = isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    )
    if docstring:
        body = body[1:]
    if not body:
        return True
    if len(body) != 1:
        return False
    statement = body[0]
    if isinstance(statement, ast.Raise):
        raised = getattr(statement.exc, "func", statement.exc)
        return getattr(raised, "id", None) == "NotImplementedError"
    return (
        isinstance(statement, ast.Expr)
        and getattr(statement.value, "value", None) is Ellipsis
    )


def _union(reached, wanted):
    return set().union(
        *(keys for source, keys in reached.items() if wanted(source))
    )


def classify(found, reached, roots):
    """``{key: category}`` for every unit no non-test source reaches.

    An abstract method (see :func:`_abstract`) is ``abstract`` — allowed
    without a row — when a method of the same name in another class is
    reached by a non-test source.
    """
    beyond_tests = _union(reached, lambda source: source not in TEST_SOURCES)
    by_tests = _union(reached, lambda source: source in TEST_SOURCES)
    implemented = {}
    for path, qualname in beyond_tests:
        owner, _, name = qualname.rpartition(".")
        implemented.setdefault(name, set()).add((path, owner))
    rows = {}
    for key in found:
        if key in beyond_tests:
            continue
        owner, _, name = key[1].rpartition(".")
        overrides = implemented.get(name, set()) - {(key[0], owner)}
        if owner and overrides and _abstract(found[key][2]):
            rows[key] = "abstract"
        elif key in roots:
            rows[key] = "root"
        elif key in by_tests:
            rows[key] = "test-only"
        else:
            rows[key] = "unreached"
    return rows


def allowing(key):
    """The :data:`ALLOWED` row covering ``key``: exact, class, then module."""
    path, qualname = key
    parts = qualname.split(".")
    names = [f"{path}::{qualname}"]
    names += [
        f"{path}::{'.'.join(parts[:n])}." for n in range(len(parts) - 1, 0, -1)
    ]
    names.append(f"{path}::")
    return next((name for name in names if name in ALLOWED), None)


def check_allowed(found, rows, roots):
    """Problems with :data:`ALLOWED` itself: stale rows, kinds not fitting."""
    problems = []
    needed = {
        allowing(key)
        for key, category in rows.items()
        if category != "abstract"
    }
    for name, (kind, reason) in sorted(ALLOWED.items()):
        key = tuple(name.split("::"))
        exact = not name.endswith(("::", "."))
        if kind not in KINDS or kind == "abstract" or not reason:
            problems.append(f"{name}: needs a kind and a reason")
        elif exact and key not in found:
            problems.append(f"{name}: no such function (delete the row)")
        elif name not in needed:
            problems.append(f"{name}: covers nothing that needs a row")
        elif kind == "spine" and (not exact or key not in roots):
            problems.append(f"{name}: not a spine entry point or import")
        elif kind == "feature" and "README" not in reason:
            problems.append(f"{name}: a feature row cites its README line")
    return problems


COLUMNS = (
    "reached",
    "bench-only",
    "abstract",
    "allowed",
    "pending",
    "root",
    "test-only",
    "unreached",
)


def report(found, reached, roots):
    rows = classify(found, reached, roots)
    beyond = _union(reached, lambda source: source not in TEST_SOURCES)
    only_benchmarks = beyond - _union(
        reached, lambda source: source not in TEST_SOURCES + ("benchmarks",)
    )

    def size(key):
        first, last, _ = found[key]
        return last - first + 1

    def column(key):
        if key not in rows:
            return "bench-only" if key in only_benchmarks else "reached"
        row = allowing(key) if rows[key] != "abstract" else None
        if row is None:
            return rows[key]
        return "pending" if ALLOWED[row][0] == "pending" else "allowed"

    totals = {name: [0, 0] for name in COLUMNS}
    table, covered = {}, {}
    for key in found:
        package = key[0].split("/")[0] if "/" in key[0] else "(top level)"
        counts = table.setdefault(package, {n: [0, 0] for n in COLUMNS})
        for cell in (counts[column(key)], totals[column(key)]):
            cell[0] += 1
            cell[1] += size(key)
        if column(key) in ("allowed", "pending"):
            covered.setdefault(allowing(key), []).append(key)
    print(f"{'package':<12}" + "".join(f"{name:>14}" for name in COLUMNS))
    for package, counts in sorted(table.items()) + [("total", totals)]:
        cells = (f"{n} ({lines} l)" for n, lines in counts.values())
        print(f"{package:<12}" + "".join(f"{cell:>14}" for cell in cells))
    print("(functions and methods, with their lines; nested code counts")
    print(" for the function it is in)")

    for name in sorted(covered, key=lambda name: ALLOWED[name][0]):
        kind, reason = ALLOWED[name]
        keys = covered[name]
        lines = sum(size(key) for key in keys)
        print(f"{kind:<9} {name} ({len(keys)}, {lines} lines): {reason}")
    missing = [
        key
        for key in sorted(rows)
        if column(key) in ("root", "test-only", "unreached")
    ]
    for key in missing:
        print(
            f"NOT ALLOWED  {rows[key]:<10} {key[0]}::{key[1]} "
            f"({size(key)} lines)"
        )
    problems = check_allowed(found, rows, roots)
    for problem in problems:
        print(f"ALLOW-LIST   {problem}")
    print(
        f"{len(missing)} function(s) no non-test source reaches and no row "
        f"allows; {len(problems)} allow-list problem(s)"
    )
    return 1 if missing or problems else 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("repo", nargs="?", default=os.path.dirname(HERE))
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--save", metavar="OUT.json")
    group.add_argument("--load", metavar="OUT.json")
    args = parser.parse_args(argv)
    repo = os.path.abspath(args.repo)
    found = units(os.path.join(repo, "src"))
    if args.load:
        with open(args.load, encoding="utf-8") as handle:
            saved = json.load(handle)
        reached = {
            source: {tuple(key.split("::")) for key in keys} & found.keys()
            for source, keys in saved.items()
        }
    else:
        reached = run_sources(repo)
        if args.save:
            saved = {
                source: sorted(f"{path}::{name}" for path, name in keys)
                for source, keys in reached.items()
            }
            with open(args.save, "w", encoding="utf-8") as handle:
                json.dump(saved, handle, indent=1)
    return report(found, reached, spine_roots(repo, line_index(found)))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
