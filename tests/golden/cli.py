"""CLI stdout goldens: invocation → exit code and printed tables.

``cli_stdout.json`` pins what the CI smoke invocations print at small
arguments — flags, defaults, table columns, summary lines and the
0/1/2 exit-code contract — so a refactor underneath the CLI is accepted
when every entry still matches byte for byte.  Regenerate on purpose
with ``python -m tests.golden --regen-cli`` and explain each change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from typing import Dict, List

from repro.cli import build_parser, main

__all__ = ["CASES", "CLI_GOLDEN_PATH", "load_cli_goldens", "run_case"]

_HERE = os.path.dirname(__file__)
CLI_GOLDEN_PATH = os.path.join(_HERE, "cli_stdout.json")
#: A fixed seven-kind fault plan (``random_plan`` seed 2 on the default
#: nemesis shape), checked in so the golden does not depend on the
#: plan generator.
PLAN_PATH = os.path.join(_HERE, "nemesis_plan.json")
#: Valid JSON that is not a fault plan (exit code 2).
NOT_A_PLAN_PATH = os.path.join(_HERE, "not_a_plan.json")
#: The paper's Figure 7 (PRED) and Figure 4a (not PRED) schedules and
#: process P1, as ``repro.core.serialize`` writes them.
FIG7_PATH = os.path.join(_HERE, "fig7_schedule.json")
FIG4A_PATH = os.path.join(_HERE, "fig4a_schedule.json")
P1_PATH = os.path.join(_HERE, "p1_process.json")

CASES: Dict[str, List[str]] = {
    "workload": ["workload"],
    "workload/perf-counters": [
        "workload", "--processes", "8", "--conflicts", "0.1", "--seed", "3",
        "--perf-counters",
    ],
    "workload/locking,history": [
        "workload", "--scheduler", "locking", "--failures", "0.1",
        "--show-history",
    ],
    "workload/sqlite,weak": [
        "workload", "--backend", "sqlite", "--order", "weak", "--seed", "2",
    ],
    # An illegal history: the flat baseline restarts through a pivot.
    "workload/flat,illegal": [
        "workload", "--scheduler", "flat", "--failures", "0.3",
        "--conflicts", "0.3", "--seed", "3",
    ],
    "sweep": ["sweep", "--conflicts", "0.1", "--processes", "4"],
    "chaos": ["chaos", "--seeds", "1"],
    "chaos/sqlite": [
        "chaos", "--mix", "aborts", "--seeds", "1", "--backend", "sqlite",
    ],
    "crashpoints": ["crashpoints", "--seeds", "1", "--recovery-stride", "4"],
    "crashpoints/checkpointed": [
        "crashpoints", "--seeds", "1", "--checkpoint-interval", "8",
        "--recovery-stride", "8", "--no-file-faults",
    ],
    "overload": [
        "overload", "--processes", "16", "--loads", "0.1", "0.3", "0.6",
        "--seeds", "1",
    ],
    "overload/reject-new": [
        "overload", "--processes", "12", "--loads", "0.5", "--seeds", "1",
        "--shed-policy", "reject-new",
    ],
    "overload/estimated-capacity": ["overload", "--processes", "8"],
    "federation/kill": [
        "federation", "--shards", "2", "--kill", "--drop", "0.1",
        "--delay", "0.1", "--duplicate", "0.1", "--partitions", "1",
        "--seeds", "0",
    ],
    "federation/scaling": [
        "federation", "--scaling", "--shards", "4", "--seeds", "0",
    ],
    "nemesis/run": ["nemesis", "run", PLAN_PATH, "--seed", "2"],
    "nemesis/run,canary": [
        "nemesis", "run", PLAN_PATH, "--seed", "2",
        "--canary", "subsystem,message",
    ],
    "nemesis/run,not-a-plan": ["nemesis", "run", NOT_A_PLAN_PATH],
    "usage/unknown-backend": ["chaos", "--backend", "floppy"],
    "check": ["check", FIG7_PATH],
    "check/not-pred": ["check", FIG4A_PATH],
    "render/executions": ["render", P1_PATH, "--executions"],
    "demo": ["demo"],
    "demo/fail-test": ["demo", "--fail-test"],
    "dot/process": ["dot", P1_PATH],
    "dot/schedule": ["dot", FIG7_PATH],
    "dot/not-a-schedule": ["dot", NOT_A_PLAN_PATH],
}

#: Every subcommand at its minimal argv: ``flags/<command>`` pins the
#: parsed namespace, i.e. each flag's name and default.
FLAG_CASES: Dict[str, List[str]] = {
    "workload": ["workload"],
    "sweep": ["sweep"],
    "chaos": ["chaos"],
    "crashpoints": ["crashpoints"],
    "overload": ["overload"],
    "federation": ["federation"],
    "nemesis-search": ["nemesis", "search"],
    "nemesis-run": ["nemesis", "run", "PLAN"],
    "nemesis-replay": ["nemesis", "replay", "BUNDLE"],
    "check": ["check", "SCHEDULE"],
    "render": ["render", "PROCESS"],
    "demo": ["demo"],
    "dot": ["dot", "FILE"],
}
CASES.update({f"flags/{name}": argv for name, argv in FLAG_CASES.items()})

#: ``certify_ms`` (last column of the perf-counter table) is the one
#: wall-clock field these invocations print.
_CERTIFY_MS = re.compile(r"(?<=\s)[0-9.]+\s*$")


def _mask_wall_clock(stdout: str) -> str:
    lines = stdout.split("\n")
    for index, line in enumerate(lines):
        if line.rstrip().endswith("certify_ms") and index + 2 < len(lines):
            lines[index + 2] = _CERTIFY_MS.sub("<ms>", lines[index + 2])
    return "\n".join(lines)


def run_case(name: str) -> Dict[str, object]:
    """Run one pinned invocation in-process; exit code + masked stdout."""
    if name.startswith("flags/"):
        parsed = vars(build_parser().parse_args(CASES[name]))
        del parsed["handler"]
        return {"exit": 0, "stdout": json.dumps(parsed, sort_keys=True)}
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            code = main(CASES[name])
        except SystemExit as exit_:  # argparse usage errors
            code = exit_.code
    # ``check`` names its input file: pin it relative to this directory.
    printed = stdout.getvalue().replace(_HERE + os.sep, "tests/golden/")
    return {"exit": code, "stdout": _mask_wall_clock(printed)}


def load_cli_goldens() -> Dict[str, Dict[str, object]]:
    with open(CLI_GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)
