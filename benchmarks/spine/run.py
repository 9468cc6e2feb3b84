"""X17 — the benchmark spine's one command.

    python3 benchmarks/spine/run.py [--seed 17]            # the whole suite
    python3 benchmarks/spine/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/spine/run.py --quick | --selfcheck | --compare A B

The command re-executes itself with ``PYTHONHASHSEED=0`` and runs each
workload in a child process of its own, one after another, on one
thread.  Metric names, units, directions and bounds are read from the
root ``BENCHMARK.json``; see README.md for what each one means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"

if __name__ == "__main__":
    # An identical history is the precondition for comparing two runs at
    # all, and set/dict iteration order feeds scheduling decisions.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(
            sys.executable,
            [sys.executable] + sys.argv,
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    # Import the siblings as the package ``spine`` so that trace.py does
    # not shadow the standard library's ``trace``.
    sys.path[0:1] = [str(HERE.parent), str(ROOT / "src")]

from spine import measure  # noqa: E402
from spine.report import compare, selfcheck_report  # noqa: E402
from spine.spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from spine.worlds import WORLDS  # noqa: E402

#: Seeds ``S .. S+window-1`` feed Phases V and T; the first ``count`` of
#: them Phase C (cProfile triples the cost of a sub-run).  The driver
#: compares runs on *different* seeds, so the windows are as wide as its
#: time cap allows: how many processes commit varies most between seeds
#: on the contended workloads, which get the widest windows; the durable
#: one commits everything on every seed, is noisy in its fsyncs instead,
#: and spends its time on repeated passes over a narrow window.
WINDOWS = {
    "open-steady": (32, 6),
    "batch-contended": (48, 12),
    "durable-closed": (8, 4),
    "fed-cross": (40, 12),
}
QUICK_WINDOW = (2, 1)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    min_sub_runs: int,
    repeats: int,
    end_to_end: bool,
    per_layer: bool,
    quick: bool,
    workdir: str,
) -> Dict[str, Any]:
    """All requested phases of one workload, in this process."""
    world_cls = WORLDS[name]
    window, count = QUICK_WINDOW if quick else WINDOWS[name]
    seeds = list(range(seed, seed + window))
    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "end_to_end": {},
        "per_layer": {},
        "info": {},
    }
    if end_to_end:
        timed = measure.measure_phase(
            world_cls,
            seeds,
            seconds,
            min_sub_runs=min_sub_runs,
            workdir=workdir,
            strict=not quick,
        )
        result["end_to_end"] = {
            **timed["metrics"],
            # Read before Phase L: the span list would inflate the peak.
            "peak_rss_mb": measure.peak_rss_mb(),
        }
        result["attempted"] = timed["attempted"]
        result["failed"] = timed["failed"]
        result["hashes"] = timed["hashes"]
        result["info"]["timed"] = timed["info"]
    if per_layer:
        RESULTS.mkdir(exist_ok=True)
        layers = measure.layer_phase(
            world_cls,
            seed,
            repeats=repeats,
            workdir=workdir,
            trace_path=str(RESULTS / f"trace_{name}.json"),
        )
        values = {metric: 0.0 for metric in PER_LAYER}
        values.update(layers["metrics"])
        result["info"]["layers"] = layers["info"]
        if name == "durable-closed":
            recovered = measure.recovery_phase(
                seed, samples=1 if quick else 10, workdir=workdir
            )
            values.update(recovered["metrics"])
            result["info"]["recovery"] = recovered["info"]
        if name == "open-steady":
            swept = measure.sweep_phase(
                seed, seeds=1 if quick else measure.SWEEP_SEEDS, workdir=workdir
            )
            values.update(swept["metrics"])
            result["info"]["sweep"] = swept["info"]
        # Last, when every in-process cache has seen the workload.
        counted = measure.count_phase(
            world_cls,
            seeds[:count],
            {**result.get("hashes", {}), str(seed): layers["hash"]},
            workdir,
        )
        values.update(counted["metrics"])
        result["info"]["counted"] = counted["info"]
        unknown = sorted(set(values) - set(PER_LAYER))
        if unknown:
            raise measure.CheckFailed(
                f"metrics missing from BENCHMARK.json: {unknown}"
            )
        result["per_layer"] = values
        result.setdefault("attempted", layers["attempted"])
        result.setdefault("failed", layers["failed"])
        result.setdefault("hashes", {str(seed): layers["hash"]})
    return result


def print_metrics(result: Dict[str, Any]) -> None:
    """Every metric by name with its unit, one line each."""
    name = result["workload"]
    for group, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        for metric, value in result[group].items():
            print(f"{name:16s} {metric:48s} {value:14.6g} {units[metric]['unit']}")
    kept = result["end_to_end"].get("kept_work_fraction")
    if kept is not None:
        print(
            f"{name:16s} # lost_work_fraction = 1 - kept_work_fraction "
            f"= {1 - kept:.6g}"
        )
    info = result["info"]
    if "timed" in info:
        timed = info["timed"]
        print(
            f"{name:16s} # Phase T: {timed['sub_runs']} sub-runs, "
            f"{timed['raw_seconds']:.1f} raw s; "
            f"{timed['latency_samples']} latency samples"
        )
    for seed, digest in result.get("hashes", {}).items():
        print(f"{name:16s} # history seed {seed}: {digest[:16]}")


def driver_line(result: Dict[str, Any], group: str, units: Dict[str, dict]) -> str:
    """The contract's last line: correct, attempted, failed, metrics."""
    return json.dumps(
        {
            "correct": True,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                metric: {"value": value, "unit": units[metric]["unit"]}
                for metric, value in result[group].items()
            },
        }
    )


def commit_id() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "nogit"
    return done.stdout.strip() if done.returncode == 0 else "nogit"


def run_suite(seed: int, seconds: float, quick: bool) -> Dict[str, Any]:
    """Every workload in a child process of its own, one after another."""
    suite: Dict[str, Any] = {
        "benchmark": "X17 spine",
        "commit": commit_id(),
        "seed": seed,
        "mode": "quick" if quick else "full",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".out-") as scratch:
        for name in WORKLOADS:
            out = os.path.join(scratch, f"{name}.json")
            command = [
                sys.executable,
                str(HERE / "run.py"),
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", "both",
                "--out", out,
            ] + (["--quick"] if quick else [])
            done = subprocess.run(command, env=os.environ)
            if done.returncode != 0:
                raise SystemExit(f"workload {name} failed ({done.returncode})")
            with open(out, encoding="utf-8") as handle:
                suite["workloads"][name] = json.load(handle)
    return suite


def write_suite(suite: Dict[str, Any]) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"SPINE_{suite['commit']}.json"
    path.write_text(json.dumps(suite, indent=1, sort_keys=True) + "\n")
    return path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument("--out", help=argparse.SUPPRESS)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else (0 if args.quick else 45)

    if args.compare:
        base, new = (
            json.loads(Path(path).read_text(encoding="utf-8"))
            for path in args.compare
        )
        text, worse = compare(base, new)
        print(text)
        return 1 if worse else 0

    if args.workload:
        # Sub-runs Phase T must reach, and repetitions of Phase L.  The
        # suite's children ("both") take what precision needs; a driver
        # run is bounded by time alone, so that a slow disk costs it
        # passes and not minutes.
        if args.quick:
            min_sub_runs, repeats = 0, 1
        elif args.trace == "both":
            min_sub_runs, repeats = 40, 15
        else:
            min_sub_runs, repeats = 0, 5
        workdir = tempfile.mkdtemp(dir=HERE, prefix=".work-")
        try:
            result = run_workload(
                args.workload,
                args.seed,
                seconds,
                min_sub_runs=min_sub_runs,
                repeats=repeats,
                end_to_end=args.trace in ("0", "both"),
                per_layer=args.trace in ("1", "both"),
                quick=args.quick,
                workdir=workdir,
            )
        except measure.CheckFailed as failure:
            print(f"CHECK FAILED: {failure}")
            return 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print_metrics(result)
        if args.out:
            Path(args.out).write_text(json.dumps(result), encoding="utf-8")
        elif args.trace == "0":
            print(driver_line(result, "end_to_end", END_TO_END))
        elif args.trace == "1":
            print(driver_line(result, "per_layer", PER_LAYER))
        return 0

    if args.selfcheck:
        first = run_suite(args.seed, seconds, args.quick)
        second = run_suite(args.seed, seconds, args.quick)
        text, breaches = selfcheck_report(first, second)
        print(text)
        if not args.quick:
            write_suite(second)
            (RESULTS / "SELFCHECK.txt").write_text(text + "\n", encoding="utf-8")
        return 1 if breaches else 0

    suite = run_suite(args.seed, seconds, args.quick)
    if not args.quick:
        print(f"wrote {write_suite(suite).relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
