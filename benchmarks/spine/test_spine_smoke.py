"""Smoke test of the benchmark spine (outside tier-1's ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/spine/test_spine_smoke.py -q

Runs the whole suite once in ``--quick`` mode and checks its printed
contract against ``BENCHMARK.json``; checks the span wrappers in-process.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from spine.spec import END_TO_END, PER_LAYER, WORKLOADS
from spine.trace import ENTRY_POINTS, LAYERS, Tracer

RUN = Path(__file__).resolve().parent / "run.py"
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def quick_output():
    done = subprocess.run(
        [sys.executable, str(RUN), "--quick", "--seed", "17"],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def _metric_lines(output):
    """``(workload, metric) -> [(value, unit), ...]`` of the printed lines."""
    printed = {}
    for line in output.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[0] in WORKLOADS and fields[1] != "#":
            workload, metric, value, unit = fields
            printed.setdefault((workload, metric), []).append(
                (float(value), unit)
            )
    return printed


def test_every_metric_printed_once_with_its_unit(quick_output):
    printed = _metric_lines(quick_output)
    declared = {**END_TO_END, **PER_LAYER}
    for workload in WORKLOADS:
        for metric, entry in declared.items():
            assert NAME.fullmatch(metric), metric
            rows = printed.get((workload, metric), [])
            assert len(rows) == 1, f"{workload} {metric}: printed {len(rows)}x"
            assert rows[0][1] == entry["unit"], (workload, metric, rows[0])
    assert {metric for _, metric in printed} == set(declared)


def test_layer_rows_sum_to_the_root_span(quick_output):
    printed = _metric_lines(quick_output)
    for workload in WORKLOADS:
        # subsystems.recovery has a root of its own (the recover() span).
        total = sum(
            printed[(workload, f"{layer}.share")][0][0]
            for layer in LAYERS
            if layer != "subsystems.recovery"
        )
        assert abs(total - 1.0) <= 0.01, (workload, total)


def test_end_to_end_metrics_are_never_zero(quick_output):
    printed = _metric_lines(quick_output)
    for workload in WORKLOADS:
        for metric in END_TO_END:
            assert printed[(workload, metric)][0][0] > 0, (workload, metric)


def test_wrappers_are_fully_removed():
    originals = {
        (owner, name): vars(owner)[name] for _, owner, name, _ in ENTRY_POINTS
    }
    with Tracer():
        assert len(Tracer.installed()) == len(ENTRY_POINTS)
    assert Tracer.installed() == []
    for (owner, name), original in originals.items():
        assert vars(owner)[name] is original, (owner, name)
