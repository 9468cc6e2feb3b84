"""Metric and workload names, read from the root ``BENCHMARK.json``.

``BENCHMARK.json`` is the one place names, units and directions are
written down.  Its ``bound`` is the one the driver applies to the medians
of runs on *different* seeds.  The suite's own ``--compare`` and
``--selfcheck`` compare runs on the *same* seed, where the virtual-time
metrics and counts are exact, and use the tighter bounds below.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS: List[str] = [entry["name"] for entry in SPEC["workloads"]]
END_TO_END: Dict[str, dict] = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER: Dict[str, dict] = {m["name"]: m for m in SPEC["per_layer"]}

#: End-to-end metrics of the suite that the driver's ``end_to_end`` list
#: cannot hold — it wants every metric from every workload, never 0, and
#: visible to a user of the system — with the workloads they exist on.
#: ``BENCHMARK.json`` lists them under ``per_layer``; the suite's own
#: tables treat them as end to end.
SUITE_ONLY = {
    "calls_per_commit": None,  # every workload
    "recovery_s": "durable-closed",
    "vt_rate_at_slo": "open-steady",
}

#: Regression bounds for two runs on the same seed.
SAME_SEED_BOUNDS = {
    "setup_s": 0.10,
    "commits_per_s": 0.10,
    "calls_per_commit": 0.02,
    "committed_fraction": 0.01,
    "vt_goodput": 0.01,
    "vt_latency_p50": 0.01,
    "vt_latency_p95": 0.01,
    "kept_work_fraction": 0.01,
    "peak_rss_mb": 0.05,
    "recovery_s": 0.10,
    "vt_rate_at_slo": 0.01,
}

#: Units of metrics that rest on the wall clock or on memory; everything
#: else is a count or a virtual-time quantity and repeats exactly.
MEASURED_UNITS = {"s", "ms", "us", "1/s", "MB", "share", "x"}


def is_exact(metric: str) -> bool:
    entry = END_TO_END.get(metric) or PER_LAYER[metric]
    return entry["unit"] not in MEASURED_UNITS


def end_to_end_of(workload: str) -> List[str]:
    """The end-to-end metrics the suite reports for ``workload``."""
    return list(END_TO_END) + [
        metric for metric, only in SUITE_ONLY.items() if only in (None, workload)
    ]


def better(metric: str) -> str:
    return (END_TO_END.get(metric) or PER_LAYER[metric])["better"]
