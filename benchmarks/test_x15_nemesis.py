"""X15 — nemesis: adversarial search throughput, coverage, shrinking.

Three quantities characterize the unified fault-simulation harness:

* **Search throughput** — seeded random fault plans explored per hour
  on the ``sqlite`` backend (real durability, real fsync faults), with
  the online invariant registry armed and offline certification after
  every run.  The clean leg must find *no* violation: the default
  invariants hold under arbitrary sanitized plans.

* **Fault-site coverage** — the fraction of the eleven known fault
  sites (five injector families) a single bounded search actually
  delivers.  Scheduling a fault is free; the metric counts faults the
  system *experienced*.  The clean leg below reaches all five families
  in one campaign.

* **Shrink ratio** — mean original/minimal action-count ratio of the
  delta-debugging minimizer over canary-violation campaigns (the
  deterministic searchable fixture), plus the oracle runs spent.

Raw numbers are persisted to ``benchmarks/results/BENCH_X15.json``.
"""

import json
import os
import statistics
import time

from repro.nemesis import (
    CanaryInvariant,
    NemesisSpec,
    default_invariants,
    nemesis_search,
    plan_for,
    run_plan,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Clean leg: all five families fire, no violation (verified seeds).
CLEAN_SPEC_SEED = 2
CLEAN_SEARCH_SEED = 7
CLEAN_PLANS = 10

#: Canary legs: (watched families, spec seed, search seed).
CANARY_RUNS = (
    (("subsystem", "message"), 3, 0),
    (("subsystem",), 1, 5),
    (("message",), 2, 9),
)


def clean_search():
    spec = NemesisSpec(backend="sqlite").shaped(
        seed=CLEAN_SPEC_SEED, cross_shard_fraction=0.3
    )
    start = time.perf_counter()
    result = nemesis_search(
        spec, plans=CLEAN_PLANS, seed=CLEAN_SEARCH_SEED, actions=10
    )
    elapsed = time.perf_counter() - start
    assert not result.found, result.summary()
    families = sorted(result.coverage.families_covered())
    return {
        "plans": result.explored,
        "wall_s": round(elapsed, 3),
        "plans_per_hour": int(result.explored / elapsed * 3600.0),
        "coverage_percent": round(result.coverage.percent, 1),
        "families": len(families),
        "faults_delivered": result.coverage.total_delivered,
    }, families


def canary_campaign(families, spec_seed, search_seed):
    spec = NemesisSpec().shaped(seed=spec_seed)

    def invariants():
        return default_invariants() + [CanaryInvariant(families=families)]

    result = nemesis_search(
        spec, plans=12, seed=search_seed, invariants=invariants
    )
    assert result.found, result.summary()
    assert result.shrunk is not None
    shrunk = result.shrunk
    return {
        "families": "+".join(families),
        "found_at_plan": result.found_index,
        "actions_found": shrunk.original_actions,
        "actions_minimal": shrunk.minimal_actions,
        "shrink_ratio": round(shrunk.shrink_ratio, 2),
        "oracle_runs": shrunk.runs,
    }


def test_x15_nemesis(benchmark, report):
    search_row, families = clean_search()
    assert families == [
        "disk",
        "kill",
        "message",
        "subsystem",
        "walcrash",
    ], f"clean search must span all five injector families: {families}"

    shrink_rows = [
        canary_campaign(families, spec_seed, search_seed)
        for families, spec_seed, search_seed in CANARY_RUNS
    ]
    mean_ratio = round(
        statistics.mean(row["shrink_ratio"] for row in shrink_rows), 2
    )
    assert mean_ratio >= 1.0

    report(
        [search_row],
        title=(
            "X15 — clean adversarial search (sqlite backend, "
            f"{CLEAN_PLANS} plans, default invariants)"
        ),
    )
    report(
        shrink_rows,
        title="X15 — canary search -> delta-debugging shrink campaigns",
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(
        os.path.join(RESULTS_DIR, "BENCH_X15.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(
            {
                "experiment": "X15",
                "clean_search": search_row,
                "families_covered": families,
                "shrink_campaigns": shrink_rows,
                "mean_shrink_ratio": mean_ratio,
            },
            handle,
            indent=2,
        )
        handle.write("\n")
    benchmark.pedantic(
        run_plan,
        args=(
            NemesisSpec().shaped(seed=CLEAN_SPEC_SEED),
            plan_for(NemesisSpec().shaped(seed=CLEAN_SPEC_SEED), 7, 0),
        ),
        rounds=3,
        iterations=1,
    )


def test_x15_clean_search_smoke():
    """Benchmark-fixture-free variant for plain test runs."""
    row, families = clean_search()
    assert row["plans"] == CLEAN_PLANS
    assert len(families) == 5


def test_x15_shrink_smoke():
    row = canary_campaign(*CANARY_RUNS[0])
    assert row["actions_minimal"] <= row["actions_found"]
    assert row["shrink_ratio"] >= 1.0
