"""Adversarial search: seeded random fault plans under a budget.

``nemesis search`` draws plan after plan from an explicit
``random.Random`` derived from the search seed and the plan index,
executes each against the system spec with the online invariant
registry armed, and accumulates fault-site coverage across the whole
campaign.  On the first violation it runs the delta-debugging shrinker
(:mod:`repro.nemesis.shrink`) with a real-replay oracle — a candidate
"reproduces" iff re-running it yields the *identical* violation
identity (invariant + event index) — and emits a repro bundle.

Everything is deterministic given ``(spec, seed, plans, actions)``:
the same campaign always explores the same plans, finds the same
violation and shrinks it to the same minimal plan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.nemesis.bundle import Bundle, write_bundle
from repro.nemesis.coverage import CoverageReport
from repro.nemesis.executor import (
    NemesisRunResult,
    NemesisSpec,
    run_plan,
)
from repro.nemesis.invariants import (
    Invariant,
    InvariantViolation,
    default_invariants,
)
from repro.nemesis.plan import FaultPlan, random_plan
from repro.nemesis.shrink import ShrinkResult, shrink

__all__ = ["SearchResult", "plan_for", "nemesis_search"]

#: Invariant factory: fresh instances per run keep runs independent.
InvariantFactory = Callable[[], List[Invariant]]


def plan_for(
    spec: NemesisSpec, seed: int, index: int, actions: int = 8
) -> FaultPlan:
    """The ``index``-th plan of a search campaign — pure and seeded."""
    rng = random.Random(seed * 1_000_003 + index)
    return random_plan(
        rng,
        services=spec.fleet.service_names(),
        shards=spec.fleet.shard_names(),
        actions=actions,
        horizon=spec.horizon,
    )


@dataclass
class SearchResult:
    """Outcome of one search campaign."""

    spec: NemesisSpec
    seed: int
    explored: int = 0
    coverage: CoverageReport = field(default_factory=CoverageReport)
    #: The violating run, pre-shrink (``None`` = campaign came up clean).
    violation: Optional[InvariantViolation] = None
    found_plan: Optional[FaultPlan] = None
    found_index: Optional[int] = None
    shrunk: Optional[ShrinkResult] = None
    bundle_path: Optional[str] = None
    #: Total plan executions including the shrinker's replays.
    total_runs: int = 0

    @property
    def found(self) -> bool:
        return self.violation is not None

    def summary(self) -> str:
        if not self.found:
            return (
                f"explored {self.explored} plans, no violation; "
                f"fault-site coverage {self.coverage.percent:.0f}% "
                f"({', '.join(self.coverage.families_covered()) or 'none'})"
            )
        lines = [
            f"violation after {self.explored} plans: "
            f"{self.violation.describe()}",
            f"found plan: {len(self.found_plan.actions)} actions "
            f"(index {self.found_index}, seed {self.seed})",
        ]
        if self.shrunk is not None:
            lines.append(
                f"shrunk to {self.shrunk.minimal_actions} actions "
                f"(ratio {self.shrunk.shrink_ratio:.1f}x, "
                f"{self.shrunk.runs} shrink runs)"
            )
        if self.bundle_path:
            lines.append(f"bundle: {self.bundle_path}")
        return "\n".join(lines)


def nemesis_search(
    spec: NemesisSpec,
    plans: int = 20,
    seed: int = 0,
    actions: int = 8,
    invariants: Optional[InvariantFactory] = None,
    shrink_on_violation: bool = True,
    max_shrink_runs: int = 128,
    bundle_dir: Optional[str] = None,
    bundle_trace: bool = True,
    trace=None,
    metrics_registry=None,
    on_result: Optional[Callable[[int, NemesisRunResult], None]] = None,
) -> SearchResult:
    """Explore ``plans`` seeded fault plans; shrink + bundle on violation."""
    factory: InvariantFactory = (
        invariants if invariants is not None else default_invariants
    )
    result = SearchResult(spec=spec, seed=seed)
    for index in range(plans):
        plan = plan_for(spec, seed, index, actions=actions)
        run = run_plan(
            spec,
            plan,
            invariants=factory(),
            trace=trace,
            metrics_registry=metrics_registry,
        )
        result.explored += 1
        result.total_runs += 1
        result.coverage.merge(run.coverage)
        if on_result is not None:
            on_result(index, run)
        if run.violation is None:
            continue
        result.violation = run.violation
        result.found_plan = plan
        result.found_index = index
        if shrink_on_violation:
            expected = run.violation.identity

            def reproduces(
                candidate_spec: NemesisSpec, candidate: FaultPlan
            ) -> bool:
                replay = run_plan(
                    candidate_spec, candidate, invariants=factory()
                )
                result.total_runs += 1
                return (
                    replay.violation is not None
                    and replay.violation.identity == expected
                )

            result.shrunk = shrink(
                spec, plan, reproduces, max_runs=max_shrink_runs
            )
        if bundle_dir is not None:
            minimal = result.shrunk
            bundle = Bundle(
                spec=minimal.spec if minimal is not None else spec,
                plan=minimal.plan if minimal is not None else plan,
                violation=run.violation,
                search={
                    "seed": seed,
                    "index": index,
                    "actions_found": len(plan.actions),
                    "actions_minimal": (
                        minimal.minimal_actions
                        if minimal is not None
                        else len(plan.actions)
                    ),
                    "shrink_runs": (
                        minimal.runs if minimal is not None else 0
                    ),
                },
            )
            result.bundle_path = write_bundle(
                bundle_dir,
                bundle,
                invariants=factory,
                with_trace=bundle_trace,
            )
        break
    if metrics_registry is not None:
        result.coverage.publish(metrics_registry)
        metrics_registry.counter("nemesis_plans_explored").inc(
            result.explored
        )
    return result
