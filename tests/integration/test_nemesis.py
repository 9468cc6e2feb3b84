"""Integration tests for the nemesis harness (X15).

The full adversarial loop end to end: seeded search over random fault
plans with the online invariant registry armed, delta-debugging
failure minimization on violation, repro-bundle write-out and
deterministic replay — plus the ``repro nemesis`` CLI exit-code
contract (0 healthy, 1 violation, 2 usage).

The searchable violation is the :class:`CanaryInvariant` — the
fault-injection-of-the-injector fixture: it "violates" deterministically
once every watched family has delivered a fault, so the search must
find it, the shrinker must minimize it and the replay must reproduce
the identical violation identity twice in a row.
"""

import json

import pytest

from repro.cli import main
from repro.nemesis import (
    FAMILY_OF,
    CanaryInvariant,
    FaultPlan,
    NemesisSpec,
    default_invariants,
    nemesis_search,
    plan_for,
    read_bundle,
    replay_bundle,
    run_plan,
)

SEARCH_SEED = 0
PLANS = 8


def canary_factory():
    return default_invariants() + [
        CanaryInvariant(families=("subsystem", "message"))
    ]


@pytest.fixture(scope="module")
def canary_search(tmp_path_factory):
    """One shared canary campaign: search -> shrink -> bundle."""
    bundle_dir = tmp_path_factory.mktemp("bundle")
    spec = NemesisSpec().shaped(seed=3)
    result = nemesis_search(
        spec,
        plans=PLANS,
        seed=SEARCH_SEED,
        invariants=canary_factory,
        bundle_dir=str(bundle_dir),
        bundle_trace=True,
    )
    return result


class TestCleanSearch:
    def test_default_invariants_hold_under_random_plans(self):
        result = nemesis_search(NemesisSpec().shaped(seed=1), plans=4, seed=11)
        assert not result.found, result.summary()
        assert result.explored == 4
        # Random plans must actually deliver faults, not just schedule
        # them.
        assert result.coverage.total_delivered > 0
        assert len(result.coverage.families_covered()) >= 2

    def test_campaign_is_deterministic(self):
        one = nemesis_search(NemesisSpec().shaped(seed=1), plans=3, seed=5)
        two = nemesis_search(NemesisSpec().shaped(seed=1), plans=3, seed=5)
        assert one.coverage.to_dict() == two.coverage.to_dict()
        assert [
            plan_for(one.spec, 5, i).to_dict() for i in range(3)
        ] == [plan_for(two.spec, 5, i).to_dict() for i in range(3)]


class TestCanarySearchShrinkReplay:
    def test_search_finds_the_canary(self, canary_search):
        assert canary_search.found, canary_search.summary()
        assert canary_search.violation.invariant == "canary"
        assert canary_search.found_index is not None

    def test_shrinker_minimizes_to_five_actions_or_fewer(
        self, canary_search
    ):
        shrunk = canary_search.shrunk
        assert shrunk is not None
        assert shrunk.minimal_actions <= 5
        assert shrunk.shrink_ratio >= 1.0
        # The minimal plan still spans the two watched families.
        families = {FAMILY_OF[action.kind] for action in shrunk.plan.actions}
        assert {"subsystem", "message"} <= families

    def test_bundle_artifacts_written(self, canary_search):
        assert canary_search.bundle_path is not None
        bundle = read_bundle(canary_search.bundle_path)
        assert bundle.violation.identity == canary_search.violation.identity
        assert bundle.search["seed"] == SEARCH_SEED
        assert bundle.search["actions_minimal"] <= bundle.search[
            "actions_found"
        ]
        import os

        directory = os.path.dirname(canary_search.bundle_path)
        assert os.path.exists(os.path.join(directory, "trace.jsonl"))
        assert os.path.exists(os.path.join(directory, "explain.txt"))

    def test_replay_reproduces_identical_violation_twice(
        self, canary_search
    ):
        report = replay_bundle(
            canary_search.bundle_path, runs=2, invariants=canary_factory
        )
        assert report.reproduced, report.describe()
        identities = {
            result.violation.identity for result in report.results
        }
        assert identities == {report.bundle.violation.identity}

    def test_minimal_plan_reproduces_via_run_plan(self, canary_search):
        bundle = read_bundle(canary_search.bundle_path)
        result = run_plan(
            bundle.spec, bundle.plan, invariants=canary_factory()
        )
        assert result.violation is not None
        assert result.violation.identity == bundle.violation.identity


class TestRunPlanCertification:
    def test_clean_plan_certifies(self):
        spec = NemesisSpec().shaped(seed=2)
        plan = plan_for(spec, seed=9, index=0, actions=4)
        result = run_plan(spec, plan)
        assert result.clean
        assert result.certification is not None
        assert result.certification.certified
        assert result.audit_clean

    def test_metrics_published(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        spec = NemesisSpec().shaped(seed=2)
        run_plan(spec, plan_for(spec, seed=9, index=0), metrics_registry=registry)
        snapshot = registry.snapshot()
        assert snapshot["nemesis_plans_run"] == 1
        assert "nemesis_fault_site_coverage_percent" in snapshot


class TestNemesisCli:
    def test_search_clean_exits_zero(self, capsys):
        code = main(
            ["nemesis", "search", "--plans", "2", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "no violation" in out
        assert "fault-site coverage" in out

    def test_search_canary_expect_violation_exits_zero(
        self, tmp_path, capsys
    ):
        code = main(
            [
                "nemesis",
                "search",
                "--plans",
                str(PLANS),
                "--seed",
                "3",
                "--canary",
                "subsystem,message",
                "--expect-violation",
                "--bundle-dir",
                str(tmp_path / "bundle"),
                "--no-bundle-trace",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "violation after" in out
        assert (tmp_path / "bundle" / "bundle.json").exists()

    def test_replay_cli_reproduces(self, canary_search, capsys):
        code = main(
            [
                "nemesis",
                "replay",
                canary_search.bundle_path,
                "--runs",
                "2",
                "--canary",
                "subsystem,message",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "reproduced: identical violation in 2/2 replays" in out

    def test_run_cli_on_bundle_plan(self, canary_search, capsys):
        bundle = read_bundle(canary_search.bundle_path)
        code = main(
            [
                "nemesis",
                "run",
                canary_search.bundle_path,
                "--canary",
                "subsystem,message",
                "--shards",
                str(bundle.spec.fleet.shards),
            ]
        )
        out = capsys.readouterr().out
        # The bundle's plan under the CLI-built spec still runs and
        # reports; a canary hit exits 1 (violation), a miss 0.
        assert code in (0, 1)
        assert "fault-site coverage" in out

    def test_run_cli_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "not_a_plan.json"
        path.write_text(json.dumps({"format": "repro/schedule"}))
        code = main(["nemesis", "run", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "not a fault plan" in err

    def test_min_coverage_floor_enforced(self, capsys):
        code = main(
            [
                "nemesis",
                "search",
                "--plans",
                "1",
                "--actions",
                "1",
                "--min-coverage",
                "99",
            ]
        )
        assert code == 1
        assert "below required" in capsys.readouterr().err
