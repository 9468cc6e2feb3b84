"""Cross-layer chaos: disk, message and process faults in ONE run.

The nemesis plan below drives three injector layers simultaneously
against a federated run on the ``procpool`` backend — fsync failures in
the storage workers, drop/delay windows on the inter-shard links, a
shard kill that SIGKILLs real worker processes, and a subsystem abort
window — and the run must still come out the other side with a
certified history and a clean decision audit.

Before the nemesis harness each of these layers had its own entry
point and its own test; this is the first test where all of them fire
inside a single timeline.
"""

import pytest

from repro.nemesis import FaultAction, FaultPlan, NemesisSpec, run_plan


def _cross_layer_plan() -> FaultPlan:
    return FaultPlan(
        seed=13,
        actions=(
            FaultAction(kind="fsync_fail", at=0.5, param=2.0),
            FaultAction(
                kind="msg_drop", at=1.0, duration=6.0, param=0.35
            ),
            FaultAction(
                kind="msg_delay", at=1.0, duration=8.0, param=0.5
            ),
            FaultAction(kind="kill", target="s1", at=4.0, duration=2.0),
            FaultAction(
                kind="abort", target="g0s0", at=0.0, duration=10.0
            ),
        ),
    )


class TestCrossLayerChaos:
    @pytest.fixture(scope="class")
    def result(self):
        spec = NemesisSpec(backend="procpool").shaped(
            seed=7, cross_shard_fraction=0.5
        )
        return run_plan(spec, _cross_layer_plan())

    def test_survives_with_clean_audit(self, result):
        assert result.violation is None, result.violation
        assert result.certification is not None
        assert result.certification.certified
        assert result.audit_clean
        assert result.clean

    def test_all_three_layers_delivered(self, result):
        families = set(result.coverage.families_covered())
        # Storage layer, transport layer, process layer.
        assert "disk" in families
        assert "kill" in families
        assert "message" in families

    def test_subsystem_faults_also_fired(self, result):
        assert "subsystem" in result.coverage.families_covered()

    def test_same_plan_is_deterministic_on_sqlite(self):
        # The same timeline replays identically on the in-process
        # backend (modulo the physical kill, which procpool alone
        # performs): determinism is a property of the plan, not of
        # the backend.
        spec = NemesisSpec(backend="sqlite").shaped(
            seed=7, cross_shard_fraction=0.5
        )
        one = run_plan(spec, _cross_layer_plan())
        two = run_plan(spec, _cross_layer_plan())
        assert one.clean and two.clean
        assert one.coverage.to_dict() == two.coverage.to_dict()
