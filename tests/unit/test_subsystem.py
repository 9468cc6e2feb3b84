"""Unit tests for transactional subsystems and the registry (§2.3)."""

import pytest

from repro.errors import (
    ServiceNotFoundError,
    SubsystemError,
    TransactionAborted,
)
from repro.subsystems.failures import FailurePlan
from repro.subsystems.resource import WouldBlock
from repro.subsystems.services import (
    Service,
    counter_service,
    noop_service,
    read_service,
    write_service,
)
from repro.subsystems.subsystem import Subsystem, SubsystemRegistry


@pytest.fixture
def subsystem():
    sub = Subsystem("pdm", initial_state={"bom": None, "count": 0})
    sub.register(write_service("write_bom", "bom", value="part-1"))
    sub.register(read_service("read_bom", "bom"))
    sub.register(counter_service("bump", "count"))
    return sub


class TestRegistration:
    def test_duplicate_service_rejected(self, subsystem):
        with pytest.raises(SubsystemError):
            subsystem.register(noop_service("read_bom"))

    def test_service_pair_registers_both(self, subsystem):
        assert subsystem.provides("bump")
        assert subsystem.provides("bump~inv")

    def test_unknown_service(self, subsystem):
        with pytest.raises(ServiceNotFoundError):
            subsystem.invoke("ghost")


class TestInvocation:
    def test_invoke_commits_by_default(self, subsystem):
        invocation = subsystem.invoke("write_bom")
        assert invocation.return_value == "part-1"
        assert subsystem.store.get("bom") == "part-1"
        assert not invocation.is_prepared

    def test_invoke_hold_prepares(self, subsystem):
        invocation = subsystem.invoke("bump", hold=True)
        assert invocation.is_prepared
        assert subsystem.store.get("count") == 0  # deferred
        assert len(subsystem.prepared_transactions()) == 1
        subsystem.commit_prepared(invocation.txn_id)
        assert subsystem.store.get("count") == 1
        assert subsystem.prepared_transactions() == []

    def test_rollback_prepared(self, subsystem):
        invocation = subsystem.invoke("bump", hold=True)
        subsystem.rollback_prepared(invocation.txn_id)
        assert subsystem.store.get("count") == 0

    def test_is_prepared_follows_the_transaction(self, subsystem):
        """Unknown, active, prepared, resolved — only prepared is."""
        seen = []
        subsystem.register(
            Service("probe", lambda ctx: seen.append(subsystem.is_prepared("t1")))
        )
        assert not subsystem.is_prepared("t1")  # unknown
        subsystem.invoke("probe", hold=True, txn_id="t1")
        assert seen == [False]  # open, still running: active
        assert subsystem.is_prepared("t1")
        subsystem.commit_prepared("t1")
        assert not subsystem.is_prepared("t1")  # resolved
        subsystem.invoke("bump", hold=True, txn_id="t2")
        subsystem.rollback_prepared("t2")
        assert not subsystem.is_prepared("t2")

    def test_commit_unknown_txn(self, subsystem):
        with pytest.raises(SubsystemError):
            subsystem.commit_prepared("ghost")

    def test_injected_failure_leaves_no_effect(self, subsystem):
        with pytest.raises(TransactionAborted):
            subsystem.invoke(
                "write_bom", failures=FailurePlan.fail_once(["write_bom"])
            )
        assert subsystem.store.get("bom") is None

    def test_injected_failure_respects_attempt(self, subsystem):
        plan = FailurePlan.fail_once(["write_bom"])
        with pytest.raises(TransactionAborted):
            subsystem.invoke("write_bom", failures=plan, attempt=1)
        invocation = subsystem.invoke("write_bom", failures=plan, attempt=2)
        assert invocation.return_value == "part-1"

    def test_handler_exception_becomes_abort(self, subsystem):
        def broken(context):
            raise ValueError("boom")

        subsystem.register(Service("broken", broken))
        with pytest.raises(TransactionAborted):
            subsystem.invoke("broken")

    def test_lock_conflict_raises_would_block_and_rolls_back(self, subsystem):
        held = subsystem.invoke("bump", hold=True)
        with pytest.raises(WouldBlock) as info:
            subsystem.invoke("bump")
        assert held.txn_id in info.value.holders
        # the blocked attempt left nothing behind
        assert len(subsystem.prepared_transactions()) == 1

    def test_compensation_restores_value(self, subsystem):
        subsystem.invoke("bump")
        assert subsystem.store.get("count") == 1
        subsystem.invoke("bump~inv")
        assert subsystem.store.get("count") == 0


class TestRegistry:
    def test_routing_and_lookup(self, subsystem):
        registry = SubsystemRegistry([subsystem])
        assert registry.get("pdm") is subsystem
        assert "pdm" in registry
        assert registry.find_provider("read_bom") is subsystem

    def test_duplicate_subsystem_rejected(self, subsystem):
        registry = SubsystemRegistry([subsystem])
        with pytest.raises(SubsystemError):
            registry.add(Subsystem("pdm"))

    def test_unknown_subsystem(self):
        with pytest.raises(SubsystemError):
            SubsystemRegistry().get("ghost")

    def test_no_provider(self, subsystem):
        registry = SubsystemRegistry([subsystem])
        with pytest.raises(ServiceNotFoundError):
            registry.find_provider("ghost")

    def test_ambiguous_provider_rejected(self, subsystem):
        other = Subsystem("other")
        other.register(noop_service("read_bom"))
        registry = SubsystemRegistry([subsystem, other])
        with pytest.raises(SubsystemError):
            registry.find_provider("read_bom")

    def test_semantic_conflicts_derived(self, subsystem):
        registry = SubsystemRegistry([subsystem])
        conflicts = registry.semantic_conflicts()
        assert conflicts.conflicts("write_bom", "read_bom")
        assert conflicts.commute("read_bom", "read_bom")
        assert conflicts.conflicts("bump", "bump")

    def test_prepared_transactions_aggregated(self, subsystem):
        other = Subsystem("other", initial_state={"x": 0})
        other.register(counter_service("tick", "x"))
        registry = SubsystemRegistry([subsystem, other])
        subsystem.invoke("bump", hold=True)
        other.invoke("tick", hold=True)
        assert len(registry.prepared_transactions()) == 2

    def test_snapshot(self, subsystem):
        registry = SubsystemRegistry([subsystem])
        subsystem.invoke("write_bom")
        assert registry.snapshot()["pdm"]["bom"] == "part-1"
