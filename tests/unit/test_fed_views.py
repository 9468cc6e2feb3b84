"""Unit tests for the per-shard foreign views and the start-gate memo."""

import pytest

from repro.core.conflict import ExplicitConflicts
from repro.fed.federation import Federation
from repro.fed.router import ShardRouter
from repro.sim.clock import VirtualClock
from repro.sim.federation import FederationSpec, build_federation
from repro.subsystems.services import counter_service
from repro.subsystems.subsystem import Subsystem


@pytest.fixture
def federation():
    """Two shards, one service each; the two services conflict."""
    subsystems = []
    for name in ("a", "b"):
        subsystem = Subsystem(f"sub-{name}")
        subsystem.register(counter_service(name, key=name))
        subsystems.append(subsystem)
    return Federation(
        ShardRouter({"a": "s0", "b": "s1"}),
        subsystems,
        conflicts=ExplicitConflicts([("a", "b")]),
        clock=VirtualClock(),
    )


def deliver(federation, kind, pid="P", services=("b",)):
    """One edge-exchange message from ``s1`` landing in ``s0``'s inbox."""
    payload = {"kind": kind, "process": pid}
    if kind == "active":
        payload["services"] = list(services)
    federation._handle_inbox(federation.shards["s0"], "s1", payload)


class TestViewPruning:
    def test_view_is_empty_after_a_quiescent_run(self):
        federation, runner = build_federation(
            FederationSpec(
                shards=2,
                service_groups=4,
                processes_per_group=3,
                cross_shard_fraction=0.5,
                conflict_rate=0.05,
                delay_rate=0.2,
                duplicate_rate=0.2,
                seed=5,
            )
        )
        runner.run()
        assert federation.quiescent()
        announced = sum(len(t) for t in federation._announced.values())
        assert announced > 0  # the views were in use
        assert federation.views == {"s0": {}, "s1": {}}

    def test_terminated_entry_is_dropped(self, federation):
        deliver(federation, "active")
        assert federation.foreign_blockers("s0", ["a"]) == ["P"]
        deliver(federation, "terminated")
        assert federation.views["s0"] == {}
        assert federation.foreign_blockers("s0", ["a"]) == []

    def test_late_duplicate_active_does_not_resurrect_a_blocker(
        self, federation
    ):
        deliver(federation, "active")
        deliver(federation, "terminated")
        deliver(federation, "active")  # the duplicate, delayed
        assert federation.views["s0"] == {}
        assert federation.foreign_blockers("s0", ["a"]) == []

    def test_active_overtaken_by_its_termination_never_blocks(
        self, federation
    ):
        deliver(federation, "terminated")
        deliver(federation, "active")
        assert federation.views["s0"] == {}
        assert federation.foreign_blockers("s0", ["a"]) == []


class TestStartGateMemo:
    def lookups(self, federation):
        return federation.conflicts.lookups

    def test_unchanged_view_answers_from_the_memo(self, federation):
        deliver(federation, "active")
        assert federation.foreign_blockers("s0", ["a"]) == ["P"]
        asked = self.lookups(federation)
        for _ in range(5):
            assert federation.foreign_blockers("s0", ["a~inv"]) == ["P"]
        assert self.lookups(federation) == asked

    def test_returned_list_is_the_callers_own(self, federation):
        deliver(federation, "active")
        federation.foreign_blockers("s0", ["a"]).append("junk")
        assert federation.foreign_blockers("s0", ["a"]) == ["P"]

    def test_inbox_message_invalidates(self, federation):
        deliver(federation, "active")
        assert federation.foreign_blockers("s0", ["a"]) == ["P"]
        deliver(federation, "active", pid="Q")
        assert federation.foreign_blockers("s0", ["a"]) == ["P", "Q"]

    def test_conflict_mutation_invalidates(self, federation):
        deliver(federation, "active")
        assert federation.foreign_blockers("s0", ["a"]) == ["P"]
        federation._explicit.retract("a", "b")
        assert federation.foreign_blockers("s0", ["a"]) == []

    def test_views_are_per_shard(self, federation):
        deliver(federation, "active")
        assert federation.foreign_blockers("s1", ["a"]) == []


class TestForeignProxyCustody:
    def test_is_prepared_answers_only_for_the_home_prefix(self, federation):
        """``s0``'s proxy for ``sub-b`` vouches for the legs ``s0``
        created there and for nobody else's, though the real subsystem
        holds them all."""
        proxy = federation.shards["s0"].registry.get("sub-b")
        real = federation.shards["s1"].registry.get("sub-b")
        theirs = real.invoke("b", hold=True, txn_id="s9@sub-b/t1").txn_id
        assert real.is_prepared(theirs) and not proxy.is_prepared(theirs)
        real.rollback_prepared(theirs)
        mine = proxy.invoke("b", hold=True).txn_id
        assert mine.startswith("s0@") and real.is_prepared(mine)
        assert proxy.is_prepared(mine)
        assert not proxy.is_prepared("s0@sub-b/t99")  # unknown
        proxy.rollback_prepared(mine)
        assert not proxy.is_prepared(mine)  # resolved
