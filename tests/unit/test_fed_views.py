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
    @pytest.fixture
    def asked(self, federation, monkeypatch):
        """The set queries the federation puts to its conflict relation."""
        queries = []
        relation = federation.conflicts
        original = relation.conflicting

        def counting(service, candidates):
            queries.append((service, frozenset(candidates)))
            return original(service, candidates)

        monkeypatch.setattr(relation, "conflicting", counting)
        return queries

    def test_unchanged_view_answers_from_the_memo(self, federation, asked):
        deliver(federation, "active")
        assert federation.foreign_blockers("s0", ["a"]) == ["P"]
        assert asked
        del asked[:]
        for _ in range(5):
            assert federation.foreign_blockers("s0", ["a~inv"]) == ["P"]
        assert asked == []

    def test_a_view_change_costs_only_the_entry_it_brought(
        self, federation, asked
    ):
        deliver(federation, "active")
        assert federation.foreign_blockers("s0", ["a"]) == ["P"]
        del asked[:]
        deliver(federation, "active", pid="Q", services=("c",))
        assert federation.foreign_blockers("s0", ["a"]) == ["P"]
        assert asked == [("a", frozenset({"c"}))]
        deliver(federation, "terminated", pid="Q")
        del asked[:]
        assert federation.foreign_blockers("s0", ["a"]) == ["P"]
        assert asked == []

    def test_entry_whose_service_nobody_here_uses_still_blocks(
        self, federation
    ):
        """The view is evidence about the *peer's* footprint: what the
        local processes use has no say in whether it conflicts."""
        federation._explicit.declare("a", "elsewhere")
        deliver(federation, "active", services=("elsewhere",))
        assert federation.foreign_blockers("s0", ["a"]) == ["P"]
        assert federation.foreign_blockers("s0", ["b"]) == []

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

    def test_gate_targets_do_not_depend_on_who_asked_before(
        self, federation
    ):
        """A conflict declared after the first ask reaches the fan-out
        whether or not somebody had asked (and memoised) before it."""
        for name, home in (("a", "s0"), ("b", "s1")):
            federation._shard_use[home].add(name)
        assert federation.gate_targets("s0", "a") == ("s1",)
        federation._explicit.retract("a", "b")
        assert federation.gate_targets("s0", "a") == ()
        federation._explicit.declare("a~inv", "b")
        assert federation.gate_targets("s0", "a") == ("s1",)

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
