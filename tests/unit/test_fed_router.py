"""Unit tests for service-footprint shard routing."""

import pytest

from repro.core.flex import build_process, comp, pivot, retr, seq
from repro.fed.router import ShardRouter


@pytest.fixture
def router():
    return ShardRouter(
        {"a": "s0", "b": "s0", "c": "s1", "d": "s1", "e": "s2"}
    )


def proc(pid, *parts):
    return build_process(pid, seq(*parts))


class TestOwnership:
    def test_owner_and_owns(self, router):
        assert router.owner("a") == "s0"
        assert router.owner("c") == "s1"

    def test_compensation_suffix_maps_to_base_owner(self, router):
        assert router.owner("a~inv") == "s0"

    def test_unknown_service_raises(self, router):
        with pytest.raises(KeyError):
            router.owner("nope")

    def test_shard_ids_sorted(self, router):
        assert router.shard_ids == ["s0", "s1", "s2"]

    def test_services_owned_by(self, router):
        assert router.services_owned_by("s0") == {"a", "b"}

    def test_empty_owner_map_rejected(self):
        with pytest.raises(ValueError):
            ShardRouter({})


class TestRouting:
    def test_majority_footprint_wins(self, router):
        process = proc(
            "P1",
            comp("x1", service="a"),
            comp("x2", service="b"),
            pivot("x3", service="c"),
            retr("x4", service="a"),
        )
        assert router.route(process) == "s0"

    def test_tie_prefers_pivot_owner(self, router):
        process = proc(
            "P2",
            comp("x1", service="a"),
            pivot("x2", service="c"),
            retr("x3", service="d"),
            retr("x4", service="b"),
        )
        # 2 services on s0, 2 on s1 — the pivot's owner (s1) wins
        assert router.route(process) == "s1"

    def test_footprint_and_cross_shard(self, router):
        local = proc(
            "P3", comp("x1", service="a"), pivot("x2", service="b")
        )
        cross = proc(
            "P4", comp("x1", service="a"), pivot("x2", service="c")
        )
        assert router.footprint(local) == {"s0"}
        assert not router.is_cross_shard(local)
        assert router.footprint(cross) == {"s0", "s1"}
        assert router.is_cross_shard(cross)

    def test_partition_covers_every_shard(self, router):
        processes = [
            proc("P5", pivot("x1", service="a")),
            proc("P6", pivot("x1", service="c")),
        ]
        groups = router.partition(processes)
        assert set(groups) == {"s0", "s1", "s2"}
        assert [p.process_id for p in groups["s0"]] == ["P5"]
        assert groups["s2"] == []
