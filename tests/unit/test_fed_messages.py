"""Unit tests for inter-shard messaging and fault injection."""

import pytest

from repro.fed.messages import FederationNetwork, MessageFaultPolicy


def make_network(**policy_kwargs):
    return FederationNetwork(MessageFaultPolicy(**policy_kwargs))


class TestFaultPolicy:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            MessageFaultPolicy(drop_rate=1.0)

    def test_partition_auto_heals(self):
        policy = MessageFaultPolicy()
        policy.partition("s0", "s1", until=5.0)
        assert policy.partitioned("s0", "s1", 4.9)
        assert policy.partitioned("s1", "s0", 4.9)  # unordered pair
        assert not policy.partitioned("s0", "s1", 5.0)
        assert policy.injected["partition"] == 1

    def test_explicit_heal(self):
        policy = MessageFaultPolicy()
        policy.partition("s0", "s1")
        assert policy.partitioned("s0", "s1", 100.0)
        policy.heal("s0", "s1")
        assert not policy.partitioned("s0", "s1", 0.0)

    def test_seeded_faults_are_deterministic(self):
        one = MessageFaultPolicy(drop_rate=0.5, seed=42)
        two = MessageFaultPolicy(drop_rate=0.5, seed=42)
        assert [one.drop() for _ in range(32)] == [
            two.drop() for _ in range(32)
        ]


class TestRpc:
    def test_request_reaches_handler(self):
        network = make_network()
        network.bind("s1", rpc=lambda payload: {"echo": payload["x"]})
        response = network.request("s0", "s1", {"x": 7}, now=0.0)
        assert response == {"echo": 7}

    def test_dead_shard_unreachable(self):
        network = make_network()
        network.bind("s1", rpc=lambda payload: {})
        network.mark_down("s1")
        assert network.request("s0", "s1", {}, now=0.0) is None
        network.mark_up("s1")
        assert network.request("s0", "s1", {}, now=10.0) == {}

    def test_partition_blocks_request(self):
        network = make_network()
        network.bind("s1", rpc=lambda payload: {})
        network.policy.partition("s0", "s1", until=5.0)
        assert network.request("s0", "s1", {}, now=1.0) is None
        assert network.request("s0", "s1", {}, now=6.0) == {}

    def test_breaker_fast_fails_after_threshold(self):
        network = make_network()
        network.bind("s1", rpc=lambda payload: {})
        network.mark_down("s1")
        for _ in range(3):
            network.request("s0", "s1", {}, now=0.0)
        network.mark_up("s1")
        # breaker is open: the very next call fast-fails without
        # reaching the (now healthy) peer
        assert network.request("s0", "s1", {}, now=0.1) is None
        # after the reset window a probe succeeds
        assert network.request("s0", "s1", {}, now=3.0) == {}

    def test_duplicate_invokes_handler_twice(self):
        calls = []
        network = make_network(duplicate_rate=0.999, seed=1)
        network.bind("s1", rpc=lambda payload: calls.append(1) or {})
        network.request("s0", "s1", {}, now=0.0)
        assert len(calls) == 2
        assert network.duplicates_delivered == 1


class TestReliableEventualChannel:
    def test_post_delivers_when_due(self):
        network = make_network()
        seen = []
        network.bind("s1", inbox=lambda src, p: seen.append((src, p)))
        network.post("s0", "s1", {"k": 1}, now=0.0)
        assert network.pending_inbound("s1") == 1
        assert network.deliver_due(0.0) == 1
        assert seen == [("s0", {"k": 1})]
        assert network.pending_inbound("s1") == 0

    def test_drop_retransmits_instead_of_losing(self):
        network = make_network(drop_rate=0.6, seed=3)
        seen = []
        network.bind("s1", inbox=lambda src, p: seen.append(p))
        network.post("s0", "s1", {"k": 1}, now=0.0)
        # keep advancing time past retransmissions until delivery
        now = 0.0
        for _ in range(64):
            if seen:
                break
            now += FederationNetwork.RETRANSMIT
            network.deliver_due(now)
        assert seen == [{"k": 1}]

    def test_partition_defers_delivery(self):
        network = make_network()
        seen = []
        network.bind("s1", inbox=lambda src, p: seen.append(p))
        network.policy.partition("s0", "s1", until=2.0)
        network.post("s0", "s1", {"k": 1}, now=0.0)
        assert network.deliver_due(1.0) == 0
        assert network.deliver_due(2.5) == 1
        assert seen == [{"k": 1}]

    def test_pending_inbound_counts_what_is_still_queued(self):
        """Per destination, through drops (kept), partitions (kept) and
        duplicates (delivered once as far as the queue goes)."""
        network = make_network(duplicate_rate=0.999, seed=1)
        for shard in ("s1", "s2"):
            network.bind(shard, inbox=lambda src, p: None)
        network.policy.partition("s0", "s2", until=2.0)
        network.post("s0", "s1", {}, now=0.0)
        network.post("s0", "s1", {}, now=1.0)
        network.post("s0", "s2", {}, now=0.0)
        assert network.deliver_due(0.0) == 1
        assert network.pending_inbound("s1") == 1
        assert network.pending_inbound("s2") == 1
        assert network.deliver_due(2.0) == 2
        assert network.pending_inbound("s1") == 0
        assert network.pending_inbound("s2") == 0

    def test_all_links_up_is_reachability_for_every_pair(self):
        network = make_network()
        assert network.all_links_up(0.0)
        network.mark_down("s1")
        assert not network.all_links_up(0.0)
        network.mark_up("s1")
        network.policy.partition("s0", "s1", until=2.0)
        assert not network.all_links_up(1.9)
        assert network.all_links_up(2.0)  # healed by time alone
        network.policy.partition("s0", "s2")  # until healed by hand
        assert not network.all_links_up(100.0)
        network.policy.heal("s0", "s2")
        assert network.all_links_up(100.0)

    def test_next_due_is_wakeup_hint(self):
        network = make_network()
        assert network.next_due() is None
        network.post("s0", "s1", {}, now=3.0)
        assert network.next_due() == 3.0

    def test_counters_shape(self):
        network = make_network()
        counters = network.counters()
        for key in (
            "requests_sent",
            "requests_failed",
            "posts_delivered",
            "duplicates_delivered",
            "breaker_trips",
            "fault_drop",
            "fault_delay",
            "fault_duplicate",
            "fault_partition",
        ):
            assert key in counters
