"""Tests for distributed Pequod (paper §2.4, §5.5)."""

import pytest

from repro.distrib import Cluster, Partitioner
from repro.distrib.node import MSG_UPDATE_BATCH

TIMELINE = (
    "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"
)
BASE_TABLES = ("p", "s")


def make_cluster(bases=2, computes=2):
    return Cluster(bases, computes, BASE_TABLES, joins=TIMELINE)


class TestPartitioner:
    def test_home_is_stable(self):
        part = Partitioner(["p", "s"], ["b0", "b1", "b2"])
        assert part.home_of("p|bob|0100") == part.home_of("p|bob|0200")

    def test_non_base_tables_have_no_home(self):
        part = Partitioner(["p"], ["b0"])
        assert part.home_of("t|ann|1|bob") is None

    def test_partitions_spread(self):
        part = Partitioner(["p"], ["b0", "b1", "b2", "b3"])
        homes = {part.home_of(f"p|user{i}|x") for i in range(200)}
        assert len(homes) == 4

    def test_single_segment_range_maps_to_one_home(self):
        part = Partitioner(["p"], ["b0", "b1", "b2"])
        homes = part.homes_for_range("p", "p|bob|0100", "p|bob}")
        assert homes == [part.home_of("p|bob|x")]

    def test_cross_partition_range_maps_to_all(self):
        part = Partitioner(["p"], ["b0", "b1"])
        assert set(part.homes_for_range("p", "p|", "p}")) == {"b0", "b1"}

    def test_no_nodes_rejected(self):
        with pytest.raises(ValueError):
            Partitioner(["p"], [])


class TestClusterBasics:
    def test_write_goes_to_home(self):
        cluster = make_cluster()
        cluster.put("p|bob|0100", "hi")
        home = cluster.home_node("p|bob|0100")
        assert home.server.store.get("p|bob|0100") == "hi"
        others = [n for n in cluster.base_nodes if n is not home]
        for other in others:
            assert other.server.store.get("p|bob|0100") is None

    def test_compute_affinity_stable(self):
        cluster = make_cluster()
        assert cluster.compute_node_for("ann") is cluster.compute_node_for("ann")

    def test_timeline_computed_on_compute_node(self):
        cluster = make_cluster()
        cluster.put("s|ann|bob", "1")
        cluster.put("p|bob|0100", "hello")
        got = cluster.scan("ann", "t|ann|", "t|ann}")
        assert got == [("t|ann|0100|bob", "hello")]

    def test_remote_fetch_installs_subscription(self):
        cluster = make_cluster()
        cluster.put("s|ann|bob", "1")
        cluster.scan("ann", "t|ann|", "t|ann}")
        assert cluster.total_subscriptions() >= 1

    def test_remove_routed_to_home(self):
        cluster = make_cluster()
        cluster.put("p|bob|0100", "x")
        assert cluster.remove("p|bob|0100")
        assert not cluster.remove("p|bob|0100")


class TestAsyncPropagation:
    def test_update_propagates_after_settle(self):
        """§2.4: eventual consistency — updates are asynchronous."""
        cluster = make_cluster()
        cluster.put("s|ann|bob", "1")
        assert cluster.scan("ann", "t|ann|", "t|ann}") == []
        cluster.put("p|bob|0100", "async tweet")
        # The home has it; the compute node may not have heard yet.
        cluster.settle()
        got = cluster.scan("ann", "t|ann|", "t|ann}")
        assert got == [("t|ann|0100|bob", "async tweet")]

    def test_staleness_window_observable(self):
        cluster = make_cluster()
        cluster.put("s|ann|bob", "1")
        cluster.scan("ann", "t|ann|", "t|ann}")  # warm: subscribed to p|bob
        cluster.put("p|bob|0100", "in flight")
        # Without settle() the compute node is allowed to be stale.
        compute = cluster.compute_node_for("ann")
        stale = compute.server.store.get("p|bob|0100")
        cluster.settle()
        fresh = cluster.scan("ann", "t|ann|", "t|ann}")
        assert stale is None
        assert ("t|ann|0100|bob", "in flight") in fresh

    def test_update_counts(self):
        cluster = make_cluster()
        cluster.put("s|ann|bob", "1")
        cluster.scan("ann", "t|ann|", "t|ann}")
        cluster.put("p|bob|0100", "x")
        cluster.settle()
        total_sent = sum(n.updates_sent for n in cluster.base_nodes)
        total_applied = sum(n.updates_applied for n in cluster.compute_nodes)
        assert total_sent >= 1
        assert total_applied >= 1

    def test_removal_propagates(self):
        cluster = make_cluster()
        cluster.put("s|ann|bob", "1")
        cluster.put("p|bob|0100", "x")
        cluster.scan("ann", "t|ann|", "t|ann}")
        cluster.remove("p|bob|0100")
        cluster.settle()
        assert cluster.scan("ann", "t|ann|", "t|ann}") == []


class TestReplication:
    def test_popular_data_replicated_to_readers(self):
        """§2.4: popular ranges replicate to the servers that read them."""
        cluster = Cluster(1, 4, BASE_TABLES, joins=TIMELINE)
        fans = [f"fan{i:02d}" for i in range(8)]
        for fan in fans:
            cluster.put(f"s|{fan}|star", "1")
        cluster.put("p|star|0001", "popular")
        for fan in fans:
            cluster.scan(fan, f"t|{fan}|", f"t|{fan}}}")
        # Every compute server that served a fan mirrors star's posts.
        mirrors = sum(
            1
            for n in cluster.compute_nodes
            if n.server.store.get("p|star|0001") is not None
        )
        assert mirrors == len(
            {cluster.compute_node_for(f).name for f in fans}
        )

    def test_duplication_costs_memory(self):
        """§2.4: storage capacity does not rise linearly with servers."""
        small = Cluster(1, 1, BASE_TABLES, joins=TIMELINE)
        large = Cluster(1, 4, BASE_TABLES, joins=TIMELINE)
        fans = [f"fan{i:02d}" for i in range(12)]
        for cluster in (small, large):
            for fan in fans:
                cluster.put(f"s|{fan}|star", "1")
            cluster.put("p|star|0001", "popular tweet " * 4)
            for fan in fans:
                cluster.scan(fan, f"t|{fan}|", f"t|{fan}}}")
            cluster.settle()
        assert large.compute_memory_bytes() > small.compute_memory_bytes()


class TestSession:
    def test_read_your_own_writes(self):
        """§2.4: single-server sessions see their own writes."""
        cluster = make_cluster()
        session = cluster.session("ann")
        session.put("s|ann|bob", "1")
        session.put("p|bob|0100", "my own post")
        got = session.scan("t|ann|", "t|ann}")
        assert got == [("t|ann|0100|bob", "my own post")]

    def test_forwarded_writes_reach_home(self):
        cluster = make_cluster()
        session = cluster.session("ann")
        session.put("p|bob|0100", "forwarded")
        cluster.settle()
        home = cluster.home_node("p|bob|0100")
        assert home.server.store.get("p|bob|0100") == "forwarded"


class TestTrafficAccounting:
    def test_subscription_traffic_measured(self):
        cluster = make_cluster()
        cluster.put("s|ann|bob", "1")
        cluster.scan("ann", "t|ann|", "t|ann}")
        cluster.put("p|bob|0100", "x")
        cluster.settle()
        frac = cluster.subscription_traffic_fraction()
        assert 0.0 < frac < 1.0
        assert MSG_UPDATE_BATCH in cluster.net.kind_bytes
