"""Eviction of the other two §2.5 data kinds: remote subscribed copies
and cached base data."""

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PequodServer
from repro.apps.twip import TIMELINE_JOIN
from repro.backing import BackingDatabase, WriteAroundDeployment
from repro.client.procs import ProcClusterClient
from repro.distrib import Cluster, ProcCluster


class TestCachedBaseEviction:
    def make(self):
        db = BackingDatabase()
        srv = PequodServer()
        srv.add_join(TIMELINE_JOIN)
        dep = WriteAroundDeployment(srv, db, base_tables={"p", "s"})
        dep.put("s|ann|bob", "1")
        dep.put("p|bob|0100", "cached row")
        dep.scan("t|ann|", "t|ann}")
        return dep, db, srv

    def test_base_ranges_tracked_in_lru(self):
        dep, db, srv = self.make()
        assert dep.resolver.fetches >= 2  # s range + p range

    def test_evicting_base_range_cancels_subscription(self):
        dep, db, srv = self.make()
        while srv.eviction.evict_one():
            pass
        assert dep.resolver.evicted_ranges >= 1
        dep.put("p|bob|0200", "written while evicted")
        assert srv.store.get("p|bob|0200") is None
        assert srv.store.get("p|bob|0100") is None
        dep.scan("t|ann|", "t|ann}")  # the read fetches the range again
        assert srv.store.get("p|bob|0200") == "written while evicted"

    def test_evicted_base_range_reloads_on_demand(self):
        dep, db, srv = self.make()
        while srv.eviction.evict_one():
            pass
        assert srv.store.get("p|bob|0100") is None
        # The next read refetches from the database transparently.
        assert dep.scan("t|ann|", "t|ann}") == [("t|ann|0100|bob", "cached row")]

    def test_db_write_after_eviction_not_misapplied(self):
        dep, db, srv = self.make()
        while srv.eviction.evict_one():
            pass
        dep.put("p|bob|0200", "written while evicted")
        got = dep.scan("t|ann|", "t|ann}")
        assert ("t|ann|0200|bob", "written while evicted") in got

    def test_memory_limit_evicts_base_data(self):
        db = BackingDatabase()
        srv = PequodServer(memory_limit=25_000)
        srv.add_join(TIMELINE_JOIN)
        dep = WriteAroundDeployment(srv, db, base_tables={"p", "s"})
        for u in range(20):
            dep.put(f"s|u{u:02d}|star", "1")
        for t in range(20):
            dep.put(f"p|star|{t:04d}", "content " * 20)
        for u in range(20):
            dep.scan(f"t|u{u:02d}|", f"t|u{u:02d}}}")
        assert srv.memory_bytes() <= 25_000
        # Data is still correct after all that eviction.
        got = dep.scan("t|u00|", "t|u00}")
        assert len(got) == 20


class TestRemoteRangeEviction:
    def make(self):
        cluster = Cluster(2, 2, ("p", "s"), joins=TIMELINE_JOIN)
        cluster.put("s|ann|bob", "1")
        cluster.put("p|bob|0100", "mirrored")
        cluster.scan("ann", "t|ann|", "t|ann}")
        return cluster

    def test_remote_ranges_tracked(self):
        cluster = self.make()
        node = cluster.compute_node_for("ann")
        assert node.resolver.fetches >= 2

    def test_evicting_remote_range_unsubscribes(self):
        cluster = self.make()
        node = cluster.compute_node_for("ann")
        subs_before = cluster.total_subscriptions()
        while node.server.eviction.evict_one():
            pass
        assert node.resolver.evicted_ranges >= 1
        assert cluster.total_subscriptions() < subs_before

    def test_evicted_remote_range_refetches(self):
        cluster = self.make()
        node = cluster.compute_node_for("ann")
        while node.server.eviction.evict_one():
            pass
        assert node.server.store.get("p|bob|0100") is None
        got = cluster.scan("ann", "t|ann|", "t|ann}")
        assert got == [("t|ann|0100|bob", "mirrored")]

    def test_no_updates_delivered_after_unsubscribe(self):
        cluster = self.make()
        node = cluster.compute_node_for("ann")
        while node.server.eviction.evict_one():
            pass
        applied_before = node.updates_applied
        cluster.put("p|bob|0200", "post after eviction")
        cluster.settle()
        assert node.updates_applied == applied_before
        # Correctness recovers on the next read via refetch.
        got = cluster.scan("ann", "t|ann|", "t|ann}")
        assert [v for _, v in got] == ["mirrored", "post after eviction"]


# ======================================================================
# Forgetting a mirror, over all three deployments
# ======================================================================
class _Database:
    """A write-around deployment: the database is every base key's home."""

    def __init__(self):
        self.srv = PequodServer()
        self.srv.add_join(TIMELINE_JOIN)
        self.dep = WriteAroundDeployment(
            self.srv, BackingDatabase(), base_tables={"p", "s"}
        )
        self.put, self.remove = self.dep.put, self.dep.remove

    def timeline(self, user):
        return self.dep.scan(f"t|{user}|", f"t|{user}}}")

    def settle(self):
        pass

    @contextmanager
    def server_of(self, user):
        yield self.srv

    def close(self):
        self.srv.close()


class _SimCluster:
    """Home servers and compute servers on the simulated network."""

    def __init__(self):
        self.cluster = Cluster(2, 2, ("p", "s"), joins=TIMELINE_JOIN)
        self.put, self.remove = self.cluster.put, self.cluster.remove
        self.settle = self.cluster.settle

    def timeline(self, user):
        return self.cluster.scan(user, f"t|{user}|", f"t|{user}}}")

    @contextmanager
    def server_of(self, user):
        yield self.cluster.compute_node_for(user).server

    def close(self):
        pass


class _ProcCluster:
    """Two in-process cluster nodes over TCP, one copy of each slice:
    users before ``m`` live on one node, the rest on the other."""

    def __init__(self):
        self.cluster = ProcCluster(
            2, tables=("p", "s", "t"), splits=("m",), replication=1,
            in_process=True, joins=(TIMELINE_JOIN,),
        ).start()
        self.client = ProcClusterClient.for_cluster(self.cluster)
        self.put, self.remove = self.client.put, self.client.remove
        self.settle = self.client.settle

    def timeline(self, user):
        return self.client.scan(f"t|{user}|", f"t|{user}}}")

    @contextmanager
    def server_of(self, user):
        """The server computing ``user``'s timeline, locked."""
        owner = self.cluster.map.owner_of(f"t|{user}|")
        runtime = self.cluster.nodes[owner].runtime
        with runtime.store_lock:
            yield runtime.server

    def close(self):
        self.client.close()
        self.cluster.stop_all()


DEPLOYMENTS = {"database": _Database, "sim": _SimCluster, "procs": _ProcCluster}


@pytest.fixture(params=sorted(DEPLOYMENTS))
def deployment(request):
    dep = DEPLOYMENTS[request.param]()
    yield dep
    dep.close()


def evict_entry(engine, entry):
    """Evict one LRU entry, whether or not it is the coldest."""
    engine.lru.remove(entry)
    if isinstance(entry.payload, tuple):  # a join status range
        engine.retire_range(*entry.payload)
    else:
        entry.payload.evict(engine)


def evict_mirror(engine, table):
    """Evict the LRU entry of ``table``'s mirrored range, and only it."""
    for entry in engine.lru:
        if getattr(entry.payload, "table", None) == table:
            return evict_entry(engine, entry)
    raise AssertionError(f"no mirrored {table!r} range")


class TestForgettingAMirror:
    """A mirror's REMOVEs retract its rows from the joins built on it;
    forgetting it must also invalidate them, or they stay VALID and
    short for good — the subscription that would refill them is gone."""

    def test_evicted_source_mirror_recomputes_the_timeline(self, deployment):
        deployment.put("s|ann|zed", "1")
        deployment.put("p|zed|0100", "first")
        deployment.settle()
        assert deployment.timeline("ann") == [("t|ann|0100|zed", "first")]
        with deployment.server_of("ann") as server:
            evict_mirror(server.engine, "p")
        deployment.put("p|zed|0200", "second")
        deployment.settle()
        assert deployment.timeline("ann") == [
            ("t|ann|0100|zed", "first"),
            ("t|ann|0200|zed", "second"),
        ]


class TestMirrorFreshnessStream:
    """A seeded stream of subscribes, unsubscribes, posts, unposts,
    evictions and timeline reads: after settling, every read equals the
    model's answer on every deployment, whatever was evicted before."""

    USERS = ("ann", "bob", "zed")  # on both sides of the split at "m"
    OPS = ("read",) * 4 + ("sub",) * 3 + ("post",) * 4 + ("evict",) * 3 + (
        "unsub", "unpost",
    )

    @pytest.mark.parametrize("name", sorted(DEPLOYMENTS))
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_reads_equal_the_model(self, name, seed):
        rng = random.Random(seed)
        dep = DEPLOYMENTS[name]()
        subs, posts = set(), {}
        written = False
        try:
            for step in range(60):
                op = rng.choice(self.OPS)
                user, poster = rng.choice(self.USERS), rng.choice(self.USERS)
                time = f"{rng.randrange(20):04d}"
                if op == "read":
                    if written:
                        dep.settle()
                    written = False
                    want = sorted(
                        (f"t|{user}|{t}|{p}", value)
                        for (p, t), value in posts.items()
                        if (user, p) in subs
                    )
                    assert dep.timeline(user) == want, (seed, step)
                    continue
                if op == "evict":
                    with dep.server_of(user) as server:
                        entries = list(server.engine.lru)
                        if entries:
                            evict_entry(server.engine, rng.choice(entries))
                    continue
                written = True
                if op == "sub":
                    dep.put(f"s|{user}|{poster}", "1")
                    subs.add((user, poster))
                elif op == "unsub":
                    dep.remove(f"s|{user}|{poster}")
                    subs.discard((user, poster))
                elif op == "post":
                    dep.put(f"p|{poster}|{time}", f"v{step}")
                    posts[(poster, time)] = f"v{step}"
                else:
                    dep.remove(f"p|{poster}|{time}")
                    posts.pop((poster, time), None)
        finally:
            dep.close()
