"""Multi-process cluster conformance: the partitioned, replicated
deployment must be observationally identical to one local server.

The reference is ``LocalClient``; each scenario drives the same
workload through both and compares the full backend state (every
table, scanned in key order) — including after a live range
migration and after a ``kill -9`` + failover mid-workload.  The
failover scenarios also pin the replication contract: an acknowledged
base write survives the death of any single node.

Most scenarios run the cluster in-process (same code path as the
subprocess deployment, minus fork overhead); one end-to-end test
spawns real OS processes and kills one with SIGKILL.
"""

import asyncio
import hashlib

import pytest

from repro.apps.twip import TIMELINE_JOIN, format_time
from repro.chaos import kill_node_process
from repro.client import LocalClient
from repro.client.procs import ProcClusterClient
from repro.core.status import RangeState
from repro.distrib.procnode import ClusterNodeRuntime
from repro.distrib.procs import ProcCluster

TABLES = ("p", "s", "t", "vote")
SPLITS = ("f", "m", "s")  # four slices per table
KARMA = "karma|<author> = count vote|<author>|<id>|<voter>"


def cluster(count=2, replication=2, in_process=True, joins=()):
    return ProcCluster(
        count,
        tables=TABLES + ("karma",),
        splits=SPLITS,
        replication=replication,
        in_process=in_process,
        joins=joins,
    )


def state_digest(client) -> str:
    """SHA-256 over every row of every table, in key order.  Computed
    ranges are materialized first so demand-filled backends compare
    equal to eagerly-maintained ones."""
    for user in ("ann", "liz", "mike", "zoe"):
        client.scan_prefix(f"t|{user}|")
        client.scan_prefix(f"karma|{user}")
    state = []
    for table in ("p", "s", "t", "vote", "karma"):
        state.append((table, client.scan_prefix(f"{table}|")))
    return hashlib.sha256(repr(state).encode()).hexdigest()


def twip_workload(client, phase: int) -> None:
    """A deterministic §2-style Twip slice; ``phase`` 0 then 1."""
    users = ("ann", "liz", "mike", "zoe")
    if phase == 0:
        client.add_join(TIMELINE_JOIN)
        client.add_join(KARMA)
        for user in users:
            for poster in users:
                if poster != user:
                    client.put(f"s|{user}|{poster}", "1")
        for i, poster in enumerate(users):
            client.put(f"p|{poster}|{format_time(100 + i)}", f"t{i}")
        for i, voter in enumerate(users):
            client.put(f"vote|ann|{i:04d}|{voter}", "1")
    else:
        client.put(f"p|ann|{format_time(200)}", "second wave")
        client.remove("s|zoe|ann")
        client.put(f"p|mike|{format_time(210)}", "late post")
        client.put("s|ann|ann", "1")  # self-follow edge case
        client.put("vote|mike|0000|ann", "1")
        client.remove("vote|ann|0001|liz")
    client.settle()


@pytest.fixture
def reference():
    ref = LocalClient()
    yield ref
    ref.close()


def test_state_identical_to_local(reference):
    with cluster() as pc:
        client = ProcClusterClient.for_cluster(pc)
        for phase in (0, 1):
            twip_workload(reference, phase)
            twip_workload(client, phase)
        assert state_digest(client) == state_digest(reference)
        client.close()


def test_state_identical_after_live_migration(reference):
    with cluster() as pc:
        client = ProcClusterClient.for_cluster(pc)
        twip_workload(reference, 0)
        twip_workload(client, 0)
        # Move ann's timeline slice and mike's post slice while the
        # cluster is live, then keep writing through the stale client.
        for probe in ("t|ann|", "p|mike|"):
            r = pc.map.range_for(probe)
            target = next(
                n for n in pc.live_names() if n != r.primary
            )
            pc.migrate(r.lo, r.hi, target)
        twip_workload(reference, 1)
        twip_workload(client, 1)
        assert state_digest(client) == state_digest(reference)
        client.close()


def test_migrate_out_leaves_no_detached_range_behind():
    """The old owner drops the migrated slice's computed ranges whole:
    no LRU entry and no installed updater still names one of them, so a
    later eviction cannot clear a slice this node no longer owns."""
    with cluster() as pc:
        client = ProcClusterClient.for_cluster(pc)
        twip_workload(client, 0)
        client.scan_prefix("t|ann|")
        r = pc.map.range_for("t|ann|")
        source = pc.nodes[r.primary].runtime
        engine = source.server.engine
        with source.store_lock:
            assert engine.status["t"].overlapping(r.lo, r.hi)
        pc.migrate(r.lo, r.hi, next(n for n in pc.live_names() if n != r.primary))
        with source.store_lock:
            assert not engine.status["t"].overlapping(r.lo, r.hi)
            for entry in engine.lru:
                if isinstance(entry.payload, tuple):
                    assert entry.payload[1].attached
            held = {
                id(b)
                for stable in engine.status.values()
                for sr in stable.ranges()
                for b in sr.builds
            }
            for table in source.server.store.tables.values():
                for interval in table.updaters.entries():
                    assert all(id(u.build) in held for u in interval.payloads)
        client.close()


def test_state_identical_after_kill_and_failover(reference):
    with cluster(count=3, replication=2) as pc:
        client = ProcClusterClient.for_cluster(pc)
        twip_workload(reference, 0)
        twip_workload(client, 0)
        victim = kill_node_process(pc)
        pc.fail_over(victim)
        twip_workload(reference, 1)
        twip_workload(client, 1)
        assert state_digest(client) == state_digest(reference)
        client.close()


def test_no_acknowledged_write_lost_on_kill():
    with cluster(count=2, replication=2) as pc:
        client = ProcClusterClient.for_cluster(pc)
        acknowledged = {}
        for i in range(120):
            key = f"p|u{i % 8}|{format_time(i)}"
            client.put(key, f"v{i}")  # returns only after every copy
            acknowledged[key] = f"v{i}"
        victim = kill_node_process(pc)
        pc.fail_over(victim)
        for key, value in acknowledged.items():
            assert client.get(key) == value, f"lost acknowledged {key}"
        client.close()


def test_replica_killed_mid_workload_keeps_serving():
    with cluster(count=3, replication=2) as pc:
        client = ProcClusterClient.for_cluster(pc)
        client.add_join(TIMELINE_JOIN)
        client.put("s|ann|bob", "1")
        client.put(f"p|bob|{format_time(100)}", "pre")
        client.settle()
        assert len(client.scan_prefix("t|ann|")) == 1
        # Kill a node that is NOT the primary for ann's data; reads
        # and maintenance continue without a failover step.
        owner = pc.map.owner_of("p|bob|")
        victim = next(n for n in pc.live_names() if n != owner
                      and n != pc.map.owner_of("t|ann|"))
        pc.kill(victim, hard=True)
        pc.fail_over(victim)
        client.put(f"p|bob|{format_time(200)}", "post")
        client.settle()
        assert [v for _, v in client.scan_prefix("t|ann|")] == ["pre", "post"]
        client.close()


def test_failover_invalidates_only_ranges_built_on_the_dead_mirrors():
    """node0 computes ann's and bob's timelines; ann follows liz, whose
    posts node1 leads, and bob follows mike, whose posts node2 leads.
    Killing node1 orphans the liz mirror: ann's timeline is invalidated
    and refetches from the promoted owner, bob's stays VALID."""
    with ProcCluster(
        3, tables=("p", "s", "t"), splits=("f", "m", "s"), replication=2,
        in_process=True, joins=(TIMELINE_JOIN,),
    ) as pc:
        client = ProcClusterClient.for_cluster(pc)
        assert [pc.map.owner_of(k) for k in ("t|ann|", "t|bob|", "p|liz|",
                                             "p|mike|")] == [
            "node0", "node0", "node1", "node2",
        ]
        client.put("s|ann|liz", "1")
        client.put("s|bob|mike", "1")
        client.put(f"p|liz|{format_time(100)}", "from liz")
        client.put(f"p|mike|{format_time(100)}", "from mike")
        client.settle()
        assert len(client.scan_prefix("t|ann|")) == 1
        assert len(client.scan_prefix("t|bob|")) == 1
        pc.kill("node1", hard=True)
        pc.fail_over("node1")
        runtime = pc.nodes["node0"].runtime
        with runtime.store_lock:
            timelines = runtime.server.engine.status["t"]
            assert timelines.find("t|ann|").state is RangeState.INVALID
            assert timelines.find("t|bob|").state is RangeState.VALID
        client.put(f"p|liz|{format_time(200)}", "after failover")
        client.settle()
        assert [v for _, v in client.scan_prefix("t|ann|")] == [
            "from liz", "after failover",
        ]
        assert [v for _, v in client.scan_prefix("t|bob|")] == ["from mike"]
        client.close()


def test_closing_peer_conns_survives_a_connection_opened_meanwhile():
    """Shutdown closes every cached peer connection, including one a
    peer call caches while an earlier connection is closing."""
    runtime = ClusterNodeRuntime("node0")
    closed = []

    async def shutdown():
        late = asyncio.ensure_future(asyncio.Event().wait())  # connecting

        class Conn:
            async def close(self):
                closed.append(self)
                runtime._peer_conns["node2"] = late

        async def connect():
            return Conn()

        first = asyncio.ensure_future(connect())
        await first
        runtime._peer_conns["node1"] = first
        await runtime._close_peer_conns()
        assert runtime._peer_conns == {}
        assert len(closed) == 1
        await asyncio.sleep(0)
        assert late.cancelled()

    asyncio.run(shutdown())
    runtime.server.close()


@pytest.mark.slow
def test_real_processes_end_to_end(reference):
    """Real OS processes, real TCP, real SIGKILL."""
    with cluster(count=2, replication=2, in_process=False) as pc:
        pipes = {name: node.proc.stdout for name, node in pc.nodes.items()}
        client = ProcClusterClient.for_cluster(pc)
        twip_workload(reference, 0)
        twip_workload(client, 0)
        assert state_digest(client) == state_digest(reference)
        victim = kill_node_process(pc)
        assert pipes[victim].closed  # reaped by kill()
        pc.fail_over(victim)
        twip_workload(reference, 1)
        twip_workload(client, 1)
        assert state_digest(client) == state_digest(reference)
        client.close()
    # stop_all() closed every node's stdout pipe, not just the victim's.
    assert all(pipe.closed for pipe in pipes.values())
