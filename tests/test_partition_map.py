"""PartitionMap edge cases + map-version fencing semantics.

The map is the cluster's routing truth: these tests pin the awkward
shapes (one node owning everything, ranges straddling table prefixes)
and the reconfiguration contract — a stale writer gets
``WrongOwnerError`` carrying the new version, refreshes, and retries;
a watch spanning a live migration sees every event exactly once.
"""

import pytest

from repro.client.procs import ProcClusterClient
from repro.net import protocol
from repro.net.rpc_client import RpcError
from repro.distrib.partition_map import (
    KEYSPACE_END,
    HashPartitionMap,
    PartitionMap,
)
from repro.distrib.partition import Partitioner
from repro.distrib.procs import ProcCluster

NODES3 = {
    "a": ("127.0.0.1", 1, 2),
    "b": ("127.0.0.1", 3, 4),
    "c": ("127.0.0.1", 5, 6),
}


def test_single_node_ring_owns_everything():
    pmap = PartitionMap.for_tables(
        ["solo"], {"solo": ("127.0.0.1", 1, 2)}, tables=("p", "t"),
        splits=("m",),
    )
    for key in ("", "a", "p|alice", "p|zz", "t|mike|0100", "~~~"):
        assert pmap.owner_of(key) == "solo"
        assert pmap.replicas_of(key) == ()
    assert pmap.owns_range("solo", "", KEYSPACE_END)
    # The whole ring is still cut at the table/split boundaries, but
    # every slice resolves to the one node.
    slices = pmap.slices("", KEYSPACE_END)
    assert slices[0][0] == "" and slices[-1][1] == KEYSPACE_END
    for lo, hi, r in slices:
        assert r.primary == "solo"


def test_single_node_promote_refuses_last_replica():
    pmap = PartitionMap.for_tables(
        ["solo"], {"solo": ("127.0.0.1", 1, 2)}, tables=("p",)
    )
    with pytest.raises(Exception):
        pmap.promote("solo")


def test_ranges_straddle_table_prefixes():
    pmap = PartitionMap.for_tables(
        ["a", "b", "c"], NODES3, tables=("p", "t"), splits=("m",),
        replication=2,
    )
    # Contiguous cover of the whole key space, no gaps, no overlaps.
    assert pmap.ranges[0].lo == ""
    assert pmap.ranges[-1].hi == KEYSPACE_END
    for prev, cur in zip(pmap.ranges, pmap.ranges[1:]):
        assert prev.hi == cur.lo
    # Aligned co-location: the i-th slice of p and of t share a home.
    assert pmap.owner_of("p|alice") == pmap.owner_of("t|alice")
    assert pmap.owner_of("p|zed") == pmap.owner_of("t|zed")
    # Keys between the named tables (the straddling tile: "p}" < key
    # < "t|") still have exactly one owner.
    for key in ("q|anything", "s|ann|bob", "pz", "t}trailer"):
        owner = pmap.owner_of(key)
        assert owner in NODES3
        assert pmap.replicas_of(key) and owner not in pmap.replicas_of(key)
    # A scan range straddling the p/t boundary splits per owner but
    # covers every byte exactly once.
    slices = pmap.slices("p|x", "t|b")
    assert slices[0][0] == "p|x" and slices[-1][1] == "t|b"
    for prev, cur in zip(slices, slices[1:]):
        assert prev[1] == cur[0]


def test_reassign_bumps_version_and_keeps_old_primary_as_replica():
    pmap = PartitionMap.for_tables(
        ["a", "b", "c"], NODES3, tables=("p",), splits=("m",),
        replication=2,
    )
    r = pmap.range_for("p|alice")
    target = next(n for n in NODES3 if n != r.primary)
    newer = pmap.reassign(r.lo, r.hi, target)
    assert newer.version == pmap.version + 1
    assert newer.owner_of("p|alice") == target
    assert r.primary in newer.replicas_of("p|alice")
    changed = list(pmap.changed_ranges(newer))
    assert changed == [(r.lo, r.hi, r.primary, target)]


def test_wire_roundtrip():
    pmap = PartitionMap.for_tables(
        ["a", "b", "c"], NODES3, tables=("p", "s", "t"), splits=("h", "r"),
        replication=3,
    )
    back = PartitionMap.from_wire(pmap.to_wire())
    assert back.version == pmap.version
    assert back.nodes == pmap.nodes
    assert [(r.lo, r.hi, r.primary, r.replicas) for r in back.ranges] == [
        (r.lo, r.hi, r.primary, r.replicas) for r in pmap.ranges
    ]


def test_hash_partition_map_matches_partitioner():
    part = Partitioner(("p", "s"), ["base00", "base01"])
    hmap = HashPartitionMap(part)
    for key in ("p|u1|0001", "s|u2|u3", "t|u1|0009|u2", "x|misc"):
        home = part.home_of(key)
        if home is not None:
            assert hmap.owner_of(key) == home
            assert hmap.home_of(key) == home
        else:
            assert hmap.home_of(key) is None
            assert hmap.owner_of(key) in ("base00", "base01")


# ----------------------------------------------------------------------
# Fencing + watch across a live migration (in-process cluster: same
# code path as the subprocess deployment, minus fork overhead).
# ----------------------------------------------------------------------
TIMELINE = (
    "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"
)


def test_stale_write_fenced_then_retried():
    with ProcCluster(
        2, tables=("p",), splits=("m",), replication=1, in_process=True
    ) as cluster:
        stale = cluster.map
        r = stale.range_for("p|alice")
        target = "node1" if r.primary == "node0" else "node0"
        cluster.migrate(r.lo, r.hi, target)
        # A writer still routing on the old map gets the typed fence,
        # and the fencing node has already adopted the newer map.
        with pytest.raises(RpcError) as info:
            cluster._call(r.primary, "put", "p|alice", "stale write")
        assert info.value.code == protocol.ERR_CODE_WRONG_OWNER
        fenced_map = PartitionMap.from_wire(
            cluster._call(r.primary, "partition_map")
        )
        assert fenced_map.version > stale.version
        # ...and the unified client turns that into refresh + retry.
        client = ProcClusterClient.for_cluster(cluster)
        client._async.map = stale  # force the stale view
        client.put("p|alice", "retried")
        assert client.map.version == cluster.map.version
        assert client.get("p|alice") == "retried"
        client.close()


def test_watch_across_migration_no_dup_no_drop():
    with ProcCluster(
        2, tables=("p", "s", "t"), splits=("m",), replication=1,
        in_process=True,
    ) as cluster:
        client = ProcClusterClient.for_cluster(cluster)
        client.add_join(TIMELINE)
        client.put("s|ann|bob", "1")
        client.put("p|bob|0100", "warm")
        client.settle()
        assert client.scan_prefix("t|ann|") == [("t|ann|0100|bob", "warm")]

        watch = client.iter_watch("t|ann|", "t|ann}")
        client.put("p|bob|0200", "before move")
        client.settle()

        r = cluster.map.range_for("t|ann|")
        target = "node1" if r.primary == "node0" else "node0"
        cluster.migrate(r.lo, r.hi, target)

        client.put("p|bob|0300", "after move")
        client.settle()
        events = [(e.key, e.new) for e in watch.drain()]
        # Exactly one event per maintained timeline insert: nothing
        # doubled by the handed-off subscription, nothing dropped in
        # the snapshot/tail window.
        assert events == [
            ("t|ann|0200|bob", "before move"),
            ("t|ann|0300|bob", "after move"),
        ]
        watch.close()
        client.close()


def test_mute_window_hides_no_owned_base_change():
    """A gained computed range rebuilds with the hub muted, and mirror
    subscriptions are watches on that hub.  The window must therefore
    publish no base-key change this node is primary for — otherwise a
    mirror would miss it.  It publishes only the computed rows it
    tears down and recomputes; the fetches it makes install without
    publishing."""
    with ProcCluster(
        3, tables=("p", "s", "t"), splits=("q", "u"), replication=1,
        in_process=True,
    ) as cluster:
        muted = []
        for node in cluster.nodes.values():
            rt = node.runtime
            rt.server.add_listener(
                lambda key, old, new, kind, rt=rt: rt._mute_events
                and muted.append(key)
            )
        client = ProcClusterClient.for_cluster(cluster)
        client.add_join(TIMELINE)
        client.put("s|ann|bob", "1")
        client.put("p|bob|0100", "warm")
        client.settle()
        assert client.scan_prefix("t|ann|") == [("t|ann|0100|bob", "warm")]
        watch = client.iter_watch("t|ann|", "t|ann}")

        r = cluster.map.range_for("t|ann|")
        target = next(n for n in cluster.live_names() if n != r.primary)
        cluster.migrate(r.lo, r.hi, target)
        client.put("p|bob|0300", "after move")
        client.settle()

        assert [(e.key, e.new) for e in watch.drain()] == [
            ("t|ann|0300|bob", "after move"),
        ]
        assert muted  # the rebuild ran under the mute
        # Computed rows only: no base key, owned here or not.
        assert all(key.startswith("t|") for key in muted)
        watch.close()
        client.close()
