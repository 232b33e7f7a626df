"""Tests for the batched write-propagation subsystem.

Covers the WriteBatch buffer's coalescing semantics, raw store batch
application, the engine's grouped maintenance pass (the property:
batched application is indistinguishable from per-key application,
across eager, lazy, echeck, and aggregate maintenance), the pending
log's one entry per source key, the batch RPC round-trip over TCP,
and coalesced subscription propagation through the simulated network.
"""

import asyncio

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PequodServer
from repro.core.status import PendingEntry, StatusRange
from repro.core.operators import ChangeKind
from repro.distrib import Cluster
from repro.distrib.node import MSG_UPDATE_BATCH
from repro.distrib.subscription import UpdateBuffer
from repro.net import protocol
from repro.net.codec import KeyList, decode, encode
from repro.net.rpc_client import RpcClient
from repro.net.rpc_server import RpcServer
from repro.store import OrderedStore, WriteBatch, as_ops
from repro.store.batch import PUT, REMOVE
from repro.store.keys import prefix_upper_bound
from repro.store.values import materialize

TIMELINE = (
    "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"
)
ECHECK_TIMELINE = (
    "t|<user>|<time>|<poster> = echeck s|<user>|<poster> copy p|<poster>|<time>"
)
COUNT_JOIN = "n|<poster> = count p|<poster>|<time>"


def snapshot(server: PequodServer) -> dict:
    """Every stored key/value pair, materialized."""
    out = {}
    for name in sorted(server.store.tables):
        for key, value in server.store.scan_nodes(name, prefix_upper_bound(name)):
            out[key] = materialize(value)
    return out


def read_everything(server: PequodServer) -> list:
    rows = []
    for name in sorted(server.store.tables):
        rows.extend(server.scan(name, prefix_upper_bound(name)))
    return rows


def from_scratch(server: PequodServer, join: str, out: str) -> list:
    """Table ``out`` as a fresh server computes it: ``join`` over a copy
    of ``server``'s base tables, every range computed on first read."""
    fresh = PequodServer()
    fresh.add_join(join)
    for name in ("p", "s"):
        for key, value in server.scan(name, prefix_upper_bound(name)):
            fresh.put(key, value)
    return fresh.scan(out, prefix_upper_bound(out))


# ======================================================================
# The buffer
# ======================================================================
class TestWriteBatchBuffer:
    def test_last_write_wins(self):
        batch = WriteBatch()
        batch.put("p|a|1", "x").put("p|a|1", "y")
        assert len(batch) == 1
        assert batch.coalesced_ops == 1
        (op,) = batch.ops()
        assert (op.kind, op.key, op.value) == (PUT, "p|a|1", "y")

    def test_put_then_remove_nets_to_remove(self):
        batch = WriteBatch().put("p|a|1", "x").remove("p|a|1")
        (op,) = batch.ops()
        assert op.kind == REMOVE
        assert batch.coalesced_ops == 1

    def test_remove_then_put_nets_to_put(self):
        batch = WriteBatch().remove("p|a|1").put("p|a|1", "x")
        (op,) = batch.ops()
        assert (op.kind, op.value) == (PUT, "x")

    def test_ops_sorted_by_key(self):
        batch = WriteBatch().put("p|c|1", "3").put("p|a|1", "1").put("p|b|1", "2")
        assert [op.key for op in batch.ops()] == ["p|a|1", "p|b|1", "p|c|1"]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            WriteBatch().put("", "x")
        with pytest.raises(TypeError):
            WriteBatch().put("p|a|1", 7)

    def test_clear(self):
        batch = WriteBatch().put("p|a|1", "x").put("p|a|1", "y")
        batch.clear()
        assert not batch and batch.coalesced_ops == 0

    def test_apply_without_sink_raises(self):
        with pytest.raises(RuntimeError):
            WriteBatch().put("p|a|1", "x").apply()

    def test_as_ops_accepts_pairs(self):
        ops = as_ops([("p|a|1", "x"), ("p|b|1", None), ("p|a|1", "y")])
        assert [(op.kind, op.key) for op in ops] == [
            (PUT, "p|a|1"),
            (REMOVE, "p|b|1"),
        ]
        assert ops[0].value == "y"

    def test_context_manager_applies_on_exit(self):
        srv = PequodServer()
        with srv.write_batch() as batch:
            batch.put("p|a|1", "x")
        assert srv.get("p|a|1") == "x"


# ======================================================================
# Raw store application
# ======================================================================
class TestStoreApplyBatch:
    def test_matches_per_key_application(self):
        ops = [
            ("p|a|1", "x"), ("p|b|1", "y"), ("p|a|2", "z"),
            ("p|a|1", "x2"), ("s|u|a", "1"),
        ]
        seq = OrderedStore()
        for key, value in ops:
            seq.put(key, value)
        batched = OrderedStore()
        batched.apply_batch(ops)
        assert {
            key: materialize(value) for key, value in seq.scan_nodes("p", "z")
        } == {
            key: materialize(value) for key, value in batched.scan_nodes("p", "z")
        }

    def test_changes_carry_net_transitions(self):
        store = OrderedStore()
        store.put("p|a|1", "old")
        store.put("p|b|1", "doomed")
        changes = store.apply_batch(
            [("p|a|1", "new"), ("p|b|1", None), ("p|c|1", "fresh"),
             ("p|zz|9", None)]
        )
        assert changes == [
            ("p|a|1", "old", "new"),
            ("p|b|1", "doomed", None),
            ("p|c|1", None, "fresh"),
            # remove of an absent key produces no change
        ]

    def test_empty_batch_is_noop(self):
        store = OrderedStore()
        assert store.apply_batch(WriteBatch()) == []
        assert store.stats.get("batch_applies") == 0


# ======================================================================
# Engine semantics: batched == per-key
# ======================================================================
def apply_per_key(server: PequodServer, ops) -> None:
    for key, value in ops:
        if value is None:
            server.remove(key)
        else:
            server.put(key, value)


class TestEngineBatchSemantics:
    def make_pair(self, join):
        a, b = PequodServer(), PequodServer()
        for srv in (a, b):
            srv.add_join(join)
        return a, b

    def warm(self, *servers):
        for srv in servers:
            for user in ("ann", "liz"):
                srv.scan(f"t|{user}|", prefix_upper_bound(f"t|{user}|"))
            srv.scan("n|", "n}")

    @pytest.mark.parametrize("join", [TIMELINE, ECHECK_TIMELINE, COUNT_JOIN])
    def test_mixed_batch_matches_sequential(self, join):
        a, b = self.make_pair(join)
        for srv in (a, b):
            srv.put("s|ann|bob", "1")
            srv.put("s|liz|bob", "1")
            srv.put("p|bob|0001", "seed")
        self.warm(a, b)
        ops = [
            ("p|bob|0002", "x"), ("p|bob|0003", "y"), ("p|bob|0002", "x2"),
            ("s|ann|cat", "1"), ("p|cat|0004", "meow"),
            ("p|bob|0001", None), ("s|liz|bob", None),
        ]
        apply_per_key(a, ops)
        # 7 ops, one superseded within the batch -> 6 net changes.
        assert b.apply_batch(ops) == 6
        assert read_everything(a) == read_everything(b)
        assert snapshot(a) == snapshot(b)

    def test_batch_maintains_warm_timeline_eagerly(self):
        srv = PequodServer()
        srv.add_join(TIMELINE)
        srv.put("s|ann|bob", "1")
        srv.scan("t|ann|", "t|ann}")
        srv.apply_batch([("p|bob|0001", "t1"), ("p|bob|0002", "t2")])
        # No read in between: outputs must already be materialized.
        assert snapshot(srv)["t|ann|0001|bob"] == "t1"
        assert snapshot(srv)["t|ann|0002|bob"] == "t2"

    def test_intra_batch_coalescing_skips_superseded_fanout(self):
        srv = PequodServer()
        srv.add_join(TIMELINE)
        srv.put("s|ann|bob", "1")
        srv.scan("t|ann|", "t|ann}")
        srv.stats.reset()
        srv.apply_batch(
            [("p|bob|0001", f"rev {i}") for i in range(10)]
        )
        # One net change: a single updater firing, not ten.
        assert srv.stats.get("updaters_fired") == 1
        assert srv.scan("t|ann|", "t|ann}") == [("t|ann|0001|bob", "rev 9")]

    def test_aggregate_batch_counts_once_per_key(self):
        srv = PequodServer()
        srv.add_join(COUNT_JOIN)
        srv.scan("n|", "n}")
        srv.apply_batch(
            [("p|x|1", "a"), ("p|x|1", "a2"), ("p|x|2", "b"), ("p|y|1", "c")]
        )
        assert srv.get("n|x") == "2"
        assert srv.get("n|y") == "1"

    def test_remove_in_batch_invalidates_check_ranges(self):
        a, b = self.make_pair(TIMELINE)
        for srv in (a, b):
            srv.put("s|ann|bob", "1")
            srv.put("p|bob|0001", "t1")
            srv.scan("t|ann|", "t|ann}")
        ops = [("p|bob|0002", "t2"), ("s|ann|bob", None)]
        apply_per_key(a, ops)
        b.apply_batch(ops)
        assert a.scan("t|ann|", "t|ann}") == b.scan("t|ann|", "t|ann}") == []
        assert snapshot(a) == snapshot(b)


# ======================================================================
# The pending log is a set
# ======================================================================
class TestPendingCompaction:
    def test_one_entry_per_join_source_and_key(self):
        sr = StatusRange("t|a", "t|b")
        join, other_join = object(), object()
        entry = PendingEntry(join, 0, "s|a|b")
        distinct = [
            PendingEntry(join, 0, "s|a|c"),
            PendingEntry(join, 1, "s|a|b"),
            PendingEntry(other_join, 0, "s|a|b"),
        ]
        assert sr.log_pending(entry) is True
        for e in distinct:
            assert sr.log_pending(e) is True
        assert sr.log_pending(PendingEntry(join, 0, "s|a|b")) is False
        assert list(sr.pending) == [entry] + distinct

    def test_a_repeated_entry_keeps_its_first_position(self):
        sr = StatusRange("t|a", "t|b")
        join = object()
        first = PendingEntry(join, 0, "s|a|b")
        second = PendingEntry(join, 0, "s|a|c")
        for e in (first, second, first):
            sr.log_pending(e)
        assert list(sr.pending) == [first, second]

    def test_stale_and_fresh_updaters_log_one_entry(self):
        """After a split + recompute, the stale full-range lazy updater
        is gone — each piece's rebuild released its share of it — and
        each piece's fresh updater logs one pending entry on its own
        piece (one re-execution on the next read)."""
        srv = PequodServer()
        srv.add_join(TIMELINE)
        srv.put("s|ann|bob", "1")
        srv.put("p|bob|0001", "t1")
        srv.put("p|bob|0003", "t3")
        srv.scan("t|ann|", "t|ann}")  # full-range lazy updater
        srv.put("s|ann|cat", "1")  # pending via the full-range updater
        srv.scan("t|ann|0002", "t|ann|0004")  # isolates: cover splits
        srv.remove("s|ann|cat")  # complete invalidation everywhere
        srv.scan("t|ann|", "t|ann}")  # recompute installs fresh updaters
        srv.stats.reset()
        stable = srv.engine.status["t"]
        pieces = [(sr.lo, sr.hi) for sr in stable.ranges()]
        s_updaters = [
            (u.output_lo, u.output_hi)
            for entry in srv.store.tables["s"].updaters.entries()
            for u in entry.payloads
        ]
        assert len(pieces) == 3 and s_updaters == pieces
        srv.put("s|ann|dan", "1")  # fires the fresh lazy updaters only
        assert srv.stats.get("pending_compacted") == 0
        assert [len(sr.pending) for sr in stable.ranges()] == [1, 1, 1]
        assert srv.scan("t|ann|", "t|ann}") == [
            ("t|ann|0001|bob", "t1"),
            ("t|ann|0003|bob", "t3"),
        ]

    def test_batched_duplicate_writes_compact_too(self):
        srv = PequodServer()
        srv.add_join(TIMELINE)
        srv.put("p|bob|0001", "t1")
        srv.put("p|cat|0002", "t2")
        srv.scan("t|ann|", "t|ann}")
        srv.apply_batch(
            [("s|ann|bob", "1"), ("s|ann|cat", "1"), ("s|ann|bob", "2")]
        )
        stable = srv.engine.status["t"]
        pending_lengths = [len(sr.pending) for sr in stable.ranges() if sr.pending]
        assert pending_lengths == [2]  # one per distinct source key
        assert srv.scan("t|ann|", "t|ann}") == [
            ("t|ann|0001|bob", "t1"),
            ("t|ann|0002|cat", "t2"),
        ]


# ======================================================================
# Batch RPC round-trip
# ======================================================================
def run(coro):
    return asyncio.new_event_loop().run_until_complete(coro)


async def with_server(fn):
    server = RpcServer(PequodServer())
    await server.start()
    client = RpcClient("127.0.0.1", server.port)
    await client.connect()
    try:
        return await fn(server, client)
    finally:
        await client.close()
        await server.stop()


class TestBatchRpc:
    def test_batch_round_trip(self):
        async def body(server, client):
            await client.add_join(TIMELINE)
            applied = await client.apply_batch(
                [
                    ("s|ann|bob", "1"),
                    ("p|bob|0100", "hi"),
                    ("p|bob|0101", "again"),
                    ("p|bob|0101", "again2"),
                ]
            )
            assert applied == 3  # duplicate key coalesced client-side
            rows = await client.scan("t|ann|", "t|ann}")
            assert rows == [
                ("t|ann|0100|bob", "hi"),
                ("t|ann|0101|bob", "again2"),
            ]
            # One request on the wire, not four.
            assert client.requests_sent == 3  # add_join, batch, scan

        run(with_server(body))

    def test_batch_with_removes(self):
        async def body(server, client):
            await client.apply_batch([("p|a|1", "x"), ("p|a|2", "y")])
            applied = await client.apply_batch(
                [("p|a|1", None), ("p|a|3", "z")]
            )
            assert applied == 2
            assert await client.scan("p|", "p}") == [
                ("p|a|2", "y"),
                ("p|a|3", "z"),
            ]

        run(with_server(body))

    def test_empty_batch_sends_nothing(self):
        async def body(server, client):
            assert await client.apply_batch([]) == 0
            assert client.requests_sent == 0

        run(with_server(body))

    def test_malformed_batch_is_an_rpc_error(self):
        from repro.net.rpc_client import RpcError

        async def body(server, client):
            with pytest.raises(RpcError):
                await client.call("batch", ["p|a|1"], ["x", "extra"])
            assert await client.ping() == "pong"

        run(with_server(body))

    def test_method_registered(self):
        assert "batch" in protocol.METHODS


class TestBatchWire:
    def test_keylist_roundtrip_and_compression(self):
        keys = [f"p|bob|{i:010d}" for i in range(200)]
        packed = encode(KeyList(keys))
        assert decode(packed) == keys
        assert len(packed) < len(encode(list(keys))) / 3

    def test_keylist_rejects_non_strings(self):
        from repro.net.codec import CodecError

        with pytest.raises(CodecError):
            encode(KeyList(["ok", 7]))

    def test_bad_shared_prefix_rejected(self):
        from repro.net.codec import CodecError

        # P, count=1, shared=5 with no previous string
        bad = bytes([ord("P"), 1, 5, 0])
        with pytest.raises(CodecError):
            decode(bad)

    def test_encode_decode_batch_args(self):
        pairs = [("p|a|1", "x"), ("p|a|2", None)]
        args = protocol.encode_batch_args(pairs)
        # through the codec, as the RPC layer ships it
        assert protocol.decode_batch_args(decode(encode(args))) == pairs

    def test_decode_batch_args_validates(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_batch_args([["k"], ["v"], ["extra"]])
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_batch_args([["k", "k2"], ["v"]])
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_batch_args([[""], ["v"]])
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_batch_args([["k"], [7]])


# ======================================================================
# Coalesced propagation through the simulated network
# ======================================================================
class TestDistribBatch:
    def make_cluster(self):
        cluster = Cluster(2, 2, ("p", "s"), joins=TIMELINE)
        cluster.put("s|ann|bob", "1")
        cluster.put("s|liz|bob", "1")
        cluster.scan("ann", "t|ann|", "t|ann}")
        cluster.scan("liz", "t|liz|", "t|liz}")
        cluster.settle()
        return cluster

    def test_one_update_message_per_subscriber_per_flush(self):
        cluster = self.make_cluster()
        cluster.net.kind_bytes.clear()
        updates_before = sum(n.updates_sent for n in cluster.base_nodes)
        batches_before = sum(n.update_batches_sent for n in cluster.base_nodes)
        cluster.put_many(
            [(f"p|bob|{i:010d}", f"tweet {i}") for i in range(25)]
        )
        cluster.settle()
        assert MSG_UPDATE_BATCH in cluster.net.kind_bytes
        batches = (
            sum(n.update_batches_sent for n in cluster.base_nodes) - batches_before
        )
        updates = sum(n.updates_sent for n in cluster.base_nodes) - updates_before
        # 25 keys mirrored by each of ann's and liz's compute nodes,
        # shipped in one message per subscriber, not one per key.
        assert updates >= 25
        assert batches <= 2

    def test_batched_writes_converge_like_per_key(self):
        batched = self.make_cluster()
        per_key = self.make_cluster()
        writes = [(f"p|bob|{i:010d}", f"tweet {i}") for i in range(12)]
        writes.append(("p|bob|0000000003", None))
        batched.apply_batch(writes)
        for key, value in writes:
            if value is None:
                per_key.remove(key)
            else:
                per_key.put(key, value)
        batched.settle()
        per_key.settle()
        for affinity in ("ann", "liz"):
            assert batched.scan(affinity, "t|", "t}") == per_key.scan(
                affinity, "t|", "t}"
            )

    def test_update_buffer_coalesces_per_key(self):
        buffer = UpdateBuffer()
        buffer.add("s1", ("p|a|1", None, "x", ChangeKind.INSERT))
        buffer.add("s1", ("p|a|1", "x", "y", ChangeKind.UPDATE))
        buffer.add("s2", ("p|a|1", None, "x", ChangeKind.INSERT))
        assert len(buffer) == 2
        assert buffer.coalesced == 1
        flushed = dict(buffer.flush())
        assert flushed["s1"] == [("p|a|1", "x", "y", ChangeKind.UPDATE)]
        assert not buffer


# ======================================================================
# The property: batched application == per-key application
# ======================================================================
write_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("s"),
            st.sampled_from(["ann", "liz"]),
            st.sampled_from(["bob", "cat", "dan"]),
            st.sampled_from(["1", None]),
        ),
        st.tuples(
            st.just("p"),
            st.sampled_from(["bob", "cat", "dan"]),
            st.integers(min_value=0, max_value=9),
            st.sampled_from(["x", "y", None]),
        ),
    ),
    max_size=30,
)


class TestBatchEquivalenceProperty:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=write_ops, chunk=st.integers(min_value=2, max_value=9),
           join=st.sampled_from([TIMELINE, ECHECK_TIMELINE, COUNT_JOIN]))
    def test_store_state_byte_identical(self, ops, chunk, join):
        """Any write sequence, applied per-key vs in WriteBatch chunks
        with reads at chunk boundaries, yields byte-identical store
        state — across eager (copy/echeck), lazy (check), and
        aggregate maintenance — and, at every chunk boundary, the
        output a fresh server computes from scratch over the same base
        data.  (Both servers maintain through one path, so the second
        comparison is the one that can tell it wrong.)"""
        out = join.split("|", 1)[0]
        per_key = PequodServer()
        batched = PequodServer()
        for srv in (per_key, batched):
            srv.add_join(join)
            srv.put("s|ann|bob", "1")
            srv.put("p|bob|0000", "seed")
        writes = []
        for op in ops:
            if op[0] == "s":
                _, user, poster, value = op
                writes.append((f"s|{user}|{poster}", value))
            else:
                _, poster, time, value = op
                writes.append((f"p|{poster}|{time:04d}", value))
        for start in range(0, len(writes), chunk):
            piece = writes[start : start + chunk]
            for key, value in piece:
                if value is None:
                    per_key.remove(key)
                else:
                    per_key.put(key, value)
            batched.apply_batch(piece)
            expected = from_scratch(batched, join, out)
            for srv in (per_key, batched):
                assert srv.scan(out, prefix_upper_bound(out)) == expected
            assert read_everything(per_key) == read_everything(batched)
        assert snapshot(per_key) == snapshot(batched)
