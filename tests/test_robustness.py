"""Failure injection and robustness tests.

The paper is explicit that Pequod "do[es] not focus on consistency or
resilience to failure" (§2.4); these tests pin down how the system
behaves at its stated boundaries — malformed network input, lost
subscription updates, eviction racing writes — so the limits are
documented rather than accidental.
"""

import asyncio

import pytest

from repro import PequodServer
from repro.apps.twip import TIMELINE_JOIN
from repro.distrib import Cluster
from repro.distrib.node import MSG_UPDATE_BATCH
from repro.net.rpc_client import RpcClient
from repro.net.rpc_server import RpcServer


def run(coro):
    return asyncio.new_event_loop().run_until_complete(coro)


class TestRpcFaultTolerance:
    def test_garbage_bytes_do_not_kill_server(self):
        async def body():
            server = RpcServer(PequodServer())
            await server.start()
            try:
                # A rogue connection sends an oversized frame header.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"\xff\xff\xff\xff garbage beyond reason")
                await writer.drain()
                writer.close()
                # A well-behaved client still gets service.
                client = RpcClient("127.0.0.1", server.port)
                await client.connect()
                assert await client.ping() == "pong"
                await client.close()
            finally:
                await server.stop()

        run(body())

    def test_malformed_message_returns_error_response(self):
        async def body():
            server = RpcServer(PequodServer())
            await server.start()
            client = RpcClient("127.0.0.1", server.port)
            await client.connect()
            try:
                # Wrong arity for a known method -> error, not crash.
                with pytest.raises(Exception):
                    await client.call("get")  # missing key argument
                assert await client.ping() == "pong"
            finally:
                await client.close()
                await server.stop()

        run(body())

    def test_abrupt_client_disconnect(self):
        async def body():
            server = RpcServer(PequodServer())
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.transport.abort()  # RST, no goodbye
                client = RpcClient("127.0.0.1", server.port)
                await client.connect()
                assert await client.ping() == "pong"
                await client.close()
            finally:
                await server.stop()

        run(body())


class TestMessageLoss:
    def make_cluster(self):
        return Cluster(2, 2, ("p", "s"), joins=TIMELINE_JOIN)

    def test_lost_update_leaves_replica_stale(self):
        """Documented limit: subscription updates are fire-and-forget,
        so a dropped message means staleness until recomputation."""
        cluster = self.make_cluster()
        cluster.put("s|ann|bob", "1")
        cluster.scan("ann", "t|ann|", "t|ann}")  # subscribe compute->base
        cluster.net.loss_filter = lambda src, dst, kind, body: kind == MSG_UPDATE_BATCH
        cluster.put("p|bob|0100", "lost in transit")
        cluster.settle()
        assert cluster.net.messages_dropped >= 1
        assert cluster.scan("ann", "t|ann|", "t|ann}") == []

    def test_later_updates_still_flow_after_loss(self):
        cluster = self.make_cluster()
        cluster.put("s|ann|bob", "1")
        cluster.scan("ann", "t|ann|", "t|ann}")
        dropped = []

        def drop_once(src, dst, kind, body):
            if kind == MSG_UPDATE_BATCH and not dropped:
                dropped.append(body)
                return True
            return False

        cluster.net.loss_filter = drop_once
        cluster.put("p|bob|0100", "dropped")
        cluster.put("p|bob|0200", "delivered")
        cluster.settle()
        got = cluster.scan("ann", "t|ann|", "t|ann}")
        assert got == [("t|ann|0200|bob", "delivered")]

    def test_refetch_heals_stale_replica(self):
        """Evicting the stale mirror forces a refetch from the home
        server, which repairs the lost update."""
        cluster = self.make_cluster()
        cluster.put("s|ann|bob", "1")
        cluster.scan("ann", "t|ann|", "t|ann}")
        cluster.net.loss_filter = lambda src, dst, kind, body: kind == MSG_UPDATE_BATCH
        cluster.put("p|bob|0100", "initially lost")
        cluster.settle()
        cluster.net.loss_filter = None
        node = cluster.compute_node_for("ann")
        # Simulate repair: drop the mirrored coverage and computed data.
        node.resolver.presence.clear()
        while node.server.eviction.evict_one():
            pass
        got = cluster.scan("ann", "t|ann|", "t|ann}")
        assert got == [("t|ann|0100|bob", "initially lost")]


class TestEvictionRaces:
    def test_eviction_between_write_and_read(self):
        srv = PequodServer()
        srv.add_join(TIMELINE_JOIN)
        srv.put("s|ann|bob", "1")
        srv.put("p|bob|0100", "one")
        srv.scan("t|ann|", "t|ann}")
        srv.eviction.evict_one()
        srv.put("p|bob|0200", "two")  # write into evicted coverage
        srv.eviction.evict_one()  # nothing tracked; must be a no-op
        got = srv.scan("t|ann|", "t|ann}")
        assert [v for _, v in got] == ["one", "two"]

    def test_repeated_evict_all_then_rebuild(self):
        srv = PequodServer()
        srv.add_join(TIMELINE_JOIN)
        for i in range(5):
            srv.put(f"s|u{i}|star", "1")
        srv.put("p|star|0001", "x")
        for i in range(5):
            srv.scan(f"t|u{i}|", f"t|u{i}}}")
        for _ in range(3):
            while srv.eviction.evict_one():
                pass
            for i in range(5):
                assert srv.scan(f"t|u{i}|", f"t|u{i}}}") == [
                    (f"t|u{i}|0001|star", "x")
                ]


class TestAdversarialKeys:
    def test_keys_with_separator_heavy_content(self):
        srv = PequodServer()
        srv.add_join("o|<a> = copy i|<a>")
        srv.put("i|", "empty-slot")  # slot value is the empty string
        srv.put("i|x", "normal")
        got = srv.scan("o|", "o}")
        assert ("o|x", "normal") in got

    def test_unicode_keys_roundtrip(self):
        srv = PequodServer()
        srv.add_join("o|<a> = copy i|<a>")
        srv.put("i|ünïcødé", "value")
        assert srv.get("o|ünïcødé") == "value"

    def test_non_matching_keys_in_source_range_skipped(self):
        """Schema-free stores may hold keys that don't match the source
        pattern (§3.1); they must be ignored, not crash."""
        srv = PequodServer()
        srv.add_join(
            "t|<u>|<tm>|<p> = check s|<u>|<p> copy p|<p>|<tm>"
        )
        srv.put("s|ann|bob", "1")
        srv.put("p|bob|0100", "good")
        srv.put("p|bob|0100|extra|segments", "bad-arity")
        srv.put("p|bob", "too-short")
        got = srv.scan("t|ann|", "t|ann}")
        assert got == [("t|ann|0100|bob", "good")]
