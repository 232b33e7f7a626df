"""Watch streams end to end: the ChangeHub, the RPC push protocol,
per-connection teardown, and the windowed pipelining driver."""

import asyncio
import socket

import pytest

from repro import PequodServer
from repro.core.hub import ChangeHub
from repro.core.operators import ChangeKind
from repro.net import protocol
from repro.net.rpc_client import RpcClient, RpcError
from repro.net.rpc_server import RpcServer, classify_error


def run(coro):
    return asyncio.run(coro)


# ======================================================================
# ChangeHub
# ======================================================================
class TestChangeHub:
    def test_publish_reaches_covering_watchers_only(self):
        hub = ChangeHub()
        got_a, got_b = [], []
        hub.watch("p|a|", "p|a}", got_a.append)
        hub.watch("p|", "p}", got_b.append)
        assert hub.publish("p|a|1", None, "x", ChangeKind.INSERT) == 2
        assert hub.publish("p|b|1", None, "y", ChangeKind.INSERT) == 1
        assert hub.publish("q|1", None, "z", ChangeKind.INSERT) == 0
        assert [e.key for e in got_a] == ["p|a|1"]
        assert [e.key for e in got_b] == ["p|a|1", "p|b|1"]

    def test_seq_strictly_increases(self):
        hub = ChangeHub()
        events = []
        hub.watch("a", "z", events.append)
        for i in range(5):
            hub.publish(f"k{i}", None, "v", ChangeKind.INSERT)
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 5

    def test_close_stops_delivery_and_counts(self):
        hub = ChangeHub()
        events = []
        handle = hub.watch("a", "z", events.append)
        assert hub.watcher_count() == 1
        hub.publish("k", None, "v", ChangeKind.INSERT)
        handle.close()
        handle.close()  # idempotent
        assert hub.watcher_count() == 0
        hub.publish("k", None, "v2", ChangeKind.UPDATE)
        assert len(events) == 1

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            ChangeHub().watch("z", "a", lambda e: None)

    def test_overlapping_sees_only_active_intersecting_watches(self):
        hub = ChangeHub()
        hub.watch("t|b|", "t|c|", lambda e: None)
        hub.watch("t|d|", "t|e|", lambda e: None).close()
        hub.watch("t|f|", "t|g|", lambda e: None)  # starts at hi below
        assert hub.overlapping("t|a|", "t|b|5")
        assert hub.overlapping("t|b|5", "t|b|6")
        assert not hub.overlapping("t|c|", "t|f|")
        assert hub.overlapping("t|c|", "t|f|0")
        assert not hub.overlapping("t|g|", "t|z|")

    def test_server_hub_is_lazy(self):
        server = PequodServer()
        assert server._hub is None
        server.put("p|a|1", "x")  # no hub, no listener overhead
        assert server._hub is None
        events = []
        server.watch("p|", "p}", events.append)
        server.put("p|a|2", "y")
        assert [e.key for e in events] == ["p|a|2"]


# ======================================================================
# Error classification (the NotFoundError satellite)
# ======================================================================
class TestClassifyError:
    def test_key_error_is_not_found(self):
        assert classify_error(KeyError("gone")) == protocol.ERR_CODE_NOT_FOUND

    def test_value_error_is_bad_request(self):
        assert classify_error(ValueError("bad")) == protocol.ERR_CODE_BAD_REQUEST
        assert classify_error(TypeError("bad")) == protocol.ERR_CODE_BAD_REQUEST

    def test_fault_is_server(self):
        assert classify_error(RuntimeError("boom")) == protocol.ERR_CODE_SERVER

    def test_not_found_maps_to_typed_error(self):
        from repro.client.errors import NotFoundError, error_for_code

        exc = error_for_code(protocol.ERR_CODE_NOT_FOUND, "no subscription 7")
        assert isinstance(exc, NotFoundError)
        assert isinstance(exc, KeyError)  # idiomatic handling
        assert "no subscription 7" in str(exc)


# ======================================================================
# RPC push protocol
# ======================================================================
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


class TestRpcPush:
    def test_push_frames_interleave_with_responses(self):
        async def body(server, client):
            events = []
            sub_id = await client.subscribe("p|", "p}")
            client.set_push_sink(
                sub_id, lambda evs: events.extend(evs or [])
            )
            # Pipelined writes: pushes ride the same connection as the
            # responses, with reserved negative frame ids.
            await client.call_many(
                [("put", [f"p|a|{i}", f"v{i}"]) for i in range(5)]
            )
            await client.call("ping")  # one more round trip: pushes read
            assert [e.key for e in events] == [f"p|a|{i}" for i in range(5)]
            assert client.pushes_received == 5
            assert await client.unsubscribe(sub_id) is True

        run(with_server(body))

    def test_cross_connection_push(self):
        """The §2.4 model: a write on one connection is pushed to a
        watcher on another."""

        async def body(server, client):
            writer = RpcClient("127.0.0.1", server.port)
            await writer.connect()
            try:
                events = []
                sub_id = await client.subscribe("p|", "p}")
                client.set_push_sink(
                    sub_id, lambda evs: events.extend(evs or [])
                )
                await writer.put("p|x|1", "from the other side")
                await client.call("ping")  # pump our connection
                assert [(e.key, e.new) for e in events] == [
                    ("p|x|1", "from the other side")
                ]
            finally:
                await writer.close()

        run(with_server(body))

    def test_unsubscribe_unknown_id_is_not_found(self):
        async def body(server, client):
            with pytest.raises(RpcError) as info:
                await client.call("unsubscribe", 999)
            assert info.value.code == protocol.ERR_CODE_NOT_FOUND
            # The connection stays usable.
            assert await client.ping() == "pong"

        run(with_server(body))

    def test_bad_subscribe_range_is_bad_request(self):
        async def body(server, client):
            with pytest.raises(RpcError) as info:
                await client.call("subscribe", "z", "a")
            assert info.value.code == protocol.ERR_CODE_BAD_REQUEST

        run(with_server(body))


class TestConnectionTeardown:
    """The satellite fix: whatever ends a connection, its watch
    subscriptions, buffers, and connection bookkeeping are dropped."""

    def test_clean_disconnect_drops_subscriptions(self):
        async def body():
            server = RpcServer(PequodServer())
            await server.start()
            try:
                client = RpcClient("127.0.0.1", server.port)
                await client.connect()
                await client.subscribe("p|", "p}")
                await client.subscribe("q|", "q}")
                assert server.watcher_count() == 2
                await client.close()  # no unsubscribe: just drop the link
                await asyncio.sleep(0.05)
                assert server.watcher_count() == 0
                assert not server._live_connections
            finally:
                await server.stop()

        run(body())

    def test_garbage_mid_frame_drops_connection_state(self):
        async def body():
            server = RpcServer(PequodServer())
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(protocol.encode_request(0, "subscribe", ["p|", "p}"]))
                await writer.drain()
                frame = await reader.readexactly(4)
                length = int.from_bytes(frame, "big")
                await reader.readexactly(length)  # the subscribe response
                assert server.watcher_count() == 1
                # Unframeable garbage: a frame length beyond MAX_FRAME.
                writer.write(b"\xff\xff\xff\xff not a frame")
                await writer.drain()
                data = await reader.read()
                assert data == b""  # server dropped the connection...
                await asyncio.sleep(0.05)
                assert server.watcher_count() == 0  # ...and its watches
                assert not server._live_connections
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError):
                    pass
            finally:
                await server.stop()

        run(body())

    def test_server_push_after_disconnect_is_inert(self):
        """A write after a watcher vanished must not fault the server."""

        async def body():
            engine_server = PequodServer()
            server = RpcServer(engine_server)
            await server.start()
            try:
                client = RpcClient("127.0.0.1", server.port)
                await client.connect()
                await client.subscribe("p|", "p}")
                await client.close()
                await asyncio.sleep(0.05)
                engine_server.put("p|a|1", "x")  # no watcher: no fault
                assert engine_server.hub.watcher_count() == 0
            finally:
                await server.stop()

        run(body())


# ======================================================================
# The windowed pipelining driver
# ======================================================================
class TestCallWindowed:
    def test_results_in_call_order(self):
        async def body(server, client):
            calls = [("put", [f"p|k|{i:03d}", f"v{i}"]) for i in range(40)]
            calls += [("get", [f"p|k|{i:03d}"]) for i in range(40)]
            results = await client.call_windowed(calls, depth=8)
            assert results[:40] == [True] * 40
            assert results[40:] == [f"v{i}" for i in range(40)]

        run(with_server(body))

    def test_depth_validation_and_empty(self):
        async def body(server, client):
            assert await client.call_windowed([], 4) == []
            with pytest.raises(ValueError):
                await client.call_windowed([("ping", [])], 0)

        run(with_server(body))

    def test_window_error_propagates(self):
        async def body(server, client):
            calls = [("ping", []), ("no_such_method", []), ("ping", [])]
            with pytest.raises(RpcError):
                await client.call_windowed(calls, depth=2)
            assert await client.ping() == "pong"  # connection survives

        run(with_server(body))


class TestReviewRegressions:
    def test_failed_window_stops_issuing_calls(self):
        """After a window fails, late completions must not keep
        feeding the server the remaining calls."""

        async def body(server, client):
            calls = [("ping", []), ("no_such_method", [])]
            calls += [("put", [f"p|late|{i:03d}", "x"]) for i in range(60)]
            with pytest.raises(RpcError):
                await client.call_windowed(calls, depth=2)
            # Give any stray launches time to land, then count: only
            # puts issued before the failure surfaced may exist.
            for _ in range(3):
                await client.call("ping")
            stored = await client.call("count", "p|late|", "p|late}")
            assert stored < 60, f"window kept running: {stored} puts landed"

        run(with_server(body))

    def test_slow_watcher_is_dropped_not_buffered(self):
        """A subscriber that stops reading loses its subscriptions
        instead of growing the server's write buffer forever."""

        async def body():
            engine_server = PequodServer()
            server = RpcServer(engine_server)
            server.MAX_PUSH_BACKLOG = 4096  # tiny cap for the test
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    protocol.encode_request(0, "subscribe", ["p|", "p}"])
                )
                await writer.drain()
                frame = await reader.readexactly(4)
                await reader.readexactly(int.from_bytes(frame, "big"))
                assert server.watcher_count() == 1
                # Flood changes while never reading pushes.  The tiny
                # transport buffer backs up past the cap and the
                # server drops the watcher.
                big = "v" * 1024
                for i in range(4096):
                    engine_server.put(f"p|k|{i:05d}", big)
                    if server.slow_watchers_dropped:
                        break
                    await asyncio.sleep(0)
                assert server.slow_watchers_dropped == 1
                assert engine_server.hub.watcher_count() == 0
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError):
                    pass
            finally:
                await server.stop()

        run(body())

    def test_slow_watcher_drop_spares_the_writing_connection(self):
        """Writes over one connection back a never-reading subscriber
        up past the cap: the subscriber loses its watches, the writer
        keeps being served."""

        async def body():
            loop = asyncio.get_running_loop()
            server = RpcServer(PequodServer())
            server.MAX_PUSH_BACKLOG = 1024
            await server.start()
            # Small kernel buffers on both ends, so the backlog lands
            # in the server transport after a few pushes.
            sub = socket.socket()
            sub.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sub.setblocking(False)
            client = RpcClient("127.0.0.1", server.port)
            try:
                await loop.sock_connect(sub, ("127.0.0.1", server.port))
                await loop.sock_sendall(
                    sub, protocol.encode_request(0, "subscribe", ["p|", "p}"])
                )
                header = await loop.sock_recv(sub, 4)
                await loop.sock_recv(sub, int.from_bytes(header, "big"))
                assert server.watcher_count() == 1
                (conn,) = [c for c in server._live_connections if c.subscriptions]
                conn.transport.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
                )
                await client.connect()
                big = "v" * 4096
                for i in range(1000):
                    await client.put(f"p|k|{i:04d}", big)
                    if server.slow_watchers_dropped:
                        break
                stats = await client.call("stats")
                assert stats["rpc_slow_watchers_dropped_total"] == 1
                assert server.watcher_count() == 0
                # The writing connection is still served.
                await client.put("p|after", "x")
                assert await client.get("p|after") == "x"
                assert await client.ping() == "pong"
            finally:
                sub.close()
                await client.close()
                await server.stop()

        run(body())
