"""Integration tests: Pequod served over real asyncio TCP RPC (§5.1)."""

import asyncio
import socket
import struct
import threading
import time

import pytest

from repro import PequodServer
from repro.client import RemoteClient, TransportError
from repro.client.aio import AsyncRemoteClient
from repro.net import protocol
from repro.net.rpc_client import RpcClient, RpcError
from repro.net.rpc_server import RpcServer

TIMELINE = (
    "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"
)


def run(coro):
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


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


class TestRpcBasics:
    def test_ping(self):
        async def body(server, client):
            assert await client.ping() == "pong"

        run(with_server(body))

    def test_put_get_remove(self):
        async def body(server, client):
            await client.put("p|bob|0100", "hello")
            assert await client.get("p|bob|0100") == "hello"
            assert await client.remove("p|bob|0100") is True
            assert await client.get("p|bob|0100") is None

        run(with_server(body))

    def test_scan(self):
        async def body(server, client):
            await client.put("p|a|1", "x")
            await client.put("p|b|1", "y")
            rows = await client.scan("p|", "p}")
            assert rows == [("p|a|1", "x"), ("p|b|1", "y")]

        run(with_server(body))

    def test_join_over_rpc(self):
        async def body(server, client):
            installed = await client.add_join(TIMELINE)
            assert len(installed) == 1
            await client.put("s|ann|bob", "1")
            await client.put("p|bob|0100", "tweet")
            rows = await client.scan("t|ann|", "t|ann}")
            assert rows == [("t|ann|0100|bob", "tweet")]

        run(with_server(body))

    def test_error_propagates_as_rpc_error(self):
        async def body(server, client):
            with pytest.raises(RpcError):
                await client.call("add_join", "not a join at all")
            with pytest.raises(RpcError):
                await client.call("no_such_method")
            # The connection remains usable after errors.
            assert await client.ping() == "pong"

        run(with_server(body))

    def test_stats_over_rpc(self):
        async def body(server, client):
            await client.put("p|a|1", "x")
            stats = await client.call("stats")
            assert stats["op_put"] == 1

        run(with_server(body))


class TestPipelining:
    def test_many_outstanding_requests(self):
        """§5.1: clients keep many RPCs outstanding."""

        async def body(server, client):
            calls = [("put", [f"p|u|{i:04d}", f"v{i}"]) for i in range(200)]
            await client.call_many(calls)
            rows = await client.scan("p|u|", "p|u}")
            assert len(rows) == 200
            assert server.requests_served >= 201

        run(with_server(body))

    def test_interleaved_reads_and_writes(self):
        async def body(server, client):
            results = await client.call_many(
                [
                    ("put", ["p|x|1", "a"]),
                    ("get", ["p|x|1"]),
                    ("put", ["p|x|2", "b"]),
                    ("scan", ["p|x|", "p|x}"]),
                ]
            )
            assert results[1] == "a"
            assert [tuple(r) for r in results[3]] == [
                ("p|x|1", "a"),
                ("p|x|2", "b"),
            ]

        run(with_server(body))

    def test_multiple_clients(self):
        async def body(server, client):
            other = RpcClient("127.0.0.1", server.port)
            await other.connect()
            try:
                await client.put("p|shared|1", "from-first")
                assert await other.get("p|shared|1") == "from-first"
            finally:
                await other.close()
            assert server.connections == 2

        run(with_server(body))


class _AwaitingServer(RpcServer):
    """Answers ``put`` and ``ping`` from coroutines, the shape of the
    cluster endpoints' migration and main-loop hand-offs: the put is
    applied only after the handler has yielded to the loop."""

    async def _late_put(self, key, value):
        await asyncio.sleep(0)
        self.server.put(key, value)
        return True

    async def _late_ping(self):
        await asyncio.sleep(0)
        return "pong"

    def _invoke(self, conn, method, args):
        if method == "put":
            return self._late_put(*args[:2])
        if method == "ping":
            return self._late_ping()
        return super()._invoke(conn, method, args)


async def _read_responses(reader, n):
    """``n`` response frames off a raw stream as (id, status, payload)."""
    out = []
    for _ in range(n):
        header = await reader.readexactly(4)
        payload = await reader.readexactly(int.from_bytes(header, "big"))
        out.append(protocol.parse_response(protocol.decode_message(payload)))
    return out


class TestAwaitableHandlers:
    def test_pipelined_chunk_answers_in_request_order(self):
        """One chunk [async put x, get x, ping]: the get runs after the
        awaited put has applied, and the answers keep request order."""

        async def body():
            server = _AwaitingServer(PequodServer())
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                writer.write(
                    protocol.encode_request(0, "put", ["p|x", "late"])
                    + protocol.encode_request(1, "get", ["p|x"])
                    + protocol.encode_request(2, "ping", [])
                )
                await writer.drain()
                responses = await asyncio.wait_for(_read_responses(reader, 3), 5)
                assert responses == [
                    (0, protocol.OK, True),
                    (1, protocol.OK, "late"),
                    (2, protocol.OK, "pong"),
                ]
                assert server.window_occupancy.count == 1  # one chunk
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        run(body())

    def test_deep_window_answers_every_id(self):
        async def body():
            server = _AwaitingServer(PequodServer())
            await server.start()
            client = RpcClient("127.0.0.1", server.port)
            await client.connect()
            try:
                calls = [("put", [f"p|w|{i:03d}", f"v{i}"]) for i in range(300)]
                calls += [("get", [f"p|w|{i:03d}"]) for i in range(300)]
                results = await asyncio.wait_for(
                    client.call_windowed(calls, depth=200), 10
                )
                assert results[:300] == [True] * 300
                assert results[300:] == [f"v{i}" for i in range(300)]
                assert server.requests_served == 600
            finally:
                await client.close()
                await server.stop()

        run(body())

    def test_each_frame_is_timed_once(self):
        """An awaitable handler's frame is observed once, when it is
        answered — not also when its coroutine is handed back."""

        async def body():
            server = _AwaitingServer(PequodServer())
            await server.start()
            client = RpcClient("127.0.0.1", server.port)
            await client.connect()
            try:
                for _ in range(5):
                    assert await client.ping() == "pong"
                await client.call("get", "p|none")
                assert server.requests_served == 6
                assert server.frame_latency.count == 6
            finally:
                await client.close()
                await server.stop()

        run(body())


class TestClientClose:
    def test_close_fails_calls_in_flight_and_after(self):
        """A call awaiting its reply when the client closes fails with
        ConnectionResetError instead of waiting forever, and so does a
        call started after close."""

        async def body():
            async def silent(reader, writer):
                await reader.read()  # never answers
                writer.close()

            server = await asyncio.start_server(silent, "127.0.0.1", 0)
            client = RpcClient("127.0.0.1", server.sockets[0].getsockname()[1])
            await client.connect()
            try:
                call = asyncio.ensure_future(client.ping())
                await asyncio.sleep(0.05)
                await client.close()
                with pytest.raises(ConnectionResetError):
                    await asyncio.wait_for(call, 2)
                with pytest.raises(ConnectionResetError):
                    await client.ping()
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        run(body())


class TestDisconnectTeardown:
    """Watch-subscription cleanup when a client vanishes.

    Regression: a handle whose ``close()`` faults during disconnect
    teardown must be *logged* — not swallowed — and must not stop the
    remaining subscriptions from being dropped (ghost watchers would
    keep pushing into a dead writer)."""

    class _FaultyHandle:
        """Stands in for a WatchHandle whose close() blows up."""

        def __init__(self, inner):
            self.inner = inner

        def close(self):
            raise RuntimeError("injected close fault")

    def test_faulting_close_is_logged_and_others_still_drop(self, caplog):
        import logging

        async def body(server, client):
            await client.subscribe("p|", "p}")
            await client.subscribe("q|", "q}")
            hub = server.server.hub
            assert hub.watcher_count() == 2
            conn = next(iter(server._live_connections))
            first_id = min(conn.subscriptions)
            real = conn.subscriptions[first_id]
            conn.subscriptions[first_id] = self._FaultyHandle(real)
            with caplog.at_level(logging.ERROR, logger="repro.net.rpc_server"):
                await client.close()
                # Let the server observe EOF and run connection teardown.
                for _ in range(50):
                    await asyncio.sleep(0.01)
                    if not server._live_connections:
                        break
            assert not server._live_connections
            # The fault was logged with its traceback, not swallowed.
            assert "disconnect teardown" in caplog.text
            assert "injected close fault" in caplog.text
            # ... and the *other* subscription still got dropped.
            assert hub.watcher_count() == 1
            real.close()  # release the wrapped one; teardown couldn't
            assert hub.watcher_count() == 0

        async def scenario():
            server = RpcServer(PequodServer())
            await server.start()
            client = RpcClient("127.0.0.1", server.port)
            await client.connect()
            try:
                await body(server, client)
            finally:
                await server.stop()

        run(scenario())


# ----------------------------------------------------------------------
# Undecodable frames, in both directions
# ----------------------------------------------------------------------
def _framed(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


#: Well-framed payloads no decoder accepts: an unknown tag, a string
#: cut short, invalid UTF-8, a row block whose row count outruns the
#: frame, one whose lengths disagree with its text, and a value that
#: decodes but is no message.
GARBAGE = {
    "unknown-tag": b"Z",
    "truncated-string": b"l\x03i\x00s\x09sc",
    "invalid-utf8": b"l\x02i\x00s\x02\xff\xfe",
    "row-count-outruns-frame": b"R\xff\xff\xff\xff\x7f" + b"\x00" * 32,
    "row-lengths-disagree": (
        b"l\x03i\x00s\x02okR\x01" + struct.pack(">2I", 5, 5) + b"\x01k\x01v"
    ),
    "not-a-message": b"i\x07",
}
garbage = pytest.mark.parametrize("payload", GARBAGE.values(), ids=GARBAGE.keys())


class TestGarbageRequest:
    """A frame the server cannot decode costs its sender a typed error
    (or the connection); everyone else keeps being served."""

    @garbage
    def test_second_connection_keeps_being_served(self, payload):
        async def body(server, client):
            await client.put("p|a|1", "x")
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(_framed(payload))
            await writer.drain()
            data = await asyncio.wait_for(reader.read(65536), 5)
            if data:  # not closed: the answer is a typed failure
                (frame,) = protocol.FrameBuffer().feed(data)
                _id, status, error = protocol.parse_response(
                    protocol.decode_message(frame)
                )
                assert status == protocol.ERR
                assert error[0] == protocol.ERR_CODE_BAD_REQUEST
            writer.close()
            assert await client.scan("p|", "p}") == [("p|a|1", "x")]
            assert await client.ping() == "pong"

        run(with_server(body))


class _ScriptedServer:
    """A fake RPC server on a thread: accepts one connection and
    answers its i-th request frame with ``replies[i](request_id)`` —
    raw bytes written as they are, or a tuple of them written 0.2 s
    apart — then closes."""

    def __init__(self, replies):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._replies = list(replies)
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        conn, _addr = self._listener.accept()
        buffer = protocol.FrameBuffer()
        with conn:
            while self._replies:
                data = conn.recv(65536)
                if not data:
                    return
                for frame in buffer.feed(data):
                    request_id = protocol.decode_message(frame)[0]
                    reply = self._replies.pop(0)(request_id)
                    if isinstance(reply, bytes):
                        reply = (reply,)
                    for i, chunk in enumerate(reply):
                        time.sleep(0.2 if i else 0)
                        conn.sendall(chunk)

    def close(self):
        self._listener.close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


def _ok(payload):
    return lambda request_id: protocol.encode_response(
        request_id, protocol.OK, payload
    )


class TestGarbageResponse:
    """An undecodable answer is a dead connection, reported in the
    unified client's own terms: that call and every later one raise
    TransportError (not the codec's bare ValueError), watches end."""

    @garbage
    def test_async_transport(self, payload):
        fake = _ScriptedServer([_ok(0), lambda _id: _framed(payload)])

        async def body():
            client = await AsyncRemoteClient.open("127.0.0.1", fake.port)
            try:
                watch = await client.watch("p|", "p}")
                with pytest.raises(TransportError):
                    await client.scan("p|", "p}")
                with pytest.raises(TransportError):
                    await client.get("p|a|1")
                assert await watch.next_event(timeout=5) is None
            finally:
                await client.aclose()

        try:
            run(body())
        finally:
            fake.close()

    @garbage
    def test_blocking_transport(self, payload):
        fake = _ScriptedServer([_ok(0), lambda _id: _framed(payload)])
        try:
            client = RemoteClient("127.0.0.1", fake.port)
            try:
                watch = client.iter_watch("p|", "p}")
                with pytest.raises(TransportError):
                    client.scan("p|", "p}")
                with pytest.raises(TransportError):
                    client.get("p|a|1")
                assert watch.next(timeout=5) is None
            finally:
                client.close()
                client.close()  # idempotent
        finally:
            fake.close()

    def test_garbage_push_while_idle_ends_the_watch(self):
        """The blocking transport also reads outside calls (a waiting
        watcher); garbage met there kills the connection just the same."""
        fake = _ScriptedServer([lambda id_: (_ok(0)(id_), _framed(b"Z"))])
        try:
            client = RemoteClient("127.0.0.1", fake.port)
            try:
                watch = client.iter_watch("p|", "p}")
                assert watch.next(timeout=5) is None
                with pytest.raises(TransportError):
                    client.ping()
            finally:
                client.close()
        finally:
            fake.close()

    def test_stale_response_ids_are_skipped(self):
        """A response to a request this client no longer waits for
        (another id) is dropped, not mistaken for the answer."""
        fake = _ScriptedServer(
            [lambda id_: _ok("stale")(id_ + 100) + _ok("pong")(id_)]
        )
        try:
            client = RemoteClient("127.0.0.1", fake.port)
            try:
                assert client.ping() == "pong"
            finally:
                client.close()
        finally:
            fake.close()
