"""Asyncio RPC client with pipelining and server-push routing.

The paper's clients "are event-driven processes that keep many RPCs
outstanding" (§5.1).  :class:`RpcClient` assigns each request an id,
writes frames without waiting, and resolves per-request futures as
responses arrive — so a single connection can have hundreds of
operations in flight.  Requests use ids >= 0; frames with *negative*
ids are server pushes carrying watch-subscription changes (§2.4) and
are routed to per-subscription sinks, so one connection interleaves
pipelined responses and pushed updates.

Synchronous callers use :class:`BlockingRpcClient`: it keeps the whole
``RpcClient`` surface but replaces the transport with a plain blocking
socket and one outstanding request, so its coroutines never suspend
and a caller steps them without an event loop (the unified
``RemoteClient`` facade does, through ``run_unsuspended``).
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..core.hub import ChangeEvent
from ..store.batch import PUT, WriteBatch, as_ops
from . import protocol

#: A subscription's delivery callback: a list of pushed events, or
#: None when the connection is lost and the stream can never resume.
PushSink = Callable[[Optional[List[ChangeEvent]]], None]

#: Anything acceptable as a batch: a WriteBatch or (key, value) pairs
#: with None values meaning removes.
BatchLike = Union[WriteBatch, Iterable[Tuple[str, Optional[str]]]]


def _batch_pairs(batch: BatchLike) -> List[Tuple[str, Optional[str]]]:
    return [
        (op.key, op.value if op.kind == PUT else None) for op in as_ops(batch)
    ]


class RpcError(RuntimeError):
    """An error reported by the server for one request.

    ``code`` is the protocol error code (:data:`repro.net.protocol.ERR_CODES`)
    the server attached, letting callers — in particular the unified
    client layer — distinguish bad requests and join-validation failures
    from genuine server faults.
    """

    def __init__(self, message: str, code: str = protocol.ERR_CODE_SERVER):
        super().__init__(message)
        self.code = code


def _rpc_error(body: Any) -> RpcError:
    code, detail = protocol.parse_error(body)
    return RpcError(detail, code)


class RpcClient:
    """Pipelined asyncio client for a Pequod RPC server."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._buffer = protocol.FrameBuffer()
        self._pending: Dict[int, asyncio.Future] = {}
        self._push_sinks: Dict[int, PushSink] = {}
        self._next_id = 0
        self._reader_task: Optional[asyncio.Task] = None
        #: Encoded frames awaiting one coalesced transport write.
        #: Started calls buffer here and a flush runs at the end of
        #: the current loop tick, so a burst of requests (a pipeline
        #: window refilling as responses arrive) costs ONE send
        #: syscall instead of one per request.
        self._out_frames: List[bytes] = []
        self._flush_scheduled = False
        self.requests_sent = 0
        self.pushes_received = 0

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        self._reader_task = asyncio.create_task(self._read_loop())

    async def close(self) -> None:
        """Close the connection.  Calls still awaiting a reply fail
        with ``ConnectionResetError``, as later calls do."""
        self._fail_pending(ConnectionResetError("client closed"))
        self._fail_push_sinks()
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
            self._writer = None

    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                data = await self._reader.read(65536)
                if not data:
                    # Clean EOF is still a dead connection: every
                    # outstanding request must fail, not hang, and
                    # later calls must refuse to start (the peer may
                    # have been killed — cluster clients retry through
                    # a refreshed partition map on this error).
                    self._fail_pending(
                        ConnectionResetError("connection closed by server")
                    )
                    self._fail_push_sinks()
                    break
                for payload in self._buffer.feed(data):
                    response = self._take_frame(payload)
                    if response is None:
                        continue
                    request_id, status, body = response
                    future = self._pending.pop(request_id, None)
                    if future is None or future.done():
                        continue
                    if status == protocol.OK:
                        future.set_result(body)
                    else:
                        future.set_exception(_rpc_error(body))
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - fail all outstanding
            self._fail_pending(exc)
            self._fail_push_sinks()

    def _take_frame(self, payload: bytes) -> Optional[Tuple[int, str, Any]]:
        """Decode one inbound frame.  A response comes back as
        ``(request_id, status, body)``; a push (reserved negative id)
        goes to its subscription's sink and yields None."""
        message = protocol.decode_message(payload)
        request_id, status, body = protocol.parse_response(message)
        if request_id >= 0:
            return request_id, status, body
        sub_id, events = protocol.parse_push(message)
        self.pushes_received += len(events)
        sink = self._push_sinks.get(sub_id)
        if sink is not None:
            sink(events)
        return None

    def _fail_pending(self, exc: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()

    def _fail_push_sinks(self) -> None:
        """The connection is gone: tell every watch stream it ended."""
        sinks, self._push_sinks = list(self._push_sinks.values()), {}
        for sink in sinks:
            sink(None)

    # -- watch subscriptions -----------------------------------------------------
    def set_push_sink(self, sub_id: int, sink: PushSink) -> None:
        """Route push frames for ``sub_id`` to ``sink``."""
        self._push_sinks[sub_id] = sink

    def drop_push_sink(self, sub_id: int) -> None:
        self._push_sinks.pop(sub_id, None)

    async def subscribe(self, lo: str, hi: str) -> int:
        """Install a watch subscription; returns its id.  Register a
        sink with :meth:`set_push_sink` before awaiting changes."""
        return await self.call("subscribe", lo, hi)

    async def unsubscribe(self, sub_id: int) -> bool:
        self.drop_push_sink(sub_id)
        return await self.call("unsubscribe", sub_id)

    def _start_call(self, method: str, args: List[Any]) -> asyncio.Future:
        if self._writer is None:
            raise ConnectionResetError("client is not connected")
        if self._reader_task is not None and self._reader_task.done():
            raise ConnectionResetError("connection lost")
        request_id = self._next_id
        self._next_id += 1
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self._out_frames.append(protocol.encode_request(request_id, method, args))
        if not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush)
        self.requests_sent += 1
        return future

    def _flush(self) -> None:
        """Hand buffered frames to the transport in one write."""
        self._flush_scheduled = False
        if self._out_frames and self._writer is not None:
            if len(self._out_frames) == 1:
                data = self._out_frames[0]
            else:
                data = b"".join(self._out_frames)
            self._out_frames.clear()
            self._writer.write(data)

    async def call(self, method: str, *args: Any) -> Any:
        """One RPC; awaits the response."""
        return await self._round_trip(method, list(args))

    async def _round_trip(self, method: str, args: List[Any]) -> Any:
        """Send one request and wait for its response — the part of
        :meth:`call` a transport replaces."""
        future = self._start_call(method, args)
        self._flush()  # single call: write now, skip the loop hop
        assert self._writer is not None
        await self._writer.drain()
        return await future

    async def call_many(self, calls: List[Tuple[str, List[Any]]]) -> List[Any]:
        """Pipeline a batch of RPCs; results come back in call order."""
        futures = [self._start_call(method, args) for method, args in calls]
        self._flush()
        assert self._writer is not None
        await self._writer.drain()
        return list(await asyncio.gather(*futures))

    async def call_windowed(
        self, calls: List[Tuple[str, List[Any]]], depth: int
    ) -> List[Any]:
        """Run ``calls`` keeping up to ``depth`` requests outstanding.

        The §5.1 client model as a driver: a continuous sliding
        window — each completion immediately launches the next call,
        so the connection never drains between windows — with results
        returned in call order.  Frames launched within one loop tick
        coalesce into a single transport write.
        """
        if depth < 1:
            raise ValueError(f"window depth must be >= 1, got {depth}")
        total = len(calls)
        if total == 0:
            return []
        loop = asyncio.get_running_loop()
        done: asyncio.Future = loop.create_future()
        results: List[Any] = [None] * total
        state = {"next": 0, "completed": 0}

        def launch() -> None:
            index = state["next"]
            if index >= total:
                return
            state["next"] += 1
            method, args = calls[index]
            future = self._start_call(method, list(args))
            future.add_done_callback(
                lambda fut, index=index: on_done(index, fut)
            )

        def on_done(index: int, future: asyncio.Future) -> None:
            state["completed"] += 1
            if future.cancelled():
                if not done.done():
                    done.cancel()
                return
            exc = future.exception()
            if exc is not None:
                if not done.done():
                    done.set_exception(exc)
            else:
                results[index] = future.result()
                if not done.done():
                    # A failed window stops issuing further calls: the
                    # caller has already seen the exception, so late
                    # completions must not keep feeding the server.
                    launch()
            if state["completed"] == total and not done.done():
                done.set_result(None)

        for _ in range(min(depth, total)):
            launch()
        self._flush()
        assert self._writer is not None
        await self._writer.drain()
        await done
        return results

    # -- convenience wrappers ----------------------------------------------------
    async def get(self, key: str) -> Optional[str]:
        return await self.call("get", key)

    async def put(self, key: str, value: str) -> None:
        await self.call("put", key, value)

    async def remove(self, key: str) -> bool:
        return await self.call("remove", key)

    async def scan(self, first: str, last: str) -> List[Tuple[str, str]]:
        return await self.call("scan", first, last)

    async def scan_prefix(self, prefix: str) -> List[Tuple[str, str]]:
        return await self.call("scan_prefix", prefix)

    async def count(self, first: str, last: str) -> int:
        return await self.call("count", first, last)

    async def add_join(self, text: str) -> List[str]:
        return await self.call("add_join", text)

    async def stats(self) -> Dict[str, float]:
        return await self.call("stats")

    async def ping(self) -> str:
        return await self.call("ping")

    async def apply_batch(self, batch: BatchLike) -> int:
        """Ship a write batch as ONE coalesced RPC; returns changes
        applied server-side.  Compare :meth:`call_many`, which
        pipelines N requests — a batch is a single request, a single
        server dispatch, and a single maintenance pass."""
        pairs = _batch_pairs(batch)
        if not pairs:
            return 0
        return await self.call("batch", *protocol.encode_batch_args(pairs))


class BlockingRpcClient(RpcClient):
    """An :class:`RpcClient` on a plain blocking socket.

    One request is outstanding at a time: :meth:`_round_trip` sends it
    and reads the socket until its response arrives, so no coroutine
    of this class ever suspends and synchronous callers step them to
    completion directly.  Push frames met while waiting are routed to
    their sinks in arrival order — the server writes a change's push
    before the originating request's response, and one socket read in
    order keeps it that way.  Between calls nothing reads the socket;
    a caller waiting for pushes uses :meth:`poll`.

    Once the connection fails — EOF, a socket error, an undecodable
    frame — it is closed, every watch stream is told it ended, and
    that call and every later one raise (the error met, then
    ``ConnectionResetError``).  Pipelining (``call_many``,
    ``call_windowed``) stays with the asyncio transport.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__(host, port)
        self._sock: Optional[socket.socket] = None

    async def connect(self) -> None:
        sock = socket.create_connection((self.host, self.port))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock

    async def close(self) -> None:
        self._drop()

    def _drop(self) -> None:
        """End every watch stream and close the socket; idempotent."""
        self._fail_push_sinks()
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    async def _round_trip(self, method: str, args: List[Any]) -> Any:
        if self._sock is None:
            raise ConnectionResetError("connection lost")
        request_id = self._next_id
        self._next_id += 1
        data = protocol.encode_request(request_id, method, args)
        self.requests_sent += 1
        try:
            self._sock.sendall(data)
            response = None
            while response is None:
                response = self._receive(request_id)
        except (OSError, protocol.ProtocolError):
            self._drop()
            raise
        status, body = response
        if status == protocol.OK:
            return body
        raise _rpc_error(body)

    def _receive(self, request_id: int) -> Optional[Tuple[str, Any]]:
        """One ``recv``: route its push frames, skip responses to
        other ids (abandoned calls), and return ``(status, body)`` of
        the response to ``request_id`` if it was among them."""
        assert self._sock is not None
        data = self._sock.recv(65536)
        if not data:
            raise ConnectionResetError("connection closed by server")
        found = None
        for payload in self._buffer.feed(data):
            response = self._take_frame(payload)
            if response is not None and response[0] == request_id:
                found = response[1:]
        return found

    def poll(self, timeout: Optional[float]) -> bool:
        """Wait up to ``timeout`` seconds (None: indefinitely) for
        inbound bytes and route the push frames among them.  False
        when the wait timed out or the connection is already closed;
        a connection that fails here is closed as in a call, which
        ends its watch streams."""
        sock = self._sock
        if sock is None:
            return False
        sock.settimeout(timeout)
        try:
            self._receive(-1)
        except socket.timeout:
            return False
        except (OSError, protocol.ProtocolError):
            self._drop()
        finally:
            if self._sock is not None:
                sock.settimeout(None)
        return True
