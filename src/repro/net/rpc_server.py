"""Asyncio RPC server exposing a PequodServer over TCP.

Pequod is "a single-threaded, event-driven C++ program" (§4); this is
the Python analogue: one event loop and one :class:`asyncio.Protocol`
per connection, dispatching into the (non-async) cache engine straight
from ``data_received``.  Clients pipeline requests; each read chunk's
frames are answered in request order and its responses leave in one
transport write, so a request costs one loop callback.  A handler that
returns an awaitable (the cluster endpoints' migration and main-loop
hand-offs, or an installed ``RpcChaos``) pauses reading; a task
finishes the rest of the chunk in order, writes, and resumes.  A
client that stops reading its responses is paused the same way, by
the transport's write-buffer watermarks.

Beyond request/response, connections carry *watch subscriptions*
(§2.4's push model): ``subscribe lo hi`` registers a range on the
server's :class:`~repro.core.hub.ChangeHub` and answers a
per-connection subscription id; every committed change in the range is
then written to the connection as a push frame with a reserved
negative id, interleaving freely with pipelined responses.  All of a
connection's subscriptions — and any partially reassembled frames —
are dropped when the connection ends, however it ends.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import traceback
from time import perf_counter
from typing import Any, Awaitable, Callable, Dict, List, Optional, Set

from ..core.hub import WatchHandle
from ..core.joins import JoinError
from ..core.pattern import PatternError
from ..core.server import PequodServer
from ..distrib.partition_map import WrongOwnerError
from ..metrics import LATENCY_BUCKETS, WINDOW_BUCKETS, Histogram, sample_key
from ..persist import DurabilityError
from . import protocol
from .codec import CodecError, RowBlock

log = logging.getLogger(__name__)


def classify_error(exc: BaseException) -> str:
    """The protocol error code for one server-side exception.

    A failed durable log's ``DurabilityError`` classifies first: every
    backend must surface it as the typed client error, not a generic
    server fault.  ``KeyError``
    classifies before the generic bad-request bucket: the engine (and
    the subscription table) raise it for *missing things*, which a
    client must be able to distinguish from a malformed request — see
    ``repro.client.errors.NotFoundError``.
    """
    if isinstance(exc, DurabilityError):
        return protocol.ERR_CODE_DURABILITY
    if isinstance(exc, WrongOwnerError):
        return protocol.ERR_CODE_WRONG_OWNER
    if isinstance(exc, (JoinError, PatternError)):
        return protocol.ERR_CODE_JOIN
    if isinstance(exc, KeyError):
        return protocol.ERR_CODE_NOT_FOUND
    if isinstance(exc, (ValueError, TypeError, CodecError)):
        return protocol.ERR_CODE_BAD_REQUEST
    return protocol.ERR_CODE_SERVER


class _Connection(asyncio.Protocol):
    """One client connection: frame reassembly, dispatch and watches.

    ``data_received`` answers every complete frame of a read chunk in
    request order and sends the chunk's responses in ONE
    ``transport.write``: a pipelined window of N requests costs one
    loop callback and one send syscall, not N.
    """

    __slots__ = (
        "rpc", "transport", "buffer", "subscriptions", "next_sub_id",
        "task", "write_paused",
    )

    def __init__(self, rpc: "RpcServer") -> None:
        self.rpc = rpc
        self.transport: Optional[asyncio.Transport] = None
        self.buffer = protocol.FrameBuffer()
        self.subscriptions: Dict[int, WatchHandle] = {}
        self.next_sub_id = 0
        #: Finishes a chunk whose handler went async; reading stays
        #: paused until it has written the chunk's responses.
        self.task: Optional[asyncio.Task] = None
        self.write_paused = False

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.rpc.connections += 1
        self.rpc._live_connections.add(self)

    def data_received(self, data: bytes) -> None:
        rpc = self.rpc
        try:
            payloads = self.buffer.feed(data)
        except protocol.ProtocolError:
            # Unframeable garbage: drop this connection, keep serving
            # the rest.
            self.transport.close()
            return
        if not payloads:
            return
        rpc.window_occupancy.observe(len(payloads))
        dispatch = rpc._dispatch
        responses = []
        rest = iter(payloads)
        for payload in rest:
            response = dispatch(self, payload)
            if not isinstance(response, bytes):
                # A subclass handler went async (cluster migration
                # drivers, peer installs run on the main loop).
                self._finish_later(responses, response, rest)
                return
            responses.append(response)
        if rpc.chaos is not None:
            self._finish_later(responses, None, rest)
        else:
            self.transport.write(b"".join(responses))

    def _finish_later(self, responses: List[bytes], pending, rest) -> None:
        """Hand the chunk's tail to a task; no further chunk is read
        until it has written, so responses keep request order."""
        self.transport.pause_reading()
        self.task = asyncio.get_running_loop().create_task(
            self._finish_chunk(responses, pending, rest)
        )

    async def _finish_chunk(self, responses: List[bytes], pending, rest) -> None:
        rpc = self.rpc
        try:
            if pending is not None:
                responses.append(await pending)
            for payload in rest:
                response = rpc._dispatch(self, payload)
                if not isinstance(response, bytes):
                    response = await response
                responses.append(response)
            if rpc.chaos is not None:
                responses = await rpc.chaos.apply(responses)
            if responses and not self.transport.is_closing():
                self.transport.write(b"".join(responses))
        finally:
            self.task = None
            self._resume_reading()

    # Backpressure: a client that stops reading its responses stops
    # having its requests read.
    def pause_writing(self) -> None:
        self.write_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.write_paused = False
        self._resume_reading()

    def _resume_reading(self) -> None:
        if self.task is None and not self.write_paused:
            self.transport.resume_reading()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # Teardown runs on EVERY exit path — EOF, reset, garbage or
        # server stop — so no subscription pushes into a dead transport.
        self.teardown()
        self.rpc._live_connections.discard(self)

    def teardown(self) -> None:
        """Drop everything this connection holds on the server:
        active watch subscriptions and any partial frame bytes.

        A handle whose ``close()`` faults must not abort the loop —
        the remaining subscriptions still have to be dropped — but the
        fault is *logged*, never swallowed: silent teardown failures
        leave ghost watchers pushing into dead transports.
        """
        for sub_id, handle in self.subscriptions.items():
            try:
                handle.close()
            except Exception:  # noqa: BLE001 - teardown must not abort
                log.exception(
                    "error closing subscription %s during disconnect teardown",
                    sub_id,
                )
        self.subscriptions.clear()
        self.buffer = protocol.FrameBuffer()


class RpcServer:
    """Serve a :class:`PequodServer` on a TCP host/port."""

    def __init__(
        self,
        server: PequodServer,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        metrics_source: bool = True,
    ):
        self.server = server
        self.host = host
        self.port = port
        self._asyncio_server: Optional[asyncio.AbstractServer] = None
        self._live_connections: Set[_Connection] = set()
        self.requests_served = 0
        self.connections = 0
        self.pushes_sent = 0
        self.slow_watchers_dropped = 0
        #: RPC-path observability: service time per frame and how many
        #: requests each pipelined read chunk carried.
        self.frame_latency = Histogram(LATENCY_BUCKETS)
        self.window_occupancy = Histogram(WINDOW_BUCKETS)
        #: Optional fault injector (``repro.chaos.RpcChaos``): applied
        #: to each chunk's encoded responses before they are written.
        self.chaos = None
        # A cluster node runs TWO RpcServers over one PequodServer
        # (client + peer endpoints); only one registers the rpc_*
        # series, the other passes metrics_source=False.
        if metrics_source:
            server.metrics.add_source(self._metric_samples)

    def _metric_samples(self):
        """RPC-layer series merged into the server's snapshot."""
        yield "rpc_requests_total", float(self.requests_served)
        yield "rpc_connections_total", float(self.connections)
        yield "rpc_live_connections", float(len(self._live_connections))
        yield "rpc_pushes_total", float(self.pushes_sent)
        yield "rpc_slow_watchers_dropped_total", float(self.slow_watchers_dropped)
        backlog = 0
        for conn in self._live_connections:
            if not conn.transport.is_closing():
                backlog += conn.transport.get_write_buffer_size()
        yield "rpc_push_backlog_bytes", float(backlog)
        yield from self.frame_latency.samples("rpc_frame_latency_seconds")
        yield from self.window_occupancy.samples("rpc_window_occupancy")
        for q in (50, 95, 99):
            yield (
                sample_key("rpc_frame_latency_quantile_seconds", q=str(q)),
                self.frame_latency.percentile(q),
            )

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._asyncio_server = await loop.create_server(
            lambda: _Connection(self), self.host, self.port
        )
        sockets = self._asyncio_server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, close every live connection, and wait for
        unfinished async chunks to unwind."""
        if self._asyncio_server is not None:
            self._asyncio_server.close()
        tasks = []
        for conn in list(self._live_connections):
            if conn.task is not None:
                conn.task.cancel()
                tasks.append(conn.task)
            conn.transport.close()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        if self._asyncio_server is not None:
            await self._asyncio_server.wait_closed()
            self._asyncio_server = None

    async def serve_forever(self) -> None:
        if self._asyncio_server is None:
            await self.start()
        assert self._asyncio_server is not None
        async with self._asyncio_server:
            await self._asyncio_server.serve_forever()

    def watcher_count(self) -> int:
        """Active watch subscriptions across every connection."""
        return self.server.hub.watcher_count()

    # ------------------------------------------------------------------
    def _dispatch(self, conn: _Connection, payload: bytes):
        """One request frame's response bytes — or, when the handler
        returned an awaitable, a coroutine that produces them (and
        times the frame once it is done)."""
        request_id = -1
        started = perf_counter()
        try:
            message = protocol.decode_message(payload)
            request_id, method, args = protocol.parse_request(message)
            result = self._invoke(conn, method, args)
            if hasattr(result, "__await__"):
                # A coroutine or future: cheaper to spot than
                # ``asyncio.iscoroutine``, which pays an ABC check on
                # every plain result.
                return self._finish_async(request_id, result, started)
            self.requests_served += 1
            response = protocol.encode_response(request_id, protocol.OK, result)
        except Exception as exc:  # noqa: BLE001 - faults go to the client
            response = self._encode_failure(request_id, exc)
        self.frame_latency.observe(perf_counter() - started)
        return response

    async def _finish_async(self, request_id: int, coro, started: float) -> bytes:
        """Await a coroutine-valued handler and encode its outcome with
        the same success/failure envelope as the synchronous path."""
        try:
            result = await coro
            self.requests_served += 1
            return protocol.encode_response(request_id, protocol.OK, result)
        except Exception as exc:  # noqa: BLE001 - faults go to the client
            return self._encode_failure(request_id, exc)
        finally:
            self.frame_latency.observe(perf_counter() - started)

    def _encode_failure(self, request_id: int, exc: BaseException) -> bytes:
        code = classify_error(exc)
        detail = f"{type(exc).__name__}: {exc}"
        if code == protocol.ERR_CODE_SERVER:
            detail += "\n" + traceback.format_exc(limit=3)
        return protocol.encode_response(
            request_id, protocol.ERR, protocol.encode_error(code, detail)
        )

    # ------------------------------------------------------------------
    # Watch subscriptions (server push, §2.4)
    # ------------------------------------------------------------------
    #: A subscriber whose connection has this many un-flushed push
    #: bytes is not keeping up; its subscriptions are dropped rather
    #: than letting the server buffer grow without bound.
    MAX_PUSH_BACKLOG = 8 * 1024 * 1024

    def _subscribe(self, conn: _Connection, lo: Any, hi: Any) -> int:
        if not isinstance(lo, str) or not isinstance(hi, str) or not lo < hi:
            raise ValueError(f"bad watch range [{lo!r}, {hi!r})")
        sub_id = conn.next_sub_id
        conn.next_sub_id += 1
        transport = conn.transport

        def sink(event) -> None:
            # Synchronous with the commit: the frame enters the
            # transport before the originating request's response, so
            # a subscriber never sees an ack ahead of the changes it
            # implies.  The transport flushes asynchronously.
            if (
                transport.is_closing()
                or transport.get_write_buffer_size() > self.MAX_PUSH_BACKLOG
            ):
                # Slow-consumer policy: a watcher that stopped reading
                # loses its subscriptions instead of growing server
                # memory without bound.
                for handle in conn.subscriptions.values():
                    handle.close()
                conn.subscriptions.clear()
                self.slow_watchers_dropped += 1
                return
            transport.write(protocol.encode_push(sub_id, [event]))
            self.pushes_sent += 1

        conn.subscriptions[sub_id] = self.server.watch(lo, hi, sink)
        return sub_id

    def _unsubscribe(self, conn: _Connection, sub_id: Any) -> bool:
        handle = conn.subscriptions.pop(sub_id, None)
        if handle is None:
            raise KeyError(f"no subscription {sub_id!r} on this connection")
        handle.close()
        return True

    def _invoke(self, conn: _Connection, method: str, args: List[Any]) -> Any:
        srv = self.server
        if method == "get":
            (key,) = args
            return srv.get(key)
        if method == "put":
            # Writes may carry a trailing partition-map version (the
            # cluster's write fence); a plain server ignores it.
            key, value = args[:2]
            srv.put(key, value)
            return True
        if method == "remove":
            key, *_ = args
            return srv.remove(key)
        if method == "batch":
            pairs = protocol.decode_batch_args(args[:2])
            return srv.apply_batch(pairs)
        if method == "scan":
            first, last = args
            return RowBlock(srv.scan(first, last))
        if method == "scan_prefix":
            (prefix,) = args
            return RowBlock(srv.scan_prefix(prefix))
        if method == "count":
            first, last = args
            return srv.count(first, last)
        if method == "add_join":
            (text,) = args
            return [j.text for j in srv.add_join(text)]
        if method == "subscribe":
            lo, hi = args
            return self._subscribe(conn, lo, hi)
        if method == "unsubscribe":
            (sub_id,) = args
            return self._unsubscribe(conn, sub_id)
        if method == "stats":
            return srv.metrics_snapshot()
        if method == "metrics":
            return srv.metrics_text()
        if method == "settle_cdc":
            return srv.settle_cdc()
        if method == "ping":
            return "pong"
        raise ValueError(f"unknown method {method!r}")


class ThreadedRpcService:
    """An RPC server on a private event-loop thread.

    The loopback deployment used by benchmarks and tests that need the
    server genuinely concurrent with a client (separate thread, real
    TCP) rather than sharing the caller's loop — and each endpoint of a
    cluster node.  ``server`` is a :class:`PequodServer`, served on an
    ephemeral port, or a ready :class:`RpcServer`; ``before_stop`` is
    awaited on :attr:`loop` just before the server stops.
    """

    def __init__(
        self,
        server,
        host: str = "127.0.0.1",
        before_stop: Optional[Callable[[], Awaitable[None]]] = None,
        name: str = "pequod-rpc",
    ) -> None:
        if not isinstance(server, RpcServer):
            server = RpcServer(server, host, 0)
        self.rpc = server
        self.loop = asyncio.new_event_loop()
        self._stopping = False
        started = threading.Event()
        failure: list = []

        def run() -> None:
            asyncio.set_event_loop(self.loop)
            try:
                self.loop.run_until_complete(self.rpc.start())
            except Exception as exc:  # noqa: BLE001 - surfaced to caller
                failure.append(exc)
                self.loop.close()
                started.set()
                return
            started.set()
            self.loop.run_forever()
            if before_stop is not None:
                self.loop.run_until_complete(before_stop())
            self.loop.run_until_complete(self.rpc.stop())
            # One more tick so closed transports detach their sockets
            # before the loop goes away (avoids ResourceWarnings).
            self.loop.run_until_complete(asyncio.sleep(0.02))
            self.loop.close()

        self._thread = threading.Thread(target=run, name=name, daemon=True)
        self._thread.start()
        started.wait()
        if failure:
            raise RuntimeError(f"cannot start RPC server {name}: {failure[0]}")

    @property
    def port(self) -> int:
        return self.rpc.port

    def stop(self, wait: bool = True) -> None:
        """Stop the loop; ``wait=False`` returns without joining the
        thread, so several services can wind down at once."""
        if not self._stopping and self._thread.is_alive():
            self._stopping = True
            self.loop.call_soon_threadsafe(self.loop.stop)
        if wait:
            self._thread.join(timeout=5)
