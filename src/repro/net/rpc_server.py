"""Asyncio RPC server exposing a PequodServer over TCP.

Pequod is "a single-threaded, event-driven C++ program" (§4); this is
the Python analogue: one event loop, per-connection frame reassembly,
and request dispatch into the (non-async) cache engine.  Clients
pipeline requests; responses go back in completion order carrying the
request id.

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
import time
import traceback
from typing import Any, Awaitable, Callable, Dict, List, Optional

from ..core.hub import WatchHandle
from ..core.joins import JoinError
from ..core.load import OverloadError
from ..core.pattern import PatternError
from ..core.server import PequodServer
from ..distrib.partition_map import WrongOwnerError
from ..metrics import LATENCY_BUCKETS, WINDOW_BUCKETS, Histogram, sample_key
from . import protocol
from .codec import CodecError, RowBlock

log = logging.getLogger(__name__)


def classify_error(exc: BaseException) -> str:
    """The protocol error code for one server-side exception.

    ``OverloadError`` classifies first — it subclasses RuntimeError but
    carries load-control semantics every backend must surface as the
    typed client error, not a generic server fault.  ``KeyError``
    classifies before the generic bad-request bucket: the engine (and
    the subscription table) raise it for *missing things*, which a
    client must be able to distinguish from a malformed request — see
    ``repro.client.errors.NotFoundError``.
    """
    if isinstance(exc, OverloadError):
        return protocol.ERR_CODE_OVERLOAD
    if isinstance(exc, WrongOwnerError):
        return protocol.ERR_CODE_WRONG_OWNER
    if isinstance(exc, (JoinError, PatternError)):
        return protocol.ERR_CODE_JOIN
    if isinstance(exc, KeyError):
        return protocol.ERR_CODE_NOT_FOUND
    if isinstance(exc, (ValueError, TypeError, CodecError)):
        return protocol.ERR_CODE_BAD_REQUEST
    return protocol.ERR_CODE_SERVER


class _Connection:
    """Per-connection state: the writer, frame reassembly, and watches."""

    __slots__ = ("writer", "buffer", "subscriptions", "next_sub_id")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.buffer = protocol.FrameBuffer()
        self.subscriptions: Dict[int, WatchHandle] = {}
        self.next_sub_id = 0

    def teardown(self) -> None:
        """Drop everything this connection holds on the server:
        active watch subscriptions and any partial frame bytes.

        A handle whose ``close()`` faults must not abort the loop —
        the remaining subscriptions still have to be dropped — but the
        fault is *logged*, never swallowed: silent teardown failures
        leave ghost watchers pushing into dead writers.
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
        self._connection_tasks: set = set()
        self._live_connections: set = set()
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
            transport = conn.writer.transport
            if transport is not None and not transport.is_closing():
                backlog += transport.get_write_buffer_size()
        yield "rpc_push_backlog_bytes", float(backlog)
        yield from self.frame_latency.samples("rpc_frame_latency_seconds")
        yield from self.window_occupancy.samples("rpc_window_occupancy")
        for q in (50, 95, 99):
            yield (
                sample_key("rpc_frame_latency_quantile_seconds", q=str(q)),
                self.frame_latency.percentile(q),
            )

    async def start(self) -> None:
        self._asyncio_server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockets = self._asyncio_server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
            self._asyncio_server = None
        # Reap per-connection tasks so event-loop teardown is clean.
        for task in list(self._connection_tasks):
            task.cancel()
        if self._connection_tasks:
            await asyncio.gather(*self._connection_tasks, return_exceptions=True)
        self._connection_tasks.clear()

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
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
        self.connections += 1
        conn = _Connection(writer)
        self._live_connections.add(conn)
        load = self.server.load
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                payloads = conn.buffer.feed(data)
                if payloads:
                    self.window_occupancy.observe(len(payloads))
                    if load is not None:
                        # The pipelined chunk depth is the admission
                        # controller's queue signal: a client windowing
                        # hundreds of requests per read is the
                        # unbounded-queueing shape overload policies
                        # exist for.
                        load.report_queue_depth(len(payloads))
                # Dispatch the whole chunk, then write every response
                # in ONE transport write: a pipelined window of N
                # requests costs one send syscall, not N.
                responses = []
                for payload in payloads:
                    response = self._dispatch(conn, payload)
                    if not isinstance(response, bytes):
                        # A subclass handler went async (cluster
                        # migration drivers); await it in request
                        # order so responses stay a flat byte list.
                        response = await response
                    responses.append(response)
                if self.chaos is not None:
                    responses = await self.chaos.apply(responses)
                if len(responses) == 1:
                    writer.write(responses[0])
                elif responses:
                    writer.write(b"".join(responses))
                await writer.drain()
        except protocol.ProtocolError:
            # Unframeable garbage: drop this connection, keep serving
            # the rest.
            pass
        except (OSError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancels connection handlers; exiting
            # normally keeps asyncio's stream callbacks quiet.
            pass
        finally:
            # Teardown must run on EVERY exit path — a fault mid-frame
            # must not leave subscriptions pushing into a dead writer
            # or partial state behind the reader task.
            conn.teardown()
            self._live_connections.discard(conn)
            if task is not None:
                self._connection_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    def _dispatch(self, conn: _Connection, payload: bytes):
        request_id = -1
        started = time.perf_counter()
        try:
            message = protocol.decode_message(payload)
            request_id, method, args = protocol.parse_request(message)
            result = self._invoke(conn, method, args)
            if asyncio.iscoroutine(result) or asyncio.isfuture(result):
                return self._finish_async(request_id, result, started)
            self.requests_served += 1
            return protocol.encode_response(request_id, protocol.OK, result)
        except Exception as exc:  # noqa: BLE001 - faults go to the client
            return self._encode_failure(request_id, exc)
        finally:
            self.frame_latency.observe(time.perf_counter() - started)

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
            self.frame_latency.observe(time.perf_counter() - started)

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
        writer = conn.writer

        def sink(event) -> None:
            # Synchronous with the commit: the frame enters the
            # writer's buffer before the originating request's
            # response, so a subscriber never sees an ack ahead of the
            # changes it implies.  StreamWriter flushes asynchronously.
            transport = writer.transport
            if (
                transport is None
                or transport.is_closing()
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
            writer.write(protocol.encode_push(sub_id, [event]))
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
