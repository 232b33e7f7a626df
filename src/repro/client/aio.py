"""The async-native Pequod client API: event-driven backends plus
server-push watch streams.

The paper's clients "are event-driven processes that keep many RPCs
outstanding" (§5.1) and its servers *push* updates to subscribers
rather than being polled (§2.4).  This module is that model as the
primary client surface:

* :class:`AsyncPequodClient` — the abstract interface, mirroring the
  synchronous ``PequodClient`` operation set as coroutines;
* :class:`AsyncLocalClient` — an in-process server;
* :class:`AsyncRemoteClient` — a server across TCP, driving the
  pipelined :class:`~repro.net.rpc_client.RpcClient` directly, so
  hundreds of operations ride one connection concurrently;
* :class:`AsyncClusterClient` — a distributed deployment, fanning
  reads and batched writes out to home servers concurrently
  (``asyncio.gather``);
* :meth:`AsyncPequodClient.watch` — a server-push stream of committed
  changes in a key range, delivered exactly once in commit order, on
  every backend.

The synchronous clients of :mod:`repro.client.local` / ``remote`` /
``cluster`` are thin facades over these classes (each runs the
coroutines below to completion, on an event loop of its own or by
stepping the ones that never suspend), so there is exactly one
implementation of every backend.  Use :func:`repro.client.factory.make_async_client` to build
one::

    client = await make_async_client("rpc")
    await client.add_join("t|<u>|<tm>|<p> = check s|<u>|<p> copy p|<p>|<tm>")
    await client.put("s|ann|bob", "1")
    await client.scan_prefix("t|ann|")   # materialize ann's timeline
    watch = await client.watch("t|ann|", "t|ann}")
    await client.put("p|bob|0100", "hello!")   # maintained, then pushed
    async for event in watch:
        render(event)          # pushed by the server, not polled
"""

from __future__ import annotations

import asyncio
from typing import (
    Awaitable,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from ..core.hub import ChangeEvent
from ..core.joins import JoinError
from ..core.pattern import PatternError
from ..core.server import PequodServer
from ..distrib.cluster import Cluster, Session
from ..distrib.node import ROLE_BASE, ROLE_COMPUTE, DistributedNode
from ..metrics import merge_snapshots
from ..net import protocol
from ..net.rpc_client import RpcClient, RpcError
from ..persist import DurabilityError as LogDurabilityError
from ..store.batch import PUT, WriteBatch
from ..store.keys import prefix_upper_bound
from .base import BatchLike, JoinLike, check_value, checked_ops, join_text
from .errors import (
    BadRequestError,
    DurabilityError,
    JoinSpecError,
    NotFoundError,
    TransportError,
    error_for_code,
)


#: Sentinel queued into a Watch when its stream has ended.
_STREAM_END = object()


class Watch:
    """An async stream of committed changes in ``[lo, hi)``.

    Iterate it (``async for event in watch``), await single events
    with :meth:`next_event`, or drain whatever has already arrived
    with :meth:`drain`.  The stream ends — iteration stops — when
    :meth:`close` is called or the backend connection is lost.
    """

    def __init__(
        self,
        lo: str,
        hi: str,
        on_close: Optional[Callable[[], Union[None, Awaitable[None]]]] = None,
    ) -> None:
        self.lo = lo
        self.hi = hi
        self._queue: asyncio.Queue = asyncio.Queue()
        self._on_close = on_close
        self._ended = False
        self.closed = False

    # -- producer side (backends) --------------------------------------
    def _push(self, event: ChangeEvent) -> None:
        if not self.closed:
            self._queue.put_nowait(event)

    def _push_end(self) -> None:
        self._queue.put_nowait(_STREAM_END)

    # -- consumer side -------------------------------------------------
    def __aiter__(self) -> "Watch":
        return self

    async def __anext__(self) -> ChangeEvent:
        event = await self.next_event()
        if event is None:
            raise StopAsyncIteration
        return event

    async def next_event(
        self, timeout: Optional[float] = None
    ) -> Optional[ChangeEvent]:
        """The next change, or None if the stream ended or ``timeout``
        seconds passed without one."""
        if self._ended and self._queue.empty():
            return None
        try:
            if timeout is None:
                item = await self._queue.get()
            else:
                item = await asyncio.wait_for(self._queue.get(), timeout)
        except asyncio.TimeoutError:
            return None
        if item is _STREAM_END:
            self._ended = True
            return None
        return item

    def pending(self) -> bool:
        """Would :meth:`next_event` return without waiting — an event
        is queued, or the stream has ended?"""
        return self._ended or not self._queue.empty()

    def drain(self) -> List[ChangeEvent]:
        """Every event already delivered, without waiting."""
        out: List[ChangeEvent] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return out
            if item is _STREAM_END:
                self._ended = True
                return out
            out.append(item)

    async def close(self) -> None:
        """Stop delivery and release the server-side subscription."""
        if self.closed:
            return
        self.closed = True
        if self._on_close is not None:
            result = self._on_close()
            if asyncio.iscoroutine(result):
                await result
        self._push_end()


class AsyncWriteBatch(WriteBatch):
    """A write batch bound to an async client.

    Works as an async context manager (applies on clean exit) or via
    explicit ``await batch.aapply()``::

        async with client.write_batch() as batch:
            batch.put("p|bob|0100", "hello")
            batch.put("p|bob|0101", "again")
    """

    __slots__ = ("_client",)

    def __init__(self, client: "AsyncPequodClient") -> None:
        super().__init__()
        self._client = client

    async def aapply(self) -> int:
        return await self._client.apply_batch(self)

    async def __aenter__(self) -> "AsyncWriteBatch":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self:
            await self.aapply()


class AsyncPequodClient:
    """Abstract async client for a Pequod cache, whatever its
    deployment.

    Subclasses implement the primitives marked *backend*; the
    convenience forms are derived here so their semantics can't drift
    between backends.  Clients are async context managers::

        async with await make_async_client("rpc") as client:
            await client.put("s|ann|bob", "1")
    """

    #: Short backend tag ("local", "rpc", "cluster") for diagnostics.
    backend = "abstract"

    # ------------------------------------------------------------------
    # Backend primitives
    # ------------------------------------------------------------------
    async def get(self, key: str) -> Optional[str]:
        """The value for ``key``, computing overlapping joins on demand."""
        raise NotImplementedError

    async def put(self, key: str, value: str) -> None:
        """Write ``key``; incremental maintenance runs before returning."""
        raise NotImplementedError

    async def remove(self, key: str) -> bool:
        """Remove ``key``; True iff it was present (on every backend)."""
        raise NotImplementedError

    async def scan(self, first: str, last: str) -> List[Tuple[str, str]]:
        """Ordered pairs with ``first <= key < last`` (§2's scan)."""
        raise NotImplementedError

    async def add_join(self, join: JoinLike) -> List[str]:
        """Install cache joins; returns their normalized texts."""
        raise NotImplementedError

    async def apply_batch(self, batch: BatchLike) -> int:
        """Apply a coalesced write batch as one maintenance pass;
        returns the number of net changes applied."""
        raise NotImplementedError

    async def stats(self) -> Dict[str, float]:
        """Server work counters (summed across servers on a cluster)."""
        raise NotImplementedError

    async def watch(self, lo: str, hi: str) -> Watch:
        """A server-push stream of committed changes in ``[lo, hi)``.

        Every change committed after the call — client writes and
        maintained join outputs alike — is delivered exactly once, in
        commit order (per key: key-version order).  Close the returned
        :class:`Watch` to unsubscribe."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Derived operations — identical on every backend by construction
    # ------------------------------------------------------------------
    async def scan_prefix(self, prefix: str) -> List[Tuple[str, str]]:
        """All pairs whose keys start with ``prefix``."""
        return await self.scan(prefix, prefix_upper_bound(prefix))

    async def count(self, first: str, last: str) -> int:
        return len(await self.scan(first, last))

    async def exists(self, key: str) -> bool:
        return await self.get(key) is not None

    def write_batch(self) -> AsyncWriteBatch:
        """A write batch bound to this client; applies on clean
        ``async with`` exit or explicit :meth:`AsyncWriteBatch.aapply`."""
        return AsyncWriteBatch(self)

    async def put_many(self, pairs: Iterable[Tuple[str, str]]) -> int:
        """Batch-write ``(key, value)`` pairs; returns changes applied."""
        batch = WriteBatch()
        for key, value in pairs:
            check_value(value)
            batch.put(key, value)
        return await self.apply_batch(batch)

    # ------------------------------------------------------------------
    # Deployment hooks
    # ------------------------------------------------------------------
    async def settle(self) -> int:
        """Deliver in-flight asynchronous maintenance; returns the
        number of messages delivered (0 off-cluster)."""
        return 0

    async def settle_cdc(self) -> int:
        """Write-around convergence barrier: drain the change feed into
        the cache on every server (sequence high-water-mark compare;
        pgcache's ``wait_for_cdc``).  Returns change records consumed —
        0 on write-through deployments, so callers need not branch."""
        return 0

    async def aclose(self) -> None:
        """Release backend resources; the client is unusable after."""

    async def __aenter__(self) -> "AsyncPequodClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} backend={self.backend!r}>"


class AsyncLocalClient(AsyncPequodClient):
    """Drive an in-process :class:`PequodServer`.

    Accepts an existing server (sharing it with direct callers is
    fine — both see the same store) or builds one from the keyword
    arguments, which mirror the server's tunables.  ``watch`` streams
    come straight off the server's change hub, delivered synchronously
    with each commit.  ``aclose`` closes a server the client built
    (flushing a batched WAL tail); a server passed in stays open for
    its owner.
    """

    backend = "local"

    def __init__(
        self, server: Optional[PequodServer] = None, **server_kwargs
    ) -> None:
        if server is not None and server_kwargs:
            raise BadRequestError(
                "pass either an existing server or server kwargs, not both"
            )
        self._owns_server = server is None
        self.server = (
            server if server is not None else PequodServer(**server_kwargs)
        )

    async def aclose(self) -> None:
        if self._owns_server:
            self.server.close()

    # ------------------------------------------------------------------
    async def get(self, key: str) -> Optional[str]:
        try:
            return self.server.get(key)
        except LogDurabilityError as exc:
            raise DurabilityError(str(exc)) from exc

    async def put(self, key: str, value: str) -> None:
        check_value(value)
        try:
            self.server.put(key, value)
        except LogDurabilityError as exc:
            raise DurabilityError(str(exc)) from exc

    async def remove(self, key: str) -> bool:
        try:
            return self.server.remove(key)
        except LogDurabilityError as exc:
            raise DurabilityError(str(exc)) from exc

    async def scan(self, first: str, last: str) -> List[Tuple[str, str]]:
        try:
            return self.server.scan(first, last)
        except LogDurabilityError as exc:
            raise DurabilityError(str(exc)) from exc

    async def add_join(self, join: JoinLike) -> List[str]:
        try:
            # One spec, one server call: the whole install is atomic.
            installed = self.server.add_join(join_text(join))
        except (JoinError, PatternError) as exc:
            raise JoinSpecError(str(exc)) from exc
        return [j.text for j in installed]

    async def apply_batch(self, batch: BatchLike) -> int:
        try:
            return self.server.apply_batch(checked_ops(batch))
        except LogDurabilityError as exc:
            raise DurabilityError(str(exc)) from exc

    async def stats(self) -> Dict[str, float]:
        return self.server.metrics_snapshot()

    async def settle_cdc(self) -> int:
        try:
            return self.server.settle_cdc()
        except LogDurabilityError as exc:
            raise DurabilityError(str(exc)) from exc

    async def watch(self, lo: str, hi: str) -> Watch:
        if not lo < hi:
            raise BadRequestError(f"empty watch range [{lo!r}, {hi!r})")
        watch = Watch(lo, hi)
        handle = self.server.watch(lo, hi, watch._push)
        watch._on_close = handle.close
        return watch


class AsyncRemoteClient(AsyncPequodClient):
    """Drive a Pequod RPC server at ``host:port`` over one pipelined
    connection.

    Every coroutine writes its request frame immediately and awaits
    its own response future, so concurrent callers (``gather``, task
    groups) keep many RPCs outstanding on the single connection — the
    paper's §5.1 client model, with no per-call thread hops.  ``watch``
    subscriptions ride the same connection: the server pushes change
    frames with reserved negative ids that interleave with responses.
    """

    backend = "rpc"

    #: The connection class.  The sync facade substitutes the blocking
    #: transport (see :mod:`repro.client.remote`).
    _transport = RpcClient

    def __init__(self, host: str = "127.0.0.1", port: int = 7709) -> None:
        self.host = host
        self.port = port
        self._rpc: Optional[RpcClient] = self._transport(host, port)
        self._connected = False

    @classmethod
    async def open(
        cls, host: str = "127.0.0.1", port: int = 7709
    ) -> "AsyncRemoteClient":
        client = cls(host, port)
        await client.connect()
        return client

    async def connect(self) -> None:
        assert self._rpc is not None
        try:
            await self._rpc.connect()
        except OSError as exc:
            raise TransportError(
                f"cannot connect to pequod at {self.host}:{self.port}: {exc}"
            ) from exc
        self._connected = True

    # ------------------------------------------------------------------
    async def _call(self, method: str, *args):
        if self._rpc is None or not self._connected:
            raise TransportError("client is closed")
        try:
            return await self._rpc.call(method, *args)
        except RpcError as exc:
            raise error_for_code(exc.code, str(exc)) from exc
        except (OSError, RuntimeError, protocol.ProtocolError) as exc:
            # ProtocolError: the peer answered something undecodable,
            # and the transport has already dropped the connection.
            raise TransportError(f"rpc {method} failed: {exc}") from exc

    # ------------------------------------------------------------------
    async def get(self, key: str) -> Optional[str]:
        return await self._call("get", key)

    async def put(self, key: str, value: str) -> None:
        check_value(value)
        await self._call("put", key, value)

    async def remove(self, key: str) -> bool:
        return bool(await self._call("remove", key))

    async def scan(self, first: str, last: str) -> List[Tuple[str, str]]:
        return await self._call("scan", first, last)

    async def scan_prefix(self, prefix: str) -> List[Tuple[str, str]]:
        # One RPC instead of a client-side bound computation + scan.
        return await self._call("scan_prefix", prefix)

    async def count(self, first: str, last: str) -> int:
        return await self._call("count", first, last)

    async def add_join(self, join: JoinLike) -> List[str]:
        # One spec, one RPC: the whole install is atomic server-side.
        return await self._call("add_join", join_text(join))

    async def apply_batch(self, batch: BatchLike) -> int:
        # checked_ops already coalesced and sorted; go straight to the
        # wire encoding rather than re-coalescing in the RPC layer.
        pairs = [
            (op.key, op.value if op.kind == PUT else None)
            for op in checked_ops(batch)
        ]
        if not pairs:
            return 0
        return await self._call("batch", *protocol.encode_batch_args(pairs))

    async def stats(self) -> Dict[str, float]:
        return await self._call("stats")

    async def settle_cdc(self) -> int:
        return await self._call("settle_cdc")

    async def ping(self) -> str:
        return await self._call("ping")

    async def watch(self, lo: str, hi: str) -> Watch:
        if not lo < hi:
            raise BadRequestError(f"empty watch range [{lo!r}, {hi!r})")
        rpc = self._rpc
        if rpc is None or not self._connected:
            raise TransportError("client is closed")
        sub_id = await self._call("subscribe", lo, hi)

        async def unsubscribe() -> None:
            rpc.drop_push_sink(sub_id)
            try:
                await self._call("unsubscribe", sub_id)
            except (NotFoundError, TransportError):
                pass  # connection or subscription already gone

        watch = Watch(lo, hi, on_close=unsubscribe)

        def sink(events: Optional[List[ChangeEvent]]) -> None:
            if events is None:
                watch._push_end()  # connection lost: the stream ends
            else:
                for event in events:
                    watch._push(event)

        rpc.set_push_sink(sub_id, sink)
        return watch

    # ------------------------------------------------------------------
    async def aclose(self) -> None:
        rpc, self._rpc = self._rpc, None
        self._connected = False
        if rpc is not None:
            await rpc.close()


def default_affinity(key: str) -> str:
    """The paper's read affinity: the user segment of the key —
    the first ``|``-separated segment after the table tag."""
    parts = key.split("|", 2)
    return parts[1] if len(parts) > 1 else key


class AsyncClusterClient(AsyncPequodClient):
    """Drive a :class:`Cluster` of base and compute servers.

    The routing strategy is the paper's (§2.4, §5.5): writes go to the
    written key's home server, computed reads to the affinity compute
    server ``S(u)``, base reads to the data's home server(s).  Reads
    and batched writes spanning several home servers fan out as one
    task per server under ``asyncio.gather`` — the §5.1 client shape
    applied to a partitioned deployment.  Against the *simulated*
    cluster the node calls are synchronous, so the gather executes
    them back to back; the structure is what buys concurrency the day
    a node call actually awaits (e.g. real remote nodes).

    ``watch`` is cluster-routed: a range is watched on every node that
    can own one of its keys, and each node's stream is filtered to the
    keys it is the routing owner of — so mirrored base data and
    forwarded writes never produce duplicate events, and every
    committed change surfaces exactly once.
    """

    backend = "cluster"

    def __init__(
        self,
        cluster: Cluster,
        affinity_of: Optional[Callable[[str], str]] = None,
    ) -> None:
        self.cluster = cluster
        self.affinity_of = affinity_of or default_affinity
        self._computed_cache: Optional[set] = None
        #: Set by :func:`~repro.client.factory.make_async_client` for a
        #: cluster it built: :meth:`aclose` then closes every node's
        #: server.  A cluster passed in belongs to the caller.
        self._owns_cluster = False

    # ------------------------------------------------------------------
    # Routing helpers
    # ------------------------------------------------------------------
    def _computed_tables(self) -> set:
        """Tables produced by installed joins (compute-node data).

        Cached: joins are installed identically on every compute node
        through :meth:`add_join` (which invalidates the cache), so one
        node's join list is authoritative.
        """
        if self._computed_cache is None:
            self._computed_cache = {
                j.output.table
                for node in self.cluster.live_compute_nodes[:1]
                for j in node.server.joins
            }
        return self._computed_cache

    def _is_computed(self, table: str) -> bool:
        return table in self._computed_tables()

    @staticmethod
    def _table_of(key: str) -> str:
        return key.split("|", 1)[0]

    def _compute_node_of(self, key: str) -> DistributedNode:
        return self.cluster.compute_node_for(self.affinity_of(key))

    def _owns(self, node: DistributedNode, key: str) -> bool:
        """Is ``node`` the routing owner of ``key`` — the one server a
        commit of that key counts at?  Computed tables are owned by
        the affinity compute server, everything else by the home
        server; mirrored copies and forwarded writes are not owned."""
        if self._is_computed(self._table_of(key)):
            return node.role == ROLE_COMPUTE and node is self._compute_node_of(key)
        return node.role == ROLE_BASE and node is self.cluster.home_node(key)

    # ------------------------------------------------------------------
    async def get(self, key: str) -> Optional[str]:
        try:
            if self._is_computed(self._table_of(key)):
                return self.cluster.get(self.affinity_of(key), key)
            # Base / plain data: read the home server directly.
            return self.cluster.get_home(key)
        except LogDurabilityError as exc:
            raise DurabilityError(str(exc)) from exc

    async def put(self, key: str, value: str) -> None:
        check_value(value)
        try:
            if self._is_computed(self._table_of(key)):
                # Direct writes into a computed range live where the
                # range is computed and read — the affinity compute
                # server — not at a base home no reader ever consults.
                self.cluster.put_at(self._compute_node_of(key), key, value)
                return
            self.cluster.put(key, value)
        except LogDurabilityError as exc:
            raise DurabilityError(str(exc)) from exc

    async def remove(self, key: str) -> bool:
        try:
            if self._is_computed(self._table_of(key)):
                return self.cluster.remove_at(self._compute_node_of(key), key)
            return self.cluster.remove(key)
        except LogDurabilityError as exc:
            raise DurabilityError(str(exc)) from exc

    async def _scan_homes(self, first: str, last: str) -> List[Tuple[str, str]]:
        """Fan-out: every involved home server's slice is requested as
        its own gathered task (sequential against the synchronous
        simulated cluster — see the class docstring)."""
        nodes = self.cluster.home_nodes_for_range(first, last)

        async def one(node: DistributedNode) -> List[Tuple[str, str]]:
            return self.cluster.scan_home_at(node, first, last)

        slices = await asyncio.gather(*(one(node) for node in nodes))
        rows = [pair for rows in slices for pair in rows]
        rows.sort()
        return rows

    async def scan(self, first: str, last: str) -> List[Tuple[str, str]]:
        try:
            return await self._scan_routed(first, last)
        except LogDurabilityError as exc:
            raise DurabilityError(str(exc)) from exc

    async def _scan_routed(self, first: str, last: str) -> List[Tuple[str, str]]:
        table = self._table_of(first)
        if not self._is_computed(table):
            # Base data lives at its home server(s); merge their slices.
            return await self._scan_homes(first, last)
        affinity = self.affinity_of(first)
        rows = self.cluster.scan(affinity, first, last)
        # A scan confined to one affinity — the paper's read pattern
        # (§2.4: all of a user's reads go to S(u)) — is complete: the
        # affinity server demand-computes the whole range.  A scan
        # crossing affinities must also merge rows that other compute
        # servers hold exclusively (direct writes into their slice of
        # the computed range); their stored rows suffice, with the
        # demand-computing affinity server winning key collisions.
        prefix = f"{table}|{affinity}|"
        if first.startswith(prefix) and last <= prefix_upper_bound(prefix):
            return rows
        seen = {key for key, _ in rows}
        scanned = self._compute_node_of(first)
        others = [
            node
            for node in self.cluster.live_compute_nodes
            if node is not scanned
        ]

        async def stored(node: DistributedNode) -> List[Tuple[str, str]]:
            return self.cluster.stored_rows_at(node, first, last)

        merged = list(rows)
        for rows_at in await asyncio.gather(*(stored(n) for n in others)):
            merged.extend(
                (key, value) for key, value in rows_at if key not in seen
            )
        merged.sort()
        return merged

    async def add_join(self, join: JoinLike) -> List[str]:
        """Install joins on every compute server (they execute joins;
        base servers only hold base data).

        Compute servers stay in lock-step: the whole spec is validated
        as one batch before installation (PequodServer's add-join
        atomicity), so a rejected spec touches no node and every
        compute server always holds the same join set.
        """
        text = join_text(join)
        installed: List[str] = []
        try:
            for i, node in enumerate(self.cluster.compute_nodes):
                added = node.server.add_join(text)
                if i == 0:
                    installed = [j.text for j in added]
        except (JoinError, PatternError) as exc:
            raise JoinSpecError(str(exc)) from exc
        finally:
            self._computed_cache = None
        return installed

    async def apply_batch(self, batch: BatchLike) -> int:
        # Ops on computed tables go to their affinity compute server
        # (like single writes); the rest split by home server, each
        # shipment applied as its own concurrent task.
        base_ops: List[Tuple[str, Optional[str]]] = []
        by_compute: Dict[str, List[Tuple[str, Optional[str]]]] = {}
        nodes: Dict[str, DistributedNode] = {}
        for op in checked_ops(batch):
            pair = (op.key, op.value if op.kind == PUT else None)
            if self._is_computed(self._table_of(op.key)):
                node = self._compute_node_of(op.key)
                nodes[node.name] = node
                by_compute.setdefault(node.name, []).append(pair)
            else:
                base_ops.append(pair)
        shipments: List[Tuple[DistributedNode, List[Tuple[str, Optional[str]]]]] = []
        if base_ops:
            by_home: Dict[str, List[Tuple[str, Optional[str]]]] = {}
            home_nodes: Dict[str, DistributedNode] = {}
            for pair in base_ops:
                node = self.cluster.home_node(pair[0])
                home_nodes[node.name] = node
                by_home.setdefault(node.name, []).append(pair)
            shipments.extend(
                (home_nodes[name], pairs) for name, pairs in by_home.items()
            )
        shipments.extend(
            (nodes[name], pairs) for name, pairs in by_compute.items()
        )

        async def ship(
            node: DistributedNode, pairs: List[Tuple[str, Optional[str]]]
        ) -> int:
            return self.cluster.apply_batch_at(node, pairs)

        try:
            applied = await asyncio.gather(
                *(ship(node, pairs) for node, pairs in shipments)
            )
        except LogDurabilityError as exc:
            raise DurabilityError(str(exc)) from exc
        return sum(applied)

    async def stats(self) -> Dict[str, float]:
        # Per-node stats supersets merged cluster-wide: counters and
        # depths sum, ``*_max`` gauges take the max.  Dead
        # nodes are excluded — their counters describe state nobody can
        # reach anymore.
        return merge_snapshots(
            node.server.metrics_snapshot()
            for node in self.cluster.nodes
            if node.name not in self.cluster.dead
        )

    async def watch(self, lo: str, hi: str) -> Watch:
        if not lo < hi:
            raise BadRequestError(f"empty watch range [{lo!r}, {hi!r})")
        watch = Watch(lo, hi)
        handles = []
        for node in self.cluster.nodes:
            def sink(event: ChangeEvent, node=node) -> None:
                # Ownership filter: a change surfaces only from the
                # node that owns its key's routing, never from mirrors.
                if self._owns(node, event.key):
                    watch._push(event)

            handles.append(node.server.watch(lo, hi, sink))

        def close_all() -> None:
            for handle in handles:
                handle.close()

        watch._on_close = close_all
        return watch

    # ------------------------------------------------------------------
    async def settle(self) -> int:
        """Deliver all in-flight subscription updates (§2.4)."""
        return self.cluster.settle()

    async def aclose(self) -> None:
        if self._owns_cluster:
            for node in self.cluster.nodes:
                node.server.close()

    async def settle_cdc(self) -> int:
        """Drain every live node's change feed, then settle the
        cluster's own subscription traffic (pump-driven maintenance may
        have produced forwardable updates)."""
        consumed = sum(
            node.server.settle_cdc()
            for node in self.cluster.nodes
            if node.name not in self.cluster.dead
        )
        if consumed:
            self.cluster.settle()
        return consumed

    def session(self, affinity: str) -> Session:
        """A read-your-own-writes session pinned to ``S(affinity)``."""
        return self.cluster.session(affinity)
