"""The unified client for a real multi-process Pequod cluster.

:class:`AsyncProcClusterClient` speaks the ordinary RPC protocol to
every node of a :class:`~repro.distrib.procs.ProcCluster`, routing by
a cached :class:`~repro.distrib.partition_map.PartitionMap`:

* point ops go to the key's primary; writes additionally fan to its
  replicas (``replica_batch``) and acknowledge only when every copy
  has applied — which is why killing any single node loses no
  acknowledged base write;
* batches group by owner, ship as one coalesced ``batch`` per primary
  plus one ``replica_batch`` per replica, pipelined through
  :meth:`~repro.net.rpc_client.RpcClient.call_windowed`;
* range reads split along the map's slices, fan out windowed per
  node, and concatenate in global key order;
* ``watch`` subscribes on EVERY node — the nodes' ownership-gated
  change hubs guarantee each committed change surfaces exactly once
  cluster-wide, and the merged stream survives any single node dying.

Reconfiguration is invisible at this surface: a write that races a
live migration gets :class:`~repro.client.errors.WrongOwnerError`
from the old owner, so the client refreshes its map from the cluster
and retries against the new one; a node death surfaces as
:class:`~repro.client.errors.TransportError`, handled the same way
once the coordinator has promoted a replica.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.hub import ChangeEvent
from ..distrib.partition_map import PartitionMap
from ..metrics import label_by_node, merge_snapshots
from ..net import protocol
from ..net.rpc_client import RpcClient, RpcError
from ..store.batch import PUT
from .aio import AsyncPequodClient, Watch
from .base import (
    BatchLike,
    JoinLike,
    PequodClient,
    check_value,
    checked_ops,
    join_text,
)
from .errors import (
    BadRequestError,
    TransportError,
    WrongOwnerError,
    error_for_code,
)

#: Pipelined window depth for per-node fan-out (scans, batch groups).
FANOUT_DEPTH = 32

#: How often (and how long) to retry through a reconfiguration.
RETRY_ATTEMPTS = 80
RETRY_DELAY = 0.025


class AsyncProcClusterClient(AsyncPequodClient):
    """Drive a partitioned multi-process cluster over real TCP."""

    backend = "procs"

    def __init__(self, endpoints: Sequence[Tuple[str, int]]) -> None:
        if not endpoints:
            raise BadRequestError("need at least one cluster endpoint")
        self._bootstrap = list(endpoints)
        self.map: Optional[PartitionMap] = None
        self._conns: Dict[str, RpcClient] = {}
        self._closed = False

    @classmethod
    async def open(
        cls, endpoints: Sequence[Tuple[str, int]]
    ) -> "AsyncProcClusterClient":
        client = cls(endpoints)
        await client.refresh_map()
        return client

    # ------------------------------------------------------------------
    # Map + connections
    # ------------------------------------------------------------------
    async def refresh_map(self) -> PartitionMap:
        """(Re)load the partition map, preferring live node
        connections and falling back to the bootstrap endpoints."""
        last_exc: Optional[Exception] = None
        for conn in list(self._conns.values()):
            try:
                wire = await conn.call("partition_map")
                if wire is not None:
                    return self._adopt_map(PartitionMap.from_wire(wire))
            except Exception as exc:  # noqa: BLE001 - try the next node
                last_exc = exc
        for host, port in self._bootstrap:
            conn = RpcClient(host, port)
            try:
                await conn.connect()
                wire = await conn.call("partition_map")
            except Exception as exc:  # noqa: BLE001 - try the next node
                last_exc = exc
                await conn.close()
                continue
            await conn.close()
            if wire is not None:
                return self._adopt_map(PartitionMap.from_wire(wire))
        raise TransportError(
            f"no cluster endpoint served a partition map: {last_exc}"
        )

    def _adopt_map(self, new_map: PartitionMap) -> PartitionMap:
        if self.map is None or new_map.version > self.map.version:
            self.map = new_map
        return self.map

    def _map(self) -> PartitionMap:
        if self.map is None:
            raise TransportError("client has no partition map; call open()")
        return self.map

    async def _conn(self, name: str) -> RpcClient:
        if self._closed:
            raise TransportError("client is closed")
        conn = self._conns.get(name)
        if conn is None:
            try:
                host, port, _peer = self._map().nodes[name]
            except KeyError:
                raise TransportError(f"no such cluster node {name!r}")
            conn = RpcClient(host, port)
            try:
                await conn.connect()
            except OSError as exc:
                raise TransportError(
                    f"cannot connect to {name} at {host}:{port}: {exc}"
                ) from exc
            # A concurrent caller may have connected first; keep one.
            existing = self._conns.get(name)
            if existing is not None:
                await conn.close()
                return existing
            self._conns[name] = conn
        return conn

    async def _drop_conn(self, name: str) -> None:
        conn = self._conns.pop(name, None)
        if conn is not None:
            await conn.close()

    # ------------------------------------------------------------------
    # Retry-through-reconfiguration
    # ------------------------------------------------------------------
    async def _call_node(self, name: str, method: str, *args):
        conn = await self._conn(name)
        try:
            return await conn.call(method, *args)
        except RpcError as exc:
            raise error_for_code(exc.code, str(exc)) from exc
        except (OSError, RuntimeError) as exc:
            await self._drop_conn(name)
            raise TransportError(f"rpc {method} to {name} failed: {exc}") from exc

    async def _routed(self, op: Callable[[], Any]):
        """Run ``op`` (which routes by ``self.map``), refreshing the
        map and retrying when it hits a reconfiguration in flight."""
        last_exc: Exception = TransportError("unreachable")
        for attempt in range(RETRY_ATTEMPTS):
            try:
                return await op()
            except (WrongOwnerError, TransportError) as exc:
                last_exc = exc
                if self._closed:
                    raise
                if attempt + 1 < RETRY_ATTEMPTS:
                    await asyncio.sleep(RETRY_DELAY)
                    try:
                        await self.refresh_map()
                    except TransportError:
                        pass  # whole cluster unreachable right now; retry
        raise last_exc

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------
    async def get(self, key: str) -> Optional[str]:
        return await self._routed(
            lambda: self._call_node(self._map().owner_of(key), "get", key)
        )

    async def put(self, key: str, value: str) -> None:
        check_value(value)
        await self._routed(lambda: self._fan_write([(key, value)]))

    async def remove(self, key: str) -> bool:
        result = await self._routed(
            lambda: self._call_node(self._map().owner_of(key), "remove", key)
        )
        await self._routed(lambda: self._fan_replicas([(key, None)]))
        return bool(result)

    async def _fan_write(self, pairs: List[Tuple[str, Optional[str]]]):
        """One write shipment: primary batch + replica copies, ALL
        acknowledged before the caller's await returns (the
        zero-acknowledged-loss contract)."""
        pmap = self._map()
        if len(pairs) == 1 and pairs[0][1] is not None:
            key, value = pairs[0]
            await self._call_node(pmap.owner_of(key), "put", key, value)
        else:
            by_primary: Dict[str, List[Tuple[str, Optional[str]]]] = {}
            for key, value in pairs:
                by_primary.setdefault(pmap.owner_of(key), []).append(
                    (key, value)
                )
            await asyncio.gather(
                *(
                    self._call_node(
                        name, "batch", *protocol.encode_batch_args(group)
                    )
                    for name, group in by_primary.items()
                )
            )
        await self._fan_replicas(pairs)

    async def _fan_replicas(self, pairs: List[Tuple[str, Optional[str]]]):
        pmap = self._map()
        by_replica: Dict[str, List[Tuple[str, Optional[str]]]] = {}
        for key, value in pairs:
            for name in pmap.replicas_of(key):
                by_replica.setdefault(name, []).append((key, value))
        if by_replica:
            await asyncio.gather(
                *(
                    self._call_node(
                        name,
                        "replica_batch",
                        *protocol.encode_batch_args(group),
                    )
                    for name, group in by_replica.items()
                )
            )

    # ------------------------------------------------------------------
    # Batches (windowed per-node fan-out)
    # ------------------------------------------------------------------
    async def apply_batch(self, batch: BatchLike) -> int:
        pairs = [
            (op.key, op.value if op.kind == PUT else None)
            for op in checked_ops(batch)
        ]
        if not pairs:
            return 0
        await self._routed(lambda: self._apply_grouped(pairs))
        return len(pairs)

    async def _apply_grouped(self, pairs: List[Tuple[str, Optional[str]]]):
        """Group a coalesced batch by node and ship every group down
        each node's connection with a bounded pipeline window."""
        pmap = self._map()
        primary: Dict[str, List[Tuple[str, Optional[str]]]] = {}
        replica: Dict[str, List[Tuple[str, Optional[str]]]] = {}
        for key, value in pairs:
            primary.setdefault(pmap.owner_of(key), []).append((key, value))
            for name in pmap.replicas_of(key):
                replica.setdefault(name, []).append((key, value))
        per_node: Dict[str, List[Tuple[str, List[Any]]]] = {}
        for name, group in primary.items():
            per_node.setdefault(name, []).append(
                ("batch", protocol.encode_batch_args(group))
            )
        for name, group in replica.items():
            per_node.setdefault(name, []).append(
                ("replica_batch", protocol.encode_batch_args(group))
            )

        async def ship(name: str, calls) -> None:
            conn = await self._conn(name)
            try:
                await conn.call_windowed(calls, FANOUT_DEPTH)
            except RpcError as exc:
                raise error_for_code(exc.code, str(exc)) from exc
            except (OSError, RuntimeError) as exc:
                await self._drop_conn(name)
                raise TransportError(
                    f"batch to {name} failed: {exc}"
                ) from exc

        await asyncio.gather(
            *(ship(name, calls) for name, calls in per_node.items())
        )

    async def put_many(self, pairs: Iterable[Tuple[str, str]]) -> int:
        return await self.apply_batch(list(pairs))

    # ------------------------------------------------------------------
    # Range reads (sliced per owner, windowed, reassembled in order)
    # ------------------------------------------------------------------
    async def scan(self, first: str, last: str) -> List[Tuple[str, str]]:
        return await self._routed(lambda: self._scan_sliced(first, last))

    async def _scan_sliced(self, first: str, last: str):
        pmap = self._map()
        slices = [
            (lo, hi, r.primary)
            for lo, hi, r in pmap.slices(first, last)
            if lo < hi
        ]
        if len(slices) == 1:
            lo, hi, name = slices[0]
            return await self._call_node(name, "scan", lo, hi)
        by_node: Dict[str, List[int]] = {}
        for i, (_lo, _hi, name) in enumerate(slices):
            by_node.setdefault(name, []).append(i)
        results: List[Any] = [None] * len(slices)

        async def ship(name: str, indexes: List[int]) -> None:
            conn = await self._conn(name)
            calls = [
                ("scan", [slices[i][0], slices[i][1]]) for i in indexes
            ]
            try:
                outs = await conn.call_windowed(calls, FANOUT_DEPTH)
            except RpcError as exc:
                raise error_for_code(exc.code, str(exc)) from exc
            except (OSError, RuntimeError) as exc:
                await self._drop_conn(name)
                raise TransportError(f"scan on {name} failed: {exc}") from exc
            for i, rows in zip(indexes, outs):
                results[i] = rows

        await asyncio.gather(
            *(ship(name, indexes) for name, indexes in by_node.items())
        )
        out: List[Tuple[str, str]] = []
        for rows in results:
            out.extend(rows)
        return out

    async def scan_prefix(self, prefix: str) -> List[Tuple[str, str]]:
        from ..store.keys import prefix_upper_bound

        return await self.scan(prefix, prefix_upper_bound(prefix))

    async def count(self, first: str, last: str) -> int:
        async def counted() -> int:
            pmap = self._map()
            slices = [
                (lo, hi, r.primary)
                for lo, hi, r in pmap.slices(first, last)
                if lo < hi
            ]
            counts = await asyncio.gather(
                *(
                    self._call_node(name, "count", lo, hi)
                    for lo, hi, name in slices
                )
            )
            return sum(counts)

        return await self._routed(counted)

    # ------------------------------------------------------------------
    # Cluster-wide operations
    # ------------------------------------------------------------------
    async def add_join(self, join: JoinLike) -> List[str]:
        text = join_text(join)

        async def install() -> List[str]:
            names = sorted(self._map().nodes)
            results = await asyncio.gather(
                *(self._call_node(name, "add_join", text) for name in names)
            )
            return results[0]

        return await self._routed(install)

    async def stats(self) -> Dict[str, float]:
        """Cluster stats with per-node attribution: every series tagged
        ``{node="..."}``, plus untagged cluster-wide aggregates."""

        async def gather_stats() -> Dict[str, float]:
            names = sorted(self._map().nodes)
            snaps = await asyncio.gather(
                *(self._call_node(name, "stats") for name in names)
            )
            per_node = dict(zip(names, snaps))
            merged = label_by_node(per_node)
            merged.update(merge_snapshots(per_node.values()))
            merged["cluster_nodes"] = float(len(names))
            return merged

        return await self._routed(gather_stats)

    async def cluster_info(self) -> Dict[str, dict]:
        async def gather_info() -> Dict[str, dict]:
            names = sorted(self._map().nodes)
            infos = await asyncio.gather(
                *(self._call_node(name, "cluster_info") for name in names)
            )
            return dict(zip(names, infos))

        return await self._routed(gather_info)

    async def settle(self) -> int:
        """Wait until inter-node maintenance traffic has drained:
        pairwise sent==applied across live nodes, nothing in flight,
        stable for two polls."""
        rounds = 0
        stable = 0
        while stable < 2:
            rounds += 1
            if rounds > 2000:
                raise TransportError("cluster settle timeout")

            async def poll() -> Dict[str, dict]:
                names = sorted(self._map().nodes)
                counters = await asyncio.gather(
                    *(
                        self._call_node(name, "cluster_settle")
                        for name in names
                    )
                )
                return dict(zip(names, counters))

            try:
                counters = await self._routed(poll)
            except TransportError:
                raise
            names = list(counters)
            quiet = all(
                c["inflight"] == 0 and c["queued"] == 0
                for c in counters.values()
            ) and all(
                counters[src]["sent_to"].get(dst, 0)
                == counters[dst]["applied_from"].get(src, 0)
                for src in names
                for dst in names
                if dst != src
            )
            stable = stable + 1 if quiet else 0
            if stable < 2:
                await asyncio.sleep(0.01)
        return rounds

    async def settle_cdc(self) -> int:
        """Write-around convergence barrier across the cluster: drain
        every node's change feed into its cache, then settle the
        inter-node maintenance traffic the drained records produced.
        Loops until a full pass consumes nothing new."""
        total = 0
        while True:

            async def drain() -> int:
                names = sorted(self._map().nodes)
                counts = await asyncio.gather(
                    *(
                        self._call_node(name, "settle_cdc")
                        for name in names
                    )
                )
                return sum(counts)

            consumed = await self._routed(drain)
            total += consumed
            if not consumed:
                return total
            await self.settle()

    # ------------------------------------------------------------------
    # Watch (all-node subscription; server gates make it exactly-once)
    # ------------------------------------------------------------------
    async def watch(self, lo: str, hi: str) -> Watch:
        if not lo < hi:
            raise BadRequestError(f"empty watch range [{lo!r}, {hi!r})")
        pmap = self._map()
        names = sorted(pmap.nodes)
        subs: List[Tuple[str, RpcClient, int]] = []
        for name in names:
            conn = await self._conn(name)
            try:
                sub_id = await conn.call("subscribe", lo, hi)
            except RpcError as exc:
                raise error_for_code(exc.code, str(exc)) from exc
            subs.append((name, conn, sub_id))

        live = {name for name, _, _ in subs}

        async def unsubscribe() -> None:
            for name, conn, sub_id in subs:
                conn.drop_push_sink(sub_id)
                try:
                    await conn.call("unsubscribe", sub_id)
                except Exception:  # noqa: BLE001 - node may be gone
                    pass

        watch = Watch(lo, hi, on_close=unsubscribe)

        def sink_for(name: str):
            def sink(events: Optional[List[ChangeEvent]]) -> None:
                if events is None:
                    # One node died; its keys re-home and their events
                    # continue from the promoted owner's stream.  Only
                    # a fully dead cluster ends the watch.
                    live.discard(name)
                    if not live:
                        watch._push_end()
                    return
                for event in events:
                    watch._push(event)

            return sink

        for name, conn, sub_id in subs:
            conn.set_push_sink(sub_id, sink_for(name))
        return watch

    # ------------------------------------------------------------------
    async def aclose(self) -> None:
        self._closed = True
        conns, self._conns = self._conns, {}
        for conn in conns.values():
            await conn.close()


class ProcClusterClient(PequodClient):
    """Blocking facade over :class:`AsyncProcClusterClient`."""

    backend = "procs"

    def __init__(self, endpoints: Sequence[Tuple[str, int]]) -> None:
        self._adopt(AsyncProcClusterClient(endpoints))
        self._run(self._async.refresh_map())  # type: ignore[attr-defined]

    @classmethod
    def for_cluster(cls, cluster) -> "ProcClusterClient":
        """A client for a :class:`~repro.distrib.procs.ProcCluster`."""
        return cls(cluster.client_addresses())

    @property
    def map(self) -> Optional[PartitionMap]:
        return self._async.map  # type: ignore[attr-defined]

    def refresh_map(self) -> PartitionMap:
        return self._run(self._async.refresh_map())  # type: ignore[attr-defined]

    def cluster_info(self) -> Dict[str, dict]:
        return self._run(self._async.cluster_info())  # type: ignore[attr-defined]
