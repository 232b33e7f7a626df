"""One real Pequod cluster process: engine + two TCP endpoints.

The multi-process cluster runs N OS processes, each wrapping a full
:class:`~repro.core.server.PequodServer`.  Ownership of the key space
comes from a versioned :class:`~.partition_map.PartitionMap`: every
node owns (is *primary* for) some contiguous ranges, mirrors others on
demand, and replicates a configurable number of neighbours' base
ranges for failover.

Each node serves TWO TCP endpoints:

* the **client endpoint** (:class:`ClusterRpcServer`) — the ordinary
  Pequod RPC surface plus the cluster control methods.  Handlers run
  on the node's main thread and may *block* on other nodes (a scan
  that misses a mirrored source range fetches it synchronously, §3.3).
* the **peer endpoint** (:class:`PeerRpcServer`) — node-to-node
  traffic only (range fetches, subscription pushes, migration
  streams), served from its own thread and event loop.  Peer handlers
  NEVER wait on another node.

That asymmetry is the deadlock-freedom argument: main threads block
only on peer endpoints, and peer endpoints answer from local state, so
every wait chain terminates.  One lock (``store_lock``) arbitrates the
engine between the two threads; the main thread *releases it* around
remote fetches, which is what lets two nodes fetch from each other
concurrently.

Exactly-once watch semantics across the cluster fall out of one rule:
a change becomes a client-visible event only at the key's *current
primary* (and only when it changes the value).  Replica applies,
mirror applies, and migration installs replay changes whose events
already fired at the owner — the hub gate drops them here.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.mirror import MirrorResolver
from ..core.operators import ChangeKind
from ..core.server import PequodServer
from ..net.codec import RowBlock
from ..net.rpc_client import RpcClient
from ..net.rpc_server import RpcServer, ThreadedRpcService, _Connection
from ..store.keys import prefix_upper_bound, table_range
from .partition_map import PartitionMap, WrongOwnerError
from .subscription import (
    SubscriptionRegistry,
    Update,
    decode_update_batch,
    encode_update_batch,
)

log = logging.getLogger(__name__)

#: Rows per migration-snapshot chunk (keeps frames well under the cap).
MIGRATE_CHUNK = 4000


class ClusterNodeRuntime:
    """The shared state and protocol logic of one cluster process."""

    def __init__(
        self,
        name: str,
        host: str = "127.0.0.1",
        port: int = 0,
        peer_port: int = 0,
        server_kwargs: Optional[dict] = None,
    ) -> None:
        self.name = name
        self.host = host
        kwargs = dict(server_kwargs or {})
        kwargs.setdefault("name", name)
        self.server = PequodServer(**kwargs)
        self.map: Optional[PartitionMap] = None
        #: Arbitrates the engine between the main and peer threads.
        #: Held for every engine operation; RELEASED around blocking
        #: remote fetches (see module docstring).
        self.store_lock = threading.Lock()
        self.subscriptions = SubscriptionRegistry(
            self.server.attach_hub(gate=self._event_visible), self._send_mirror
        )
        self.resolver = MirrorResolver(
            self._mirror_homes, self._mirror_fetch, self._mirror_unsubscribe
        )
        self.server.set_resolver(self.resolver)
        self.server.add_listener(self._journal_change)
        self.server.metrics.add_source(self._metric_samples)
        self._computed: Optional[Set[str]] = None
        #: >0 while replaying state transitions watchers must not see
        #: (the rebuild of a migrated-in computed range); the hub gate
        #: swallows events and the rebuild publishes real diffs itself.
        self._mute_events = 0
        #: Active outbound migrations: (lo, hi) -> post-snapshot tail.
        self._journals: Dict[Tuple[str, str], List[Update]] = {}
        # Settle accounting (per-peer, so a dead node's counters can be
        # excluded pairwise instead of skewing a global sum).
        self._counter_lock = threading.Lock()
        self.sent_to: Dict[str, int] = {}
        self.applied_from: Dict[str, int] = {}
        self._inflight = 0  # mirror sends scheduled, not yet completed
        self._queued = 0  # mirror applies enqueued to main, not yet run
        # Endpoints.
        self.rpc = ClusterRpcServer(self, host, port)
        self.peer_rpc = PeerRpcServer(self, host, peer_port)
        self._main: Optional[ThreadedRpcService] = None
        self._peer: Optional[ThreadedRpcService] = None
        self._peer_conns: Dict[str, asyncio.Task] = {}
        self._stopped = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start_threaded(self) -> None:
        """Run both endpoints on private threads (the in-process
        deployment used by tests; subprocesses use :func:`run_node`)."""
        self._peer = ThreadedRpcService(
            self.peer_rpc,
            before_stop=self._close_peer_conns,
            name=f"pequod-{self.name}-peer",
        )
        self._main = ThreadedRpcService(self.rpc, name=f"pequod-{self.name}-main")

    @property
    def main_loop(self) -> Optional[asyncio.AbstractEventLoop]:
        return None if self._main is None else self._main.loop

    @property
    def peer_loop(self) -> Optional[asyncio.AbstractEventLoop]:
        return None if self._peer is None else self._peer.loop

    async def _close_peer_conns(self) -> None:
        # Pop, don't iterate: a connection may be opened or dropped
        # while an earlier one is closing.
        while self._peer_conns:
            _, task = self._peer_conns.popitem()
            if task.done() and not task.cancelled() and task.exception() is None:
                await task.result().close()
            else:
                task.cancel()

    def stop(self) -> None:
        """Stop both endpoints and close the engine (flushes the WAL)."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        services = [s for s in (self._main, self._peer) if s is not None]
        for service in services:
            service.stop(wait=False)
        for service in services:
            service.stop()
        self.server.close()

    @property
    def port(self) -> int:
        return self.rpc.port

    @property
    def peer_port(self) -> int:
        return self.peer_rpc.port

    def address(self) -> Tuple[str, int, int]:
        return (self.host, self.port, self.peer_port)

    # ------------------------------------------------------------------
    # Ownership / join bookkeeping
    # ------------------------------------------------------------------
    def computed_tables(self) -> Set[str]:
        if self._computed is None:
            self._computed = {
                j.output.table for j in self.server.engine.joins
            }
        return self._computed

    def add_join(self, text: str) -> List[str]:
        with self.store_lock:
            joins = self.server.add_join(text)
            self._computed = None
        return [j.text for j in joins]

    def _fence_write(self, key: str) -> None:
        pmap = self.map
        if pmap is not None and not pmap.is_owner(self.name, key):
            raise WrongOwnerError(
                f"{self.name} does not own {key!r} "
                f"(owner {pmap.owner_of(key)!r} at map v{pmap.version})",
                pmap.version,
            )

    def _fence_range(self, lo: str, hi: str) -> None:
        pmap = self.map
        if pmap is not None and lo < hi and not pmap.owns_range(self.name, lo, hi):
            raise WrongOwnerError(
                f"{self.name} does not own all of [{lo!r}, {hi!r}) "
                f"at map v{pmap.version}",
                pmap.version,
            )

    # ------------------------------------------------------------------
    # Client operations (main thread)
    # ------------------------------------------------------------------
    def client_put(self, key: str, value: str) -> bool:
        self._fence_write(key)
        self._locked_write(lambda: self.server.put(key, value))
        return True

    def client_remove(self, key: str) -> bool:
        self._fence_write(key)
        return self._locked_write(lambda: self.server.remove(key))

    def client_batch(self, pairs: List[Tuple[str, Optional[str]]]) -> int:
        for key, _ in pairs:
            self._fence_write(key)
        return self._locked_write(lambda: self.server.apply_batch(pairs))

    def replica_batch(self, pairs: List[Tuple[str, Optional[str]]]) -> int:
        """Apply a replicated write shipment.  Ownership-exempt — this
        node is a replica, not the primary — but a FULL apply (WAL,
        admission, join maintenance), so computed ranges here that
        depend on the replicated base stay fresh without a mirror
        subscription.  In write-around mode the apply routes to the
        replica's own backing DB + change feed, exactly like the
        primary's — replicated durable base writes.  Watch events stay
        exactly-once because the hub gate drops changes whose key this
        node doesn't own."""
        return self._locked_write(lambda: self.server.apply_batch(pairs))

    def settle_cdc(self) -> int:
        """Drain this node's change feed into its cache (write-around).
        Runs as a locked write so pump-driven join maintenance fans out
        through the mirror outbox like any other apply."""
        return self._locked_write(lambda: self.server.settle_cdc())

    def client_get(self, key: str) -> Optional[str]:
        self._fence_write(key)
        with self.store_lock:
            return self.server.get(key)

    def client_scan(self, first: str, last: str) -> List[Tuple[str, str]]:
        self._fence_range(first, last)
        with self.store_lock:
            return self.server.scan(first, last)

    def client_scan_prefix(self, prefix: str) -> List[Tuple[str, str]]:
        self._fence_range(prefix, prefix_upper_bound(prefix))
        with self.store_lock:
            return self.server.scan_prefix(prefix)

    def client_count(self, first: str, last: str) -> int:
        self._fence_range(first, last)
        with self.store_lock:
            return self.server.count(first, last)

    def _locked_write(self, fn):
        # The outbox flushes after the lock is released.
        with self.subscriptions.batch():
            with self.store_lock:
                return fn()

    # ------------------------------------------------------------------
    # Change fan-out (runs under store_lock, main thread)
    # ------------------------------------------------------------------
    def _event_visible(self, key, old, new, kind) -> bool:
        """Hub gate: a change is a client watch event or a mirror push
        only at the key's current primary, and only when it changes the
        value — replica/mirror/migration replays fall out here, keeping
        a cluster-wide watch exactly-once and leaving subscribers alone
        with values they already have."""
        if self._mute_events:
            return False
        if kind is ChangeKind.UPDATE and old == new:
            return False
        pmap = self.map
        return pmap is None or pmap.is_owner(self.name, key)

    def _journal_change(self, key, old, new, kind) -> None:
        # Computed changes journal too: the migration target's
        # before-image must track maintenance right up to the fence.
        for (lo, hi), tail in self._journals.items():
            if lo <= key < hi:
                tail.append((key, old, new, kind))

    def _send_mirror(self, dst: str, updates: List[Update]) -> None:
        pmap = self.map
        if pmap is None or dst not in pmap.nodes:
            return  # dead or departed subscriber
        with self._counter_lock:
            self.sent_to[dst] = self.sent_to.get(dst, 0) + len(updates)
            self._inflight += 1
        fut = asyncio.run_coroutine_threadsafe(
            self._peer_call_coro(
                dst, "mirror_updates", [self.name, encode_update_batch(updates)]
            ),
            self.peer_loop,
        )
        fut.add_done_callback(self._mirror_send_done)

    def _mirror_send_done(self, fut) -> None:
        with self._counter_lock:
            self._inflight -= 1
        exc = fut.exception()
        if exc is not None and not self._stopped.is_set():
            # A dead subscriber loses its mirror feed; its coverage is
            # soft state and refetches after failover.
            log.debug("mirror push from %s failed: %s", self.name, exc)

    def _apply_mirror(self, src: str, updates: List[Update]) -> None:
        """A peer's subscription push, applied on the main thread."""
        with self._counter_lock:
            self._queued -= 1
            self.applied_from[src] = (
                self.applied_from.get(src, 0) + len(updates)
            )
        pairs = self.resolver.covered(updates)
        if pairs:
            self._locked_write(lambda: self.server.engine.apply_batch(pairs))

    def enqueue_mirror(self, src: str, body) -> int:
        """Peer thread: hand a mirror push to the main loop."""
        updates = decode_update_batch(body)
        with self._counter_lock:
            self._queued += 1
        self.main_loop.call_soon_threadsafe(self._apply_mirror, src, updates)
        return len(updates)

    def settle_counters(self) -> Dict[str, Any]:
        with self._counter_lock:
            return {
                "sent_to": dict(self.sent_to),
                "applied_from": dict(self.applied_from),
                "inflight": self._inflight,
                "queued": self._queued,
            }

    # ------------------------------------------------------------------
    # Peer-call plumbing
    # ------------------------------------------------------------------
    async def _peer_client(self, name: str) -> RpcClient:
        task = self._peer_conns.get(name)
        if task is None:
            addr = self.map.nodes[name]

            async def make() -> RpcClient:
                client = RpcClient(addr[0], addr[2])
                await client.connect()
                return client

            task = asyncio.get_running_loop().create_task(make())
            self._peer_conns[name] = task
        return await asyncio.shield(task)

    async def _peer_call_coro(self, name: str, method: str, args: list):
        try:
            client = await self._peer_client(name)
            return await client.call(method, *args)
        except Exception:
            # Connect failures and broken pipes must not poison the
            # cache: drop the cached task so the next call reconnects
            # (the peer may have been restarted, or just promoted).
            self._peer_conns.pop(name, None)
            raise

    def peer_call(self, name: str, method: str, *args, timeout: float = 30.0):
        """Blocking peer RPC from the main thread.  The caller holds
        ``store_lock``; it is RELEASED for the duration of the wait so
        the peer endpoint (and the other node's fetches back into this
        node) stay serviceable — the deadlock-freedom rule."""
        fut = asyncio.run_coroutine_threadsafe(
            self._peer_call_coro(name, method, list(args)), self.peer_loop
        )
        self.store_lock.release()
        try:
            return fut.result(timeout)
        finally:
            self.store_lock.acquire()

    async def peer_acall(self, name: str, method: str, *args):
        """Awaitable peer RPC from a main-loop coroutine (migration
        driver).  Must be awaited WITHOUT holding ``store_lock``."""
        fut = asyncio.run_coroutine_threadsafe(
            self._peer_call_coro(name, method, list(args)), self.peer_loop
        )
        return await asyncio.wrap_future(fut)

    def peer_send(self, name: str, method: str, *args) -> None:
        """Fire-and-forget peer RPC (unsubscribes on eviction)."""
        if self.peer_loop is None or self._stopped.is_set():
            return
        fut = asyncio.run_coroutine_threadsafe(
            self._peer_call_coro(name, method, list(args)), self.peer_loop
        )
        fut.add_done_callback(lambda f: f.exception())

    # ------------------------------------------------------------------
    # Mirrors (§3.3), over the peer endpoints
    # ------------------------------------------------------------------
    def _mirror_homes(self, table: str, lo: str, hi: str):
        """Where the slices of ``[lo, hi)`` live, for the resolver.

        Tables produced by installed joins are never mirrored: every
        node runs the full join set, so computed ranges are computed
        where they are owned, from mirrored base data.  A slice this
        node is primary for is never fetched.  A replica slice fetches
        and subscribes too: the replicated copy has the rows, but only
        an explicit subscription survives reconfiguration (replica sets
        change on migration; subscriptions hand off), and the fetch
        heals any gap from before this node joined the replica set.
        Slices this node owns per the *current* map keep their rows
        when the mirror goes — ownership may have arrived (promotion)
        after the fetch.
        """
        pmap = self.map
        if pmap is None or table in self.computed_tables():
            return None
        return [
            (
                slo,
                shi,
                None if r.primary == self.name else r.primary,
                self.name in r.owners,
            )
            for slo, shi, r in pmap.slices(lo, hi)
        ]

    def _mirror_fetch(self, owner: str, table: str, lo: str, hi: str):
        """Fetch ``[lo, hi)`` from its owner and subscribe there."""
        return self.peer_call(owner, "fetch_range", self.name, lo, hi)

    def _mirror_unsubscribe(self, owner: str, table: str, lo: str, hi: str) -> None:
        self.peer_send(owner, "peer_unsubscribe", self.name, lo, hi)

    def run_on_main(self, fn):
        """Peer thread: run ``fn`` on the main loop, await its result.

        Returns an awaitable for the peer loop.  Peer handlers that
        mutate engine state (migration installs) use this so every
        mutation happens on the main thread."""
        peer_loop = asyncio.get_running_loop()
        fut: asyncio.Future = peer_loop.create_future()

        def deliver(setter, value) -> None:
            if not fut.cancelled():
                setter(value)

        def runner() -> None:
            try:
                result = fn()
            except BaseException as exc:  # noqa: BLE001 - crosses threads
                peer_loop.call_soon_threadsafe(deliver, fut.set_exception, exc)
            else:
                peer_loop.call_soon_threadsafe(deliver, fut.set_result, result)

        self.main_loop.call_soon_threadsafe(runner)
        return fut

    # ------------------------------------------------------------------
    # Map installation / failover
    # ------------------------------------------------------------------
    def install_map(
        self, new_map: PartitionMap, dead: Optional[str] = None
    ) -> int:
        with self.store_lock:
            old = self.map
            if old is not None and new_map.version <= old.version:
                return old.version  # stale install: keep the newer map
            self.map = new_map
            self._on_map_change(old, new_map, dead)
        return new_map.version

    def _on_map_change(
        self, old: Optional[PartitionMap], new: PartitionMap, dead: Optional[str]
    ) -> None:
        # Under store_lock, main thread (or initial install).
        if dead is not None:
            self.subscriptions.drop_subscriber(dead)
            peer_loop, task = self.peer_loop, self._peer_conns.pop(dead, None)
            if task is not None and peer_loop is not None:

                def close_conn() -> None:
                    if task.done() and task.exception() is None:
                        asyncio.ensure_future(task.result().close())
                    else:
                        task.cancel()

                peer_loop.call_soon_threadsafe(close_conn)
        if old is None:
            return
        for lo, hi, was, now in old.changed_ranges(new):
            if was == self.name and now != self.name:
                # Lost a range: its computed data would go unmaintained
                # here and shadow the new owner's events.  Same
                # contract as eviction — drop it, recompute at the
                # owner on demand.  Base rows stay (this node usually
                # stays on as a replica).
                self._drop_computed_slices(lo, hi)
            elif now == self.name and was != self.name:
                # Gained a range (migration target / promoted replica):
                # recompute its computed data fresh from base on
                # demand, never trust unmaintained leftovers.  Slices
                # under a live watch rebuild immediately and silently —
                # a subscriber must see the handover as at most a set
                # of genuine row diffs, never as drop-and-recompute.
                self._rebuild_watched_slices(lo, hi)
            elif dead is not None and was == dead:
                # Mirrors fed by the dead node are orphaned: no more
                # updates will arrive.  Forget them, and with them the
                # ranges built on them; the next demand refetches from
                # (and resubscribes at) the promoted owner.
                for table in list(self.resolver.presence):
                    tlo, thi = table_range(table)
                    if max(lo, tlo) < min(hi, thi):
                        self.resolver.drop_range(
                            self.server.engine, table, max(lo, tlo), min(hi, thi)
                        )

    def _rebuild_watched_slices(self, lo: str, hi: str) -> None:
        """Drop a gained range's computed slices, then rebuild the ones
        a local watcher overlaps.

        §2.4's exactly-once contract must survive reconfiguration: a
        watch spanning a migrated computed range sees neither the
        teardown (a burst of REMOVEs) nor the recompute (re-INSERTs of
        rows it already has) — the whole transition runs with the hub
        gate muted, and only genuine before/after row differences are
        published.  The demand scan re-resolves the slice, which also
        re-establishes the fetch-and-subscribe feeds from the source
        tables' owners, so later maintenance pushes flow normally.

        Mirror subscriptions are watches on the same hub, yet never
        force a rebuild (only computed tables are asked about, and they
        are never mirrored), and the mute hides no base change from
        them: the window publishes only the computed rows it clears and
        recomputes (mirror fetches install silently), on the main
        thread, the only one that writes.
        """
        hub = self.server.hub
        watched: List[Tuple[str, str, Dict[str, str]]] = []
        for table in self.computed_tables():
            tlo, thi = table_range(table)
            s_lo, s_hi = max(lo, tlo), min(hi, thi)
            if s_lo < s_hi and hub.overlapping(s_lo, s_hi):
                watched.append(
                    (s_lo, s_hi, dict(self.server.store.scan(s_lo, s_hi)))
                )
        self._mute_events += 1
        try:
            self._drop_computed_slices(lo, hi)
            rebuilt = [
                (s_lo, s_hi, before, dict(self.server.scan(s_lo, s_hi)))
                for s_lo, s_hi, before in watched
            ]
        finally:
            self._mute_events -= 1
        for _s_lo, _s_hi, before, after in rebuilt:
            for key, value in after.items():
                old = before.pop(key, None)
                if old is None:
                    hub.publish(key, None, value, ChangeKind.INSERT)
                elif old != value:
                    hub.publish(key, old, value, ChangeKind.UPDATE)
            for key, old in before.items():
                hub.publish(key, old, None, ChangeKind.REMOVE)

    def _drop_computed_slices(self, lo: str, hi: str) -> None:
        engine = self.server.engine
        for tbl_name, stable in engine.status.items():
            for sr in list(stable.isolate(lo, hi)):
                engine.retire_range(tbl_name, sr)
        for table in self.computed_tables():
            tlo, thi = table_range(table)
            s_lo, s_hi = max(lo, tlo), min(hi, thi)
            if s_lo < s_hi:
                engine._clear_range(s_lo, s_hi)

    # ------------------------------------------------------------------
    # Live migration (source side; runs as a main-loop coroutine)
    # ------------------------------------------------------------------
    async def migrate_out(self, lo: str, hi: str, target: str, new_map_wire):
        """Move ownership of ``[lo, hi)`` to ``target``.

        Snapshot + tail catch-up: stored rows stream to the target
        while writes keep landing here and accrue in a journal; then
        the map-version bump FENCES this node (stale writers get
        :class:`WrongOwnerError`), the journal drains to the target,
        subscriptions hand off through the registry, and the target
        activates the new map.  The pending window — both sides
        rejecting — spans only the tail drain and handoff.
        """
        new_map = PartitionMap.from_wire(new_map_wire)
        with self.store_lock:
            pmap = self.map
            if pmap is None or not pmap.owns_range(self.name, lo, hi):
                raise WrongOwnerError(
                    f"{self.name} cannot migrate [{lo!r}, {hi!r}): not sole owner",
                    pmap.version if pmap else 0,
                )
            if new_map.version <= pmap.version:
                raise ValueError(
                    f"migration map v{new_map.version} is not newer than "
                    f"v{pmap.version}"
                )
            self._journals[(lo, hi)] = []
            # Everything stored migrates, computed rows included.  The
            # target still treats computed slices as unvalidated (no
            # status ranges travel) and recomputes on demand — but the
            # rows give it an accurate before-image, so a live watch
            # spanning the move sees only genuine diffs, not a
            # teardown-and-recompute replay.
            snapshot = list(self.server.store.scan(lo, hi))
        try:
            for i in range(0, len(snapshot), MIGRATE_CHUNK):
                chunk = snapshot[i : i + MIGRATE_CHUNK]
                await self.peer_acall(
                    target,
                    "migrate_install",
                    lo,
                    hi,
                    [k for k, _ in chunk],
                    [v for _, v in chunk],
                )
        except BaseException:
            with self.store_lock:
                self._journals.pop((lo, hi), None)
            raise
        # FENCE: adopt the new map; from here this node rejects writes
        # in [lo, hi) and the journal is complete.
        with self.store_lock:
            old, self.map = self.map, new_map
            tail = self._journals.pop((lo, hi))
            handoff = [
                (sub, s_lo, s_hi)
                for sub, s_lo, s_hi in self.subscriptions.overlapping(lo, hi)
                if sub != target  # the target stops being a subscriber
            ]
            for sub, s_lo, s_hi in self.subscriptions.overlapping(lo, hi):
                self.subscriptions.unsubscribe(sub, s_lo, s_hi)
            self._on_map_change(old, new_map, None)
        await self.peer_acall(
            target, "migrate_tail", lo, hi, encode_update_batch(tail)
        )
        await self.peer_acall(
            target,
            "adopt_subscriptions",
            [[sub, s_lo, s_hi] for sub, s_lo, s_hi in handoff],
        )
        # Activate: the target adopts the map and starts owning writes.
        await self.peer_acall(target, "install_map", new_map.to_wire())
        return new_map.to_wire()

    # ------------------------------------------------------------------
    # Migration (target side; called via run_on_main on the main thread)
    # ------------------------------------------------------------------
    def apply_migrate_install(
        self, lo: str, hi: str, keys: List[str], values: List[str]
    ) -> int:
        """One snapshot chunk.  A full apply (WAL + maintenance): if
        this node was already mirroring or replicating the range the
        installs are same-value no-ops; new rows feed any computed
        ranges this node owns that source from them."""
        return self._locked_write(
            lambda: self.server.apply_batch(list(zip(keys, values)))
        )

    def apply_migrate_tail(self, lo: str, hi: str, body) -> int:
        updates = decode_update_batch(body)
        if not updates:
            return 0
        return self._locked_write(
            lambda: self.server.apply_batch(
                [
                    (key, None if kind is ChangeKind.REMOVE else (new or ""))
                    for key, _old, new, kind in updates
                ]
            )
        )

    def adopt_subscriptions(self, entries: List[list]) -> int:
        with self.store_lock:
            adopted = 0
            for sub, s_lo, s_hi in entries:
                if sub == self.name:
                    continue
                self.subscriptions.subscribe(sub, s_lo, s_hi)
                adopted += 1
        return adopted

    # ------------------------------------------------------------------
    # Peer-served reads (peer thread, under store_lock)
    # ------------------------------------------------------------------
    def serve_fetch(
        self, subscriber: str, lo: str, hi: str
    ) -> List[List[str]]:
        """Snapshot + subscribe, linearized: rows and the subscription
        install happen under one lock acquisition, so no committed
        change can fall between the snapshot and the first push."""
        with self.store_lock:
            rows = self.server.store.scan(lo, hi)
            self.subscriptions.subscribe(subscriber, lo, hi)
            return [[k, v] for k, v in rows]

    def serve_unsubscribe(self, subscriber: str, lo: str, hi: str) -> bool:
        with self.store_lock:
            return self.subscriptions.unsubscribe(subscriber, lo, hi)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cluster_info(self) -> Dict[str, Any]:
        pmap = self.map
        return {
            "name": self.name,
            "map_version": pmap.version if pmap else 0,
            "port": self.port,
            "peer_port": self.peer_port,
            "joins": len(self.server.engine.joins),
            "keys": len(self.server.store),
            "subscriptions": self.subscriptions.subscription_count(),
            "mirror_fetches": self.resolver.fetches,
        }

    def _metric_samples(self):
        with self._counter_lock:
            sent = sum(self.sent_to.values())
            applied = sum(self.applied_from.values())
            inflight = self._inflight
        yield "cluster_updates_sent_total", float(sent)
        yield "cluster_updates_applied_total", float(applied)
        yield "cluster_updates_inflight", float(inflight)
        yield "cluster_map_version", float(self.map.version if self.map else 0)
        yield "cluster_mirror_fetches_total", float(self.resolver.fetches)
        yield "cluster_mirror_evictions_total", float(
            self.resolver.evicted_ranges
        )


class ClusterRpcServer(RpcServer):
    """The client endpoint: the standard RPC surface, write-fenced by
    the partition map, plus the cluster control methods."""

    def __init__(self, runtime: ClusterNodeRuntime, host: str, port: int):
        super().__init__(runtime.server, host, port)
        self.runtime = runtime

    def _invoke(self, conn: _Connection, method: str, args: List[Any]) -> Any:
        rt = self.runtime
        if method == "get":
            return rt.client_get(args[0])
        if method == "put":
            key, value = args[:2]
            return rt.client_put(key, value)
        if method == "remove":
            return rt.client_remove(args[0])
        if method == "batch":
            from ..net import protocol

            return rt.client_batch(protocol.decode_batch_args(args[:2]))
        if method == "replica_batch":
            from ..net import protocol

            return rt.replica_batch(protocol.decode_batch_args(args[:2]))
        if method == "scan":
            first, last = args
            return RowBlock(rt.client_scan(first, last))
        if method == "scan_prefix":
            (prefix,) = args
            return RowBlock(rt.client_scan_prefix(prefix))
        if method == "count":
            first, last = args
            return rt.client_count(first, last)
        if method == "add_join":
            (text,) = args
            return rt.add_join(text)
        if method == "partition_map":
            pmap = rt.map
            return None if pmap is None else pmap.to_wire()
        if method == "install_map":
            wire, dead = (args[0], args[1]) if len(args) > 1 else (args[0], None)
            return rt.install_map(PartitionMap.from_wire(wire), dead)
        if method == "migrate_range":
            lo, hi, target, wire = args
            return rt.migrate_out(lo, hi, target, wire)  # coroutine
        if method == "cluster_settle":
            return rt.settle_counters()
        if method == "cluster_info":
            return rt.cluster_info()
        if method == "settle_cdc":
            return rt.settle_cdc()
        return super()._invoke(conn, method, args)


class PeerRpcServer(RpcServer):
    """The peer endpoint: node-to-node traffic on its own thread.

    Handlers answer from local state or enqueue to the main thread —
    they never call out to another node, which is what keeps the
    cluster's wait graph acyclic (see module docstring).
    """

    def __init__(self, runtime: ClusterNodeRuntime, host: str, port: int):
        super().__init__(runtime.server, host, port, metrics_source=False)
        self.runtime = runtime

    def _invoke(self, conn: _Connection, method: str, args: List[Any]) -> Any:
        rt = self.runtime
        if method == "fetch_range":
            subscriber, lo, hi = args
            return rt.serve_fetch(subscriber, lo, hi)
        if method == "peer_unsubscribe":
            subscriber, lo, hi = args
            return rt.serve_unsubscribe(subscriber, lo, hi)
        if method == "mirror_updates":
            src, body = args
            return rt.enqueue_mirror(src, body)
        if method == "migrate_install":
            lo, hi, keys, values = args
            return rt.run_on_main(
                lambda: rt.apply_migrate_install(lo, hi, keys, values)
            )
        if method == "migrate_tail":
            lo, hi, body = args
            return rt.run_on_main(lambda: rt.apply_migrate_tail(lo, hi, body))
        if method == "adopt_subscriptions":
            (entries,) = args
            return rt.adopt_subscriptions(entries)
        if method == "install_map":
            wire = args[0]
            return rt.run_on_main(
                lambda: rt.install_map(PartitionMap.from_wire(wire))
            )
        if method == "ping":
            return "pong"
        raise ValueError(f"peer endpoint does not serve {method!r}")
