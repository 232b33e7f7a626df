"""The Pequod server: the public single-node API (paper §2).

``PequodServer`` is an ordered key-value cache with string keys and
values supporting the four basic operations — ``get``, ``put``,
``remove``, ``scan`` — plus ``add_join`` for installing cache joins.
Like the paper's prototype it is single-threaded; the distributed layer
(``repro.distrib``) composes several servers over a network.

Example (the Twip timeline join from §2.2)::

    srv = PequodServer()
    srv.add_join("t|<user>|<time>|<poster> = "
                 "check s|<user>|<poster> copy p|<poster>|<time>")
    srv.put("s|ann|bob", "1")          # ann follows bob
    srv.put("p|bob|0100", "hello!")    # bob tweets at time 0100
    srv.scan("t|ann|", "t|ann}")       # -> [("t|ann|0100|bob", "hello!")]
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..store.batch import WriteBatch, as_ops
from ..store.keys import key_successor, prefix_upper_bound
from ..store.stats import StoreStats
from ..store.store import OrderedStore
from .clock import Clock, SystemClock
from .eviction import EvictionManager
from .executor import ChangeListener, DataResolver, JoinEngine
from .grammar import parse_joins
from .hub import ChangeHub, EventSink, WatchHandle
from .joins import CacheJoin
from .load import AdmissionController, OverloadPolicy


class PequodServer:
    """A single Pequod cache server.

    Parameters mirror the paper's tunables:

    * ``subtable_config`` — developer-marked subtable boundaries per
      table (§4.1), e.g. ``{"t": 2}`` for one subtable per timeline.
    * ``enable_sharing`` / ``enable_hints`` — the §4.2/§4.3
      optimizations; the client-Pequod baseline (§5.2,
      ``baselines.client_pequod``) turns both off.
    * ``memory_limit`` — optional byte budget; exceeding it evicts
      least-recently-used ranges (§2.5).
    * ``clock`` — injectable time source for snapshot joins.
    * ``store_impl`` — the ordered map backing the data plane
      (``"rbtree"``, ``"sortedarray"``, or ``"disk"`` for the
      value-spilling tier; None picks the default).
    * ``overload_policy`` — optional :class:`OverloadPolicy`; when set,
      every operation passes admission control (shed with
      ``OverloadError``, or degrade to bounded-staleness reads).
    * ``data_dir`` — when set, client writes are journaled to a WAL and
      checkpointed into segment files under this directory, and the
      server recovers prior durable state on startup.  Joins installed
      afterwards recompute from the recovered base data on demand —
      computed output is never persisted.
    * ``wal_fsync`` — the WAL durability policy (``"always"``,
      ``"batch"``, or ``"off"``; see :mod:`repro.persist.wal`).
    * ``mode`` — the deployment shape (§2).  ``"write-through"`` (the
      default) applies client writes to the cache synchronously.
      ``"write-around"`` routes puts/removes to an internal
      :class:`~repro.backing.database.BackingDatabase` instead; a
      change feed + :class:`~repro.cdc.pump.CdcPump` replay them into
      the cache asynchronously, and :meth:`settle_cdc` is the
      convergence barrier.  With a ``data_dir`` the change feed is the
      durable record (journaled under ``data_dir/cdc``) and the cache
      rebuilds by fenced backfill on startup.
    """

    def __init__(
        self,
        subtable_config: Optional[Dict[str, int]] = None,
        clock: Optional[Clock] = None,
        enable_sharing: bool = True,
        enable_hints: bool = True,
        memory_limit: Optional[int] = None,
        eviction_policy: str = "lru",
        stats: Optional[StoreStats] = None,
        name: str = "pequod",
        store_impl=None,
        overload_policy: Optional[OverloadPolicy] = None,
        data_dir: Optional[str] = None,
        wal_fsync: str = "batch",
        mode: str = "write-through",
    ) -> None:
        if mode not in ("write-through", "write-around"):
            raise ValueError(
                f"unknown deployment mode {mode!r}; expected "
                "'write-through' or 'write-around'"
            )
        self.name = name
        self.mode = mode
        self.stats = stats if stats is not None else StoreStats()
        self.clock = clock if clock is not None else SystemClock()
        self.data_dir = data_dir
        if store_impl == "disk":
            # Construct the factory here rather than via resolve_map_impl
            # so the spill tier lands under the data dir (or a temp dir)
            # and shares the server's stats.
            import os

            from ..store.diskmap import DiskMapFactory

            store_impl = DiskMapFactory(
                directory=(
                    os.path.join(data_dir, "spill") if data_dir else None
                ),
                stats=self.stats,
            )
        self.store = OrderedStore(
            subtable_config, stats=self.stats, map_impl=store_impl
        )
        self.engine = JoinEngine(
            self.store,
            clock=self.clock,
            stats=self.stats,
            enable_sharing=enable_sharing,
            enable_hints=enable_hints,
        )
        self.eviction = EvictionManager(
            self.engine,
            memory_limit,
            policy=eviction_policy,
            spill=self.store.supports_spill(),
        )
        self.load: Optional[AdmissionController] = (
            AdmissionController(self.engine, overload_policy)
            if overload_policy is not None
            else None
        )
        if data_dir is not None and mode != "write-around":
            from ..persist import PersistenceManager

            self.persist: Optional[PersistenceManager] = PersistenceManager(
                data_dir, fsync=wal_fsync, stats=self.stats
            )
            # Recovery runs before any join is installed, so only base
            # data is rebuilt; computed ranges start untracked and
            # recompute on first demand.
            self.persist.recover_into(self.store)
        else:
            # Write-around durability lives in the CDC journal, not the
            # cache WAL: the cache is rebuilt by backfill on startup.
            self.persist = None
        self.backing = None
        self.cdc = None
        if mode == "write-around":
            import os as _os

            from ..backing.database import BackingDatabase
            from ..cdc import CdcPump, ChangeFeed

            feed = ChangeFeed(
                _os.path.join(data_dir, "cdc") if data_dir else None,
                fsync=wal_fsync,
                stats=self.stats,
            )
            self.backing = BackingDatabase(store_impl=None, feed=None)
            # Replay the journal (if any) to rebuild the DB a previous
            # process accumulated, then start recording live writes.
            self.backing.attach_feed(feed, replay=True)
            self.cdc = CdcPump(self.backing, feed, self.engine)
            # A cold cache converges via fenced backfill before tailing.
            self.cdc.bootstrap()
            # If writers outrun maintenance, the feed drains through the
            # pump instead of growing without bound.
            feed.backpressure_hook = self.cdc.step
        self._hub: Optional[ChangeHub] = None
        self._metrics = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PequodServer {self.name!r} keys={len(self.store)}>"

    # ------------------------------------------------------------------
    # Cache joins
    # ------------------------------------------------------------------
    def add_join(
        self, join: Union[str, CacheJoin, Sequence[CacheJoin]]
    ) -> List[CacheJoin]:
        """Install one or more cache joins.

        Accepts join text in the Figure-2 grammar (possibly several
        joins separated by ``;``), a :class:`CacheJoin`, a fluent
        :class:`~repro.client.builder.JoinBuilder` (anything with a
        ``build()`` compiling to a join), or a sequence of them.
        Returns the installed joins.
        """
        if isinstance(join, str):
            parsed: List[CacheJoin] = parse_joins(join)
        elif isinstance(join, CacheJoin):
            parsed = [join]
        elif hasattr(join, "build"):
            parsed = [join.build()]
        else:
            parsed = [
                item.build() if hasattr(item, "build") else item
                for item in join
            ]
        # Validate the whole batch before installing any of it, so a
        # failing statement cannot leave a partial install behind.
        accepted: List[CacheJoin] = []
        for item in parsed:
            self.engine.validate_join(item, pending=accepted)
            accepted.append(item)
        for item in parsed:
            self.engine.add_join(item, validate=False)
        return parsed

    @property
    def joins(self) -> List[CacheJoin]:
        return list(self.engine.joins)

    # ------------------------------------------------------------------
    # The four basic operations (§2)
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[str]:
        """The value for ``key``, computing overlapping joins on demand."""
        if self.load is not None:
            self.load.admit_read()
        self.stats.add("op_get")
        return self.engine.get(key)

    def put(self, key: str, value: str) -> None:
        """Write ``key``; incremental maintenance runs before returning
        (write-through) or asynchronously via the CDC pump
        (write-around, where the write goes to the backing DB only)."""
        if not isinstance(value, str):
            raise TypeError("Pequod values are strings")
        if self.load is not None:
            self.load.admit_write()
        self.stats.add("op_put")
        if self.backing is not None:
            self.backing.put(key, value)
            self._maybe_pump()
            return
        if self.persist is not None:
            self.persist.log_put(key, value)
        self.engine.apply_put(key, value)
        self.eviction.maybe_evict()
        if self.persist is not None:
            self.persist.maybe_checkpoint()

    def remove(self, key: str) -> bool:
        """Remove ``key``; returns True if it was present."""
        if self.load is not None:
            self.load.admit_write()
        self.stats.add("op_remove")
        if self.backing is not None:
            present = self.backing.remove(key)
            self._maybe_pump()
            return present
        if self.persist is not None:
            self.persist.log_remove(key)
        return self.engine.apply_remove(key)

    def write_batch(self) -> WriteBatch:
        """A maintenance-aware write batch bound to this server.

        Buffered writes coalesce per key and apply as one batched
        maintenance pass (see ``repro.store.batch``)::

            with srv.write_batch() as batch:
                batch.put("p|bob|0100", "hello")
                batch.put("p|bob|0101", "again")
        """
        return WriteBatch(sink=self)

    def apply_batch(self, batch) -> int:
        """Apply a :class:`WriteBatch` (or operation iterable) at once.

        Incremental maintenance runs once per affected updater range
        instead of once per write; returns the number of net changes.
        """
        if self.load is not None:
            self.load.admit_write()
        self.stats.add("op_batch")
        if self.backing is not None:
            ops = as_ops(batch)
            for op in ops:
                if op.kind == "put":
                    self.backing.put(op.key, op.value)
                else:
                    self.backing.remove(op.key)
            self._maybe_pump()
            return len(ops)
        if self.persist is not None:
            ops = as_ops(batch)
            self.persist.log_ops(ops)
            batch = ops
        applied = self.engine.apply_batch(batch)
        self.eviction.maybe_evict()
        if self.persist is not None:
            self.persist.maybe_checkpoint()
        return applied

    def put_many(self, pairs: Sequence[Tuple[str, str]]) -> int:
        """Batch-write ``(key, value)`` pairs; returns changes applied."""
        return self.apply_batch(WriteBatch().update(pairs))

    def scan(self, first: str, last: str) -> List[Tuple[str, str]]:
        """Ordered pairs with ``first <= key < last`` (§2's scan)."""
        if self.load is not None:
            self.load.admit_read()
        self.stats.add("op_scan")
        results = self.engine.scan(first, last)
        self.eviction.maybe_evict()
        return results

    # ------------------------------------------------------------------
    # Convenience forms used throughout the applications
    # ------------------------------------------------------------------
    def scan_prefix(self, prefix: str) -> List[Tuple[str, str]]:
        """All pairs whose keys start with ``prefix``."""
        return self.scan(prefix, prefix_upper_bound(prefix))

    def count(self, first: str, last: str) -> int:
        return len(self.scan(first, last))

    def exists(self, key: str) -> bool:
        return self.get(key) is not None

    def get_range(self, key: str) -> List[Tuple[str, str]]:
        return self.scan(key, key_successor(key))

    # ------------------------------------------------------------------
    # Integration points
    # ------------------------------------------------------------------
    def add_listener(self, listener: ChangeListener) -> None:
        """Observe every store change (used for subscriptions, §2.4)."""
        self.engine.listeners.append(listener)

    @property
    def hub(self) -> ChangeHub:
        """The server's change hub (§2.4's push model, client-facing).

        Attached to the engine's listener chain on first use, so
        servers nobody watches pay nothing on the write path.
        """
        if self._hub is None:
            self.attach_hub()
        return self._hub

    def attach_hub(self, gate=None) -> ChangeHub:
        """Attach the change hub now, optionally behind ``gate``.

        ``gate(key, old, new, kind) -> bool`` filters which committed
        changes become watch events.  Cluster nodes install one before
        serving: replica and mirror applies re-play changes whose
        events already fired at the range owner, and the gate is what
        keeps a cluster-wide watch exactly-once.  Must be called
        before the first ``watch``; the lazy :attr:`hub` property is
        the ungated default.
        """
        if self._hub is not None:
            raise RuntimeError("change hub is already attached")
        self._hub = ChangeHub()
        if gate is None:
            self.add_listener(self._hub.publish)
        else:
            hub = self._hub

            def publish(key, old, new, kind):
                if gate(key, old, new, kind):
                    hub.publish(key, old, new, kind)

            self.add_listener(publish)
        return self._hub

    def watch(self, lo: str, hi: str, sink: EventSink) -> WatchHandle:
        """Push every future committed change in ``[lo, hi)`` — client
        writes and maintained join outputs alike — to ``sink``, exactly
        once, in commit order (per key: key-version order)."""
        return self.hub.watch(lo, hi, sink)

    def set_resolver(self, resolver: Optional[DataResolver]) -> None:
        """Install the missing-data resolver (§3.3)."""
        self.engine.resolver = resolver

    def memory_bytes(self) -> int:
        return self.engine.memory_bytes()

    def key_count(self) -> int:
        return len(self.store)

    # ------------------------------------------------------------------
    # Write-around / CDC
    # ------------------------------------------------------------------
    def _maybe_pump(self) -> None:
        """Opportunistically apply a pending batch once enough change
        records accumulate — keeps staleness bounded under sustained
        write load without making any single write synchronous."""
        cdc = self.cdc
        if cdc is not None and cdc.lag_records >= cdc.batch_size:
            cdc.step()

    def settle_cdc(self) -> int:
        """Drain the change feed into the cache — the write-around
        convergence barrier (compare: pgcache's ``wait_for_cdc``).
        Blocks until the pump's cursor reaches the feed's high-water
        mark; returns records consumed.  A no-op (0) outside
        write-around mode, so callers need not branch per deployment."""
        if self.cdc is None:
            return 0
        consumed = self.cdc.settle()
        self.eviction.maybe_evict()
        return consumed

    # ------------------------------------------------------------------
    # Durability lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Force all acknowledged writes to durable storage (no-op
        without a ``data_dir``)."""
        if self.persist is not None:
            self.persist.flush()
        if self.cdc is not None:
            self.cdc.feed.flush()

    def checkpoint(self) -> None:
        """Fold the WAL into a checkpoint segment now (no-op without a
        ``data_dir``); startup recovery gets cheaper, the WAL empties."""
        if self.persist is not None:
            self.persist.checkpoint()

    def close(self) -> None:
        """Flush and release durable state — the graceful-shutdown path
        (``repro serve`` calls this on SIGTERM/SIGINT).  Safe to call
        twice; the server must not be written to afterwards."""
        if self.persist is not None:
            self.persist.close()
        if self.cdc is not None:
            self.cdc.feed.close()
        factory = self.store._map_factory
        if getattr(factory, "spill_store", None) is not None:
            factory.close()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def metrics(self):
        """The server's scrape-time metric registry (lazy; a server
        nobody scrapes never builds it)."""
        if self._metrics is None:
            from ..metrics import ServerMetrics

            self._metrics = ServerMetrics(self)
        return self._metrics

    def metrics_snapshot(self) -> Dict[str, float]:
        """Flat stats superset: every raw counter plus the derived
        per-join / per-table / backlog / overload series."""
        return self.metrics.snapshot()

    def metrics_text(self) -> str:
        """The Prometheus exposition rendering of the snapshot."""
        return self.metrics.prometheus()
