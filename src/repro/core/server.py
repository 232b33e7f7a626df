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
from ..store.keys import prefix_upper_bound
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
      §4.3's value sharing is not a parameter: a copy output holds its
      source's string, and a table a copy join writes into charges
      each string a pointer (:mod:`repro.store.values`).  §4.2's
      output hints are not implemented: on the sorted-array store a
      hint costs a locate on top of the insert it would skip.
    * ``memory_limit`` — optional byte budget; exceeding it evicts
      least-recently-used ranges (§2.5).
    * ``clock`` — injectable time source for snapshot joins.
    * ``overload_policy`` — optional :class:`OverloadPolicy`; when set,
      every operation passes admission control (shed with
      ``OverloadError``, or degrade to bounded-staleness reads).
    * ``data_dir`` — when set, client writes are journaled to a WAL,
      which checkpoints seal as segment files under this directory, and the
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
      convergence barrier.  With a ``data_dir`` the database keeps its
      own log under ``data_dir/db`` (a :class:`~repro.persist.DurableLog`,
      as the write-through WAL is): startup rebuilds the database from
      it, and the cache rebuilds by fenced backfill.  Either log is
      fail-stop: after an I/O error every write raises
      ``DurabilityError`` while reads go on.
    """

    def __init__(
        self,
        subtable_config: Optional[Dict[str, int]] = None,
        clock: Optional[Clock] = None,
        memory_limit: Optional[int] = None,
        stats: Optional[StoreStats] = None,
        name: str = "pequod",
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
        self.store = OrderedStore(subtable_config, stats=self.stats)
        self.engine = JoinEngine(self.store, clock=self.clock, stats=self.stats)
        self.eviction = EvictionManager(self.engine, memory_limit)
        self.load: Optional[AdmissionController] = (
            AdmissionController(self.engine, overload_policy)
            if overload_policy is not None
            else None
        )
        self.persist = None
        self.backing = None
        self.cdc = None
        if mode == "write-around":
            import os as _os

            from ..backing.database import BackingDatabase
            from ..cdc import CdcPump
            from ..persist import DataDirError

            if data_dir and _os.path.exists(_os.path.join(data_dir, "cdc", "feed.log")):
                raise DataDirError(
                    f"{data_dir} holds cdc/feed.log, the older write-around "
                    "layout, which this build cannot recover"
                )
            # Write-around durability lives in the database's own log,
            # which rebuilds the database; the cache is rebuilt by
            # backfill.
            self.backing = BackingDatabase(
                data_dir and _os.path.join(data_dir, "db"),
                fsync=wal_fsync,
                stats=self.stats,
            )
            self.cdc = CdcPump(self.backing, self.backing.feed, self.engine)
            # A cold cache converges via fenced backfill before tailing.
            self.cdc.bootstrap()
            # If writers outrun maintenance, the feed drains through the
            # pump instead of growing without bound.
            self.backing.feed.backpressure_hook = self.cdc.step
        elif data_dir is not None:
            from ..persist import PersistenceManager

            self.persist = PersistenceManager(data_dir, wal_fsync, self.stats)
            # Recovery runs before any join is installed, so only base
            # data is rebuilt; computed ranges start untracked and
            # recompute on first demand.
            self.persist.recover_into(self.store)
        #: The one durable log this server writes: the cache's WAL, or
        #: on a write-around server the database's (None in memory).
        self.log = self.backing.log if self.backing is not None else self.persist
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
        value = self.engine.get(key)
        self.eviction.maybe_evict()
        return value

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
            self.persist.append([key], [None])
        present = self.engine.apply_remove(key)
        self.eviction.maybe_evict()
        return present

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
            self.backing.apply_batch(ops)
            self._maybe_pump()
            return len(ops)
        if self.persist is not None:
            batch = as_ops(batch)
            self.persist.log_ops(batch)
        applied = self.engine.apply_batch(batch)
        self.eviction.maybe_evict()
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
        if self.log is not None:
            self.log.flush()

    def checkpoint(self) -> None:
        """Seal the WAL — the cache's, or on a write-around server the
        database's — as a segment now and start a fresh one (no-op
        without a ``data_dir``).  Nothing is re-encoded: the WAL is
        fsynced under every policy and renamed into the segment stack,
        so checkpointed writes survive a crash even with
        ``wal_fsync="off"``; recovery replays the same records either
        way."""
        if self.log is not None:
            self.log.checkpoint()

    def close(self) -> None:
        """Flush and release durable state — the graceful-shutdown path
        (``repro serve`` calls this on SIGTERM/SIGINT).  Safe to call
        twice, and on a failed log; the server must not be written to
        afterwards."""
        if self.log is not None:
            self.log.close()

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
