"""The persistent backing store (paper §2).

Pequod sits in front of "a persistent backing store (typically a
database)".  The paper's deployments used PostgreSQL or a Pequod
process in the base-data role; experiments could not use real database
notification because of notification bottlenecks.

``BackingDatabase`` is a small ordered store with the properties the
cache design depends on:

* durable writes with insert/update/delete semantics: given a
  ``directory``, the database logs each write, a batch as one frame, in
  a :class:`~repro.persist.manager.DurableLog` — the write-through
  server's class and layout — and rebuilds from it on startup; a failed
  log refuses writes (``DurabilityError``) while reads go on,
* ordered range queries (the cache loads containing ranges in bulk),
* one change output: every committed write becomes a sequenced record
  on the database's in-memory :class:`~repro.cdc.feed.ChangeFeed`
  (Postgres logical replication, say), which a
  :class:`~repro.cdc.pump.CdcPump` tails into a cache,
* query/row accounting so benchmarks can charge database work.

It deliberately reuses the ordered-store substrate: a database shard in
the evaluation *is* a Pequod process absorbing writes (§5.5) — its
rows live in the same blocked sorted array as the cache's tables.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..cdc.feed import ChangeFeed
from ..core.operators import ChangeKind
from ..persist.manager import DurableLog
from ..persist.wal import FSYNC_BATCH
from ..store.sortedarray import SortedArrayMap

#: Counter prefix of the database log (WAL and segment counters alike).
LOG_PREFIX = "cdc_journal"


class BackingDatabase:
    """An ordered key-value database whose changes leave through its
    feed.

    With a ``directory`` every write is logged before it applies — a
    put or remove as a one-key frame, an :meth:`apply_batch` as one
    frame — in a :class:`~repro.persist.manager.DurableLog` (``log``)
    with counters under ``cdc_journal_``.  The rows are rebuilt from
    the log silently: the feed starts empty at sequence 1.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        *,
        fsync: str = FSYNC_BATCH,
        stats=None,
    ) -> None:
        self._tree = SortedArrayMap()
        self.feed = ChangeFeed(stats=stats)
        self.query_count = 0
        self.rows_returned = 0
        self.write_count = 0
        self.log: Optional[DurableLog] = None
        if directory is not None:
            self.log = DurableLog(directory, fsync, stats, LOG_PREFIX)
            live = self.log.take_live_rows()
            if live:
                self._tree.insert_run(*zip(*live))

    def __len__(self) -> int:
        return len(self._tree)

    # ------------------------------------------------------------------
    # Writes (the application's write path in write-around deployments)
    # ------------------------------------------------------------------
    def put(self, key: str, value: str) -> None:
        """Insert or update ``key``: log it, apply it, and record the
        change to the feed."""
        if not key:
            raise ValueError("keys must be non-empty")
        if self.log is not None:
            self.log.append([key], [value])
        self._apply(key, value)

    def remove(self, key: str) -> bool:
        if self.log is not None:
            self.log.append([key], [None])
        return self._apply(key, None)

    def apply_batch(self, ops) -> None:
        """Apply :class:`~repro.store.batch.BatchOp` s in order, logged
        as one frame, each recorded to the feed."""
        if self.log is not None and ops:
            self.log.append([op.key for op in ops], [op.value for op in ops])
        for op in ops:
            self._apply(op.key, op.value)

    def _apply(self, key: str, value: Optional[str]) -> bool:
        """Apply one logged write (None removes); False if it changed
        nothing."""
        self.write_count += 1
        if value is None:
            old = self._tree.remove(key)
            if old is None:
                return False
            self.feed.record(key, old, None, ChangeKind.REMOVE)
            return True
        old = self._tree.insert(key, value)
        if old is None:
            self.feed.record(key, None, value, ChangeKind.INSERT)
        else:
            self.feed.record(key, old, value, ChangeKind.UPDATE)
        return True

    # ------------------------------------------------------------------
    # Reads (the cache's miss path)
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[str]:
        self.query_count += 1
        value = self._tree.get(key)
        if value is not None:
            self.rows_returned += 1
        return value

    def query(self, lo: str, hi: str) -> List[Tuple[str, str]]:
        """All pairs with ``lo <= key < hi`` in order."""
        self.query_count += 1
        rows = self._tree.items(lo, hi)
        self.rows_returned += len(rows)
        return rows

    def scan_from(self, lo: str, limit: int) -> List[Tuple[str, str]]:
        """Up to ``limit`` pairs with ``key >= lo``, in order — the
        chunked scan the CDC pump's fenced backfill walks."""
        self.query_count += 1
        rows = self._tree.items_from(lo, limit)
        self.rows_returned += len(rows)
        return rows
