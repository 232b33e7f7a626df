"""The persistent backing store (paper §2).

Pequod sits in front of "a persistent backing store (typically a
database)".  The paper's deployments used PostgreSQL or a Pequod
process in the base-data role; experiments could not use real database
notification because of notification bottlenecks.

``BackingDatabase`` is a small ordered store with the properties the
cache design depends on:

* durable-looking writes with insert/update/delete semantics,
* ordered range queries (the cache loads containing ranges in bulk),
* one change output: every committed write becomes a sequenced record
  on the database's :class:`~repro.cdc.feed.ChangeFeed` (Postgres
  logical replication, say), which a :class:`~repro.cdc.pump.CdcPump`
  tails into a cache; journaled, the feed is also the database's log,
  replayed on startup,
* query/row accounting so benchmarks can charge database work.

It deliberately reuses the ordered-store substrate: a database shard in
the evaluation *is* a Pequod process absorbing writes (§5.5) — its
rows live in the same blocked sorted array as the cache's tables.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..cdc.feed import ChangeFeed
from ..core.operators import ChangeKind
from ..store.sortedarray import SortedArrayMap


class BackingDatabase:
    """An ordered key-value database whose changes leave through its
    feed.

    ``feed`` defaults to an in-memory :class:`ChangeFeed`; a journaled
    one rebuilds the database from its journal here, silently (nothing
    is re-recorded).
    """

    def __init__(self, feed: Optional[ChangeFeed] = None) -> None:
        self._tree = SortedArrayMap()
        self.feed = feed if feed is not None else ChangeFeed()
        self.query_count = 0
        self.rows_returned = 0
        self.write_count = 0
        for rec in self.feed.replay():
            node = self._tree.find_node(rec.key)
            if rec.kind is ChangeKind.REMOVE:
                if node is not None:
                    self._tree.remove_node(node)
            elif node is None:
                self._tree.insert(rec.key, rec.new)
            else:
                node.value = rec.new

    def __len__(self) -> int:
        return len(self._tree)

    # ------------------------------------------------------------------
    # Writes (the application's write path in write-around deployments)
    # ------------------------------------------------------------------
    def put(self, key: str, value: str) -> None:
        """Insert or update ``key`` and record the change to the feed."""
        if not key:
            raise ValueError("keys must be non-empty")
        self.write_count += 1
        node = self._tree.find_node(key)
        if node is None:
            self._tree.insert(key, value)
            old, kind = None, ChangeKind.INSERT
        else:
            old, kind = node.value, ChangeKind.UPDATE
            node.value = value
        self.feed.record(key, old, value, kind)

    def remove(self, key: str) -> bool:
        self.write_count += 1
        node = self._tree.find_node(key)
        if node is None:
            return False
        old = node.value
        self._tree.remove_node(node)
        self.feed.record(key, old, None, ChangeKind.REMOVE)
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
        rows = list(self._tree.items(lo, hi))
        self.rows_returned += len(rows)
        return rows

    def scan_from(self, lo: str, limit: int) -> List[Tuple[str, str]]:
        """Up to ``limit`` pairs with ``key >= lo``, in order — the
        chunked scan the CDC pump's fenced backfill walks."""
        self.query_count += 1
        rows: List[Tuple[str, str]] = []
        for key, value in self._tree.items(lo, None):
            rows.append((key, value))
            if len(rows) >= limit:
                break
        self.rows_returned += len(rows)
        return rows

    def count(self, lo: str, hi: str) -> int:
        return self._tree.count_range(lo, hi)
