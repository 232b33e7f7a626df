"""The persistent backing store (paper §2).

Pequod sits in front of "a persistent backing store (typically a
database)".  The paper's deployments used PostgreSQL or a Pequod
process in the base-data role; experiments could not use real database
notification because of notification bottlenecks.

``BackingDatabase`` is a small ordered store with the properties the
cache design depends on:

* durable-looking writes with insert/update/delete semantics,
* ordered range queries (the cache loads containing ranges in bulk),
* change notifications on subscribed ranges (Postgres ``notify``),
  as watches on a :class:`~repro.core.hub.ChangeHub`,
* a change-data-capture hook: attach a
  :class:`~repro.cdc.feed.ChangeFeed` and every committed write becomes
  a sequenced, optionally journaled record that the write-around
  deployment's :class:`~repro.cdc.pump.CdcPump` tails (see
  :mod:`repro.cdc`),
* query/row accounting so benchmarks can charge database work.

It deliberately reuses the ordered-store substrate: a database shard in
the evaluation *is* a Pequod process absorbing writes (§5.5) — its
rows live in the same blocked sorted array as the cache's tables.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.hub import ChangeHub, EventSink, WatchHandle
from ..core.operators import ChangeKind
from ..store.sortedarray import SortedArrayMap


class BackingDatabase:
    """An ordered key-value database with range notifications and CDC."""

    def __init__(self, feed=None) -> None:
        self._tree = SortedArrayMap()
        self.hub = ChangeHub()
        self.feed = feed
        self.query_count = 0
        self.rows_returned = 0
        self.write_count = 0

    def __len__(self) -> int:
        return len(self._tree)

    # ------------------------------------------------------------------
    # Change data capture
    # ------------------------------------------------------------------
    def attach_feed(self, feed, replay: bool = False) -> None:
        """Attach a :class:`~repro.cdc.feed.ChangeFeed`; every committed
        write from here on is sequenced into it.

        With ``replay=True`` the feed's retained records (the durable
        journal, on a restarted deployment) are first applied to the
        tree silently — no notifications, no re-recording — rebuilding
        the database state the journal describes.
        """
        if replay:
            for rec in feed.replay():
                if rec.kind is ChangeKind.REMOVE:
                    node = self._tree.find_node(rec.key)
                    if node is not None:
                        self._tree.remove_node(node)
                else:
                    node = self._tree.find_node(rec.key)
                    if node is None:
                        self._tree.insert(rec.key, rec.new)
                    else:
                        node.value = rec.new
        self.feed = feed

    # ------------------------------------------------------------------
    # Writes (the application's write path in write-around deployments)
    # ------------------------------------------------------------------
    def put(self, key: str, value: str) -> None:
        """Insert or update ``key``; record to the feed and notify."""
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
        if self.feed is not None:
            self.feed.record(key, old, value, kind)
        self.hub.publish(key, old, value, kind)

    def remove(self, key: str) -> bool:
        self.write_count += 1
        node = self._tree.find_node(key)
        if node is None:
            return False
        old = node.value
        self._tree.remove_node(node)
        if self.feed is not None:
            self.feed.record(key, old, None, ChangeKind.REMOVE)
        self.hub.publish(key, old, None, ChangeKind.REMOVE)
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

    # ------------------------------------------------------------------
    # Notifications
    # ------------------------------------------------------------------
    def subscribe(self, lo: str, hi: str, sink: EventSink) -> WatchHandle:
        """Forward future changes in ``[lo, hi)`` to the cache, before
        each write returns."""
        return self.hub.watch(lo, hi, sink)
