"""The persistent backing store (paper §2).

Pequod sits in front of "a persistent backing store (typically a
database)".  The paper's deployments used PostgreSQL or a Pequod
process in the base-data role; experiments could not use real database
notification because of notification bottlenecks.

``BackingDatabase`` is a small ordered store with the properties the
cache design depends on:

* durable writes with insert/update/delete semantics: given a
  ``directory``, the database keeps its own log in the write-through
  server's WAL format, sealed and compacted by the same segment stack
  (:mod:`repro.persist`), and rebuilds from it on startup,
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

import os
from itertools import chain
from typing import List, Optional, Tuple

from ..cdc.feed import ChangeFeed
from ..core.operators import ChangeKind
from ..persist import manager
from ..persist.wal import FSYNC_BATCH, WriteAheadLog
from ..store.sortedarray import SortedArrayMap

#: Counter prefix of the database log (WAL and segment counters alike).
LOG_PREFIX = "cdc_journal"


class BackingDatabase:
    """An ordered key-value database whose changes leave through its
    feed.

    With a ``directory`` every write is logged before it applies, as a
    one-key WAL record sealed into ``segments/`` past
    :data:`~repro.persist.manager.CHECKPOINT_BYTES`, with counters under
    ``cdc_journal_``.  The rows are rebuilt from the segments, then the
    WAL, silently: the feed starts empty at sequence 1.
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
        self.wal: Optional[WriteAheadLog] = None
        if directory is None:
            return
        os.makedirs(directory, exist_ok=True)
        self.segments = manager.SegmentStack(
            os.path.join(directory, manager.SEGMENT_DIR), stats, LOG_PREFIX
        )
        # Segments first: a bad one raises before the WAL is open.
        sealed = list(self.segments.records())
        self.wal = WriteAheadLog(
            os.path.join(directory, manager.WAL_NAME), fsync, stats, LOG_PREFIX
        )
        live = manager.live_rows(chain(sealed, self.wal.replay()))
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
        self.write_count += 1
        node = self._tree.find_node(key)
        self._log(key, value)
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
        self._log(key, None)
        old = node.value
        self._tree.remove_node(node)
        self.feed.record(key, old, None, ChangeKind.REMOVE)
        return True

    def _log(self, key: str, value: Optional[str]) -> None:
        wal = self.wal
        if wal is not None:
            wal.append([key], [value])
            if wal.size >= manager.CHECKPOINT_BYTES:
                self.checkpoint()

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
    # Durability lifecycle (no-ops in memory)
    # ------------------------------------------------------------------
    @property
    def log_bytes(self) -> int:
        """Bytes of the log on disk: the WAL plus sealed segments."""
        return 0 if self.wal is None else self.wal.size + self.segments.file_bytes()

    def checkpoint(self) -> None:
        """Seal the WAL as the newest segment, then compact past the
        threshold (as :meth:`PersistenceManager.checkpoint
        <repro.persist.manager.PersistenceManager.checkpoint>` does)."""
        if self.wal is not None:
            self.wal = self.segments.seal(self.wal)
            self.segments.maybe_compact()

    def flush(self) -> None:
        if self.wal is not None:
            self.wal.flush()

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()

    def simulate_crash(self) -> int:
        """Chaos hook: drop log bytes written after the last fsync;
        returns bytes lost.  The database is unusable afterwards."""
        return self.wal.simulate_crash() if self.wal is not None else 0
