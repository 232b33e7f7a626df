"""The CDC pump: change records drive cache-join maintenance.

In a write-around deployment the cache never sees a write
synchronously — the application writes to the backing database, the
database appends to its :class:`~repro.cdc.feed.ChangeFeed`, and this
pump tails the feed and replays each batch into the cache's join
engine.  ``engine.apply_batch`` derives the *actual* (old, new) pair
from the cache's own store before notifying joins, which is what makes
the at-least-once feed safe: redelivering an already-applied record is
a no-op (or a correct net change), so deferred and redelivered
batches converge to the oracle state.

Cold caches converge through **fenced backfill**: the pump range-scans
the backing DB in chunks, and for every chunk remembers the feed's
high-water mark at scan time (the *fence*).  While tailing, a record
whose key falls in a scanned chunk with ``seq <= fence`` is skipped —
the snapshot already reflects it — and everything newer applies.
Records for keys *ahead* of the scan frontier are also skipped, because
the later chunk scan (which happens after the write, by construction)
will observe their effect.  The result: a cache backfilling under
concurrent write load loses no change and applies none twice.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from typing import Callable, List, Optional, Tuple

from ..core.operators import ChangeKind
from ..metrics import Histogram
from ..store.keys import key_successor
from .feed import ChangeFeed, ChangeRecord

__all__ = ["CdcPump", "LAG_BUCKETS"]

#: Propagation-lag buckets (write commit → cache apply), in seconds.
LAG_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

DEFAULT_BATCH_SIZE = 256
DEFAULT_CHUNK_SIZE = 512

#: ``settle`` aborts after this many consecutive zero-progress steps
#: (a chaos hook deferring every batch forever would otherwise spin).
_SETTLE_STALL_LIMIT = 1000


class CdcPump:
    """Tails a change feed and applies records to a join engine."""

    def __init__(
        self,
        db,
        feed: ChangeFeed,
        engine,
        *,
        consumer: str = "cache",
        batch_size: int = DEFAULT_BATCH_SIZE,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.db = db
        self.feed = feed
        self.engine = engine
        self.consumer = consumer
        self.cursor = feed.cursor(consumer)
        self.batch_size = batch_size
        self.chunk_size = chunk_size
        self.clock = clock
        self.lag = Histogram(LAG_BUCKETS)
        self.records_applied = 0
        self.records_skipped = 0
        self.batches_applied = 0
        self.backfill_rows = 0
        self.backfill_chunks = 0
        #: Optional fault hook (``repro.chaos.cdc_lag``): receives each
        #: fetched batch; returning a falsy value defers the batch
        #: without acking, so the feed redelivers it next step.
        self.chaos: Optional[Callable[[List[ChangeRecord]], object]] = None
        # Fenced-backfill state: sorted exclusive chunk upper bounds,
        # the parallel per-chunk fence sequences, and the fence covering
        # the scanned tail once backfill completes.
        self._fence_his: List[str] = []
        self._fences: List[int] = []
        self._tail_fence: Optional[int] = None
        #: Next chunk's start key while backfilling, else None.
        self._frontier: Optional[str] = None

    # ------------------------------------------------------------------
    # Backfill (cold-cache convergence)
    # ------------------------------------------------------------------
    @property
    def backfilling(self) -> bool:
        return self._frontier is not None

    def begin_backfill(self) -> None:
        """Start a fenced range scan of the backing DB."""
        self._frontier = ""
        self._fence_his = []
        self._fences = []
        self._tail_fence = None

    def backfill_step(self) -> int:
        """Scan and apply the next chunk; returns rows loaded.

        Exposed separately from :meth:`backfill` so tests can interleave
        concurrent writes between chunk scans.
        """
        if self._frontier is None:
            return 0
        rows = self.db.scan_from(self._frontier, self.chunk_size)
        fence = self.feed.high_water
        if rows:
            self.engine.apply_batch(list(rows))
            hi = key_successor(rows[-1][0])
            self._fence_his.append(hi)
            self._fences.append(fence)
            self._frontier = hi
            self.backfill_rows += len(rows)
            self.backfill_chunks += 1
        if len(rows) < self.chunk_size:
            # The terminating scan observed [frontier, inf) entirely, so
            # its fence covers every key past the last chunk bound too.
            self._tail_fence = fence
            self._frontier = None
        return len(rows)

    def backfill(self) -> int:
        """Run the whole backfill scan; returns total rows loaded."""
        if self._frontier is None:
            self.begin_backfill()
        total = 0
        while self._frontier is not None:
            total += self.backfill_step()
        return total

    def bootstrap(self) -> int:
        """Cold-start convergence: backfill, then drain to high-water
        (the fenced cut-over from snapshot to live tailing)."""
        self.begin_backfill()
        rows = 0
        while self._frontier is not None:
            rows += self.backfill_step()
        self.settle()
        return rows

    def _skip_for_backfill(self, rec: ChangeRecord) -> bool:
        if self._frontier is not None and rec.key >= self._frontier:
            # Ahead of the scan frontier: the chunk scan that will cover
            # this key runs later and its snapshot includes this write.
            return True
        i = bisect_right(self._fence_his, rec.key)
        if i < len(self._fences):
            return rec.seq <= self._fences[i]
        return self._tail_fence is not None and rec.seq <= self._tail_fence

    def _maybe_clear_fences(self) -> None:
        if self._frontier is not None or self._tail_fence is None:
            return
        horizon = max(self._fences, default=0)
        if self.cursor.acked >= max(horizon, self._tail_fence):
            self._fence_his = []
            self._fences = []
            self._tail_fence = None

    # ------------------------------------------------------------------
    # Tailing
    # ------------------------------------------------------------------
    def step(self, max_records: Optional[int] = None) -> int:
        """Fetch and apply one batch; returns records consumed."""
        limit = max_records if max_records is not None else self.batch_size
        records = self.feed.fetch(self.cursor.acked, limit)
        if not records:
            return 0
        if self.chaos is not None:
            records = self.chaos(records)
            if not records:
                return 0  # deferred, not acked: redelivered next step
        pairs: List[Tuple[str, Optional[str]]] = []
        for rec in records:
            if self._skip_for_backfill(rec):
                self.records_skipped += 1
                continue
            pairs.append(
                (rec.key, None if rec.kind is ChangeKind.REMOVE else rec.new)
            )
        if pairs:
            self.engine.apply_batch(pairs)
            self.batches_applied += 1
            self.records_applied += len(pairs)
        now = self.clock()
        for rec in records:
            self.lag.observe(max(0.0, now - rec.ts))
        self.feed.ack(self.cursor, records[-1].seq)
        self._maybe_clear_fences()
        return len(records)

    def settle(self) -> int:
        """Drain to the feed's high-water mark — the ``settle_cdc``
        barrier.  Returns records consumed.  Finishes an in-progress
        backfill first (the fences stay live for the tail drain)."""
        while self._frontier is not None:
            self.backfill_step()
        total = 0
        stalls = 0
        while self.cursor.acked < self.feed.high_water:
            n = self.step()
            total += n
            if n == 0:
                stalls += 1
                if stalls >= _SETTLE_STALL_LIMIT:
                    raise RuntimeError(
                        "settle_cdc made no progress for "
                        f"{_SETTLE_STALL_LIMIT} steps (cursor at "
                        f"{self.cursor.acked}, high water "
                        f"{self.feed.high_water})"
                    )
            else:
                stalls = 0
        return total

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def lag_records(self) -> int:
        """Records committed to the feed but not yet acknowledged."""
        return self.feed.depth(self.cursor)

    def lag_seconds(self) -> float:
        """Age of the oldest unapplied record (0.0 when caught up)."""
        ts = self.feed.oldest_pending_ts(self.cursor)
        if ts is None:
            return 0.0
        return max(0.0, self.clock() - ts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CdcPump {self.consumer!r} acked={self.cursor.acked} "
            f"high_water={self.feed.high_water} applied={self.records_applied}>"
        )
