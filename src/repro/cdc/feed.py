"""The change feed: the backing database's only change output.

The paper's write-around deployment (§2) sends application writes to
the backing database and relies on asynchronous change notifications to
keep the cache fresh.  Every committed database write becomes a
monotonically sequenced :class:`ChangeRecord` in this feed, and
consumers (a :class:`~repro.cdc.pump.CdcPump`) tail it at their own
pace; there is no other path from the database to a cache.

* **Sequencing** — records get dense, strictly increasing sequence
  numbers; ``high_water`` is the last assigned one.  A consumer that
  has acknowledged ``s`` is guaranteed to see ``s+1, s+2, ...`` with no
  gaps (the barrier ``settle_cdc`` compares cursor positions against
  ``high_water``).
* **Retention** — a record stays queued until every cursor has
  acknowledged it (with no cursor attached, nothing is queued),
  bounded by ``max_pending``; past the bound the feed invokes its
  ``backpressure_hook`` (the write-around server points this at the
  pump) and, failing that, raises :class:`FeedOverflowError` instead
  of growing without limit.  A new cursor starts at what the queue
  still holds.
* **Durability** — none: the feed lives in memory.  The database owns
  durability (its own WAL and sealed segments, see
  :class:`~repro.backing.database.BackingDatabase`) and the feed only
  notifies, so a reopened database starts a fresh feed at sequence 1.
  A cache consumer is soft state — it rebuilds by fenced backfill — so
  nothing a cursor held needs to survive.
"""

from __future__ import annotations

import time
from collections import deque
from itertools import islice
from typing import Callable, Deque, Dict, List, Optional

from ..core.operators import ChangeKind

__all__ = ["ChangeFeed", "ChangeRecord", "FeedCursor", "FeedOverflowError"]

#: A feed holds at most this many unacknowledged records before
#: engaging backpressure.
DEFAULT_MAX_PENDING = 65536


class FeedOverflowError(RuntimeError):
    """A feed exceeded ``max_pending`` unacknowledged records and the
    backpressure hook (if any) could not drain it."""


class ChangeRecord:
    """One committed database change, as seen by the feed."""

    __slots__ = ("seq", "key", "old", "new", "kind", "ts")

    def __init__(
        self,
        seq: int,
        key: str,
        old: Optional[str],
        new: Optional[str],
        kind: ChangeKind,
        ts: float,
    ) -> None:
        self.seq = seq
        self.key = key
        self.old = old
        self.new = new
        self.kind = kind
        self.ts = ts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ChangeRecord #{self.seq} {self.kind.value} {self.key!r}>"


class FeedCursor:
    """A named consumer position: the highest acknowledged sequence."""

    __slots__ = ("name", "acked")

    def __init__(self, name: str, acked: int = 0):
        self.name = name
        self.acked = acked

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FeedCursor {self.name!r} acked={self.acked}>"


class ChangeFeed:
    """A sequenced change queue with named consumer cursors."""

    def __init__(
        self,
        *,
        max_pending: int = DEFAULT_MAX_PENDING,
        clock: Callable[[], float] = time.time,
        stats=None,
    ) -> None:
        self.max_pending = max_pending
        self.clock = clock
        self.stats = stats
        self.next_seq = 1
        #: Sequences ``<= trimmed_through`` are no longer queued.
        self.trimmed_through = 0
        self._ring: Deque[ChangeRecord] = deque()
        self.cursors: Dict[str, FeedCursor] = {}
        #: Called when the feed exceeds ``max_pending``; the
        #: write-around server points this at the pump's ``step``.
        self.backpressure_hook: Optional[Callable[[], object]] = None

    # ------------------------------------------------------------------
    # Producing
    # ------------------------------------------------------------------
    @property
    def high_water(self) -> int:
        """The last assigned sequence number (0 before any record)."""
        return self.next_seq - 1

    def record(
        self,
        key: str,
        old: Optional[str],
        new: Optional[str],
        kind: ChangeKind,
    ) -> ChangeRecord:
        """Append one committed change; returns the sequenced record."""
        rec = ChangeRecord(self.next_seq, key, old, new, kind, self.clock())
        self.next_seq += 1
        if self.stats is not None:
            self.stats.add("cdc_records")
        if not self.cursors:
            self.trimmed_through = rec.seq  # nobody to deliver it to
            return rec
        self._ring.append(rec)
        if len(self._ring) > self.max_pending:
            hook = self.backpressure_hook
            if hook is not None:
                hook()
            if len(self._ring) > self.max_pending:
                raise FeedOverflowError(
                    f"change feed holds {len(self._ring)} unacknowledged "
                    f"records (max_pending={self.max_pending}) and no "
                    "consumer is draining it"
                )
        return rec

    # ------------------------------------------------------------------
    # Consuming
    # ------------------------------------------------------------------
    def cursor(self, name: str) -> FeedCursor:
        """The named consumer cursor, created on first use at the
        oldest record still queued."""
        cur = self.cursors.get(name)
        if cur is None:
            cur = self.cursors[name] = FeedCursor(name, self.trimmed_through)
        return cur

    def fetch(self, after_seq: int, limit: int = 256) -> List[ChangeRecord]:
        """Up to ``limit`` records with ``seq > after_seq``, in order."""
        start = after_seq - self.trimmed_through
        if start < 0:
            raise FeedOverflowError(
                f"records after seq {after_seq} were trimmed from the "
                "feed; the consumer must backfill"
            )
        return list(islice(self._ring, start, start + limit))

    def ack(self, cursor: FeedCursor, seq: int) -> None:
        """Acknowledge everything up to ``seq`` for ``cursor``, and drop
        the records every cursor has now acknowledged."""
        if seq <= cursor.acked:
            return
        cursor.acked = seq
        floor = min(cur.acked for cur in self.cursors.values())
        ring = self._ring
        while ring and ring[0].seq <= floor:
            self.trimmed_through = ring.popleft().seq

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending_records(self) -> int:
        """Records queued (the ring depth)."""
        return len(self._ring)

    def depth(self, cursor: FeedCursor) -> int:
        """Records the cursor has not acknowledged yet."""
        return self.high_water - cursor.acked

    def oldest_pending_ts(self, cursor: FeedCursor) -> Optional[float]:
        """Timestamp of the oldest record the cursor has not
        acknowledged, or None when it is caught up."""
        idx = cursor.acked - self.trimmed_through
        if 0 <= idx < len(self._ring):
            return self._ring[idx].ts
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ChangeFeed high_water={self.high_water} "
            f"ring={len(self._ring)} cursors={len(self.cursors)}>"
        )
