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
* **Retention** — one rule, journaled or not: a record stays queued
  until every cursor has acknowledged it (with no cursor attached,
  nothing is queued), bounded by ``max_pending``; past the bound the
  feed invokes its ``backpressure_hook`` (the write-around server
  points this at the pump) and, failing that, raises
  :class:`FeedOverflowError` instead of growing without limit.  A new
  cursor starts at what the queue still holds.
* **Durability** — with a ``directory``, records also append to a
  journal written by the WAL's own writer (length + crc32 frames,
  wire-codec payload, the WAL's fsync policies and torn-tail
  truncation; see :mod:`repro.persist.wal`).  The journal is the
  database's log, not a consumer's: on startup it is read once to
  rebuild the database (:meth:`ChangeFeed.replay`), and the feed starts
  empty at the next sequence number.  A cache consumer is soft state —
  it rebuilds by fenced backfill — so cursors are never persisted.
"""

from __future__ import annotations

import os
import time
from collections import deque
from itertools import islice
from typing import Callable, Deque, Dict, List, Optional

from ..core.operators import ChangeKind
from ..net.codec import decode, encode
from ..persist.wal import FSYNC_BATCH, FSYNC_MODES, WriteAheadLog

__all__ = [
    "ChangeFeed",
    "ChangeRecord",
    "FeedCursor",
    "FeedOverflowError",
    "JOURNAL_FILE",
]

JOURNAL_FILE = "feed.log"

#: A feed holds at most this many unacknowledged records before
#: engaging backpressure.
DEFAULT_MAX_PENDING = 65536

# ChangeKind members carry string values and enums don't cross the wire
# codec; journal payloads store these small ints instead.
_KIND_CODE = {ChangeKind.INSERT: 0, ChangeKind.UPDATE: 1, ChangeKind.REMOVE: 2}
_CODE_KIND = {code: kind for kind, code in _KIND_CODE.items()}


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

    def encode(self) -> bytes:
        return encode(
            [self.seq, self.key, self.old, self.new, _KIND_CODE[self.kind], self.ts]
        )

    @classmethod
    def from_payload(cls, payload: bytes) -> "ChangeRecord":
        seq, key, old, new, code, ts = decode(payload)
        return cls(seq, key, old, new, _CODE_KIND[code], ts)

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
        directory: Optional[str] = None,
        *,
        max_pending: int = DEFAULT_MAX_PENDING,
        fsync: str = FSYNC_BATCH,
        clock: Callable[[], float] = time.time,
        stats=None,
    ) -> None:
        if fsync not in FSYNC_MODES:
            raise ValueError(
                f"unknown fsync policy {fsync!r}; expected one of {FSYNC_MODES}"
            )
        self.directory = directory
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
        self._journal: Optional[WriteAheadLog] = None
        self._recovered: List[ChangeRecord] = []
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            self._journal = WriteAheadLog(
                os.path.join(directory, JOURNAL_FILE),
                fsync=fsync,
                stats=stats,
                prefix="cdc_journal",
            )
            # The writer truncates a torn tail.  Everything journaled is
            # already in the database this log rebuilds, so nothing is
            # queued: the feed continues after the last record.
            self._recovered = self._journal.replay(ChangeRecord.from_payload)
            if self._recovered:
                self.next_seq = self._recovered[-1].seq + 1
                self.trimmed_through = self.high_water

    # ------------------------------------------------------------------
    # Producing
    # ------------------------------------------------------------------
    @property
    def journal_bytes(self) -> int:
        """Bytes in the durable journal (0 in memory)."""
        return self._journal.size if self._journal is not None else 0

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
        if self._journal is not None:
            self._journal.append_payload(rec.encode())
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

    def replay(self) -> List[ChangeRecord]:
        """The journal's records as read when the feed opened, oldest
        first, handed over once: the database rebuilds from them on
        startup.  Empty in memory, and on every later call."""
        records, self._recovered = self._recovered, []
        return records

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
    # Introspection / lifecycle
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

    def flush(self) -> None:
        if self._journal is not None:
            self._journal.flush()

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()

    def simulate_crash(self) -> int:
        """Chaos hook: drop journal bytes written after the last fsync
        (:meth:`repro.persist.wal.WriteAheadLog.simulate_crash`).
        Returns bytes lost; the feed is unusable afterwards."""
        return self._journal.simulate_crash() if self._journal is not None else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.directory if self.directory is not None else "memory"
        return (
            f"<ChangeFeed {where} high_water={self.high_water} "
            f"ring={len(self._ring)} cursors={len(self.cursors)}>"
        )
