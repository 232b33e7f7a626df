"""The change feed: a durable, resumable CDC log on the backing DB.

The paper's write-around deployment (§2) sends application writes to
the backing database and relies on asynchronous change notifications to
keep the cache fresh.  The database's in-process
:class:`~repro.core.hub.ChangeHub` watches model the *synchronous*
version of that; this module is the production shape: every committed
database write becomes a
monotonically sequenced :class:`ChangeRecord` in a feed that consumers
tail at their own pace.

* **Sequencing** — records get dense, strictly increasing sequence
  numbers; ``high_water`` is the last assigned one.  A consumer that
  has acknowledged ``s`` is guaranteed to see ``s+1, s+2, ...`` with no
  gaps (the barrier ``settle_cdc`` compares cursor positions against
  ``high_water``).
* **Durability** — with a ``directory``, records append to a journal
  written by the WAL's own writer (length + crc32 frames, wire-codec
  payload, the WAL's fsync policies and torn-tail truncation; see
  :mod:`repro.persist.wal`), and consumer cursors persist their
  acknowledged position atomically.  A
  crashed consumer resumes exactly after its last ack and replays the
  rest — at-least-once delivery, made effectively-once by the pump's
  idempotent apply path.
* **Backpressure** — the in-memory mode keeps records until every
  cursor acknowledges them, bounded by ``max_pending``; past the bound
  the feed invokes its ``backpressure_hook`` (the write-around server
  points this at the pump) and, failing that, raises
  :class:`FeedOverflowError` instead of growing without limit.
  Durable mode trims its in-memory ring freely — the journal is
  authoritative and old records replay from disk.
"""

from __future__ import annotations

import os
import time
from collections import deque
from itertools import islice
from typing import Callable, Deque, Dict, Iterator, List, Optional

from ..core.operators import ChangeKind
from ..net.codec import decode, encode
from ..persist.wal import FSYNC_BATCH, FSYNC_MODES, WriteAheadLog, scan_journal

__all__ = [
    "ChangeFeed",
    "ChangeRecord",
    "FeedCursor",
    "FeedOverflowError",
    "JOURNAL_FILE",
]

JOURNAL_FILE = "feed.log"

#: In-memory feeds hold at most this many unacknowledged records before
#: engaging backpressure.
DEFAULT_MAX_PENDING = 65536

#: Durable feeds keep this many recent records in memory; older ones
#: replay from the journal.
DEFAULT_RING_CAPACITY = 8192

# ChangeKind members carry string values and enums don't cross the wire
# codec; journal payloads store these small ints instead.
_KIND_CODE = {ChangeKind.INSERT: 0, ChangeKind.UPDATE: 1, ChangeKind.REMOVE: 2}
_CODE_KIND = {code: kind for kind, code in _KIND_CODE.items()}


class FeedOverflowError(RuntimeError):
    """An in-memory feed exceeded ``max_pending`` unacknowledged records
    and the backpressure hook (if any) could not drain it."""


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
    """A named consumer position: the highest acknowledged sequence.

    Durable cursors persist every ack with an atomic tmp+rename, so a
    consumer killed mid-batch resumes exactly after its last ack — the
    unacked suffix redelivers (gap-free, at-least-once).
    """

    __slots__ = ("name", "acked", "path")

    def __init__(self, name: str, acked: int = 0, path: Optional[str] = None):
        self.name = name
        self.acked = acked
        self.path = path

    def persist(self) -> None:
        if self.path is None:
            return
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(str(self.acked))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)

    @classmethod
    def load(cls, name: str, path: str) -> "FeedCursor":
        acked = 0
        try:
            with open(path) as fh:
                acked = int(fh.read().strip() or 0)
        except (FileNotFoundError, ValueError):
            pass
        return cls(name, acked, path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FeedCursor {self.name!r} acked={self.acked}>"


class ChangeFeed:
    """A sequenced change log with named consumer cursors."""

    def __init__(
        self,
        directory: Optional[str] = None,
        *,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
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
        self.durable = directory is not None
        self.ring_capacity = ring_capacity
        self.max_pending = max_pending
        self.clock = clock
        self.stats = stats
        self.next_seq = 1
        #: Sequences ``<= trimmed_through`` are no longer in the ring.
        self.trimmed_through = 0
        self._ring: Deque[ChangeRecord] = deque()
        self.cursors: Dict[str, FeedCursor] = {}
        #: Called when an in-memory feed exceeds ``max_pending``; the
        #: write-around server points this at the pump's ``step``.
        self.backpressure_hook: Optional[Callable[[], object]] = None
        self.records_total = 0
        self._journal: Optional[WriteAheadLog] = None
        if self.durable:
            os.makedirs(directory, exist_ok=True)
            self._journal = WriteAheadLog(
                os.path.join(directory, JOURNAL_FILE),
                fsync=fsync,
                stats=stats,
                prefix="cdc_journal",
            )
            self._recover()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Restore ``next_seq`` and the in-memory tail from the journal
        (the writer truncates a torn tail)."""
        records = self._journal.replay(ChangeRecord.from_payload)
        if records:
            self.next_seq = records[-1].seq + 1
            tail = records[-self.ring_capacity :]
            self._ring.extend(tail)
            self.trimmed_through = tail[0].seq - 1

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
        self.records_total += 1
        self._ring.append(rec)
        if self.stats is not None:
            self.stats.add("cdc_records")
        if self.durable:
            self._journal.append_payload(rec.encode())
            while len(self._ring) > self.ring_capacity:
                dropped = self._ring.popleft()
                self.trimmed_through = dropped.seq
        else:
            self._trim_acked()
            if len(self._ring) > self.max_pending:
                hook = self.backpressure_hook
                if hook is not None:
                    hook()
                    self._trim_acked()
                if len(self._ring) > self.max_pending:
                    raise FeedOverflowError(
                        f"change feed holds {len(self._ring)} unacknowledged "
                        f"records (max_pending={self.max_pending}) and no "
                        "consumer is draining it"
                    )
        return rec

    def _trim_acked(self) -> None:
        """Drop records every cursor has acknowledged (in-memory mode);
        with no cursors attached, bound the ring at ``ring_capacity``
        (a late consumer recovers the trimmed prefix via backfill)."""
        if self.cursors:
            floor = min(cur.acked for cur in self.cursors.values())
            while self._ring and self._ring[0].seq <= floor:
                dropped = self._ring.popleft()
                self.trimmed_through = dropped.seq
        else:
            while len(self._ring) > self.ring_capacity:
                dropped = self._ring.popleft()
                self.trimmed_through = dropped.seq

    # ------------------------------------------------------------------
    # Consuming
    # ------------------------------------------------------------------
    def cursor(self, name: str) -> FeedCursor:
        """The named consumer cursor, creating (or, durable, loading
        the persisted position of) one on first use."""
        cur = self.cursors.get(name)
        if cur is None:
            if self.durable:
                path = os.path.join(self.directory, f"cursor-{name}.seq")
                cur = FeedCursor.load(name, path)
            else:
                cur = FeedCursor(name)
            self.cursors[name] = cur
        return cur

    def fetch(self, after_seq: int, limit: int = 256) -> List[ChangeRecord]:
        """Up to ``limit`` records with ``seq > after_seq``, in order."""
        start = after_seq - self.trimmed_through
        if start < 0:
            if not self.durable:
                raise FeedOverflowError(
                    f"records after seq {after_seq} were trimmed from the "
                    "in-memory feed; the consumer must backfill"
                )
            out: List[ChangeRecord] = []
            for rec in self.replay(after_seq):
                out.append(rec)
                if len(out) >= limit:
                    break
            return out
        return list(islice(self._ring, start, start + limit))

    def ack(self, cursor: FeedCursor, seq: int) -> None:
        """Acknowledge everything up to ``seq`` for ``cursor``."""
        if seq <= cursor.acked:
            return
        cursor.acked = seq
        cursor.persist()
        if not self.durable:
            self._trim_acked()

    def replay(self, after_seq: int = 0) -> Iterator[ChangeRecord]:
        """Every retained record with ``seq > after_seq``, oldest first
        (durable feeds read the journal; used for DB rebuild on
        startup and for cursors that fell behind the ring)."""
        if self.durable:
            self.flush()
            records, _, _ = scan_journal(self._journal.path, ChangeRecord.from_payload)
            for rec in records:
                if rec.seq > after_seq:
                    yield rec
        else:
            for rec in self._ring:
                if rec.seq > after_seq:
                    yield rec

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def pending_records(self) -> int:
        """Records retained in memory (the ring depth)."""
        return len(self._ring)

    def depth(self, cursor: FeedCursor) -> int:
        """Records the cursor has not acknowledged yet."""
        return self.high_water - cursor.acked

    def oldest_pending_ts(self, cursor: FeedCursor) -> Optional[float]:
        """Timestamp of the oldest unacknowledged record still in the
        ring, or None when the cursor is caught up."""
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
        where = self.directory if self.durable else "memory"
        return (
            f"<ChangeFeed {where} high_water={self.high_water} "
            f"ring={len(self._ring)} cursors={len(self.cursors)}>"
        )
