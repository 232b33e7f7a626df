"""The durable log, and the write-through server's view of it.

:class:`DurableLog` is the one owner of a directory's log::

    <directory>/pequod.wal               the write-ahead log
    <directory>/segments/seg-<n>.log     sealed WALs, oldest first

:class:`PersistenceManager`, the write-through server's log over
``data_dir/``, is a thin subclass; a write-around server's
:class:`~repro.backing.database.BackingDatabase` holds a plain one over
``data_dir/db/``.  On both, a committed batch is one WAL frame.

Opening reads the sealed segments before it opens the WAL, so a bad
segment (sealed segments were fsynced, so a CRC or decode failure is
corruption) raises :class:`DataDirError` with no file left open; a torn
WAL tail is truncated at the last intact frame.  Recovery folds both
into the newest value per key.  A checkpoint fsyncs the WAL under every
policy, renames it to the next segment, fsyncs the directory and opens
a fresh WAL; an append takes one past :data:`CHECKPOINT_BYTES`.  Past
:data:`COMPACT_THRESHOLD` segments, compaction folds the stack into one
segment, durable under its final name before the inputs are unlinked
oldest first.  Replay is idempotent and a fold sorts after its inputs,
so a crash at any step recovers the acknowledged state.

The log is fail-stop.  An exception from an append, an fsync or a
checkpoint fails it: that write and every later one raise
:class:`DurabilityError`, the failed write's outcome is unknown until a
restart recovers the directory, and no frame is ever appended after one
that may be torn.  Reads keep being served, and :meth:`DurableLog.close`
releases the file without raising again.

Only client writes are journaled; computed join output recomputes on
demand after recovery, never trusted from disk.
"""

from __future__ import annotations

import os
import re
import time
from itertools import groupby
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..metrics import Histogram
from ..store.keys import table_of
from .wal import FSYNC_BATCH, WalRecord, WriteAheadLog, encode_frame, scan_wal

WAL_NAME = "pequod.wal"
SEGMENT_DIR = "segments"

#: An append seals the WAL once it holds this many bytes.
CHECKPOINT_BYTES = 4 << 20
#: Compaction folds the stack once it holds more segments than this.
COMPACT_THRESHOLD = 8
#: Compaction writes frames of this many keys.
FOLD_FRAME_KEYS = 4096

_SEGMENT_NAME = re.compile(r"seg-(\d+)\.log")

#: Fixed buckets (seconds) for flush / compaction duration histograms.
FLUSH_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)


class DataDirError(ValueError):
    """A data directory that cannot be recovered as written: a sealed
    segment failed its CRC or decode, or the layout is the older
    SSTable format (a ``MANIFEST``), which this build cannot read."""


class DurabilityError(Exception):
    """The durable log failed and takes no more writes.  The write that
    failed may or may not be on disk until a restart recovers the
    directory; reads keep being served."""


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fold(records: Iterable[WalRecord], net: Dict[str, Optional[str]]) -> int:
    """Fold ``records`` into ``net`` (newest value per key); returns the
    number of operations read."""
    ops = 0
    for keys, values in records:
        net.update(zip(keys, values))
        ops += len(keys)
    return ops


def _live(net: Dict[str, Optional[str]]) -> List[Tuple[str, str]]:
    return sorted((key, value) for key, value in net.items() if value is not None)


class DurableLog:
    """A WAL and its sealed segments: recovery, appends, checkpoints,
    compaction and fail-stop for one directory.

    Counters go to ``stats`` under ``prefix``: ``<prefix>_checkpoints``,
    ``<prefix>_recovered_ops``, ``<prefix>_recovery_ms``,
    ``<prefix>_segments_written``, ``<prefix>_segment_bytes_written``
    and ``<prefix>_compactions``; the WAL's own counters go under
    :attr:`wal_prefix`, or ``prefix`` when that is None.
    """

    wal_prefix: Optional[str] = None

    def __init__(
        self, directory: str, fsync: str = FSYNC_BATCH, stats=None, prefix: str = "persist"
    ) -> None:
        start = time.perf_counter()
        self.directory = directory
        self.stats = stats
        self.prefix = prefix
        self.segment_dir = os.path.join(directory, SEGMENT_DIR)
        self.flush_seconds = Histogram(FLUSH_BUCKETS)
        self.compaction_seconds = Histogram(FLUSH_BUCKETS)
        self.checkpoints = 0
        #: The exception that failed the log, once one has.
        self.failed: Optional[BaseException] = None
        os.makedirs(self.segment_dir, exist_ok=True)
        if os.path.exists(os.path.join(self.segment_dir, "MANIFEST")):
            raise DataDirError(
                f"{self.segment_dir} holds a MANIFEST of the older SSTable "
                "segment format, which this build cannot recover"
            )
        named = []
        for name in os.listdir(self.segment_dir):
            match = _SEGMENT_NAME.fullmatch(name)
            if match:
                named.append((int(match.group(1)), name))
            elif name.endswith(".tmp"):  # a compaction the crash cut short
                os.unlink(os.path.join(self.segment_dir, name))
        named.sort()
        #: Sealed segment paths, oldest first.
        self.segments = [os.path.join(self.segment_dir, name) for _, name in named]
        self._next_seq = named[-1][0] + 1 if named else 0
        net: Dict[str, Optional[str]] = {}
        # Segments first: a bad one raises before the WAL is open.
        ops = _fold(self._sealed_records(), net)
        self.wal = WriteAheadLog(
            os.path.join(directory, WAL_NAME), fsync, stats, self.wal_prefix or prefix
        )
        self.recovered_ops = ops + _fold(self.wal.replay(), net)
        self._live: List[Tuple[str, str]] = _live(net)
        self.recovery_ms = (time.perf_counter() - start) * 1000.0
        if stats is not None:
            stats.counters[f"{prefix}_recovery_ms"] = self.recovery_ms
            stats.add(f"{prefix}_recovered_ops", self.recovered_ops)

    def take_live_rows(self) -> List[Tuple[str, str]]:
        """The state recovery rebuilt — the newest value per key,
        tombstones dropped, in key order — handed over once."""
        rows, self._live = self._live, []
        return rows

    def _count(self, name: str, amount: int = 1) -> None:
        if self.stats is not None:
            self.stats.add(f"{self.prefix}_{name}", amount)

    def _claim_path(self) -> str:
        self._next_seq += 1
        return os.path.join(self.segment_dir, f"seg-{self._next_seq - 1:08d}.log")

    def _sealed_records(self) -> Iterator[WalRecord]:
        for path in self.segments:
            records, _, torn = scan_wal(path)
            if torn:
                raise DataDirError(
                    f"sealed segment {path} fails its CRC or does not decode"
                )
            yield from records

    # ------------------------------------------------------------------
    # Fail-stop
    # ------------------------------------------------------------------
    def _refuse(self, exc: Optional[BaseException] = None) -> DurabilityError:
        """Fail the log on ``exc`` (the first failure sticks) and return
        the error every write now raises."""
        if self.failed is None:
            self.failed = exc
        return DurabilityError(
            f"the durable log in {self.directory} failed ({self.failed!r}) and "
            "takes no more writes; the failed write's outcome is unknown "
            "until a restart"
        )

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def append(self, keys: List[str], values: List[Optional[str]]) -> None:
        """Journal one batch — parallel keys and values, None for a
        remove — as one frame; past :data:`CHECKPOINT_BYTES`, seal it."""
        if self.failed is not None:
            raise self._refuse()
        wal = self.wal
        try:
            wal.append(keys, values)
        except Exception as exc:
            raise self._refuse(exc) from exc
        if wal.size >= CHECKPOINT_BYTES:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Seal the WAL as the newest segment (when it holds anything)
        and open a fresh one, then compact past the threshold."""
        if self.failed is not None:
            raise self._refuse()
        start = time.perf_counter()
        try:
            if self.wal.size:
                self._seal()
            if len(self.segments) > COMPACT_THRESHOLD:
                self._compact()
        except Exception as exc:
            raise self._refuse(exc) from exc
        self.checkpoints += 1
        self.flush_seconds.observe(time.perf_counter() - start)
        self._count("checkpoints")

    def _seal(self) -> None:
        """fsync the WAL, rename it into ``segments/`` and fsync that
        directory, so a crash before the fresh WAL exists recovers from
        the segments alone; the WAL's own directory is fsynced once the
        fresh WAL is in it."""
        wal = self.wal
        wal.sync()
        wal.close()
        path = self._claim_path()
        os.replace(wal.path, path)
        _fsync_dir(self.segment_dir)
        self.segments.append(path)
        self._count("segments_written")
        self._count("segment_bytes_written", wal.size)
        self.wal = WriteAheadLog(wal.path, wal.fsync, wal.stats, wal.prefix)
        _fsync_dir(self.directory)

    def _compact(self) -> None:
        """Fold the stack into one segment (newest value per key).

        Tombstones are dropped — the fold has no older version left to
        mask.  The fold is durable under its final name before any
        input goes, and inputs go oldest first, so every crash leaves a
        stack whose replay ends in the same state.
        """
        start = time.perf_counter()
        net: Dict[str, Optional[str]] = {}
        _fold(self._sealed_records(), net)
        live = _live(net)
        path = self._claim_path()
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            for i in range(0, len(live), FOLD_FRAME_KEYS):
                keys, values = zip(*live[i : i + FOLD_FRAME_KEYS])
                fh.write(encode_frame(list(keys), values))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        _fsync_dir(self.segment_dir)
        old, self.segments = self.segments, [path]
        for segment in old:
            os.unlink(segment)
        self.compaction_seconds.observe(time.perf_counter() - start)
        self._count("compactions")

    def flush(self) -> None:
        """Make everything journaled so far durable."""
        if self.failed is not None:
            raise self._refuse()
        try:
            self.wal.flush()
        except Exception as exc:
            raise self._refuse(exc) from exc

    def close(self) -> None:
        """Flush and close (the graceful-shutdown path); safe twice.  A
        failed log only releases its file."""
        try:
            self.wal.close()
        except Exception as exc:
            if self.failed is None:
                raise self._refuse(exc) from exc

    def simulate_crash(self) -> int:
        """Chaos hook (``kill -9`` plus power loss): drop the WAL bytes
        written after its last fsync; returns how many.  The log is
        unusable afterwards."""
        return self.wal.simulate_crash()

    def bytes(self) -> int:
        """Bytes on disk: the WAL plus the sealed segments."""
        return self.wal.size + sum(os.path.getsize(path) for path in self.segments)


class PersistenceManager(DurableLog):
    """The write-through server's log over its ``data_dir``: a
    :class:`DurableLog` with the cache's journaling entry points."""

    wal_prefix = "persist_wal"

    def recover_into(self, store) -> int:
        """Load the recovered rows into the empty ``store`` as one
        key-sorted run per table — no join maintenance: no join is
        installed yet, and computed output is never persisted.  Returns
        the number of operations replayed."""
        rows = self.take_live_rows()
        for name, run in groupby(rows, key=lambda row: table_of(row[0])):
            store.table(name).install_many(list(run))
        return self.recovered_ops

    def log_put(self, key: str, value: str) -> None:
        self.append([key], [value])

    def log_ops(self, ops) -> None:
        """Journal :class:`~repro.store.batch.BatchOp` s as one frame."""
        if ops:
            self.append([op.key for op in ops], [op.value for op in ops])
