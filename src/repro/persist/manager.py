"""Sealed segments and the persistence manager.

:class:`PersistenceManager` owns one data directory::

    <data_dir>/pequod.wal               the write-ahead log
    <data_dir>/segments/seg-<n>.log     sealed WALs, oldest first

and a write-around server's
:class:`~repro.backing.database.BackingDatabase` keeps its log in the
same layout under ``<data_dir>/db/``, through the same
:class:`SegmentStack`.

The disk has one record format, the WAL's CRC-framed
``[KeyList(keys), values]`` frames.  A checkpoint folds nothing: it
fsyncs the WAL (under every fsync policy, so ``off`` keeps its promise
that checkpointed data survives a crash), renames it to the next
``seg-<n>.log``, fsyncs the directory and opens a fresh WAL.  Recovery
replays the sealed segments in sequence order, then the WAL, through
one loop.  A sealed segment was fsynced before it was published, so
one that fails its CRC or does not decode raises
:class:`DataDirError`; a torn WAL tail is truncated at the last intact
record.

Past :data:`COMPACT_THRESHOLD` segments, compaction folds the stack
into one new segment (newest value per key, tombstones dropped),
written to a temp file, fsynced and renamed into place before the
inputs are unlinked oldest first.  Replay is idempotent and a fold
sorts after its inputs, so a crash at any step recovers the
acknowledged state and no manifest is needed.

Only *client* writes are journaled — computed join outputs are never
persisted, so recovered state re-enters the validity machinery with no
status ranges at all and every computed range starts invalid until
demand recomputation revalidates it (the conservative reading of
single-table invalidation: never trust recovered derived data).
"""

from __future__ import annotations

import os
import re
import time
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..metrics import Histogram
from .wal import (
    FSYNC_BATCH,
    WalRecord,
    WriteAheadLog,
    encode_record,
    frame_payload,
    scan_wal,
)

WAL_NAME = "pequod.wal"
SEGMENT_DIR = "segments"

#: A checkpoint seals the WAL once it holds this many bytes.
CHECKPOINT_BYTES = 4 << 20
#: Compaction folds the stack once it holds more segments than this.
COMPACT_THRESHOLD = 8
#: Recovery hands the store batches of about this many operations, and
#: compaction writes frames of this many keys.
REPLAY_CHUNK = 4096

_SEGMENT_NAME = re.compile(r"seg-(\d+)\.log")

#: Fixed buckets (seconds) for flush / compaction duration histograms.
FLUSH_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)


class DataDirError(ValueError):
    """A data directory that cannot be recovered as written: a sealed
    segment failed its CRC or decode, or the layout is the older
    SSTable format (a ``MANIFEST``), which this build cannot read."""


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def live_rows(records: Iterable[WalRecord]) -> List[Tuple[str, str]]:
    """The state ``records`` replay to: the newest value per key,
    tombstones dropped, in key order."""
    net: Dict[str, Optional[str]] = {}
    for keys, values in records:
        net.update(zip(keys, values))
    return sorted((key, value) for key, value in net.items() if value is not None)


class SegmentStack:
    """The sealed WAL segments of one directory, oldest first.

    A segment is a WAL file a checkpoint renamed out of the way, never
    modified afterwards; the stack is whatever ``seg-<n>.log`` files
    the directory holds, ordered by ``n``.  Counters go to ``stats``
    under ``prefix``: ``<prefix>_segments_written``,
    ``<prefix>_segment_bytes_written`` and ``<prefix>_compactions``.
    """

    def __init__(self, directory: str, stats=None, prefix: str = "persist") -> None:
        self.directory = directory
        self.stats = stats
        self.prefix = prefix
        self.compaction_seconds = Histogram(FLUSH_BUCKETS)
        os.makedirs(directory, exist_ok=True)
        if os.path.exists(os.path.join(directory, "MANIFEST")):
            raise DataDirError(
                f"{directory} holds a MANIFEST of the older SSTable "
                "segment format, which this build cannot recover"
            )
        seqs = []
        for name in os.listdir(directory):
            match = _SEGMENT_NAME.fullmatch(name)
            if match:
                seqs.append(int(match.group(1)))
            elif name.endswith(".tmp"):  # a compaction the crash cut short
                os.unlink(os.path.join(directory, name))
        seqs.sort()
        self.paths: List[str] = [self._path(seq) for seq in seqs]
        self._next_seq = seqs[-1] + 1 if seqs else 0

    def _path(self, seq: int) -> str:
        return os.path.join(self.directory, f"seg-{seq:08d}.log")

    def _claim_path(self) -> str:
        path = self._path(self._next_seq)
        self._next_seq += 1
        return path

    # ------------------------------------------------------------------
    def seal(self, wal: WriteAheadLog) -> WriteAheadLog:
        """Publish ``wal`` as the newest segment and return the fresh
        WAL that replaces it (``wal`` itself when empty: nothing to
        seal).  The WAL is fsynced under every policy before the rename
        and the segment directory after it, so a crash before the fresh
        WAL exists recovers from the segments alone; the WAL's own
        directory is fsynced once the fresh WAL is in it.  The owner
        calls :meth:`maybe_compact` after taking the fresh WAL, so a
        fold that dies midway leaves it a usable log.
        """
        if not wal.size:
            return wal
        wal.sync()
        wal.close()
        path = self._claim_path()
        os.replace(wal.path, path)
        _fsync_dir(self.directory)
        self.paths.append(path)
        if self.stats is not None:
            self.stats.add(f"{self.prefix}_segments_written")
            self.stats.add(f"{self.prefix}_segment_bytes_written", wal.size)
        fresh = WriteAheadLog(
            wal.path, fsync=wal.fsync, stats=wal.stats, prefix=wal.prefix
        )
        _fsync_dir(os.path.dirname(wal.path) or ".")
        return fresh

    def records(self) -> Iterator[WalRecord]:
        """Every record of every segment, oldest first."""
        for path in self.paths:
            records, _, torn = scan_wal(path)
            if torn:
                raise DataDirError(
                    f"sealed segment {path} fails its CRC or does not decode"
                )
            yield from records

    def maybe_compact(self) -> None:
        if len(self.paths) > COMPACT_THRESHOLD:
            self.compact()

    def compact(self) -> None:
        """Fold the stack into one segment (newest value per key).

        Tombstones are dropped — the fold has no older version left to
        mask.  The fold is durable under its final name before any
        input goes, and inputs go oldest first, so every crash leaves a
        stack whose replay ends in the same state.
        """
        if len(self.paths) <= 1:
            return
        start = time.perf_counter()
        live = live_rows(self.records())
        path = self._claim_path()
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            for i in range(0, len(live), REPLAY_CHUNK):
                keys, values = zip(*live[i : i + REPLAY_CHUNK])
                fh.write(frame_payload(encode_record(list(keys), list(values))))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        _fsync_dir(self.directory)
        old, self.paths = self.paths, [path]
        for segment in old:
            os.unlink(segment)
        self.compaction_seconds.observe(time.perf_counter() - start)
        if self.stats is not None:
            self.stats.add(f"{self.prefix}_compactions")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.paths)

    def file_bytes(self) -> int:
        return sum(os.path.getsize(path) for path in self.paths)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SegmentStack {self.directory!r} segments={len(self.paths)}>"


class PersistenceManager:
    """WAL + sealed segments + recovery for one data directory."""

    def __init__(self, data_dir: str, fsync: str = FSYNC_BATCH, stats=None) -> None:
        self.data_dir = data_dir
        self.stats = stats
        os.makedirs(data_dir, exist_ok=True)
        self.segments = SegmentStack(os.path.join(data_dir, SEGMENT_DIR), stats=stats)
        self.wal = WriteAheadLog(
            os.path.join(data_dir, WAL_NAME), fsync=fsync, stats=stats
        )
        self.flush_seconds = Histogram(FLUSH_BUCKETS)
        self.checkpoints = 0
        self.recovered_ops = 0
        self.recovery_ms = 0.0
        self._closed = False

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover_into(self, store) -> int:
        """Rebuild ``store`` by replaying the sealed segments, then the
        WAL, in order.

        Applies raw store batches (no join maintenance — joins are not
        installed yet at recovery time, and computed output is never
        persisted anyway).  Returns the number of operations replayed.
        """
        start = time.perf_counter()
        ops = 0
        chunk: List[Tuple[str, Optional[str]]] = []
        for keys, values in chain(self.segments.records(), self.wal.replay()):
            chunk.extend(zip(keys, values))
            if len(chunk) >= REPLAY_CHUNK:
                store.apply_batch(chunk)  # a batch coalesces: last op wins
                ops += len(chunk)
                chunk = []
        if chunk:
            store.apply_batch(chunk)
            ops += len(chunk)
        self.recovered_ops = ops
        self.recovery_ms = (time.perf_counter() - start) * 1000.0
        if self.stats is not None:
            self.stats.counters["persist_recovery_ms"] = self.recovery_ms
            self.stats.add("persist_recovered_ops", ops)
        return ops

    # ------------------------------------------------------------------
    # The write path
    # ------------------------------------------------------------------
    def log_put(self, key: str, value: str) -> None:
        self.wal.append([key], [value])

    def log_remove(self, key: str) -> None:
        self.wal.append([key], [None])

    def log_ops(self, ops) -> None:
        self.wal.append_ops(ops)

    def maybe_checkpoint(self) -> bool:
        if self.wal.size >= CHECKPOINT_BYTES:
            self.checkpoint()
            return True
        return False

    def checkpoint(self) -> None:
        """Seal the WAL as the newest segment and open a fresh one
        (:meth:`SegmentStack.seal`), then compact past the threshold."""
        start = time.perf_counter()
        self.wal = self.segments.seal(self.wal)
        self.segments.maybe_compact()
        self.checkpoints += 1
        self.flush_seconds.observe(time.perf_counter() - start)
        if self.stats is not None:
            self.stats.add("persist_checkpoints")

    def flush(self) -> None:
        """Make everything journaled so far durable."""
        self.wal.flush()

    def close(self) -> None:
        """Flush and close cleanly (the graceful-shutdown path)."""
        if self._closed:
            return
        self._closed = True
        self.wal.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PersistenceManager {self.data_dir!r} wal={self.wal.size}B "
            f"segments={len(self.segments)}>"
        )
