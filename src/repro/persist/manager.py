"""Segment stacks and the persistence manager.

:class:`SegmentStack` is an ordered collection of immutable segment
files behind a ``MANIFEST``: new segments stack on top (newest wins on
read), and compaction merges the stack back down to one segment.  The
durability tier keeps its checkpoint segments, folded out of the WAL,
in one.

:class:`PersistenceManager` owns one data directory::

    <data_dir>/pequod.wal        the write-ahead log
    <data_dir>/segments/         checkpoint segments + MANIFEST

and implements the recovery contract: on startup, replay checkpoint
segments oldest-to-newest (tombstones delete), then the WAL tail,
truncating a torn tail at the last intact record.  Only *client* writes
are journaled — computed join outputs are never persisted, so recovered
state re-enters the validity machinery with no status ranges at all and
every computed range starts invalid until demand recomputation
revalidates it (the conservative reading of single-table invalidation:
never trust recovered derived data).
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterator, List, Optional, Tuple

from ..metrics import Histogram
from .segment import SegmentReader, write_segment
from .wal import FSYNC_BATCH, FSYNC_MODES, WriteAheadLog, scan_wal

MANIFEST = "MANIFEST"
WAL_NAME = "pequod.wal"

#: Fixed buckets (seconds) for flush / compaction duration histograms.
FLUSH_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)


class SegmentStack:
    """An ordered stack of immutable segments behind a manifest.

    ``segments[0]`` is oldest; reads probe newest-first and stop at the
    first segment whose bloom admits the key and whose run contains it.
    The manifest is replaced atomically (temp file + rename), so a crash
    between writing a segment and publishing it leaves at worst an
    orphan ``.seg`` file, never a half-registered stack.
    """

    def __init__(
        self,
        directory: str,
        stats=None,
        compact_threshold: int = 8,
        label: str = "segments",
    ) -> None:
        self.directory = directory
        self.stats = stats
        self.compact_threshold = compact_threshold
        self.label = label
        self.segments: List[SegmentReader] = []
        self._next_id = 0
        self.compaction_seconds = Histogram(FLUSH_BUCKETS)
        os.makedirs(directory, exist_ok=True)
        self._load_manifest()

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def _manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST)

    def _load_manifest(self) -> None:
        try:
            with open(self._manifest_path()) as fh:
                names = [line.strip() for line in fh if line.strip()]
        except FileNotFoundError:
            return
        for name in names:
            path = os.path.join(self.directory, name)
            self.segments.append(SegmentReader(path))
            seq = int(name.split("-")[1].split(".")[0])
            self._next_id = max(self._next_id, seq + 1)

    def _write_manifest(self) -> None:
        tmp = self._manifest_path() + ".tmp"
        with open(tmp, "w") as fh:
            for seg in self.segments:
                fh.write(os.path.basename(seg.path) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._manifest_path())

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def push(self, pairs: List[Tuple[str, Optional[str]]]) -> Optional[SegmentReader]:
        """Write ``pairs`` (None value = tombstone) as the newest
        segment and publish it.  Empty input writes nothing."""
        if not pairs:
            return None
        # Segments must be key-sorted (restart-key bisect and prefix
        # compression both assume it); sorting sorted input is O(n).
        pairs = sorted(pairs, key=lambda pair: pair[0])
        name = f"seg-{self._next_id:08d}.seg"
        self._next_id += 1
        path = os.path.join(self.directory, name)
        write_segment(path, pairs)
        reader = SegmentReader(path)
        self.segments.append(reader)
        self._write_manifest()
        if self.stats is not None:
            self.stats.add("persist_segments_written")
            self.stats.add("persist_segment_bytes_written", reader.file_bytes())
        return reader

    def maybe_compact(self) -> bool:
        if len(self.segments) > self.compact_threshold:
            self.compact()
            return True
        return False

    def compact(self) -> None:
        """Merge the stack down to one segment (newest version per key).

        Tombstones are dropped — a compacted stack has no older version
        left to mask.
        """
        if len(self.segments) <= 1:
            return
        start = time.perf_counter()
        merged: Dict[str, Optional[str]] = {}
        for seg in self.segments:  # oldest first: newest naturally wins
            for key, value in seg.scan():
                merged[key] = value
        pairs = [
            (key, value)
            for key, value in sorted(merged.items())
            if value is not None
        ]
        old = self.segments
        name = f"seg-{self._next_id:08d}.seg"
        self._next_id += 1
        if pairs:
            path = os.path.join(self.directory, name)
            write_segment(path, pairs)
            self.segments = [SegmentReader(path)]
        else:
            self.segments = []
        self._write_manifest()
        for seg in old:
            seg.close()
            try:
                os.unlink(seg.path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        self.compaction_seconds.observe(time.perf_counter() - start)
        if self.stats is not None:
            self.stats.add("persist_compactions")

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(self, key: str) -> Tuple[bool, Optional[str]]:
        """Newest-first point lookup: ``(present, value_or_tombstone)``.

        Counts every probe: a probe of a segment that lacks the key is
        *negative*, and the bloom filter's job is to answer those
        without touching the file (``persist_bloom_negatives``); the
        ones it lets through are its false positives.
        """
        stats = self.stats
        for seg in reversed(self.segments):
            if not seg.may_contain(key):
                if stats is not None:
                    stats.add("persist_segment_probes")
                    stats.add("persist_bloom_negatives")
                continue
            if stats is not None:
                stats.add("persist_segment_probes")
            present, value = seg.get(key)
            if present:
                if stats is not None:
                    stats.add("persist_segment_hits")
                return True, value
            if stats is not None:
                stats.add("persist_bloom_false_positives")
        return False, None

    def iter_merged(
        self, lo: Optional[str] = None, hi: Optional[str] = None
    ) -> Iterator[Tuple[str, Optional[str]]]:
        """Newest-wins merged iteration over ``[lo, hi)``, tombstones
        included (callers decide whether deletions matter)."""
        merged: Dict[str, Optional[str]] = {}
        for seg in self.segments:
            for key, value in seg.scan(lo, hi):
                merged[key] = value
        for key in sorted(merged):
            yield key, merged[key]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.segments)

    def record_count(self) -> int:
        return sum(seg.count for seg in self.segments)

    def file_bytes(self) -> int:
        return sum(seg.file_bytes() for seg in self.segments)

    def close(self) -> None:
        for seg in self.segments:
            seg.close()
        self.segments = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SegmentStack {self.label} segments={len(self.segments)}>"


class PersistenceManager:
    """WAL + checkpoint segments + recovery for one data directory."""

    def __init__(
        self,
        data_dir: str,
        fsync: str = FSYNC_BATCH,
        checkpoint_bytes: int = 4 << 20,
        compact_threshold: int = 8,
        stats=None,
    ) -> None:
        if fsync not in FSYNC_MODES:
            raise ValueError(
                f"unknown fsync policy {fsync!r}; expected one of {FSYNC_MODES}"
            )
        self.data_dir = data_dir
        self.fsync = fsync
        self.checkpoint_bytes = checkpoint_bytes
        self.stats = stats
        os.makedirs(data_dir, exist_ok=True)
        self.segments = SegmentStack(
            os.path.join(data_dir, "segments"),
            stats=stats,
            compact_threshold=compact_threshold,
            label="checkpoint",
        )
        self.flush_seconds = Histogram(FLUSH_BUCKETS)
        self.wal = WriteAheadLog(
            os.path.join(data_dir, WAL_NAME), fsync=fsync, stats=stats
        )
        self.checkpoints = 0
        self.recovered_ops = 0
        self.recovery_ms = 0.0
        self._closed = False

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover_into(self, store) -> int:
        """Rebuild ``store`` from checkpoint segments plus the WAL tail.

        Applies raw store batches (no join maintenance — joins are not
        installed yet at recovery time, and computed output is never
        persisted anyway).  Returns the number of operations replayed.
        A torn WAL tail is truncated at the last intact record.
        """
        start = time.perf_counter()
        ops = 0
        chunk: List[Tuple[str, Optional[str]]] = []
        for key, value in self.segments.iter_merged():
            if value is None:
                continue  # a fully-compacted delete; nothing to apply
            chunk.append((key, value))
            if len(chunk) >= 4096:
                store.apply_batch(chunk)
                ops += len(chunk)
                chunk = []
        if chunk:
            store.apply_batch(chunk)
            ops += len(chunk)
        records, good_offset, torn = scan_wal(self.wal.path)
        if torn:
            # Truncate the torn tail so the next append lands on a
            # record boundary.  The WAL handle is already open (append
            # mode); reopen after truncating to keep offsets honest.
            self.wal.close()
            with open(self.wal.path, "r+b") as fh:
                fh.truncate(good_offset)
            self.wal = WriteAheadLog(
                self.wal.path, fsync=self.fsync, stats=self.stats
            )
            if self.stats is not None:
                self.stats.add("persist_wal_torn_tails")
        for keys, values in records:
            store.apply_batch(list(zip(keys, values)))
            ops += len(keys)
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
        if self.wal.size >= self.checkpoint_bytes:
            self.checkpoint()
            return True
        return False

    def checkpoint(self) -> None:
        """Fold the WAL into a new checkpoint segment and reset it.

        The WAL is synced first so the fold reads everything; the
        segment is fsynced and published (manifest rename) before the
        WAL truncates, so a crash at any point loses nothing: either
        the old WAL still holds the records, or the segment does.
        """
        start = time.perf_counter()
        self.wal.flush()
        records, _, _ = scan_wal(self.wal.path)
        net: Dict[str, Optional[str]] = {}
        for keys, values in records:
            for key, value in zip(keys, values):
                net[key] = value
        self.segments.push(sorted(net.items()))
        self.segments.maybe_compact()
        self.wal.reset()
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
        self.segments.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PersistenceManager {self.data_dir!r} wal={self.wal.size}B "
            f"segments={len(self.segments)}>"
        )
