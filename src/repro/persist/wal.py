"""The write-ahead log: the one framed journal format on disk.

Every client write (``put``, ``remove``, ``apply_batch``) is journaled
here *before* it touches the store, as one record per committed batch::

    <u32 payload_len> <u32 payload_crc32> <payload>

where the payload is the wire codec's encoding of ``[keys, values]`` —
``keys`` a :class:`~repro.net.codec.KeyList` (batches arrive key-sorted,
so the shared-prefix compression that earns its keep on the wire earns
it again on disk) and ``values`` a parallel list with ``None`` marking
removes.  A checkpoint seals a WAL file as a segment without rewriting
it, and :class:`~repro.persist.manager.DurableLog` owns every WAL on
both write paths.

Replay applies records in order and is idempotent (records are plain
puts/removes), so recovery after a crash mid-apply is safe.  A torn
tail — a record the process died inside of writing, or that never fully
reached disk — fails the length or CRC check; :meth:`WriteAheadLog.replay`
truncates it at the last intact record rather than refuse to start.

Durability is the fsync policy:

* ``always`` — fsync after every record: every acknowledged batch
  survives power loss.
* ``batch`` — fsync when :data:`SYNC_INTERVAL_BYTES` of records have
  accumulated, and on :meth:`~WriteAheadLog.flush`/close: bounded loss.
* ``off`` — never fsync (the OS flushes eventually): fastest, and the
  contract after a hard crash is only what the sealed segments hold.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import List, Optional, Tuple

from ..net.codec import CodecError, KeyList, decode, encode

FSYNC_ALWAYS = "always"
FSYNC_BATCH = "batch"
FSYNC_OFF = "off"
FSYNC_MODES = (FSYNC_ALWAYS, FSYNC_BATCH, FSYNC_OFF)

#: ``batch`` mode fsyncs when this many unsynced bytes accumulate.
SYNC_INTERVAL_BYTES = 64 * 1024

_HEADER = struct.Struct(">II")  # payload length, payload crc32
WAL_HEADER_SIZE = _HEADER.size

#: One WAL record: parallel (keys, values); a None value is a remove.
WalRecord = Tuple[List[str], List[Optional[str]]]


def encode_frame(keys: List[str], values: List[Optional[str]]) -> bytes:
    """One WAL frame for parallel ``keys`` and ``values``: the length +
    crc32 header, then the payload."""
    payload = encode([KeyList(keys), list(values)])
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def scan_wal(path: str) -> Tuple[List[WalRecord], int, bool]:
    """Parse a WAL file tolerantly: ``(records, good_offset, torn)`` —
    every intact record in order, the byte offset just past the last
    one, and whether a torn tail follows it (a frame cut short, a CRC
    mismatch, or a payload that does not decode).  A missing file is an
    empty log."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return [], 0, False
    records: List[WalRecord] = []
    offset = 0
    while offset + _HEADER.size <= len(data):
        length, crc = _HEADER.unpack_from(data, offset)
        end = offset + _HEADER.size + length
        payload = data[offset + _HEADER.size : end]
        if end > len(data) or zlib.crc32(payload) != crc:
            return records, offset, True
        try:
            keys, values = decode(payload)
        except (CodecError, ValueError, TypeError):
            return records, offset, True
        records.append((keys, values))
        offset = end
    return records, offset, offset < len(data)


class WriteAheadLog:
    """An append-only framed journal with a configurable fsync policy.

    Counters go to ``stats`` under ``prefix``: ``<prefix>_records``,
    ``<prefix>_appended_bytes``, ``<prefix>_syncs`` and
    ``<prefix>_torn_tails``.
    """

    def __init__(
        self,
        path: str,
        fsync: str = FSYNC_BATCH,
        stats=None,
        prefix: str = "persist_wal",
    ) -> None:
        if fsync not in FSYNC_MODES:
            raise ValueError(
                f"unknown fsync policy {fsync!r}; expected one of {FSYNC_MODES}"
            )
        self.path = path
        self.fsync = fsync
        self.stats = stats
        self.prefix = prefix
        self._records_counter = prefix + "_records"
        self._bytes_counter = prefix + "_appended_bytes"
        self._fh = open(path, "ab")
        #: Bytes in the file.  Pre-existing contents were either synced
        #: by the previous run or survived into this one regardless; in
        #: both cases they are on disk now, so they count as synced.
        self.size = os.fstat(self._fh.fileno()).st_size
        self.synced_size = self.size
        self.records = 0

    def _count(self, name: str) -> None:
        if self.stats is not None:
            self.stats.add(f"{self.prefix}_{name}")

    # ------------------------------------------------------------------
    def append(self, keys: List[str], values: List[Optional[str]]) -> None:
        """Journal one batch — parallel keys and values (None = remove)
        — as a frame, then apply the fsync policy."""
        frame = encode_frame(keys, values)
        self._fh.write(frame)
        self.size += len(frame)
        self.records += 1
        if self.stats is not None:
            self.stats.add(self._records_counter)
            self.stats.add(self._bytes_counter, len(frame))
        if self.fsync == FSYNC_ALWAYS or (
            self.fsync == FSYNC_BATCH
            and self.size - self.synced_size >= SYNC_INTERVAL_BYTES
        ):
            self.sync()

    def replay(self) -> List[WalRecord]:
        """Every intact record.  A torn or undecodable tail is truncated
        so the next append lands on a frame boundary."""
        self._fh.flush()
        records, good_offset, torn = scan_wal(self.path)
        if torn:
            self._fh.truncate(good_offset)
            self.size = self.synced_size = good_offset
            self._count("torn_tails")
        return records

    def sync(self) -> None:
        """fsync now, whatever the policy."""
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.synced_size = self.size
        self._count("syncs")

    def flush(self) -> None:
        """Force everything written so far to durable storage (under
        ``off``, only to the OS)."""
        if self._fh.closed:
            return
        self._fh.flush()
        if self.fsync != FSYNC_OFF:
            os.fsync(self._fh.fileno())
            self.synced_size = self.size

    def close(self) -> None:
        """Flush, then release the file even if the flush fails."""
        if self._fh.closed:
            return
        try:
            self.flush()
        finally:
            self._fh.close()

    # ------------------------------------------------------------------
    # Crash simulation (chaos hooks)
    # ------------------------------------------------------------------
    def simulate_crash(self) -> int:
        """Model ``kill -9`` plus power loss: drop everything after the
        last fsync (pessimistically, unsynced bytes never reached the
        platter).  Returns how many bytes were lost.  The log is closed
        and unusable afterwards — recovery means reopening the data dir.
        """
        lost = self.size - self.synced_size
        self._fh.close()
        with open(self.path, "r+b") as fh:
            fh.truncate(self.synced_size)
        return lost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<WriteAheadLog {os.path.basename(self.path)} "
            f"bytes={self.size} synced={self.synced_size} fsync={self.fsync}>"
        )
