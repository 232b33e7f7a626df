"""Durable persistence: WAL, sorted segment files, and crash recovery.

Everything above this package treats the store as RAM-resident; this
package adds the disk tier behind it:

* :mod:`~repro.persist.wal` — a write-ahead log journaling
  ``WriteBatch``es (length-prefixed, CRC-checked, KeyList
  prefix-compressed) with a configurable fsync policy;
* :mod:`~repro.persist.segment` — immutable sorted segment files with
  per-segment sparse key indexes and bloom filters;
* :mod:`~repro.persist.bloom` — the bloom filter those segments embed;
* :mod:`~repro.persist.manager` — the ties: ``SegmentStack`` (an
  ordered, compacting stack of segments behind a manifest) and
  ``PersistenceManager`` (WAL + checkpoint segments + crash recovery,
  owned by :class:`~repro.core.server.PequodServer` when it is given a
  ``data_dir``).

Only client writes reach disk.  Memory pressure never moves values
there: it evicts least-recently-used computed ranges, which recompute
on demand (paper §2.5).
"""

from .bloom import BloomFilter
from .manager import PersistenceManager, SegmentStack
from .segment import SegmentReader, write_segment
from .wal import FSYNC_MODES, WriteAheadLog, frame_payload, scan_frames, scan_wal

__all__ = [
    "BloomFilter",
    "PersistenceManager",
    "SegmentStack",
    "SegmentReader",
    "write_segment",
    "FSYNC_MODES",
    "WriteAheadLog",
    "frame_payload",
    "scan_frames",
    "scan_wal",
]
