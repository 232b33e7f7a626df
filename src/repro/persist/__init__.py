"""Durable persistence: one framed journal format, sealed segments and
crash recovery.

Everything above this package treats the store as RAM-resident; this
package adds the disk tier behind it:

* :mod:`~repro.persist.wal` — a write-ahead log journaling
  ``WriteBatch``es (length-prefixed, CRC-checked, KeyList
  prefix-compressed) with a configurable fsync policy;
* :mod:`~repro.persist.manager` — ``SegmentStack`` (sealed WAL files
  ``segments/seg-<n>.log``, replayed in order and folded into one past
  a threshold) and ``PersistenceManager`` (WAL + checkpoints + crash
  recovery, owned by :class:`~repro.core.server.PequodServer` when it
  is given a ``data_dir``; a write-around server's database keeps its
  log in the same pair).  A checkpoint renames the WAL into the stack;
  nothing on disk is ever re-encoded except by compaction.

Only client writes reach disk.  Memory pressure never moves values
there: it evicts least-recently-used computed ranges, which recompute
on demand (paper §2.5).
"""

from .manager import DataDirError, PersistenceManager, SegmentStack
from .wal import FSYNC_MODES, WriteAheadLog, frame_payload, scan_frames, scan_wal

__all__ = [
    "DataDirError",
    "PersistenceManager",
    "SegmentStack",
    "FSYNC_MODES",
    "WriteAheadLog",
    "frame_payload",
    "scan_frames",
    "scan_wal",
]
