"""Durable persistence: one framed log format, one log owner, crash
recovery and fail-stop.

* :mod:`~repro.persist.wal` — a write-ahead log journaling batches
  (length-prefixed, CRC-checked, KeyList prefix-compressed) with a
  configurable fsync policy;
* :mod:`~repro.persist.manager` — ``DurableLog``, the one owner of a
  WAL and its sealed segments (``segments/seg-<n>.log``).  It serves
  both durable deployments: ``PersistenceManager``, a thin subclass, is
  the write-through server's log under ``data_dir``, and a write-around
  server's database holds a plain one under ``data_dir/db``.  A
  committed batch is one frame on both.

A failed append, fsync or checkpoint stops the log: every later write
raises ``DurabilityError``, reads keep being served, the failed write's
outcome is unknown, and a restart is the only way out.  Only client
writes reach disk; memory pressure evicts computed ranges, which
recompute on demand (paper §2.5).
"""

from .manager import DataDirError, DurabilityError, DurableLog, PersistenceManager
from .wal import FSYNC_MODES, WriteAheadLog, scan_wal

__all__ = [
    "DataDirError",
    "DurabilityError",
    "DurableLog",
    "PersistenceManager",
    "FSYNC_MODES",
    "WriteAheadLog",
    "scan_wal",
]
