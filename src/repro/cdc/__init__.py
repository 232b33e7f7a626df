"""Change data capture: the write-around deployment's freshness loop.

The paper's default deployment (§2) is *write-around*: application
writes go to the backing database, not the cache, and asynchronous
change notifications keep cached data fresh.  This package is that
loop, productionized:

* :mod:`~repro.cdc.feed` — the change feed of
  :class:`~repro.backing.database.BackingDatabase`, its only change
  output: monotonically sequenced :class:`ChangeRecord` s queued until
  every named consumer cursor acknowledges them, with bounded-queue
  backpressure.  It is memory-only: a durable database keeps its own
  log (the WAL and sealed segments of :mod:`repro.persist`).
* :mod:`~repro.cdc.pump` — :class:`CdcPump`, the maintenance consumer:
  tails the feed and drives the cache's join engine from change
  records, with fenced backfill for cold-cache cut-over and a
  ``settle()`` high-water barrier (``settle_cdc`` on every client
  backend).

``PequodServer(mode="write-around")`` assembles the pieces; see
:mod:`repro.core.server`.  The in-process deployments of
:mod:`repro.backing.deployment` drain the same feed through a pump
they settle around every call.
"""

from .feed import ChangeFeed, ChangeRecord, FeedCursor, FeedOverflowError
from .pump import CdcPump

__all__ = [
    "CdcPump",
    "ChangeFeed",
    "ChangeRecord",
    "FeedCursor",
    "FeedOverflowError",
]
