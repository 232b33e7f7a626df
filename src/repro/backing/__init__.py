"""Backing store substrate: the database behind the cache (paper §2).

:class:`BackingDatabase` is the store application writes go *around*
the cache to reach.  Its change notifications are watches on a
:class:`~repro.core.hub.ChangeHub`, and the deployment wrappers here
model the paper's three cache/DB arrangements in-process on them,
synchronously.  The production write-around path lives in
:mod:`repro.cdc`, where the database's durable change feed
(``BackingDatabase.attach_feed``) drives join maintenance
asynchronously through a ``CdcPump``, with ``settle_cdc()`` as the
freshness barrier.
"""

from .database import BackingDatabase
from .deployment import (
    CachedBaseResolver,
    LookasideDeployment,
    WriteAroundDeployment,
    WriteThroughDeployment,
)

__all__ = [
    "BackingDatabase",
    "CachedBaseResolver",
    "LookasideDeployment",
    "WriteAroundDeployment",
    "WriteThroughDeployment",
]
