"""Backing store substrate: the database behind the cache (paper §2).

:class:`BackingDatabase` is the store application writes go *around*
the cache to reach.  Its one change output is its
:class:`~repro.cdc.feed.ChangeFeed`: the deployment wrappers here model
the paper's three cache/DB arrangements in-process by draining it
through a ``CdcPump`` settled around every call, and the production
write-around path (``PequodServer(mode="write-around")``, see
:mod:`repro.cdc`) runs the same pump asynchronously, with
``settle_cdc()`` as the freshness barrier.
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
