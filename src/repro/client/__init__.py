"""One Pequod client API — async-native, with sync facades — over
local, RPC, and cluster deployments.

The primary surface is the event-driven async API (the paper's
clients keep many RPCs outstanding, §5.1, and its servers push
updates, §2.4)::

    from repro.client import make_async_client

    client = await make_async_client("rpc")      # or "local" / "cluster"
    await client.add_join("t|<u>|<tm>|<p> = "
                          "check s|<u>|<p> copy p|<p>|<tm>")
    await client.put("s|ann|bob", "1")
    await client.scan_prefix("t|ann|")           # materialize the timeline
    watch = await client.watch("t|ann|", "t|ann}")
    await client.put("p|bob|0100", "hello!")     # maintained, then pushed
    async for event in watch:                    # pushed, not polled
        print(event.key, event.new)

Synchronous applications use the blocking facades — each sync client
owns one event loop over the same async core::

    from repro.client import join, make_client

    with make_client("rpc") as client:           # or "local" / "cluster"
        client.add_join(join("t|<user>|<time>|<poster>")
                        .check("s|<user>|<poster>")
                        .copy("p|<poster>|<time>"))
        client.put("s|ann|bob", "1")
        client.put("p|bob|0100", "hello!")
        client.settle()                          # no-op off-cluster
        client.scan_prefix("t|ann|")
        watch = client.iter_watch("t|ann|", "t|ann}")

See :mod:`repro.client.aio` for the async interface contract,
:mod:`repro.client.base` for the sync facade, :mod:`repro.client.errors`
for the unified failure types, and :mod:`repro.client.builder` for the
fluent join builder.
"""

from ..core.hub import ChangeEvent
from .aio import (
    AsyncClusterClient,
    AsyncLocalClient,
    AsyncPequodClient,
    AsyncRemoteClient,
    AsyncWriteBatch,
    Watch,
    default_affinity,
)
from .base import (
    BatchLike,
    JoinLike,
    PequodClient,
    SyncWatch,
    check_value,
    checked_ops,
    join_text,
)
from .builder import JoinBuilder, join
from .cluster import ClusterClient
from .errors import (
    BadRequestError,
    ClientError,
    DurabilityError,
    JoinSpecError,
    NotFoundError,
    OverloadError,
    ServerError,
    TransportError,
    error_for_code,
)
from .factory import BACKENDS, make_async_client, make_client
from .local import LocalClient
from .procs import AsyncProcClusterClient, ProcClusterClient
from .remote import RemoteClient

__all__ = [
    "BACKENDS",
    "AsyncClusterClient",
    "AsyncLocalClient",
    "AsyncPequodClient",
    "AsyncProcClusterClient",
    "AsyncRemoteClient",
    "AsyncWriteBatch",
    "BadRequestError",
    "BatchLike",
    "ChangeEvent",
    "ClientError",
    "ClusterClient",
    "DurabilityError",
    "JoinBuilder",
    "JoinLike",
    "JoinSpecError",
    "LocalClient",
    "NotFoundError",
    "OverloadError",
    "PequodClient",
    "ProcClusterClient",
    "RemoteClient",
    "ServerError",
    "SyncWatch",
    "TransportError",
    "Watch",
    "check_value",
    "checked_ops",
    "default_affinity",
    "error_for_code",
    "join",
    "join_text",
    "make_async_client",
    "make_client",
]
