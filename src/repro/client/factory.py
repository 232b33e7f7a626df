"""Backend selection: one call builds a client for any deployment.

``make_async_client("local" | "rpc" | "cluster")`` (a coroutine) is
the primary entry point: it builds an event-driven
:class:`~repro.client.aio.AsyncPequodClient` on the running loop.
``make_client`` is its synchronous counterpart — it builds the same
async backend on a private event loop and wraps it in the matching
blocking facade, which is how the CLI, the benchmark harness, and the
conformance tests pick a deployment shape without changing a line of
application code.

The "rpc" backend with no explicit ``port`` is self-contained — a
real asyncio RPC server on a loopback socket, owned by the returned
client, with every operation crossing genuine TCP framing and
dispatch.  Where that server lives follows the caller's model: for
``make_async_client`` it runs *on the same event loop as the client*
(the loop is live whenever anything awaits, so other connections are
served too); for the synchronous ``make_client`` it runs on its own
event-loop thread, because the sync facade blocks on its socket and
has no loop a server could share.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Sequence, Tuple

from ..core.server import PequodServer
from ..distrib.cluster import Cluster
from ..net.rpc_server import RpcServer, ThreadedRpcService
from .aio import (
    AsyncClusterClient,
    AsyncLocalClient,
    AsyncPequodClient,
    AsyncRemoteClient,
)
from .base import JoinLike, PequodClient
from .cluster import ClusterClient
from .errors import BadRequestError, TransportError
from .local import LocalClient
from .procs import AsyncProcClusterClient, ProcClusterClient
from .remote import RemoteClient

BACKENDS = ("local", "rpc", "cluster", "procs")

#: Backend tag -> the sync facade class wrapping an async core built
#: by :func:`make_async_client`.  "rpc" is absent: its facade runs its
#: own blocking transport and is constructed directly.
_FACADES = {
    "local": LocalClient,
    "cluster": ClusterClient,
    "procs": ProcClusterClient,
}


class _AsyncEphemeralRemoteClient(AsyncRemoteClient):
    """An AsyncRemoteClient that owns the loopback server it talks to:
    closing the client stops the service, then closes its server's
    durable log."""

    def __init__(self, service: RpcServer) -> None:
        super().__init__("127.0.0.1", service.port)
        self._service = service

    async def aclose(self) -> None:
        try:
            await super().aclose()
        finally:
            await self._service.stop()
            self._service.server.close()
            # One extra tick so closed transports detach their sockets
            # before a private loop goes away (avoids ResourceWarnings).
            await asyncio.sleep(0)


async def make_async_client(
    backend: str = "local",
    *,
    joins: Optional[JoinLike] = None,
    host: Optional[str] = None,
    port: Optional[int] = None,
    base_count: int = 2,
    compute_count: int = 2,
    base_tables: Sequence[str] = (),
    endpoints: Optional[Sequence[Tuple[str, int]]] = None,
    **server_kwargs,
) -> AsyncPequodClient:
    """Build an :class:`AsyncPequodClient` for the named backend.

    * ``local`` — in-process server; ``server_kwargs`` reach
      :class:`PequodServer` (``subtable_config``, ``memory_limit``,
      ``data_dir`` for a WAL and checkpoints, ``mode="write-around"`` for the CDC deployment of
      :mod:`repro.cdc`, …).
    * ``rpc`` — with ``host`` and/or ``port``, connect to an existing
      server there (defaults: ``127.0.0.1``, the protocol's port
      7709); with neither, start an ephemeral loopback server (built
      from ``server_kwargs``) on the current loop, owned by the
      returned client.
    * ``cluster`` — a simulated deployment of ``base_count`` home and
      ``compute_count`` compute servers; ``base_tables`` names the
      partitioned base tables (e.g. ``("p", "s")`` for Twip).
    * ``procs`` — connect to a running multi-process cluster (see
      ``repro cluster`` / :class:`~repro.distrib.procs.ProcCluster`):
      ``endpoints`` is a sequence of ``(host, port)`` bootstrap
      addresses, or give one as ``host``/``port``.

    ``joins`` (any :data:`~repro.client.base.JoinLike`) are installed
    before the client is returned, on whichever servers execute them.

    The cluster-shape arguments (``base_count`` / ``compute_count`` /
    ``base_tables``) are deliberately accepted and ignored by the
    other backends, so one call site can serve every backend.
    ``host``/``port`` express connect intent and are rejected off-RPC.
    """
    if backend not in BACKENDS:
        raise BadRequestError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend not in ("rpc", "procs") and (host is not None or port is not None):
        raise BadRequestError(
            f"host/port describe a server to connect to; the {backend!r} "
            "backend does not connect anywhere"
        )
    if endpoints is not None and backend != "procs":
        raise BadRequestError(
            "endpoints name a process cluster; only the 'procs' backend "
            "connects to one"
        )
    client: AsyncPequodClient
    if backend == "local":
        client = AsyncLocalClient(**server_kwargs)
    elif backend == "procs":
        if endpoints is None:
            if port is None:
                raise BadRequestError(
                    "the 'procs' backend needs endpoints=[(host, port), ...] "
                    "or host/port of one cluster node"
                )
            endpoints = [(host or "127.0.0.1", port)]
        if server_kwargs:
            raise BadRequestError(
                "server kwargs are meaningless when connecting to an "
                "existing cluster"
            )
        client = await AsyncProcClusterClient.open(endpoints)
    elif backend == "rpc":
        if host is not None or port is not None:
            # Connect intent: an existing server at host:port (the
            # protocol's default port when only a host is given).
            if server_kwargs:
                raise BadRequestError(
                    "server kwargs are meaningless when connecting to an "
                    "existing server"
                )
            client = await AsyncRemoteClient.open(host or "127.0.0.1", port or 7709)
        else:
            service = RpcServer(PequodServer(**server_kwargs), "127.0.0.1", 0)
            try:
                await service.start()
            except OSError as exc:
                raise TransportError(f"cannot start RPC server: {exc}") from exc
            client = _AsyncEphemeralRemoteClient(service)
            try:
                await client.connect()
            except BaseException:
                await service.stop()
                raise
    else:
        def cluster_server(name: str) -> PequodServer:
            kwargs = dict(server_kwargs)
            # Durable cluster nodes must not share one WAL: give each
            # node its own subdirectory of the requested data_dir.
            if kwargs.get("data_dir") is not None:
                import os

                kwargs["data_dir"] = os.path.join(kwargs["data_dir"], name)
            return PequodServer(name=name, **kwargs)

        cluster = Cluster(
            base_count,
            compute_count,
            tuple(base_tables),
            server_factory=cluster_server,
        )
        client = AsyncClusterClient(cluster)
        client._owns_cluster = True
    if joins is not None:
        try:
            await client.add_join(joins)
        except BaseException:
            await client.aclose()
            raise
    return client


class _EphemeralRemoteClient(RemoteClient):
    """A RemoteClient facade that owns the loopback server it talks
    to — an RPC server on a private event-loop *thread*, so it serves
    this client, and any other connection, between the facade's
    blocking calls.  Closing the facade stops the thread, then closes
    the server's durable log."""

    def __init__(self, service: ThreadedRpcService) -> None:
        self._service = service
        try:
            super().__init__("127.0.0.1", service.port)
        except BaseException:
            service.stop()
            raise

    def close(self) -> None:
        try:
            super().close()
        finally:
            self._service.stop()
            self._service.rpc.server.close()


def make_client(
    backend: str = "local",
    *,
    joins: Optional[JoinLike] = None,
    host: Optional[str] = None,
    port: Optional[int] = None,
    base_count: int = 2,
    compute_count: int = 2,
    base_tables: Sequence[str] = (),
    endpoints: Optional[Sequence[Tuple[str, int]]] = None,
    **server_kwargs,
) -> PequodClient:
    """Build a synchronous :class:`PequodClient` for the named backend.

    The same selection rules as :func:`make_async_client`, which does
    the actual building on a private loop the returned facade owns —
    except for "rpc": that facade blocks on a socket of its own (see
    :mod:`repro.client.remote`), and its self-contained server runs on
    its own thread (see module docstring).
    """
    if backend not in BACKENDS:
        raise BadRequestError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "rpc":
        client: PequodClient
        if host is not None or port is not None:
            if server_kwargs:
                raise BadRequestError(
                    "server kwargs are meaningless when connecting to an "
                    "existing server"
                )
            client = RemoteClient(host or "127.0.0.1", port or 7709)
        else:
            try:
                service = ThreadedRpcService(PequodServer(**server_kwargs))
            except RuntimeError as exc:
                raise TransportError(str(exc)) from exc
            client = _EphemeralRemoteClient(service)
        if joins is not None:
            try:
                client.add_join(joins)
            except BaseException:
                client.close()
                raise
        return client
    loop = asyncio.new_event_loop()
    try:
        aclient = loop.run_until_complete(
            make_async_client(
                backend,
                joins=joins,
                host=host,
                port=port,
                base_count=base_count,
                compute_count=compute_count,
                base_tables=base_tables,
                endpoints=endpoints,
                **server_kwargs,
            )
        )
    except BaseException:
        loop.close()
        raise
    return _FACADES[backend]._from_async(aclient, loop)
