"""RemoteClient: the sync facade over the RPC backend.

The implementation lives in
:class:`~repro.client.aio.AsyncRemoteClient` (argument checks, batch
encoding, the mapping of wire-level failures onto the unified
exception hierarchy); the facade runs it on
:class:`~repro.net.rpc_client.BlockingRpcClient` — one plain TCP
socket, one outstanding request — whose coroutines never suspend, so
every operation is stepped to completion directly.  There is no event
loop: a call costs one ``sendall`` and the ``recv``\\ s up to its
response.

Watch subscriptions are true server push even here: the server writes
change frames whenever they commit, ahead of the response to the
request that caused them.  The facade routes the ones it meets while a
call waits for its response, and ``iter_watch``'s ``next`` reads the
socket itself while it waits, so an idle watcher sees other clients'
writes as they happen.
"""

from __future__ import annotations

import time
from typing import Optional

from ..core.hub import ChangeEvent
from ..net.rpc_client import BlockingRpcClient
from .aio import AsyncRemoteClient, Watch
from .base import PequodClient, run_unsuspended


class _BlockingRemoteClient(AsyncRemoteClient):
    """The async core on the blocking transport: none of its
    coroutines suspends."""

    _transport = BlockingRpcClient


class RemoteClient(PequodClient):
    """Drive a Pequod RPC server at ``host:port``.

    Connection errors — at construction or on any later call — raise
    :class:`TransportError`; server-reported failures raise the typed
    error their code names.  A connection that fails is closed for
    good: every watch stream ends and every later call raises
    :class:`TransportError`.  ``close`` tears down the connection.
    """

    backend = "rpc"

    def __init__(self, host: str = "127.0.0.1", port: int = 7709) -> None:
        self._async = _BlockingRemoteClient(host, port)
        self._run(self._async.connect())

    @property
    def host(self) -> str:
        return self._async.host  # type: ignore[attr-defined]

    @property
    def port(self) -> int:
        return self._async.port  # type: ignore[attr-defined]

    # Nothing suspends on the blocking transport — not calls, not
    # subscribing or unsubscribing a watch — so nothing needs a loop.
    _run = _run_wait = staticmethod(run_unsuspended)

    def _next_event(
        self, watch: Watch, timeout: Optional[float]
    ) -> Optional[ChangeEvent]:
        # Nothing reads the socket between calls, so waiting for an
        # event means reading it here: pushes go to the watch's queue,
        # a lost connection ends the stream.
        rpc = self._async._rpc  # type: ignore[attr-defined]
        deadline = None if timeout is None else time.monotonic() + timeout
        while not watch.pending():
            remaining = None if deadline is None else deadline - time.monotonic()
            if (
                rpc is None
                or (remaining is not None and remaining <= 0)
                or not rpc.poll(remaining)
            ):
                return None
        return self._run(watch.next_event())

    def ping(self) -> str:
        return self._run(self._async.ping())  # type: ignore[attr-defined]

    def close(self) -> None:
        self._run(self._async.aclose())
