"""LocalClient: the sync facade over an in-process async backend.

The zero-deployment backend — what the paper calls the single-machine
configuration (§5.2).  The implementation lives in
:class:`~repro.client.aio.AsyncLocalClient`; this facade owns an event
loop and drives it per operation, with a fast path for the common case
(in-process operations complete without ever suspending, so the
coroutine can be stepped to completion directly — no loop round trip
on the hot path).
"""

from __future__ import annotations

from typing import Awaitable, Optional, TypeVar

from ..core.server import PequodServer
from .aio import AsyncLocalClient
from .base import PequodClient, run_unsuspended

T = TypeVar("T")


class LocalClient(PequodClient):
    """Drive an in-process :class:`PequodServer`.

    Accepts an existing server (sharing it with direct callers is
    fine — both see the same store) or builds one from the keyword
    arguments, which mirror the server's tunables::

        client = LocalClient(subtable_config={"t": 2})
    """

    backend = "local"

    def __init__(
        self, server: Optional[PequodServer] = None, **server_kwargs
    ) -> None:
        self._adopt(AsyncLocalClient(server, **server_kwargs))

    @property
    def server(self) -> PequodServer:
        """The in-process server (tests and benchmarks poke it)."""
        return self._async.server  # type: ignore[attr-defined]

    def _run(self, coro: Awaitable[T]) -> T:
        # In-process operations never suspend: AsyncLocalClient's
        # primitives are straight-line calls into the engine, so the
        # coroutine runs to StopIteration on its first step.  Stepping
        # it directly skips the event-loop round trip per operation;
        # anything that genuinely suspends (watch streams — see
        # ``_run_wait``) still takes the loop.
        return run_unsuspended(coro)
