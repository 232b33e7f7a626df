"""The synchronous Pequod client interface — a facade over the async
core.

The paper presents one cache abstraction — ``get``, ``put``,
``remove``, ``scan`` plus add-join (§2) — independent of where the
cache runs.  The *primary* implementation of that abstraction is the
event-driven async API of :mod:`repro.client.aio` (the paper's clients
are event-driven, §5.1); :class:`PequodClient` is its blocking facade
for synchronous applications: every sync client owns an async backend
and runs each operation's coroutine to completion — on a private event
loop, or, where the backend never suspends (in-process calls, RPC on a
blocking socket), by stepping it directly.  There is therefore exactly
one implementation of each backend:

* :class:`~repro.client.local.LocalClient` — over
  :class:`~repro.client.aio.AsyncLocalClient` (in-process server);
* :class:`~repro.client.remote.RemoteClient` — over
  :class:`~repro.client.aio.AsyncRemoteClient` (TCP RPC, one blocking
  socket instead of the pipelined asyncio connection);
* :class:`~repro.client.cluster.ClusterClient` — over
  :class:`~repro.client.aio.AsyncClusterClient` (distributed
  deployment, §2.4).

All backends share the typed operation set below, the exception
hierarchy of :mod:`repro.client.errors`, and identical semantics for
results.  The only deliberate semantic difference is freshness: a
cluster propagates updates asynchronously (§2.4's eventual
consistency), so :meth:`settle` — a no-op on the other backends —
delivers in-flight maintenance when a caller needs a globally
consistent view.  Server-push watch streams (§2.4) surface here as
:meth:`iter_watch`, a blocking view over the async ``watch`` stream.
"""

from __future__ import annotations

import asyncio
from typing import (
    TYPE_CHECKING,
    Awaitable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from ..core.joins import CacheJoin
from ..store.batch import BatchOp, WriteBatch, as_ops
from .builder import JoinBuilder
from .errors import BadRequestError, ClientError, TransportError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.hub import ChangeEvent
    from .aio import AsyncPequodClient, Watch

T = TypeVar("T")

#: Anything a client's ``add_join`` accepts: grammar text (possibly
#: several ';'-separated joins), a compiled join, a fluent builder, or
#: a sequence of any of those.
JoinLike = Union[str, CacheJoin, JoinBuilder, Sequence["JoinLike"]]

#: Anything a client's ``apply_batch`` accepts: a WriteBatch or
#: (key, value_or_None) pairs, None meaning remove.
BatchLike = Union[WriteBatch, Iterable[Tuple[str, Union[str, None]]]]


def join_text(join: JoinLike) -> str:
    """Normalize any accepted join form to ONE grammar-text spec.

    Text is passed through verbatim (it may hold several joins);
    compiled joins and builders contribute their normalized text;
    sequences join on statement separators.  Parsing/validation
    happens at the server — so every backend rejects the same specs
    with the same :class:`JoinSpecError` — and one spec installs
    atomically there, however many statements it holds.
    """
    if isinstance(join, str):
        return join
    if isinstance(join, CacheJoin):
        return join.text
    if isinstance(join, JoinBuilder):
        return join.build().text
    if isinstance(join, Sequence):
        # ";\n" (not bare ";") so a line comment ending one text
        # cannot swallow the next statement.
        return ";\n".join(join_text(item) for item in join)
    raise BadRequestError(f"cannot interpret {join!r} as a cache join")


def check_value(value: str) -> None:
    """Uniform argument validation: Pequod values are strings."""
    if not isinstance(value, str):
        raise BadRequestError(
            f"Pequod values are strings, got {type(value).__name__}"
        )


def checked_ops(batch: BatchLike) -> List[BatchOp]:
    """Coalesce any accepted batch form, surfacing malformed batches
    (non-string values, empty keys) as the unified
    :class:`BadRequestError` on every backend."""
    try:
        return as_ops(batch)
    except ClientError:
        raise
    except (TypeError, ValueError) as exc:
        raise BadRequestError(f"malformed batch: {exc}") from exc


def run_unsuspended(coro: Awaitable[T]) -> T:
    """Step to completion a coroutine that never suspends — an
    in-process operation, or an RPC on the blocking transport — with
    no event loop underneath."""
    try:
        coro.send(None)  # type: ignore[attr-defined]
    except StopIteration as stop:
        return stop.value
    coro.close()  # type: ignore[attr-defined]
    raise AssertionError("coroutine suspended; it needs an event loop")


class SyncWatch:
    """A blocking view of an async :class:`~repro.client.aio.Watch`.

    Produced by :meth:`PequodClient.iter_watch`.  Each call lets the
    owning client receive (its event loop runs, or its socket is
    read), so pushed frames keep arriving while the caller waits::

        watch = client.iter_watch("t|ann|", "t|ann}")
        client.put("p|bob|0100", "hello!")
        event = watch.next(timeout=1.0)

    Iterating a ``SyncWatch`` blocks for each next event until the
    stream is closed; :meth:`next` with a timeout and :meth:`drain`
    give non-blocking-ish access.
    """

    def __init__(self, client: "PequodClient", watch: "Watch") -> None:
        self._client = client
        self.watch = watch

    @property
    def lo(self) -> str:
        return self.watch.lo

    @property
    def hi(self) -> str:
        return self.watch.hi

    def next(self, timeout: Optional[float] = None) -> Optional["ChangeEvent"]:
        """The next change, or None when the stream ended or
        ``timeout`` seconds passed without one."""
        return self._client._next_event(self.watch, timeout)

    def drain(self, settle: float = 0.05) -> List["ChangeEvent"]:
        """Collect events until none arrives for ``settle`` seconds."""
        out: List["ChangeEvent"] = []
        while True:
            event = self.next(timeout=settle)
            if event is None:
                return out
            out.append(event)

    def __iter__(self):
        while True:
            event = self.next()
            if event is None:
                return
            yield event

    def close(self) -> None:
        self._client._run_wait(self.watch.close())

    def __enter__(self) -> "SyncWatch":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class PequodClient:
    """Abstract sync client for a Pequod cache, whatever its deployment.

    A facade: subclasses bind an :class:`~repro.client.aio` backend
    (see module docstring) and say how its coroutines are run
    (:meth:`_run`); every operation below goes through that.  Clients
    are context managers::

        with make_client("rpc") as client:
            client.add_join(join("t|<u>|<tm>|<p>")
                            .check("s|<u>|<p>").copy("p|<p>|<tm>"))
            client.put("s|ann|bob", "1")
    """

    #: Short backend tag ("local", "rpc", "cluster") for diagnostics.
    backend = "abstract"

    _async: "AsyncPequodClient"
    _loop: asyncio.AbstractEventLoop

    # ------------------------------------------------------------------
    # Facade plumbing
    # ------------------------------------------------------------------
    def _adopt(
        self,
        aclient: "AsyncPequodClient",
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> None:
        """Bind this facade to its async backend and owned loop."""
        self._async = aclient
        self._loop = loop if loop is not None else asyncio.new_event_loop()

    @classmethod
    def _from_async(
        cls, aclient: "AsyncPequodClient", loop: asyncio.AbstractEventLoop
    ) -> "PequodClient":
        """Wrap an already-built async backend (factory path)."""
        self = cls.__new__(cls)
        self._adopt(aclient, loop)
        return self

    def _run(self, coro: Awaitable[T]) -> T:
        """Drive the owned loop until ``coro`` completes."""
        return self._run_wait(coro)

    def _run_wait(self, coro: Awaitable[T]) -> T:
        if self._loop.is_closed():
            coro.close()  # type: ignore[attr-defined]
            raise TransportError("client is closed")
        return self._loop.run_until_complete(coro)

    def _next_event(
        self, watch: "Watch", timeout: Optional[float]
    ) -> Optional["ChangeEvent"]:
        """Block for ``watch``'s next event (:meth:`SyncWatch.next`)."""
        return self._run_wait(watch.next_event(timeout))

    # ------------------------------------------------------------------
    # Backend operations (each drives the async core)
    # ------------------------------------------------------------------
    def get(self, key: str) -> Union[str, None]:
        """The value for ``key``, computing overlapping joins on demand."""
        return self._run(self._async.get(key))

    def put(self, key: str, value: str) -> None:
        """Write ``key``; incremental maintenance runs before returning."""
        return self._run(self._async.put(key, value))

    def remove(self, key: str) -> bool:
        """Remove ``key``; True iff it was present (on every backend)."""
        return self._run(self._async.remove(key))

    def scan(self, first: str, last: str) -> List[Tuple[str, str]]:
        """Ordered pairs with ``first <= key < last`` (§2's scan)."""
        return self._run(self._async.scan(first, last))

    def add_join(self, join: JoinLike) -> List[str]:
        """Install cache joins; returns their normalized texts."""
        return self._run(self._async.add_join(join))

    def apply_batch(self, batch: BatchLike) -> int:
        """Apply a coalesced write batch as one maintenance pass;
        returns the number of net changes applied."""
        return self._run(self._async.apply_batch(batch))

    def stats(self) -> Dict[str, float]:
        """Server work counters (summed across servers on a cluster)."""
        return self._run(self._async.stats())

    def scan_prefix(self, prefix: str) -> List[Tuple[str, str]]:
        """All pairs whose keys start with ``prefix``."""
        return self._run(self._async.scan_prefix(prefix))

    def count(self, first: str, last: str) -> int:
        return self._run(self._async.count(first, last))

    def exists(self, key: str) -> bool:
        return self._run(self._async.exists(key))

    def put_many(self, pairs: Iterable[Tuple[str, str]]) -> int:
        """Batch-write ``(key, value)`` pairs; returns changes applied."""
        return self._run(self._async.put_many(pairs))

    def write_batch(self) -> WriteBatch:
        """A write batch bound to this client; applies on clean
        ``with`` exit or explicit :meth:`WriteBatch.apply`."""
        return WriteBatch(sink=self)

    # ------------------------------------------------------------------
    # Watch streams (server push, §2.4)
    # ------------------------------------------------------------------
    def iter_watch(self, lo: str, hi: str) -> SyncWatch:
        """A blocking stream of committed changes in ``[lo, hi)``.

        Every change committed after the call — client writes and
        maintained join outputs alike — is delivered exactly once, in
        commit order (per key: key-version order).  See
        :class:`SyncWatch`; close it to unsubscribe."""
        return SyncWatch(self, self._run_wait(self._async.watch(lo, hi)))

    # ------------------------------------------------------------------
    # Deployment hooks
    # ------------------------------------------------------------------
    def settle(self) -> int:
        """Deliver in-flight asynchronous maintenance; returns the
        number of messages delivered.  Local and RPC backends are
        synchronous, so this is 0 there; on a cluster it drains the
        network (§2.4's eventual consistency made momentarily exact)."""
        return self._run(self._async.settle())

    def settle_cdc(self) -> int:
        """Write-around convergence barrier: drain the change feed into
        the cache (see :mod:`repro.cdc`).  Returns records consumed; 0
        on write-through deployments."""
        return self._run(self._async.settle_cdc())

    def close(self) -> None:
        """Release backend resources; the client is unusable after."""
        loop = getattr(self, "_loop", None)
        if loop is None or loop.is_closed():
            return
        try:
            loop.run_until_complete(self._async.aclose())
        finally:
            loop.close()

    def __enter__(self) -> "PequodClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        loop = getattr(self, "_loop", None)
        if loop is not None and not loop.is_closed() and not loop.is_running():
            loop.close()

    # ------------------------------------------------------------------
    @staticmethod
    def check_value(value: str) -> None:
        """Uniform argument validation: Pequod values are strings."""
        check_value(value)

    @staticmethod
    def checked_ops(batch: BatchLike) -> List[BatchOp]:
        """See :func:`checked_ops`."""
        return checked_ops(batch)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} backend={self.backend!r}>"
