"""One exception hierarchy for every Pequod client backend.

The paper presents a single cache abstraction; its failures should look
the same whether the cache is in-process, across a TCP connection, or a
cluster.  Every :class:`~repro.client.base.PequodClient` backend maps
its transport's native faults onto these types:

* :class:`BadRequestError` — the caller's arguments were invalid (a
  non-string value, a malformed batch, an unknown method).
* :class:`JoinSpecError` — a cache join failed to parse or failed
  installation-time validation (§3's add-join checks).  A subclass of
  :class:`BadRequestError`: a bad join is a bad request.
* :class:`NotFoundError` — the request was well-formed but named
  something that does not exist (an unknown watch subscription, a
  missing-key engine fault).  Distinct from :class:`BadRequestError`
  so "that thing isn't there" never masquerades as "your request was
  malformed"; also a :class:`KeyError` for idiomatic handling.
* :class:`ServerError` — the server faulted while executing a
  well-formed request.
* :class:`OverloadError` — admission control shed the request (load
  control; see ``repro.core.load``).  Also a subclass of the core
  ``OverloadError`` so engine-level handlers catch it unchanged.
* :class:`DurabilityError` — the server's durable log failed (an I/O
  error on append, fsync or checkpoint) and takes no more writes until
  a restart; the failed write's outcome is unknown, reads still work.
  Also a subclass of ``repro.persist.DurabilityError``.
* :class:`TransportError` — the request never completed: connection
  refused/reset, protocol framing errors, client used after close.

Remote backends reconstruct the right type from the error code the RPC
server attaches to failure responses (``repro.net.protocol``), so
``except JoinSpecError:`` behaves identically on all backends.
"""

from __future__ import annotations

from ..core.load import OverloadError as CoreOverloadError
from ..net import protocol
from ..persist import DurabilityError as LogDurabilityError


class ClientError(Exception):
    """Base class for every Pequod client failure."""


class BadRequestError(ClientError, ValueError):
    """The request was invalid before any work happened."""


class JoinSpecError(BadRequestError):
    """A cache join failed parsing or add-join validation (§3)."""


class NotFoundError(ClientError, KeyError):
    """The request named something that does not exist."""

    def __str__(self) -> str:
        # KeyError.__str__ repr()s its argument; keep messages plain.
        return Exception.__str__(self)


class ServerError(ClientError):
    """The server faulted while executing the request."""


class OverloadError(ServerError, CoreOverloadError):
    """Admission control refused the request: the server is overloaded.

    Multiple inheritance keeps both ``except`` spellings working: code
    written against the client API catches :class:`ClientError` /
    :class:`ServerError`, code written against the core server catches
    ``repro.core.load.OverloadError`` — local backends re-raise the
    engine's exception as this type.
    """


class DurabilityError(ServerError, LogDurabilityError):
    """The server's durable log failed and refuses writes until a
    restart; the write that failed may or may not have reached disk.
    Local backends re-raise the log's exception as this type, and
    remote ones rebuild it from its error code."""


class TransportError(ClientError):
    """The request could not be delivered or completed."""


class WrongOwnerError(ServerError):
    """The addressed node no longer owns the key's range.

    The cluster's write fence: a migration or failover bumped the
    partition-map version, and this node's map says the operation
    belongs elsewhere.  Cluster clients catch this internally —
    refresh the map, re-route, retry — so it only escapes when a
    client keeps losing the race (or talks to the cluster with a
    pinned stale map).
    """


#: RPC error code -> unified exception type.
_CODE_TYPES = {
    protocol.ERR_CODE_JOIN: JoinSpecError,
    protocol.ERR_CODE_BAD_REQUEST: BadRequestError,
    protocol.ERR_CODE_NOT_FOUND: NotFoundError,
    protocol.ERR_CODE_SERVER: ServerError,
    protocol.ERR_CODE_OVERLOAD: OverloadError,
    protocol.ERR_CODE_WRONG_OWNER: WrongOwnerError,
    protocol.ERR_CODE_DURABILITY: DurabilityError,
}


def error_for_code(code: str, message: str) -> ClientError:
    """The unified exception for one RPC error code."""
    return _CODE_TYPES.get(code, ServerError)(message)
