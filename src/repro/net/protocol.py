"""Framed request/response protocol for Pequod RPC (paper §5.1).

"Application clients communicate with Pequod servers using RPC" —
requests and responses are codec-encoded values inside 4-byte
big-endian length frames.  Clients are event-driven and keep many RPCs
outstanding (§5.1), so every request carries an id and responses may
arrive in any order.

Request  : ``[id, method, args...]``
Response : ``[id, status, payload]`` with status "ok" or "err".  An
"err" payload is ``[code, message]`` where ``code`` is one of
:data:`ERR_CODES`, letting clients surface server-side faults as the
unified exception types of ``repro.client.errors``.  The "ok" payload
of ``scan`` / ``scan_prefix`` is one :class:`~repro.net.codec.RowBlock`
— all keys, then all values, each column one UTF-8 blob behind a table
of lengths — which decodes straight to the list of ``(key, value)``
tuples every client returns; nothing re-copies it on either side.
Push     : ``[push_id, "push", events]`` — a server-initiated frame
carrying committed changes for one subscription (§2.4's push model).
Push ids are *reserved negative ids*: clients allocate request ids
from 0 upward, the server derives ``push_id = -sub_id - 1``, so pushed
frames interleave freely with pipelined responses on one connection
and a client can route every inbound frame by the sign of its id.

Methods mirror the server API: ``get``, ``put``, ``remove``, ``scan``,
``add_join``, ``count``, ``stats``, ``ping``, plus ``batch`` — a group
of coalesced writes shipped as one request (sorted keys travel
prefix-compressed; a None value marks a remove), applied server-side as
one maintenance pass — and the watch-stream pair ``subscribe`` /
``unsubscribe`` (``subscribe lo hi`` answers a per-connection
subscription id whose changes then arrive as push frames).
"""

from __future__ import annotations

import struct
from typing import Any, List, Optional, Tuple

from ..core.hub import ChangeEvent
from ..core.operators import ChangeKind
from .codec import CodecError, KeyList, decode, encode

MAX_FRAME = 64 * 1024 * 1024  # sanity cap

OK = "ok"
ERR = "err"
PUSH = "push"

#: Error codes attached to failure responses so every client backend
#: can raise the same unified exception type (repro.client.errors).
#: An error payload is ``[code, message]``; bare-string payloads from
#: older peers are treated as ``ERR_CODE_SERVER``.
ERR_CODE_JOIN = "join"  # join failed parse or add-join validation
ERR_CODE_BAD_REQUEST = "bad_request"  # invalid arguments / unknown method
ERR_CODE_NOT_FOUND = "not_found"  # the named thing does not exist
ERR_CODE_SERVER = "server"  # server fault executing a valid request
ERR_CODE_WRONG_OWNER = "wrong_owner"  # key's range moved; refresh the map
ERR_CODE_DURABILITY = "durability"  # the durable log failed; restart to recover
ERR_CODES = (
    ERR_CODE_JOIN, ERR_CODE_BAD_REQUEST, ERR_CODE_NOT_FOUND, ERR_CODE_SERVER,
    ERR_CODE_WRONG_OWNER, ERR_CODE_DURABILITY,
)

#: Methods a Pequod RPC server accepts, mapped to server attributes.
METHODS = (
    "get", "put", "remove", "scan", "scan_prefix", "count", "add_join",
    "stats", "metrics", "ping", "batch", "subscribe", "unsubscribe",
    "settle_cdc",
)

#: Additional methods a *cluster node's* public endpoint accepts.
#: ``put``/``remove``/``batch`` grow an optional trailing map-version
#: argument on cluster nodes (the write fence — a node whose map says
#: it no longer owns the key answers ERR_CODE_WRONG_OWNER); plain
#: servers ignore the extra argument.
CLUSTER_METHODS = (
    "partition_map",  # -> PartitionMap wire form (or None)
    "install_map",  # [wire, dead_node?] adopt a newer map
    "replica_batch",  # [keys, values] replica apply, ownership-exempt
    "migrate_range",  # [lo, hi, target, new_map_wire] source-side driver
    "cluster_settle",  # -> per-peer sent/applied counters
    "cluster_info",  # -> {name, map_version, ...}
)

#: Methods a cluster node's *peer* endpoint accepts (node-to-node
#: only; these handlers never block on another node, which is what
#: makes the two-port design deadlock-free).
PEER_METHODS = (
    "fetch_range",  # [subscriber, table, lo, hi] snapshot + subscribe
    "peer_unsubscribe",  # [subscriber, lo, hi]
    "mirror_updates",  # [src, updates] subscription pushes
    "migrate_install",  # [lo, hi, keys, values] snapshot chunk
    "migrate_tail",  # [lo, hi, updates] WAL-tail catch-up
    "adopt_subscriptions",  # [[subscriber, lo, hi], ...] handoff
    "install_map",  # [wire] activation during migration
    "ping",
)


class ProtocolError(ValueError):
    """Raised on malformed frames or messages."""


def frame(payload: bytes) -> bytes:
    """Wrap an encoded message in a length prefix."""
    if len(payload) > MAX_FRAME:
        raise ProtocolError(f"frame too large: {len(payload)}")
    return struct.pack(">I", len(payload)) + payload


def encode_request(request_id: int, method: str, args: List[Any]) -> bytes:
    return frame(encode([request_id, method, *args]))


def encode_response(request_id: int, status: str, payload: Any) -> bytes:
    return frame(encode([request_id, status, payload]))


def decode_message(payload: bytes) -> List[Any]:
    try:
        message = decode(payload)
    except CodecError as exc:
        raise ProtocolError(f"bad message: {exc}") from exc
    if not isinstance(message, list) or len(message) < 2:
        raise ProtocolError(f"malformed message: {message!r}")
    return message


def parse_request(message: List[Any]) -> Tuple[int, str, List[Any]]:
    request_id, method, *args = message
    if not isinstance(request_id, int) or not isinstance(method, str):
        raise ProtocolError(f"malformed request: {message!r}")
    return request_id, method, args


def parse_response(message: List[Any]) -> Tuple[int, str, Any]:
    if len(message) != 3:
        raise ProtocolError(f"malformed response: {message!r}")
    request_id, status, payload = message
    if not isinstance(request_id, int) or status not in (OK, ERR, PUSH):
        raise ProtocolError(f"malformed response: {message!r}")
    return request_id, status, payload


# ----------------------------------------------------------------------
# Server-push frames (watch subscriptions, §2.4)
# ----------------------------------------------------------------------
def push_id_for(sub_id: int) -> int:
    """The reserved negative frame id for subscription ``sub_id``."""
    if sub_id < 0:
        raise ProtocolError(f"subscription ids are non-negative: {sub_id}")
    return -sub_id - 1


def sub_id_of(push_id: int) -> int:
    """Invert :func:`push_id_for`."""
    if push_id >= 0:
        raise ProtocolError(f"push ids are negative: {push_id}")
    return -push_id - 1


def encode_event(event: ChangeEvent) -> List[Any]:
    return [event.seq, event.key, event.old, event.new, event.kind.value]


def decode_event(body: Any) -> ChangeEvent:
    if not isinstance(body, list) or len(body) != 5:
        raise ProtocolError(f"malformed change event: {body!r}")
    seq, key, old, new, kind = body
    if not isinstance(seq, int) or not isinstance(key, str):
        raise ProtocolError(f"malformed change event: {body!r}")
    try:
        return ChangeEvent(seq, key, old, new, ChangeKind(kind))
    except ValueError as exc:
        raise ProtocolError(f"malformed change event: {body!r}") from exc


def encode_push(sub_id: int, events: List[ChangeEvent]) -> bytes:
    """One server-push frame carrying ``events`` for ``sub_id``."""
    return frame(
        encode([push_id_for(sub_id), PUSH, [encode_event(e) for e in events]])
    )


def parse_push(message: List[Any]) -> Tuple[int, List[ChangeEvent]]:
    """``(sub_id, events)`` from a parsed push message."""
    push_id, status, payload = parse_response(message)
    if status != PUSH or push_id >= 0 or not isinstance(payload, list):
        raise ProtocolError(f"malformed push frame: {message!r}")
    return sub_id_of(push_id), [decode_event(item) for item in payload]


def encode_error(code: str, message: str) -> List[Any]:
    """The payload of one failure response."""
    if code not in ERR_CODES:
        raise ProtocolError(f"unknown error code {code!r}")
    return [code, message]


def parse_error(payload: Any) -> Tuple[str, str]:
    """``(code, message)`` from a failure-response payload.

    Accepts the structured ``[code, message]`` form and, for
    compatibility with bare-string error payloads, classifies unknown
    shapes as server faults.
    """
    if (
        isinstance(payload, list)
        and len(payload) == 2
        and payload[0] in ERR_CODES
        and isinstance(payload[1], str)
    ):
        return payload[0], payload[1]
    return ERR_CODE_SERVER, str(payload)


def encode_batch_args(pairs: List[Tuple[str, Optional[str]]]) -> List[Any]:
    """Request args for one ``batch`` RPC.

    ``pairs`` is the coalesced operation list in key order; a None
    value means remove.  Keys ship as a prefix-compressed
    :class:`KeyList` — sorted batch keys share long prefixes, so the
    coalesced message costs far less than per-key requests.
    """
    return [KeyList(key for key, _ in pairs), [value for _, value in pairs]]


def decode_batch_args(args: List[Any]) -> List[Tuple[str, Optional[str]]]:
    """Validate and unpack one ``batch`` request's args."""
    if len(args) != 2:
        raise ProtocolError(f"batch expects [keys, values], got {len(args)} args")
    keys, values = args
    if not isinstance(keys, list) or not isinstance(values, list):
        raise ProtocolError("batch keys and values must be lists")
    if len(keys) != len(values):
        raise ProtocolError(
            f"batch length mismatch: {len(keys)} keys, {len(values)} values"
        )
    for key, value in zip(keys, values):
        if not isinstance(key, str) or not key:
            raise ProtocolError(f"bad batch key: {key!r}")
        if value is not None and not isinstance(value, str):
            raise ProtocolError(f"bad batch value for {key!r}: {value!r}")
    return list(zip(keys, values))


class FrameBuffer:
    """Incremental frame reassembly for a byte stream."""

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> List[bytes]:
        """Append stream bytes; return any complete frame payloads."""
        self._buf.extend(data)
        frames: List[bytes] = []
        while True:
            payload = self._next_frame()
            if payload is None:
                return frames
            frames.append(payload)

    def _next_frame(self) -> Optional[bytes]:
        if len(self._buf) < 4:
            return None
        (length,) = struct.unpack(">I", self._buf[:4])
        if length > MAX_FRAME:
            raise ProtocolError(f"frame too large: {length}")
        if len(self._buf) < 4 + length:
            return None
        payload = bytes(self._buf[4 : 4 + length])
        del self._buf[: 4 + length]
        return payload

    def pending_bytes(self) -> int:
        return len(self._buf)
