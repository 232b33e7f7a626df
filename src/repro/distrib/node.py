"""A distributed Pequod node (paper §2.4).

Every node wraps a full :class:`PequodServer`.  Two roles mirror the
scalability experiment (§5.5): *base* nodes are home servers absorbing
writes; *compute* nodes execute cache joins near clients and mirror the
base ranges those joins read.

A compute node's :class:`~repro.core.mirror.MirrorResolver` implements
§3.3's missing-data resolution: before a join scans a source range,
gaps in the locally mirrored coverage are fetched in bulk from the
range's home server and a subscription is installed there.  Fetches
apply synchronously (the paper uses asynchronous fetch + restart
contexts; the outcome — all data resident before the query completes
— is identical) but are charged to the simulated network.
Subscription *updates* travel as real asynchronous messages, one
``sub_update_batch`` per push (a single write is a batch of one), so
replicas are eventually consistent exactly as described.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.mirror import MirrorResolver
from ..core.operators import ChangeKind
from ..core.server import PequodServer
from ..net.codec import encode
from ..net.simnet import SimHost, SimNetwork
from .partition import Partitioner
from .subscription import (
    SubscriptionRegistry,
    Update,
    decode_update_batch,
    encode_update_batch,
)


ROLE_BASE = "base"
ROLE_COMPUTE = "compute"

#: Message kinds on the wire (also the traffic-breakdown buckets).
MSG_FETCH = "sub_fetch"
MSG_FETCH_REPLY = "sub_fetch_reply"
MSG_UPDATE_BATCH = "sub_update_batch"
MSG_WRITE_FWD = "client_write_fwd"


class DistributedNode:
    """One Pequod process in a cluster."""

    def __init__(
        self,
        name: str,
        role: str,
        net: SimNetwork,
        partitioner: Partitioner,
        server: Optional[PequodServer] = None,
    ) -> None:
        if role not in (ROLE_BASE, ROLE_COMPUTE):
            raise ValueError(f"unknown role {role!r}")
        self.name = name
        self.role = role
        self.net = net
        self.partitioner = partitioner
        self.server = server if server is not None else PequodServer(name=name)
        self.host = SimHost(net, name)
        self.host.node = self  # back-reference for synchronous fetches
        self.subscriptions = SubscriptionRegistry(self.server.hub, self._push)
        self.resolver = MirrorResolver(
            self._homes, self.fetch_and_subscribe, self._unsubscribe
        )
        self.server.set_resolver(self.resolver)
        self.updates_sent = 0
        self.updates_applied = 0
        self.update_batches_sent = 0
        self.host.on(MSG_UPDATE_BATCH, self._on_update_batch_message)
        self.host.on(MSG_WRITE_FWD, self._on_forwarded_write)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DistributedNode {self.name} {self.role}>"

    # ------------------------------------------------------------------
    # Client-facing operations
    # ------------------------------------------------------------------
    def put(self, key: str, value: str) -> None:
        self.server.put(key, value)

    def remove(self, key: str) -> bool:
        return self.server.remove(key)

    def apply_batch(self, batch) -> int:
        """Apply a write batch locally with coalesced propagation.

        Subscriber notifications generated during the batch are
        buffered per destination and flushed as ONE ``sub_update_batch``
        message each — the cross-node analogue of the engine's single
        maintenance pass.  Returns the number of net changes applied.
        """
        with self.subscriptions.batch():
            return self.server.apply_batch(batch)

    def get(self, key: str) -> Optional[str]:
        return self.server.get(key)

    def scan(self, first: str, last: str):
        return self.server.scan(first, last)

    # ------------------------------------------------------------------
    # Home-server side
    # ------------------------------------------------------------------
    def handle_fetch(self, subscriber: str, table: str, lo: str, hi: str):
        """Serve a range fetch and install the subscription (§2.4)."""
        rows = self.server.store.scan(lo, hi)
        self.subscriptions.subscribe(subscriber, lo, hi)
        return rows

    def _push(self, dst: str, updates: List[Update]) -> None:
        self.updates_sent += len(updates)
        self.update_batches_sent += 1
        self.host.send(dst, MSG_UPDATE_BATCH, encode_update_batch(updates))

    # ------------------------------------------------------------------
    # Mirror side
    # ------------------------------------------------------------------
    def _homes(self, table: str, lo: str, hi: str):
        if not self.partitioner.is_base_table(table):
            return None
        return [
            (lo, hi, None, True) if home == self.name else (lo, hi, home, False)
            for home in self.partitioner.homes_for_range(table, lo, hi)
        ]

    def fetch_and_subscribe(self, home: str, table: str, lo: str, hi: str):
        """Synchronously fetch ``[lo, hi)`` from ``home`` and subscribe.

        The request/response pair is charged to the network (the paper
        resolves fetches asynchronously with restart contexts; the data
        outcome is the same, see module docstring).
        """
        request = [table, lo, hi]
        self.net.account(self.name, home, MSG_FETCH, len(encode(request)))
        rows = self._node_of(home).handle_fetch(self.name, table, lo, hi)
        reply_size = len(encode([list(r) for r in rows]))
        self.net.account(home, self.name, MSG_FETCH_REPLY, max(reply_size, 16))
        return rows

    def _unsubscribe(self, home: str, table: str, lo: str, hi: str) -> None:
        self._node_of(home).subscriptions.unsubscribe(self.name, lo, hi)

    def _node_of(self, name: str) -> "DistributedNode":
        host = self.net.hosts[name]
        node = getattr(host, "node", None)
        if node is None:
            raise RuntimeError(f"host {name!r} is not a DistributedNode")
        return node

    def _on_update_batch_message(self, src: str, body) -> None:
        """Subscription updates arrived from a home.

        Covered updates apply as ONE engine batch, so the mirror's own
        join maintenance (e.g. a compute node's timelines) also runs as
        a single coalesced pass.
        """
        pairs = self.resolver.covered(decode_update_batch(body))
        if not pairs:
            return
        self.updates_applied += len(pairs)
        self.server.engine.apply_batch(pairs)

    def _on_forwarded_write(self, src: str, body) -> None:
        """A write forwarded from a read-your-own-writes session."""
        key, value, kind = body
        if kind == ChangeKind.REMOVE.value:
            self.server.remove(key)
        else:
            self.server.put(key, value or "")

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        return self.server.memory_bytes() + self.subscriptions.memory_bytes()
