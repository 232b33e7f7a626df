"""Cluster orchestration and client routing (paper §2.4, §5.5).

A :class:`Cluster` owns base nodes (home servers absorbing writes),
compute nodes (join execution near clients), a partitioner, and the
simulated network.  Client operations follow the paper's Twip strategy:

* writes go to the written key's home server (lookaside, §5.1);
* all of a user's reads go to one compute server ``S(u)`` chosen by
  affinity hash, minimizing duplicate timeline storage (§2.4).

Client traffic is charged to the network under ``client_*`` kinds and
inter-server traffic under ``sub_*`` kinds, which is how the §5.5
subscription-overhead percentages are measured.  ``Session`` provides
the read-your-own-writes mode: one server for both reads and writes,
with base writes forwarded to their homes asynchronously.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.operators import ChangeKind
from ..core.server import PequodServer
from ..net.codec import encode
from ..net.protocol import encode_batch_args
from ..net.simnet import SimNetwork
from ..store.batch import PUT, as_ops
from ..store.keys import SEP
from .node import (
    MSG_WRITE_FWD,
    ROLE_BASE,
    ROLE_COMPUTE,
    DistributedNode,
)
from .partition import Partitioner, stable_hash
from .partition_map import HashPartitionMap

KIND_CLIENT_OP = "client_op"
KIND_CLIENT_REPLY = "client_reply"


class Cluster:
    """A distributed Pequod deployment over a simulated network."""

    def __init__(
        self,
        base_count: int,
        compute_count: int,
        base_tables: Sequence[str],
        joins: Optional[str] = None,
        net: Optional[SimNetwork] = None,
        server_factory=None,
    ) -> None:
        if base_count < 1 or compute_count < 1:
            raise ValueError("need at least one base and one compute node")
        self.net = net if net is not None else SimNetwork()
        base_names = [f"base{i:02d}" for i in range(base_count)]
        self.partitioner = Partitioner(base_tables, base_names)
        #: Versioned map-consult routing facade over the partitioner —
        #: the same interface shape the multi-process cluster consults,
        #: so routing code is written once against a map object.
        self.partition_map = HashPartitionMap(self.partitioner)
        factory = server_factory or (lambda name: PequodServer(name=name))
        self.base_nodes: List[DistributedNode] = [
            DistributedNode(n, ROLE_BASE, self.net, self.partitioner, factory(n))
            for n in base_names
        ]
        self.compute_nodes: List[DistributedNode] = [
            DistributedNode(
                f"compute{i:02d}", ROLE_COMPUTE, self.net, self.partitioner,
                factory(f"compute{i:02d}"),
            )
            for i in range(compute_count)
        ]
        if joins:
            # Compute nodes execute joins; base nodes only hold base data.
            for node in self.compute_nodes:
                node.server.add_join(joins)
        self.client_ops = 0
        #: Names of nodes killed by fault injection (see kill_node).
        self.dead: set = set()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def home_node(self, key: str) -> DistributedNode:
        home = self.partition_map.home_of(key)
        if home is None:
            # Not partitioned base data: land it deterministically.
            index = stable_hash(key) % len(self.base_nodes)
            return self.base_nodes[index]
        return self._by_name(home)

    @property
    def live_compute_nodes(self) -> List[DistributedNode]:
        """Compute nodes still in service (routing skips killed ones)."""
        if not self.dead:
            return self.compute_nodes
        return [n for n in self.compute_nodes if n.name not in self.dead]

    def compute_node_for(self, affinity: str) -> DistributedNode:
        """The compute server ``S(u)`` all of ``affinity``'s reads use.

        Routes over the *live* compute tier: killing a node rehashes
        its affinities onto the survivors, which demand-recompute from
        surviving base data (compute state is soft — §2.5's cache view
        applied to failure recovery).
        """
        live = self.live_compute_nodes
        if not live:
            raise RuntimeError("no live compute nodes")
        index = stable_hash(affinity) % len(live)
        return live[index]

    def _by_name(self, name: str) -> DistributedNode:
        for node in self.base_nodes + self.compute_nodes:
            if node.name == name:
                return node
        raise KeyError(name)

    @property
    def nodes(self) -> List[DistributedNode]:
        return self.base_nodes + self.compute_nodes

    # ------------------------------------------------------------------
    # Client operations (charged to the network as client traffic)
    # ------------------------------------------------------------------
    def _client_op(self, node: DistributedNode, request, op, reply_size=None):
        """Run ``op`` as ONE client round trip to ``node``, charging
        request and reply bytes to the network — the accounting every
        client-facing operation shares (§5.5's traffic breakdown).
        ``reply_size`` sizes the reply from the result; the default is
        the fixed 8-byte write acknowledgement."""
        self.client_ops += 1
        self.net.account("client", node.name, KIND_CLIENT_OP,
                         len(encode(request)))
        result = op()
        self.net.account(
            node.name, "client", KIND_CLIENT_REPLY,
            8 if reply_size is None else reply_size(result),
        )
        return result

    @staticmethod
    def _rows_reply(rows) -> int:
        return max(len(encode([list(r) for r in rows])), 16)

    @staticmethod
    def _value_reply(value) -> int:
        return len(encode([value])) if value else 16

    def put(self, key: str, value: str) -> None:
        """Lookaside write: straight to the key's home server (§5.1)."""
        node = self.home_node(key)
        self._client_op(node, [key, value], lambda: node.put(key, value))

    def remove(self, key: str) -> bool:
        node = self.home_node(key)
        return self._client_op(node, [key], lambda: node.remove(key))

    def apply_batch(self, batch) -> int:
        """Batched lookaside writes: one shipment per home server.

        The batch (a WriteBatch or operation iterable) is coalesced,
        split by home server, and each home receives its slice as one
        client message; every home then runs one maintenance pass and
        flushes one coalesced update message per subscriber.  Returns
        the number of net changes applied across homes.
        """
        by_home: Dict[str, List[Tuple[str, Optional[str]]]] = {}
        nodes: Dict[str, DistributedNode] = {}
        for op in as_ops(batch):
            node = self.home_node(op.key)
            nodes[node.name] = node
            by_home.setdefault(node.name, []).append(
                (op.key, op.value if op.kind == PUT else None)
            )
        return sum(
            self.apply_batch_at(nodes[name], pairs)
            for name, pairs in by_home.items()
        )

    def put_many(self, pairs: Sequence[Tuple[str, str]]) -> int:
        """Convenience: batch-write ``(key, value)`` pairs."""
        return self.apply_batch(pairs)

    def scan(self, affinity: str, first: str, last: str) -> List[Tuple[str, str]]:
        """Read routed to the user's compute server."""
        node = self.compute_node_for(affinity)
        return self._client_op(
            node, [first, last], lambda: node.scan(first, last),
            self._rows_reply,
        )

    def get(self, affinity: str, key: str) -> Optional[str]:
        node = self.compute_node_for(affinity)
        return self._client_op(
            node, [key], lambda: node.get(key), self._value_reply
        )

    # -- node-directed operations (used by the unified client) ----------
    def put_at(self, node: DistributedNode, key: str, value: str) -> None:
        """A client write sent to a specific server.  Used for writes
        into computed ranges, which live at the compute tier, not at a
        base home."""
        self._client_op(node, [key, value], lambda: node.put(key, value))

    def remove_at(self, node: DistributedNode, key: str) -> bool:
        return self._client_op(node, [key], lambda: node.remove(key))

    def apply_batch_at(
        self, node: DistributedNode, pairs: List[Tuple[str, Optional[str]]]
    ) -> int:
        return self._client_op(
            node, encode_batch_args(pairs), lambda: node.apply_batch(pairs)
        )

    def stored_rows_at(
        self, node: DistributedNode, first: str, last: str
    ) -> List[Tuple[str, str]]:
        """A client read of a server's *stored* rows only — no join
        execution, no base-range fetching.  Used to merge rows held
        exclusively by other compute servers into cross-affinity scans."""
        return self._client_op(
            node, [first, last],
            lambda: node.server.store.scan(first, last), self._rows_reply,
        )

    def get_home(self, key: str) -> Optional[str]:
        """Read ``key`` from its home server — the source of truth for
        base data, which compute servers only mirror on demand."""
        node = self.home_node(key)
        return self._client_op(
            node, [key], lambda: node.get(key), self._value_reply
        )

    def home_nodes_for_range(self, first: str, last: str) -> List[DistributedNode]:
        """The home server(s) owning slices of a base range.
        Partitioned tables resolve to the homes owning a slice;
        unpartitioned (hash-placed) tables involve every base server,
        since their keys interleave."""
        table = first.split(SEP, 1)[0]
        if self.partitioner.is_base_table(table):
            names = self.partitioner.homes_for_range(table, first, last)
            return [self._by_name(name) for name in names]
        return list(self.base_nodes)

    def scan_home_at(
        self, node: DistributedNode, first: str, last: str
    ) -> List[Tuple[str, str]]:
        """One home server's slice of a base scan, as one client op."""
        return self._client_op(
            node, [first, last], lambda: node.scan(first, last),
            self._rows_reply,
        )

    def session(self, affinity: str) -> "Session":
        return Session(self, affinity)

    # ------------------------------------------------------------------
    # Fault injection (repro.chaos)
    # ------------------------------------------------------------------
    def kill_node(self, node_or_name) -> DistributedNode:
        """Kill one *compute* node mid-workload.

        The node is partitioned off the network (in-flight messages to
        and from it vanish), routing rehashes its affinities onto the
        surviving compute tier, and every base server drops its
        subscriptions — exactly what a crashed subscriber looks like.
        Compute state is soft (demand-recomputed from base data), so
        this models the recoverable failure; base nodes hold the only
        copy of base data and cannot be killed here.
        """
        node = (
            node_or_name
            if isinstance(node_or_name, DistributedNode)
            else self._by_name(node_or_name)
        )
        if node.role != ROLE_COMPUTE:
            raise ValueError(
                f"cannot kill {node.name!r}: base data is unreplicated; "
                "only compute nodes are killable"
            )
        if node.name in self.dead:
            return node
        if len(self.live_compute_nodes) <= 1:
            raise RuntimeError("cannot kill the last live compute node")
        self.dead.add(node.name)
        self.net.kill_host(node.name)
        for base in self.base_nodes:
            base.subscriptions.drop_subscriber(node.name)
        return node

    # ------------------------------------------------------------------
    # Simulation control & metrics
    # ------------------------------------------------------------------
    def settle(self) -> int:
        """Deliver all in-flight subscription updates."""
        return self.net.run_until_idle()

    def subscription_traffic_fraction(self) -> float:
        """Fraction of network bytes spent on inter-server maintenance
        (the 10%→16% measurement of §5.5)."""
        total = sum(self.net.kind_bytes.values())
        if total == 0:
            return 0.0
        sub = sum(
            size for kind, size in self.net.kind_bytes.items()
            if kind.startswith("sub_")
        )
        return sub / total

    def base_memory_bytes(self) -> int:
        return sum(n.memory_bytes() for n in self.base_nodes)

    def compute_memory_bytes(self) -> int:
        return sum(n.memory_bytes() for n in self.compute_nodes)

    def total_subscriptions(self) -> int:
        return sum(n.subscriptions.subscription_count() for n in self.base_nodes)


class Session:
    """Read-your-own-writes session (paper §2.4).

    All operations use one compute server.  Writes apply there
    immediately — so the client's own reads always see them — and are
    forwarded asynchronously to the key's home server for global
    propagation.
    """

    def __init__(self, cluster: Cluster, affinity: str) -> None:
        self.cluster = cluster
        self.node = cluster.compute_node_for(affinity)

    def put(self, key: str, value: str) -> None:
        self.node.put(key, value)
        home = self.cluster.partitioner.home_of(key)
        if home is not None and home != self.node.name:
            self.node.host.send(
                home, MSG_WRITE_FWD, [key, value, ChangeKind.INSERT.value]
            )

    def remove(self, key: str) -> None:
        self.node.remove(key)
        home = self.cluster.partitioner.home_of(key)
        if home is not None and home != self.node.name:
            self.node.host.send(
                home, MSG_WRITE_FWD, [key, None, ChangeKind.REMOVE.value]
            )

    def get(self, key: str) -> Optional[str]:
        return self.node.get(key)

    def scan(self, first: str, last: str) -> List[Tuple[str, str]]:
        return self.node.scan(first, last)
