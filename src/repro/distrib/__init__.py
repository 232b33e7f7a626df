"""Distributed Pequod: partitioning, subscriptions, clusters (§2.4)."""

from .cluster import Cluster, Session
from .node import (
    MSG_FETCH,
    MSG_FETCH_REPLY,
    MSG_UPDATE_BATCH,
    ROLE_BASE,
    ROLE_COMPUTE,
    DistributedNode,
)
from .partition import Partitioner, stable_hash
from .partition_map import HashPartitionMap, MapRange, PartitionMap
from .procnode import ClusterNodeRuntime
from .procs import ClusterError, ProcCluster
from .subscription import (
    SubscriptionRegistry,
    UpdateBuffer,
    decode_update,
    decode_update_batch,
    encode_update,
    encode_update_batch,
)

__all__ = [
    "Cluster",
    "ClusterError",
    "ClusterNodeRuntime",
    "DistributedNode",
    "HashPartitionMap",
    "MapRange",
    "MSG_FETCH",
    "MSG_FETCH_REPLY",
    "MSG_UPDATE_BATCH",
    "PartitionMap",
    "Partitioner",
    "ProcCluster",
    "ROLE_BASE",
    "ROLE_COMPUTE",
    "Session",
    "SubscriptionRegistry",
    "UpdateBuffer",
    "decode_update",
    "decode_update_batch",
    "encode_update",
    "encode_update_batch",
    "stable_hash",
]
