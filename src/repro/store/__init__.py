"""Ordered key-value store substrate (paper §4).

A blocked sorted array as the one ordered map, a prefix-filed range
index for updaters and change watches, table/subtable layering with a
hash index, value charging, and LRU tracking — the data structures the
Pequod join engine is built on.
"""

from .batch import BatchOp, WriteBatch, as_ops
from .range_index import IntervalEntry, RangeIndex
from .keys import (
    SEP,
    SEP_SUCCESSOR,
    clamp_range,
    join_key,
    key_successor,
    prefix_upper_bound,
    range_contains,
    ranges_overlap,
    split_key,
    subtable_prefix,
    table_of,
    table_range,
)
from .lru import LRUEntry, LRUList
from .sortedarray import SortedArrayMap
from .stats import StoreStats
from .store import OrderedStore
from .table import SUBTABLE_OVERHEAD, Table
from .values import (
    NODE_OVERHEAD,
    POINTER_SIZE,
    Value,
    materialize,
    value_bytes,
)

__all__ = [
    "SEP",
    "SEP_SUCCESSOR",
    "SUBTABLE_OVERHEAD",
    "NODE_OVERHEAD",
    "POINTER_SIZE",
    "BatchOp",
    "IntervalEntry",
    "LRUEntry",
    "LRUList",
    "OrderedStore",
    "RangeIndex",
    "SortedArrayMap",
    "StoreStats",
    "Table",
    "Value",
    "WriteBatch",
    "as_ops",
    "clamp_range",
    "join_key",
    "key_successor",
    "materialize",
    "prefix_upper_bound",
    "range_contains",
    "ranges_overlap",
    "split_key",
    "subtable_prefix",
    "table_of",
    "table_range",
    "value_bytes",
]
