"""Tables and subtables: the layered ordered store of paper §4.1.

Pequod's logical store is a single ordered key space, but internally it
is split by first key segment into *tables* (``p|``, ``s|``, ``t|``)
and, when the developer marks a boundary, further into *subtables*
(e.g. one per timeline).  A hash index over subtable prefixes lets
operations that fall entirely inside one subtable jump to it in O(1)
rather than descending a single giant tree — the paper measured 1.55x
faster Twip at a 1.17x memory cost for the extra bookkeeping.

Subtables are identified by the first ``depth`` key segments plus the
trailing separator (``t|ann|``), which makes each subtable's key span a
contiguous interval.  Keys with exactly ``depth`` segments (no trailing
separator — rare in practice) live in a *residual* tree; ordered scans
merge the residual stream with the subtable streams so the table still
behaves as one ordered map even across boundaries.
"""

from __future__ import annotations

import heapq
from functools import reduce
from itertools import islice, repeat
from math import log2
from operator import add, itemgetter, lt
from typing import Any, Dict, List, Optional, Tuple

from .keys import SEP, SEP_SUCCESSOR, key_successor, prefix_upper_bound, subtable_prefix
from .range_index import RangeIndex
from .sortedarray import SortedArrayMap
from .stats import StoreStats
from .values import NODE_OVERHEAD, Value, value_bytes

#: Bytes charged for each subtable's bookkeeping (tree object, hash
#: entry, order-tree node).  This is what buys the O(1) jumps.
SUBTABLE_OVERHEAD = 200


class Table:
    """One logical table: a name, its pairs, and its bookkeeping.

    ``subtable_depth`` of 0 stores everything in one tree; a positive
    depth splits keys by their first ``depth`` segments.  The table also
    hosts the updater index (:class:`RangeIndex`) used by incremental
    maintenance — the paper attaches bookkeeping to tables so unrelated
    ranges don't slow each other down.

    ``copy_output`` is set (by :meth:`mark_copy_output`) once a copy
    join writes into the table: its strings are then charged a pointer,
    not their payload (§4.3; see :mod:`repro.store.values`).
    """

    __slots__ = (
        "name",
        "subtable_depth",
        "stats",
        "_tree",
        "_subtables",
        "_suborder",
        "_residual",
        "updaters",
        "key_count",
        "memory_bytes",
        "copy_output",
    )

    def __init__(
        self,
        name: str,
        subtable_depth: int = 0,
        stats: Optional[StoreStats] = None,
    ) -> None:
        self.name = name
        self.subtable_depth = subtable_depth
        self.stats = stats if stats is not None else StoreStats()
        self._tree = SortedArrayMap() if subtable_depth == 0 else None
        self._subtables: Dict[str, Any] = {}
        self._suborder = SortedArrayMap()  # subtable id -> ordered map
        self._residual = None
        self.updaters = RangeIndex()
        self.key_count = 0
        self.memory_bytes = 0
        self.copy_output = False

    # ------------------------------------------------------------------
    # Tree selection
    # ------------------------------------------------------------------
    def _subtable_id(self, key: str) -> Optional[str]:
        """The subtable id for ``key``, or None for residual keys."""
        prefix = subtable_prefix(key, self.subtable_depth)
        if len(prefix) == len(key):
            return None  # key has exactly `depth` segments
        return prefix + SEP

    def _locate_tree(self, key: str, create: bool):
        """The tree ``key`` belongs to, without charging stats."""
        if self._tree is not None:
            return self._tree
        sub_id = self._subtable_id(key)
        if sub_id is None:
            if self._residual is None and create:
                self._residual = SortedArrayMap()
                self.memory_bytes += SUBTABLE_OVERHEAD
            return self._residual
        tree = self._subtables.get(sub_id)
        if tree is None and create:
            tree = SortedArrayMap()
            self._subtables[sub_id] = tree
            self._suborder.insert(sub_id, tree)
            self.memory_bytes += SUBTABLE_OVERHEAD
        return tree

    def _tree_for(self, key: str, create: bool):
        """As :meth:`_locate_tree`, charging hash-jump and descent costs."""
        tree = self._locate_tree(key, create)
        if self._tree is None:
            self.stats.hash_jump()
        if tree is not None:
            self.stats.tree_descent(len(tree))
        return tree

    def _drop_if_empty(self, tree, key: str) -> None:
        if self._tree is not None or len(tree) > 0:
            return
        if tree is self._residual:
            self._residual = None
            self.memory_bytes -= SUBTABLE_OVERHEAD
            return
        sub_id = self._subtable_id(key)
        if sub_id is not None and self._subtables.get(sub_id) is tree:
            del self._subtables[sub_id]
            self._suborder.remove(sub_id)
            self.memory_bytes -= SUBTABLE_OVERHEAD

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def put(self, key: str, value: Value) -> Optional[Value]:
        """Insert or overwrite ``key``; returns the old value, or None
        for a fresh insert."""
        self.stats.add("puts")
        tree = self._tree_for(key, create=True)
        assert tree is not None
        old = tree.insert(key, value)
        ptr = self.copy_output
        if old is None:
            self.key_count += 1
            self.memory_bytes += len(key) + NODE_OVERHEAD + value_bytes(value, ptr)
            return None
        self.memory_bytes += value_bytes(value, ptr) - value_bytes(old, ptr)
        return old

    def install_many(
        self, pairs: List[Tuple[str, Value]]
    ) -> List[Tuple[str, Optional[Value]]]:
        """Install a key-sorted run of pairs: a computed range, or the
        outputs of one write's fan-out.

        The run resolves its tree once per subtable it crosses, not
        once per key (one hash jump each), and each key is one
        ``insert`` search in that tree — on the sorted array two
        bisects — charged as one descent.  Equal keys install in order,
        so the last one wins, exactly as a sequence of :meth:`put` calls
        would; accounting is per key, as there.

        A strictly ascending run inside one tree that spans no stored
        key — a compute into a gap, or a recompute after its range was
        cleared — is spliced in whole (``insert_run``), with the same
        per-key accounting.

        Returns the per-key ``(key, old_value)`` results in input
        order.
        """
        counters = self.stats.counters
        counters["batched_installs"] += 1
        counters["puts"] += len(pairs)
        counters["tree_descents"] += len(pairs)
        if not pairs:
            return []
        first = pairs[0][0]
        tree = self._locate_tree(first, create=True)
        if self._tree is None:
            counters["hash_jumps"] += 1
        tree_hi = self._tree_upper_bound(first)
        if len(pairs) > 1 and pairs[-1][0] < tree_hi:
            results = self._splice(tree, pairs)
            if results is not None:
                return results
        results = []
        cost = 0.0
        ptr = self.copy_output
        for key, value in pairs:
            if not key < tree_hi:
                tree = self._locate_tree(key, create=True)
                if self._tree is None:
                    counters["hash_jumps"] += 1
                tree_hi = self._tree_upper_bound(key)
            cost += log2(len(tree) + 2)
            old = tree.insert(key, value)
            if old is None:
                self.key_count += 1
                self.memory_bytes += (
                    len(key) + NODE_OVERHEAD + value_bytes(value, ptr)
                )
            else:
                self.memory_bytes += value_bytes(value, ptr) - value_bytes(old, ptr)
            results.append((key, old))
        counters["tree_descent_cost"] += cost
        return results

    def _splice(
        self, tree, pairs: List[Tuple[str, Value]]
    ) -> Optional[List[Tuple[str, None]]]:
        """:meth:`install_many`'s one-tree run as one ``insert_run``,
        or None (nothing changed) when the keys are not strictly
        ascending or a stored key lies among them.  Charges what the
        per-key loop would: each key's bytes, and its descent costs
        added one by one in the same order."""
        keys, values = zip(*pairs)
        if not all(map(lt, keys, islice(keys, 1, None))):
            return None
        size = len(tree)
        if not tree.insert_run(keys, values):
            return None
        n = len(keys)
        self.key_count += n
        self.memory_bytes += (
            sum(map(len, keys))
            + n * NODE_OVERHEAD
            + sum(map(value_bytes, values, repeat(self.copy_output)))
        )
        self.stats.counters["tree_descent_cost"] += reduce(
            add, map(log2, range(size + 2, size + 2 + n)), 0.0
        )
        return list(zip(keys, repeat(None)))

    def _tree_upper_bound(self, key: str) -> str:
        """An exclusive bound below which keys sorting after ``key``
        still belong to ``key``'s tree."""
        if self._tree is not None:
            return self.name + SEP_SUCCESSOR
        sub_id = self._subtable_id(key)
        if sub_id is None:  # residual: the next key may open a subtable
            return key_successor(key)
        return sub_id[:-1] + SEP_SUCCESSOR  # sub_id ends with SEP

    def mark_copy_output(self) -> None:
        """Charge this table's strings as copies from now on: one
        pointer each (§4.3).  Rows already stored are recharged once,
        so each is released for what it is now charged."""
        if self.copy_output:
            return
        values = [v for _, v in self.items(self.name, prefix_upper_bound(self.name))]
        self.memory_bytes -= sum(map(value_bytes, values))
        self.copy_output = True
        self.memory_bytes += sum(map(value_bytes, values, repeat(True)))

    def remove(self, key: str) -> Optional[Value]:
        """Remove ``key``; returns the removed value or None."""
        self.stats.add("removes")
        tree = self._tree_for(key, create=False)
        if tree is None:
            return None
        value = tree.remove(key)
        if value is None:
            return None
        self.key_count -= 1
        self.memory_bytes -= (
            len(key) + NODE_OVERHEAD + value_bytes(value, self.copy_output)
        )
        self._drop_if_empty(tree, key)
        return value

    def remove_range(self, lo: str, hi: str) -> List[Tuple[str, Value]]:
        """Remove every key in ``[lo, hi)``; returns the removed
        ``(key, value)`` pairs in key order.

        Each tree the range touches removes its run in one call (the
        ordered map's ``remove_range``), and the run is accounted in
        bulk — ``key_count``, ``memory_bytes`` and the ``removes``
        counter end exactly where per-key :meth:`remove` calls would
        leave them.  Emptied subtables are dropped.
        """
        if not lo < hi:
            return []
        removed: List[Tuple[str, Value]] = []
        residual = False
        for tree in self._overlapping_trees(lo, hi):
            pairs = tree.remove_range(lo, hi)
            if not pairs:
                continue
            residual = residual or tree is self._residual
            removed.extend(pairs)
            self._drop_if_empty(tree, pairs[0][0])
        if not removed:
            return []
        if residual:  # the residual tree's keys interleave the subtables'
            removed.sort(key=itemgetter(0))
        freed = 0
        ptr = self.copy_output
        for key, value in removed:
            freed += len(key) + NODE_OVERHEAD + value_bytes(value, ptr)
        self.key_count -= len(removed)
        self.memory_bytes -= freed
        self.stats.add("removes", len(removed))
        return removed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        """The stored value for ``key`` — an aggregate's accumulator
        itself, not a copy — or ``default``."""
        self.stats.add("gets")
        tree = self._tree_for(key, create=False)
        if tree is None:
            return default
        return tree.get(key, default)

    def _overlapping_trees(self, lo: str, hi: str, stats=None) -> List:
        """The data trees whose spans intersect ``[lo, hi)``, in key
        order (residual first).  ``stats`` charges the hash-jump and
        descent costs when the walk is client-visible work."""
        if self._tree is not None:
            if stats is not None:
                stats.tree_descent(len(self._tree))
            return [self._tree]
        trees: List = []
        if self._residual is not None:
            trees.append(self._residual)
        sub_id = self._subtable_id(lo) if lo else None
        if sub_id is not None and hi <= prefix_upper_bound(sub_id):
            # Fast path: the whole scan lies inside one subtable (§4.1).
            if stats is not None:
                stats.hash_jump()
            tree = self._subtables.get(sub_id)
            if tree is not None:
                if stats is not None:
                    stats.tree_descent(len(tree))
                trees.append(tree)
        else:
            # Cross-boundary scan: walk subtable ids overlapping [lo, hi).
            start = self._suborder.floor_key(lo)
            for sub_id, tree in self._suborder.items(start, hi):
                if prefix_upper_bound(sub_id) > lo:
                    if stats is not None:
                        stats.tree_descent(len(tree))
                    trees.append(tree)
        return trees

    def _merged_items(
        self, lo: str, hi: str, stats=None
    ) -> List[Tuple[str, Value]]:
        trees = self._overlapping_trees(lo, hi, stats)
        if len(trees) == 1:
            return trees[0].items(lo, hi)
        return list(
            heapq.merge(*(t.items(lo, hi) for t in trees), key=itemgetter(0))
        )

    def scan(self, lo: str, hi: str) -> List[Tuple[str, Value]]:
        """Stored ``(key, value)`` pairs with ``lo <= key < hi`` in key
        order, as a fresh list, charging scan work counters.

        The two single-tree cases — no subtables, or a scan entirely
        inside one subtable (§4.1's hash jump) — are inlined with
        direct counter arithmetic: this is the per-operation spine of
        every warm read, and the method-call/generator tower it
        replaced was measurable on the read-heavy Twip profile.
        """
        if not lo < hi:
            return []
        counters = self.stats.counters
        counters["scans"] += 1
        tree = self._tree
        if tree is not None:
            counters["tree_descents"] += 1
            counters["tree_descent_cost"] += log2(len(tree) + 2)
            return tree.items(lo, hi)
        if self._residual is None and lo:
            sub_id = self._subtable_id(lo)
            if sub_id is not None and hi <= prefix_upper_bound(sub_id):
                counters["hash_jumps"] += 1
                tree = self._subtables.get(sub_id)
                if tree is None:
                    return []
                counters["tree_descents"] += 1
                counters["tree_descent_cost"] += log2(len(tree) + 2)
                return tree.items(lo, hi)
        return self._merged_items(lo, hi, self.stats)

    def items(self, lo: str, hi: str) -> List[Tuple[str, Value]]:
        """As :meth:`scan`, but charging nothing — the internal path
        for memory recounts, which must not inflate the scan counters
        the cost model bills."""
        if not lo < hi:
            return []
        return self._merged_items(lo, hi)

    def count_range(self, lo: str, hi: str) -> int:
        """Number of keys in ``[lo, hi)``.  Counting is not scanning:
        no scan counters are charged, and maps that support positional
        counting (the sorted array) answer without a scan."""
        if not lo < hi:
            return 0
        return sum(
            tree.count_range(lo, hi)
            for tree in self._overlapping_trees(lo, hi)
        )

    def __len__(self) -> int:
        return self.key_count

    def subtable_count(self) -> int:
        return len(self._subtables) + (1 if self._residual is not None else 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Table {self.name!r} keys={self.key_count} "
            f"subtables={self.subtable_count()} mem={self.memory_bytes}>"
        )
