"""A blocked sorted array: the data plane's ordered map.

Pequod's hot read path is the warm timeline check — an ordered scan of
a mostly-static subtable (paper §4.1/§5.1).  The paper keeps data in
binary trees; a tree serves those scans by chasing pointers
node-to-node, and in Python every hop is several attribute lookups.
This map stores keys in sorted array *blocks* instead: lookups binary-search a block index then
a block (both via the C-implemented ``bisect``), and scans walk
contiguous lists.  Mutations pay an O(block) memmove, which CPython
lists make cheap, and blocks split at a fixed load so no single insert
is worse than O(block + blocks).

The structure mirrors the classic blocked sorted list (cf. the
``sortedcontainers`` design): three parallel arrays —

* ``_maxes[b]``  — the largest key in block ``b`` (the block index);
* ``_key_blocks[b]`` — the block's sorted keys;
* ``_node_blocks[b]`` — the block's :class:`SANode` handles, aligned
  with the keys.

Keys and nodes are kept in separate parallel lists so bisect compares
raw keys (no key= callable per probe).  Node handles stay stable across
block splits — only list membership moves — so an overwrite can set a
stored node's value in place.

``nodes()`` returns a snapshot list (concatenated block slices), so
iteration tolerates concurrent structural mutation.

Nothing above the table layer depends on *tree-ness* — only on this
contract, in terms of *nodes* (opaque handles exposing ``key`` and
``value``; ``value`` is assignable in place):

* ``insert(key, value) -> node`` — insert or overwrite;
* ``insert_absent(key, value) -> (node, created)`` — insert unless
  present, leaving an existing node untouched: one search where
  "find, then insert" would take two (``Table.put``,
  ``Table.install_many``);
* ``find_node(key)`` / ``get(key, default)`` / ``remove(key)`` /
  ``remove_node(node)`` / ``clear()``;
* ``insert_run(keys, values) -> [node, ...] | None`` — splice a
  strictly ascending run of fresh keys in as one slice, refused (None,
  map unchanged) when a stored key lies within it
  (``Table.install_many``'s computed runs);
* ``remove_range(lo, hi) -> [node, ...]`` — remove ``[lo, hi)`` as one
  run and return the removed nodes in key order (computed-range
  eviction and recompute, :meth:`~repro.store.table.Table.remove_range`);
* ``min_node`` / ``floor_node`` / ``next_node`` — the walk over a
  table's subtable index;
* ``nodes(lo, hi)`` / ``items`` / ``keys`` — ordered ``[lo, hi)``
  iteration (``None`` bounds are open);
* ``count_range(lo, hi)`` — size of ``[lo, hi)`` without yielding;
* ``len()`` / ``bool()`` / ``in`` / iteration over keys;
* ``check_invariants()`` — test hook.

The paper's §4.2 output hints (remember where a join last wrote, and
skip the next descent) are not implemented: on the sorted array a hint
costs a locate on top of the insert it was meant to save.  Updaters
are not kept in an ordered map at all: ``range_index.py`` files them
by key prefix.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator, List, Optional, Sequence, Tuple

#: Blocks split when they exceed twice this many keys, so steady-state
#: blocks hold LOAD..2*LOAD entries.
LOAD = 256


class SANode:
    """A stored pair.  Application code treats nodes as opaque handles
    except for reading ``key`` and reading/assigning ``value``."""

    __slots__ = ("key", "value")

    def __init__(self, key: Any, value: Any) -> None:
        self.key = key
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SANode {self.key!r}={self.value!r}>"


class SortedArrayMap:
    """An ordered map over array blocks; see the module docstring."""

    __slots__ = ("_maxes", "_key_blocks", "_node_blocks", "_size")

    def __init__(self) -> None:
        self._maxes: List[Any] = []
        self._key_blocks: List[List[Any]] = []
        self._node_blocks: List[List[SANode]] = []
        self._size = 0

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, key: Any) -> bool:
        return self.find_node(key) is not None

    def find_node(self, key: Any) -> Optional[SANode]:
        """Return the node with exactly ``key``, or None."""
        maxes = self._maxes
        b = bisect_left(maxes, key)
        if b == len(maxes):
            return None
        keys = self._key_blocks[b]
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            return self._node_blocks[b][i]
        return None

    def get(self, key: Any, default: Any = None) -> Any:
        node = self.find_node(key)
        return node.value if node is not None else default

    def min_node(self) -> Optional[SANode]:
        if not self._size:
            return None
        return self._node_blocks[0][0]

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    def floor_node(self, key: Any) -> Optional[SANode]:
        """Largest node with ``node.key <= key``."""
        maxes = self._maxes
        if not maxes:
            return None
        b = min(bisect_left(maxes, key), len(maxes) - 1)
        i = bisect_right(self._key_blocks[b], key) - 1
        if i >= 0:
            return self._node_blocks[b][i]
        if b == 0:
            return None
        return self._node_blocks[b - 1][-1]

    def next_node(self, node: SANode) -> Optional[SANode]:
        """In-order successor of ``node``."""
        b, i = self._locate(node)
        nodes = self._node_blocks[b]
        if i + 1 < len(nodes):
            return nodes[i + 1]
        if b + 1 < len(self._node_blocks):
            return self._node_blocks[b + 1][0]
        return None

    def _locate(self, node: SANode) -> tuple:
        """The (block, index) of a live node, by key."""
        key = node.key
        b = bisect_left(self._maxes, key)
        keys = self._key_blocks[b]
        i = bisect_left(keys, key)
        assert self._node_blocks[b][i] is node, "node not in this map"
        return b, i

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def nodes(self, lo: Any = None, hi: Any = None) -> List[SANode]:
        """Nodes with ``lo <= key < hi`` in key order, as a list.

        ``lo`` of None means the minimum; ``hi`` of None means
        unbounded.  Returning concatenated block slices instead of a
        generator is deliberate: the common scan touches one block and
        costs two bisects plus a single C-level slice, with no per-item
        generator resumption — and iteration over the result tolerates
        concurrent mutation for free (it is a snapshot).
        """
        maxes = self._maxes
        if not maxes:
            return []
        if lo is None:
            b = i = 0
        else:
            b = bisect_left(maxes, lo)
            if b == len(maxes):
                return []
            i = bisect_left(self._key_blocks[b], lo)
        keys = self._key_blocks[b]
        if hi is not None and not keys[-1] < hi:
            return self._node_blocks[b][i:bisect_left(keys, hi)]
        out = self._node_blocks[b][i:]
        b += 1
        while b < len(maxes):
            keys = self._key_blocks[b]
            if hi is not None and not keys[-1] < hi:
                out.extend(self._node_blocks[b][: bisect_left(keys, hi)])
                return out
            out.extend(self._node_blocks[b])
            b += 1
        return out

    def items(self, lo: Any = None, hi: Any = None) -> Iterator[tuple]:
        for node in self.nodes(lo, hi):
            yield node.key, node.value

    def keys(self, lo: Any = None, hi: Any = None) -> Iterator[Any]:
        for node in self.nodes(lo, hi):
            yield node.key

    def __iter__(self) -> Iterator[Any]:
        return self.keys()

    def count_range(self, lo: Any, hi: Any) -> int:
        """Number of keys in ``[lo, hi)``, positionally (no node walk)."""
        return max(0, self._rank(hi) - self._rank(lo))

    def _rank(self, key: Any) -> int:
        """How many stored keys sort strictly below ``key``."""
        maxes = self._maxes
        b = bisect_left(maxes, key)
        if b == len(maxes):
            return self._size
        rank = sum(len(block) for block in self._key_blocks[:b])
        return rank + bisect_left(self._key_blocks[b], key)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, key: Any, value: Any) -> SANode:
        """Insert ``key`` -> ``value``; overwrite the value if present.

        Returns the node holding the pair.
        """
        node, created = self.insert_absent(key, value)
        if not created:
            node.value = value
        return node

    def insert_absent(self, key: Any, value: Any) -> Tuple[SANode, bool]:
        """Insert ``key`` -> ``value`` unless ``key`` is present.

        Returns ``(node, created)``: the existing node, untouched, or
        the fresh one — one pair of bisects either way.
        """
        maxes = self._maxes
        if not maxes:
            node = SANode(key, value)
            self._maxes = [key]
            self._key_blocks = [[key]]
            self._node_blocks = [[node]]
            self._size = 1
            return node, True
        b = bisect_left(maxes, key)
        if b == len(maxes):
            b -= 1  # key beyond every block: append to the last one
        keys = self._key_blocks[b]
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            return self._node_blocks[b][i], False
        node = SANode(key, value)
        keys.insert(i, key)
        self._node_blocks[b].insert(i, node)
        if i == len(keys) - 1:
            maxes[b] = key
        self._size += 1
        if len(keys) > 2 * LOAD:
            self._split(b)
        return node, True

    def insert_run(
        self, keys: Sequence[Any], values: Sequence[Any]
    ) -> Optional[List[SANode]]:
        """Splice a strictly ascending run of fresh keys in with one
        slice assignment, and return its nodes.

        Refused — None, the map unchanged, no node allocated — when a
        stored key lies in ``[keys[0], keys[-1]]``: the run would not
        be contiguous in the map.  A block the run overfills is split.
        """
        first, last = keys[0], keys[-1]
        maxes = self._maxes
        b = bisect_left(maxes, first)
        if b < len(maxes):
            block = self._key_blocks[b]
            i = bisect_left(block, first)
            if not last < block[i]:
                return None
        elif maxes:  # beyond every block: extend the last one
            b -= 1
            block = self._key_blocks[b]
            i = len(block)
            maxes[b] = last
        else:
            block, i = [], 0
            maxes.append(last)
            self._key_blocks.append(block)
            self._node_blocks.append([])
        nodes = list(map(SANode, keys, values))
        block[i:i] = keys
        self._node_blocks[b][i:i] = nodes
        self._size += len(nodes)
        if len(block) > 2 * LOAD:
            self._split(b)
        return nodes

    def remove(self, key: Any) -> bool:
        """Remove ``key``.  Returns True if it was present."""
        node = self.find_node(key)
        if node is None:
            return False
        self.remove_node(node)
        return True

    def remove_node(self, node: SANode) -> None:
        """Remove a node previously obtained from this map."""
        b, i = self._locate(node)
        keys = self._key_blocks[b]
        del keys[i]
        del self._node_blocks[b][i]
        self._size -= 1
        if not keys:
            del self._maxes[b]
            del self._key_blocks[b]
            del self._node_blocks[b]
        elif i == len(keys):
            self._maxes[b] = keys[-1]

    def remove_range(self, lo: Any, hi: Any) -> List[SANode]:
        """Remove every key in ``[lo, hi)``; returns the removed nodes
        in key order.

        One slice deletion per block touched instead of a locate per
        key.
        """
        maxes = self._maxes
        out: List[SANode] = []
        if not lo < hi:
            return out
        b = bisect_left(maxes, lo)
        while b < len(maxes):
            keys = self._key_blocks[b]
            nodes = self._node_blocks[b]
            i = bisect_left(keys, lo)
            j = bisect_left(keys, hi)
            last = j < len(keys)  # the block reaches past hi
            if i < j:
                out.extend(nodes[i:j])
                del keys[i:j]
                del nodes[i:j]
                if keys:
                    maxes[b] = keys[-1]
                else:
                    del maxes[b]
                    del self._key_blocks[b]
                    del self._node_blocks[b]
                    continue
            if last:
                break
            b += 1
        self._size -= len(out)
        return out

    def clear(self) -> None:
        self._maxes = []
        self._key_blocks = []
        self._node_blocks = []
        self._size = 0

    def _split(self, b: int) -> None:
        """Split overfull block ``b`` into ``len // LOAD`` blocks of
        near-equal size, keeping the block index sorted: one insert
        past ``2 * LOAD`` halves the block, a spliced run may cut it in
        more pieces."""
        keys = self._key_blocks[b]
        nodes = self._node_blocks[b]
        k = len(keys) // LOAD
        cuts = [len(keys) * j // k for j in range(k + 1)]
        spans = list(zip(cuts, cuts[1:]))
        self._key_blocks[b : b + 1] = [keys[i:j] for i, j in spans]
        self._node_blocks[b : b + 1] = [nodes[i:j] for i, j in spans]
        self._maxes[b : b + 1] = [keys[j - 1] for j in cuts[1:]]

    # ------------------------------------------------------------------
    # Validation (tests only)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if structural invariants are violated."""
        assert len(self._maxes) == len(self._key_blocks) == len(self._node_blocks)
        total = 0
        prev = None
        for b, keys in enumerate(self._key_blocks):
            nodes = self._node_blocks[b]
            assert keys, "empty block"
            assert len(keys) <= 2 * LOAD, "overfull block"
            assert len(keys) == len(nodes), "key/node block misaligned"
            assert self._maxes[b] == keys[-1], "stale block max"
            for i, key in enumerate(keys):
                assert prev is None or prev < key, "keys out of order"
                prev = key
                node = nodes[i]
                assert node.key == key, "node key out of sync"
            total += len(keys)
        assert total == self._size, "size mismatch"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SortedArrayMap keys={self._size} blocks={len(self._maxes)}>"
