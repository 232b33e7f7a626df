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
* ``_value_blocks[b]`` — the block's values, aligned with the keys.

A stored pair is a slot in two lists, not an object: a row costs its
key, its value and two list pointers, and leaves the garbage collector
nothing to track.  Keys and values are kept apart so bisect compares
raw keys (no key= callable per probe).

The contract, in terms of *pairs* — every read returns a fresh list of
``(key, value)`` tuples (a snapshot: iterating it tolerates concurrent
mutation), and a value, once stored, is the object handed back by
``get`` (an aggregate accumulator mutated in place needs no
write-back).  Values are never None: None means "absent".

* ``get(key, default)`` / ``in`` / ``len()`` / ``bool()``;
* ``insert(key, value) -> old value | None`` — insert or overwrite;
* ``insert_run(keys, values) -> bool`` — splice a strictly ascending
  run of fresh keys in as one slice, refused (False, map unchanged)
  when a stored key lies within it (``Table.install_many``'s computed
  runs);
* ``remove(key) -> old value | None``;
* ``remove_range(lo, hi) -> [(key, value), ...]`` — remove ``[lo, hi)``
  as one run, in key order (computed-range eviction and recompute,
  :meth:`~repro.store.table.Table.remove_range`);
* ``items(lo, hi)`` / ``keys(lo, hi)`` — ``[lo, hi)`` in key order
  (``None`` bounds are open); iteration yields keys;
* ``items_from(lo, limit)`` — the first ``limit`` pairs at or after
  ``lo`` (the CDC backfill's chunked walk);
* ``floor_key(key)`` — the largest stored key ``<= key``: where the
  walk over a table's subtable index starts;
* ``count_range(lo, hi)`` — size of ``[lo, hi)`` without a scan;
* ``clear()`` / ``check_invariants()`` (a test hook).

The paper's §4.2 output hints (remember where a join last wrote, and
skip the next descent) are not implemented: on the sorted array a hint
costs a locate on top of the insert it was meant to save.  Updaters
are not kept in an ordered map at all: ``range_index.py`` files them
by key prefix.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator, List, Sequence, Tuple

#: Blocks split when they exceed twice this many keys, so steady-state
#: blocks hold LOAD..2*LOAD entries.
LOAD = 256


class SortedArrayMap:
    """An ordered map over array blocks; see the module docstring."""

    __slots__ = ("_maxes", "_key_blocks", "_value_blocks", "_size")

    def __init__(self) -> None:
        self._maxes: List[Any] = []
        self._key_blocks: List[List[Any]] = []
        self._value_blocks: List[List[Any]] = []
        self._size = 0

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, key: Any) -> bool:
        return self.get(key) is not None

    def get(self, key: Any, default: Any = None) -> Any:
        maxes = self._maxes
        b = bisect_left(maxes, key)
        if b < len(maxes):
            keys = self._key_blocks[b]
            i = bisect_left(keys, key)
            if keys[i] == key:  # maxes[b] >= key: i is in the block
                return self._value_blocks[b][i]
        return default

    def floor_key(self, key: Any) -> Any:
        """The largest stored key ``<= key``, or None."""
        maxes = self._maxes
        if not maxes:
            return None
        b = min(bisect_left(maxes, key), len(maxes) - 1)
        keys = self._key_blocks[b]
        i = bisect_right(keys, key) - 1
        if i >= 0:
            return keys[i]
        return self._key_blocks[b - 1][-1] if b else None

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def items(self, lo: Any = None, hi: Any = None) -> List[Tuple[Any, Any]]:
        """Pairs with ``lo <= key < hi`` in key order, as a fresh list.

        ``lo`` of None means the minimum; ``hi`` of None means
        unbounded.  The common scan ends in the block it starts in: two
        bisects, then the pairs built straight from the two blocks.
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
        if hi is None or keys[-1] < hi:
            j = len(keys)
        else:
            j = bisect_left(keys, hi, i)
        if j < len(keys) or b + 1 == len(maxes):  # the range ends here
            # A warm check reads a row or two: literal pairs beat
            # slicing and zipping two lists.
            values = self._value_blocks[b]
            n = j - i
            if n > 2:
                return list(zip(keys[i:j], values[i:j]))
            if n == 2:
                return [(keys[i], values[i]), (keys[i + 1], values[i + 1])]
            return [(keys[i], values[i])] if n else []
        out_keys = keys[i:]
        out_values = self._value_blocks[b][i:]
        b += 1
        while b < len(maxes):
            keys = self._key_blocks[b]
            if hi is not None and not keys[-1] < hi:
                j = bisect_left(keys, hi)
                out_keys.extend(keys[:j])
                out_values.extend(self._value_blocks[b][:j])
                break
            out_keys.extend(keys)
            out_values.extend(self._value_blocks[b])
            b += 1
        return list(zip(out_keys, out_values))

    def items_from(self, lo: Any, limit: int) -> List[Tuple[Any, Any]]:
        """The first ``limit`` pairs with ``key >= lo``, as a fresh
        list: one chunk of a resumable walk.  Slices no further than
        ``limit`` rows, however many lie past ``lo``."""
        maxes = self._maxes
        b = bisect_left(maxes, lo)
        i = bisect_left(self._key_blocks[b], lo) if b < len(maxes) else 0
        out_keys: List[Any] = []
        out_values: List[Any] = []
        while b < len(maxes) and len(out_keys) < limit:
            j = i + limit - len(out_keys)
            out_keys.extend(self._key_blocks[b][i:j])
            out_values.extend(self._value_blocks[b][i:j])
            b, i = b + 1, 0
        return list(zip(out_keys, out_values))

    def keys(self, lo: Any = None, hi: Any = None) -> List[Any]:
        return [key for key, _ in self.items(lo, hi)]

    def __iter__(self) -> Iterator[Any]:
        return iter(self.keys())

    def count_range(self, lo: Any, hi: Any) -> int:
        """Number of keys in ``[lo, hi)``, positionally (no scan)."""
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
    def insert(self, key: Any, value: Any) -> Any:
        """Insert ``key`` -> ``value``, overwriting a stored value.

        Returns the value overwritten, or None for a fresh key — one
        pair of bisects either way.
        """
        maxes = self._maxes
        if not maxes:
            self._maxes = [key]
            self._key_blocks = [[key]]
            self._value_blocks = [[value]]
            self._size = 1
            return None
        b = bisect_left(maxes, key)
        if b == len(maxes):
            b -= 1  # key beyond every block: append to the last one
        keys = self._key_blocks[b]
        values = self._value_blocks[b]
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            old = values[i]
            values[i] = value
            return old
        keys.insert(i, key)
        values.insert(i, value)
        if i == len(keys) - 1:
            maxes[b] = key
        self._size += 1
        if len(keys) > 2 * LOAD:
            self._split(b)
        return None

    def insert_run(self, keys: Sequence[Any], values: Sequence[Any]) -> bool:
        """Splice a strictly ascending run of fresh keys in with one
        slice assignment per list.

        Refused — False, the map unchanged — when a stored key lies in
        ``[keys[0], keys[-1]]``: the run would not be contiguous in the
        map.  A block the run overfills is split.
        """
        first, last = keys[0], keys[-1]
        maxes = self._maxes
        b = bisect_left(maxes, first)
        if b < len(maxes):
            block = self._key_blocks[b]
            i = bisect_left(block, first)
            if not last < block[i]:
                return False
        elif maxes:  # beyond every block: extend the last one
            b -= 1
            block = self._key_blocks[b]
            i = len(block)
            maxes[b] = last
        else:
            block, i = [], 0
            maxes.append(last)
            self._key_blocks.append(block)
            self._value_blocks.append([])
        block[i:i] = keys
        self._value_blocks[b][i:i] = values
        self._size += len(keys)
        if len(block) > 2 * LOAD:
            self._split(b)
        return True

    def remove(self, key: Any) -> Any:
        """Remove ``key``.  Returns its value, or None if absent."""
        maxes = self._maxes
        b = bisect_left(maxes, key)
        if b == len(maxes):
            return None
        keys = self._key_blocks[b]
        i = bisect_left(keys, key)
        if keys[i] != key:
            return None
        values = self._value_blocks[b]
        old = values[i]
        del keys[i]
        del values[i]
        self._size -= 1
        if not keys:
            del maxes[b]
            del self._key_blocks[b]
            del self._value_blocks[b]
        elif i == len(keys):
            maxes[b] = keys[-1]
        return old

    def remove_range(self, lo: Any, hi: Any) -> List[Tuple[Any, Any]]:
        """Remove every key in ``[lo, hi)``; returns the removed pairs
        in key order.

        One slice deletion per block touched instead of a locate per
        key.
        """
        maxes = self._maxes
        out_keys: List[Any] = []
        out_values: List[Any] = []
        if not lo < hi:
            return []
        b = bisect_left(maxes, lo)
        while b < len(maxes):
            keys = self._key_blocks[b]
            values = self._value_blocks[b]
            i = bisect_left(keys, lo)
            j = bisect_left(keys, hi)
            last = j < len(keys)  # the block reaches past hi
            if i < j:
                out_keys.extend(keys[i:j])
                out_values.extend(values[i:j])
                del keys[i:j]
                del values[i:j]
                if keys:
                    maxes[b] = keys[-1]
                else:
                    del maxes[b]
                    del self._key_blocks[b]
                    del self._value_blocks[b]
                    continue
            if last:
                break
            b += 1
        self._size -= len(out_keys)
        return list(zip(out_keys, out_values))

    def clear(self) -> None:
        self._maxes = []
        self._key_blocks = []
        self._value_blocks = []
        self._size = 0

    def _split(self, b: int) -> None:
        """Split overfull block ``b`` into ``len // LOAD`` blocks of
        near-equal size, keeping the block index sorted: one insert
        past ``2 * LOAD`` halves the block, a spliced run may cut it in
        more pieces."""
        keys = self._key_blocks[b]
        values = self._value_blocks[b]
        k = len(keys) // LOAD
        cuts = [len(keys) * j // k for j in range(k + 1)]
        spans = list(zip(cuts, cuts[1:]))
        self._key_blocks[b : b + 1] = [keys[i:j] for i, j in spans]
        self._value_blocks[b : b + 1] = [values[i:j] for i, j in spans]
        self._maxes[b : b + 1] = [keys[j - 1] for j in cuts[1:]]

    # ------------------------------------------------------------------
    # Validation (tests only)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if structural invariants are violated."""
        assert len(self._maxes) == len(self._key_blocks) == len(self._value_blocks)
        total = 0
        prev = None
        for b, keys in enumerate(self._key_blocks):
            assert keys, "empty block"
            assert len(keys) <= 2 * LOAD, "overfull block"
            assert len(keys) == len(self._value_blocks[b]), "key/value blocks misaligned"
            assert self._maxes[b] == keys[-1], "stale block max"
            for key in keys:
                assert prev is None or prev < key, "keys out of order"
                prev = key
            total += len(keys)
        assert total == self._size, "size mismatch"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SortedArrayMap keys={self._size} blocks={len(self._maxes)}>"
