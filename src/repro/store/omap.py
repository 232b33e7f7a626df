"""The ``OrderedMap`` protocol: what a Pequod data tree must provide.

Paper §4 describes the store as "a collection of binary trees", but
nothing above the table layer depends on *tree-ness* — only on an
ordered map of string keys to values with stable node handles.  This
module names that contract.  Its one implementation is the blocked
sorted array (``sortedarray.py``); the ``"disk"`` tier is the same map
with a value-spill handle (``diskmap.py``).  ``OrderedStore(map_impl=...)``
and ``PequodServer(store_impl=...)`` pick between the two.

The contract, in terms of *nodes* (opaque handles exposing ``key`` and
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

from typing import Callable

#: Names accepted by ``OrderedStore(map_impl=...)`` and the CLI's
#: ``--store-impl`` flag.
MAP_IMPLS = ("sortedarray", "disk")

#: The default data-plane map: the blocked sorted array.  Scans iterate
#: a contiguous array instead of chasing pointers, and bisect runs in C.
DEFAULT_MAP_IMPL = "sortedarray"


def resolve_map_impl(impl) -> Callable[[], object]:
    """Turn an impl name (or factory, or None) into a map factory.

    ``None`` selects :data:`DEFAULT_MAP_IMPL`.  A callable is returned
    unchanged, so tests can inject custom implementations.
    """
    if impl is None:
        impl = DEFAULT_MAP_IMPL
    if callable(impl):
        return impl
    if impl == "sortedarray":
        from .sortedarray import SortedArrayMap

        return SortedArrayMap
    if impl == "disk":
        # A fresh factory per resolution: all maps of one store share
        # one spill tier (in a private temp dir here — callers wanting
        # a specific directory or stats construct DiskMapFactory
        # themselves and pass it as the impl).
        from .diskmap import DiskMapFactory

        return DiskMapFactory()
    raise ValueError(
        f"unknown ordered-map implementation {impl!r}; "
        f"expected one of {MAP_IMPLS} or a factory callable"
    )
