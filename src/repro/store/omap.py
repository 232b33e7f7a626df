"""The ``OrderedMap`` protocol: what a Pequod data tree must provide.

Paper §4 describes the store as "a collection of binary trees", but
nothing above the table layer depends on *tree-ness* — only on an
ordered map of string keys to values with stable node handles.  This
module names that contract so the red-black tree (``rbtree.py``) and
the blocked sorted array (``sortedarray.py``) are interchangeable, and
``OrderedStore(map_impl=...)`` / ``PequodServer(store_impl=...)`` can
pick per deployment.

The contract, in terms of *nodes* (opaque handles exposing ``key`` and
``value``; ``value`` is assignable in place):

* ``insert(key, value) -> node`` — insert or overwrite;
* ``insert_absent(key, value) -> (node, created)`` — insert unless
  present, leaving an existing node untouched: one search where
  "find, then insert" would take two (``Table.put``,
  ``Table.install_many``);
* ``insert_node_after(node, key, value) -> node`` — hinted insert
  (§4.2 output hints); implementations may fall back to ``insert``;
* ``find_node(key)`` / ``get(key, default)`` / ``remove(key)`` /
  ``remove_node(node)`` / ``clear()``;
* ``min_node`` / ``max_node`` / ``ceiling_node`` / ``floor_node`` /
  ``higher_node`` / ``lower_node`` / ``next_node`` / ``prev_node``;
* ``nodes(lo, hi)`` / ``items`` / ``keys`` — ordered ``[lo, hi)``
  iteration (``None`` bounds are open);
* ``count_range(lo, hi)`` — size of ``[lo, hi)`` without yielding;
* ``node_valid(node)`` — is this handle still attached?  Backs
  :meth:`~repro.store.table.PutHandle.is_valid` without assuming a
  particular removal representation;
* ``len()`` / ``bool()`` / ``in`` / iteration over keys;
* ``check_invariants()`` — test hook.

One method is optional:

* ``remove_range(lo, hi) -> [node, ...]`` — remove ``[lo, hi)`` as one
  run and return the removed nodes in key order, each reporting
  ``node_valid`` False afterwards.  :meth:`~repro.store.table.Table.
  remove_range` (computed-range eviction and recompute) uses it when
  present and otherwise removes node by node.  The sorted array
  implements it as one slice deletion per block; the red-black tree
  does not.

The interval tree stays on :class:`~repro.store.rbtree.RBTree`
directly: it needs the augmentation hook, which is tree-specific and
deliberately outside this protocol.
"""

from __future__ import annotations

from typing import Callable

#: Names accepted by ``OrderedStore(map_impl=...)`` and the CLI's
#: ``--store-impl`` flag.
MAP_IMPLS = ("rbtree", "sortedarray", "disk")

#: The default data-plane map.  The blocked sorted array won on the
#: read-heavy Twip workload when it landed (1.80x the pre-overhaul read
#: path, against 1.22x on the rbtree; recorded in CHANGES.md): scans
#: iterate a contiguous array instead of chasing parent pointers, and
#: bisect runs in C.  The red-black tree remains selectable for
#: write-skewed tables.
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
    if impl == "rbtree":
        from .rbtree import RBTree

        return RBTree
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
