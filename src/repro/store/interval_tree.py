"""Interval tree over half-open key ranges.

Pequod stores *updaters* — incremental-maintenance records attached to
source key ranges — in an interval tree so that every store modification
can find the updaters covering the modified key (paper §3.2: "Many
updaters can apply to a given key, so we store updaters in an interval
tree").

This implementation augments the red-black tree of ``rbtree.py``:
entries are keyed by ``(lo, hi)`` and each node carries the maximum
``hi`` in its subtree, giving O(log n + k) stabbing queries.

Intervals are half-open ``[lo, hi)``.  Multiple payloads may share one
interval; they are kept in a list on a single node, which is exactly the
paper's *updater combining* optimization (§3.2) — a new updater for the
same source range appends to the existing record instead of growing the
tree.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from .rbtree import Node, RBTree


class IntervalEntry:
    """One interval and its payloads.

    ``lo``/``hi`` delimit the half-open range; ``payloads`` is the list
    of attached records (updaters, in Pequod's usage).
    """

    __slots__ = ("lo", "hi", "payloads", "payload_index")

    def __init__(self, lo: str, hi: str) -> None:
        self.lo = lo
        self.hi = hi
        self.payloads: List[Any] = []
        #: Optional identity-key → payload map maintained by callers
        #: that need duplicate detection (updater combining installs a
        #: dict here so dedup is O(1) instead of a payload scan).
        #: Cleared on removal; owners rebuild lazily.
        self.payload_index: Optional[dict] = None

    def contains(self, point: str) -> bool:
        return self.lo <= point < self.hi

    def overlaps(self, lo: str, hi: str) -> bool:
        return self.lo < hi and lo < self.hi

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<IntervalEntry [{self.lo!r}, {self.hi!r}) x{len(self.payloads)}>"


def _augment_max_hi(node: Node) -> None:
    entry: IntervalEntry = node.value
    best = entry.hi
    left_aug = node.left.aug
    if left_aug is not None and left_aug > best:
        best = left_aug
    right_aug = node.right.aug
    if right_aug is not None and right_aug > best:
        best = right_aug
    node.aug = best


class IntervalTree:
    """Interval tree mapping half-open ranges ``[lo, hi)`` to payloads."""

    __slots__ = ("_tree",)

    def __init__(self) -> None:
        self._tree = RBTree(augment=_augment_max_hi)

    def __len__(self) -> int:
        """Number of distinct intervals (not payloads)."""
        return len(self._tree)

    def __bool__(self) -> bool:
        return bool(self._tree)

    def payload_count(self) -> int:
        return sum(len(node.value.payloads) for node in self._tree.nodes())

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, lo: str, hi: str, payload: Any) -> IntervalEntry:
        """Attach ``payload`` to the interval ``[lo, hi)``.

        Raises ValueError on empty intervals.  If the interval is
        already present the payload is combined onto the existing entry.
        """
        entry, _ = self.entry(lo, hi)
        entry.payloads.append(payload)
        return entry

    def entry(self, lo: str, hi: str) -> Tuple[IntervalEntry, bool]:
        """The entry for ``[lo, hi)`` and whether this call created it.

        One descent finds the interval or the leaf it goes under, and
        the insertion's single augmentation walk keeps ``max hi`` exact
        (rotations on the fix-up path recompute their own nodes).
        Raises ValueError on empty intervals.
        """
        if not lo < hi:
            raise ValueError(f"empty interval [{lo!r}, {hi!r})")
        node, created = self._tree.insert_absent((lo, hi), IntervalEntry(lo, hi))
        return node.value, created

    def discard(self, lo: str, hi: str, payload: Any) -> bool:
        """Remove one occurrence of ``payload`` from ``[lo, hi)``.

        Returns True if found.  Empty entries are pruned from the tree.
        """
        node = self._tree.find_node((lo, hi))
        if node is None:
            return False
        entry: IntervalEntry = node.value
        try:
            entry.payloads.remove(payload)
        except ValueError:
            return False
        entry.payload_index = None  # stale; owner rebuilds lazily
        if not entry.payloads:
            self._tree.remove_node(node)
        return True

    def remove_interval(self, lo: str, hi: str) -> Optional[IntervalEntry]:
        """Remove the whole entry for ``[lo, hi)`` and return it."""
        node = self._tree.find_node((lo, hi))
        if node is None:
            return None
        entry = node.value
        self._tree.remove_node(node)
        return entry

    def clear(self) -> None:
        self._tree.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def find_entry(self, lo: str, hi: str) -> Optional[IntervalEntry]:
        node = self._tree.find_node((lo, hi))
        return node.value if node is not None else None

    def stab(self, point: str) -> List[IntervalEntry]:
        """All entries whose interval contains ``point``, in key order."""
        out: List[IntervalEntry] = []
        self._stab(self._tree.root, point, out)
        return out

    def overlapping(self, lo: str, hi: str) -> List[IntervalEntry]:
        """All entries overlapping the half-open range ``[lo, hi)``."""
        out: List[IntervalEntry] = []
        if lo < hi:
            self._overlap(self._tree.root, lo, hi, out)
        return out

    def entries(self) -> Iterator[IntervalEntry]:
        """All entries in (lo, hi) order."""
        for node in self._tree.nodes():
            yield node.value

    def intervals(self) -> Iterator[Tuple[str, str]]:
        for node in self._tree.nodes():
            yield node.key

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _stab(self, node: Node, point: str, out: List[IntervalEntry]) -> None:
        nil = self._tree.nil
        if node is nil or node.aug is None or node.aug <= point:
            # No interval below this node extends past ``point``.
            return
        self._stab(node.left, point, out)
        entry: IntervalEntry = node.value
        if entry.lo <= point:
            if point < entry.hi:
                out.append(entry)
            self._stab(node.right, point, out)
        # else: right subtree keys all have lo >= entry.lo > point.

    def _overlap(self, node: Node, lo: str, hi: str, out: List[IntervalEntry]) -> None:
        nil = self._tree.nil
        if node is nil or node.aug is None or node.aug <= lo:
            return
        self._overlap(node.left, lo, hi, out)
        entry: IntervalEntry = node.value
        if entry.lo < hi:
            if lo < entry.hi:
                out.append(entry)
            self._overlap(node.right, lo, hi, out)
        # else: right subtree keys all have lo >= entry.lo >= hi.

    def check_invariants(self) -> None:
        """Verify red-black and max-hi augmentation invariants."""
        self._tree.check_invariants()

        def walk(node: Node) -> Optional[str]:
            if node is self._tree.nil:
                return None
            best = node.value.hi
            for child_best in (walk(node.left), walk(node.right)):
                if child_best is not None and child_best > best:
                    best = child_best
            assert node.aug == best, f"augmentation stale at {node!r}"
            return best

        walk(self._tree.root)
