"""The interval tree's balanced binary tree.

Pequod keeps updaters in an interval tree (paper §3.2), and an
interval tree needs a balanced search tree whose nodes carry subtree
metadata.  This module is that tree: a classical red-black tree with
parent pointers, a NIL sentinel, and an *augmentation* hook the
interval tree (``interval_tree.py``) uses to keep each node's subtree
maximum exact through rotations.

It offers only what the interval tree calls — ``find_node``,
``insert_absent``, ``remove_node``, the in-order ``nodes()`` walk and
``clear`` — each mutation in O(log n).  The data plane's ordered map is
the blocked sorted array (``sortedarray.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional, Tuple

RED = True
BLACK = False


class Node:
    """A tree node.  Application code treats nodes as opaque handles
    except for reading ``key`` and ``value``."""

    __slots__ = ("key", "value", "left", "right", "parent", "color", "aug")

    def __init__(self, key: Any, value: Any) -> None:
        self.key = key
        self.value = value
        self.left: "Node" = None  # type: ignore[assignment]
        self.right: "Node" = None  # type: ignore[assignment]
        self.parent: "Node" = None  # type: ignore[assignment]
        self.color: bool = RED
        self.aug: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        color = "R" if self.color == RED else "B"
        return f"<Node {self.key!r}={self.value!r} {color}>"


class RBTree:
    """A red-black tree mapping ordered keys to values.

    ``augment`` is an optional callable invoked as ``augment(node)``
    whenever ``node``'s subtree may have changed; it should recompute
    ``node.aug`` from ``node`` and its children.  ``node.left`` and
    ``node.right`` may be the NIL sentinel, which is exposed as
    ``tree.nil`` and always has ``aug is None``.
    """

    __slots__ = ("nil", "root", "_size", "_augment")

    def __init__(self, augment: Optional[Callable[["Node"], None]] = None) -> None:
        self.nil = Node(None, None)
        self.nil.color = BLACK
        self.nil.left = self.nil.right = self.nil.parent = self.nil
        self.root = self.nil
        self._size = 0
        self._augment = augment

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def find_node(self, key: Any) -> Optional[Node]:
        """Return the node with exactly ``key``, or None."""
        node = self.root
        while node is not self.nil:
            if key < node.key:
                node = node.left
            elif node.key < key:
                node = node.right
            else:
                return node
        return None

    def nodes(self) -> Iterator[Node]:
        """Yield every node in key order.  The tree must not be
        structurally modified while iterating."""
        nil = self.nil
        if self.root is nil:
            return
        node = self._subtree_min(self.root)
        while node is not nil:
            yield node
            if node.right is not nil:
                node = self._subtree_min(node.right)
                continue
            parent = node.parent
            while parent is not nil and node is parent.right:
                node, parent = parent, parent.parent
            node = parent

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert_absent(self, key: Any, value: Any) -> Tuple[Node, bool]:
        """Insert ``key`` -> ``value`` unless ``key`` is present.

        Returns ``(node, created)``: the existing node, untouched, or
        the fresh one — one descent either way.
        """
        parent, node = self.nil, self.root
        while node is not self.nil:
            parent = node
            if key < node.key:
                node = node.left
            elif node.key < key:
                node = node.right
            else:
                return node, False
        fresh = Node(key, value)
        fresh.left = fresh.right = self.nil
        fresh.parent = parent
        if parent is self.nil:
            self.root = fresh
        elif key < parent.key:
            parent.left = fresh
        else:
            parent.right = fresh
        self._size += 1
        self._augment_path(fresh)
        self._insert_fixup(fresh)
        return fresh, True

    def remove_node(self, z: Node) -> None:
        """Remove a node previously obtained from this tree."""
        nil = self.nil
        y = z
        y_original_color = y.color
        if z.left is nil:
            x = z.right
            self._transplant(z, z.right)
            fix_from = x.parent
        elif z.right is nil:
            x = z.left
            self._transplant(z, z.left)
            fix_from = x.parent
        else:
            y = self._subtree_min(z.right)
            y_original_color = y.color
            x = y.right
            if y.parent is z:
                x.parent = y
                fix_from = y
            else:
                fix_from = y.parent
                self._transplant(y, y.right)
                y.right = z.right
                y.right.parent = y
            self._transplant(z, y)
            y.left = z.left
            y.left.parent = y
            y.color = z.color
        self._size -= 1
        self._augment_path(fix_from, y if y is not z else None)
        if y_original_color == BLACK:
            self._remove_fixup(x)
        z.left = z.right = z.parent = z  # detach; makes reuse bugs loud

    def clear(self) -> None:
        self.root = self.nil
        self._size = 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _subtree_min(self, node: Node) -> Node:
        while node.left is not self.nil:
            node = node.left
        return node

    def _transplant(self, u: Node, v: Node) -> None:
        if u.parent is self.nil:
            self.root = v
        elif u is u.parent.left:
            u.parent.left = v
        else:
            u.parent.right = v
        v.parent = u.parent

    def _rotate_left(self, x: Node) -> None:
        y = x.right
        x.right = y.left
        if y.left is not self.nil:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is self.nil:
            self.root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y
        if self._augment is not None:
            self._augment(x)
            self._augment(y)

    def _rotate_right(self, x: Node) -> None:
        y = x.left
        x.left = y.right
        if y.right is not self.nil:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is self.nil:
            self.root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y
        if self._augment is not None:
            self._augment(x)
            self._augment(y)

    def _augment_path(self, node: Node, moved: Optional[Node] = None) -> None:
        """Recompute augmentation rootward until a value stops changing
        — but not below ``moved``, the node a removal put in the deleted
        one's place, whose old value describes another subtree."""
        augment = self._augment
        if augment is None:
            return
        settled = moved is None
        while node is not self.nil:
            before = node.aug
            augment(node)
            if node is moved:
                settled = True
            elif settled and node.aug == before:
                return
            node = node.parent

    def _insert_fixup(self, z: Node) -> None:
        while z.parent.color == RED:
            if z.parent is z.parent.parent.left:
                y = z.parent.parent.right
                if y.color == RED:
                    z.parent.color = BLACK
                    y.color = BLACK
                    z.parent.parent.color = RED
                    z = z.parent.parent
                else:
                    if z is z.parent.right:
                        z = z.parent
                        self._rotate_left(z)
                    z.parent.color = BLACK
                    z.parent.parent.color = RED
                    self._rotate_right(z.parent.parent)
            else:
                y = z.parent.parent.left
                if y.color == RED:
                    z.parent.color = BLACK
                    y.color = BLACK
                    z.parent.parent.color = RED
                    z = z.parent.parent
                else:
                    if z is z.parent.left:
                        z = z.parent
                        self._rotate_right(z)
                    z.parent.color = BLACK
                    z.parent.parent.color = RED
                    self._rotate_left(z.parent.parent)
        self.root.color = BLACK

    def _remove_fixup(self, x: Node) -> None:
        while x is not self.root and x.color == BLACK:
            if x is x.parent.left:
                w = x.parent.right
                if w.color == RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._rotate_left(x.parent)
                    w = x.parent.right
                if w.left.color == BLACK and w.right.color == BLACK:
                    w.color = RED
                    x = x.parent
                else:
                    if w.right.color == BLACK:
                        w.left.color = BLACK
                        w.color = RED
                        self._rotate_right(w)
                        w = x.parent.right
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.right.color = BLACK
                    self._rotate_left(x.parent)
                    x = self.root
            else:
                w = x.parent.left
                if w.color == RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._rotate_right(x.parent)
                    w = x.parent.left
                if w.right.color == BLACK and w.left.color == BLACK:
                    w.color = RED
                    x = x.parent
                else:
                    if w.left.color == BLACK:
                        w.right.color = BLACK
                        w.color = RED
                        self._rotate_left(w)
                        w = x.parent.left
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.left.color = BLACK
                    self._rotate_right(x.parent)
                    x = self.root
        x.color = BLACK

    # ------------------------------------------------------------------
    # Validation (tests only)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if red-black invariants are violated."""
        assert self.root.color == BLACK, "root must be black"
        assert self.nil.color == BLACK, "sentinel must be black"

        def walk(node: Node, lo: Any, hi: Any) -> int:
            if node is self.nil:
                return 1
            assert lo is None or lo < node.key, "BST order violated (lo)"
            assert hi is None or node.key < hi, "BST order violated (hi)"
            if node.color == RED:
                assert node.left.color == BLACK and node.right.color == BLACK, (
                    "red node with red child"
                )
            lb = walk(node.left, lo, node.key)
            rb = walk(node.right, node.key, hi)
            assert lb == rb, "black-height mismatch"
            return lb + (1 if node.color == BLACK else 0)

        walk(self.root, None, None)
        assert sum(1 for _ in self.nodes()) == self._size, "size mismatch"
