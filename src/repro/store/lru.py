"""Least-recently-used tracking for evictable ranges.

Paper §2.5: "an overloaded Pequod server simply evicts the least
recently used data ranges."  The units of eviction are whole ranges —
computed join outputs, remote subscribed copies, and cached base data —
not individual keys.  ``LRUList`` is an intrusive doubly-linked list:
O(1) touch, O(1) lookup and removal of the coldest entry.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional


class LRUEntry:
    """One evictable unit.  ``payload`` identifies what to evict."""

    __slots__ = ("payload", "prev", "next", "_list")

    def __init__(self, payload: Any) -> None:
        self.payload = payload
        self.prev: Optional["LRUEntry"] = None
        self.next: Optional["LRUEntry"] = None
        self._list: Optional["LRUList"] = None

    def linked(self) -> bool:
        return self._list is not None


class LRUList:
    """Doubly-linked LRU list; head is coldest, tail is hottest."""

    __slots__ = ("_head", "_tail", "_size")

    def __init__(self) -> None:
        self._head: Optional[LRUEntry] = None
        self._tail: Optional[LRUEntry] = None
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def add(self, payload: Any) -> LRUEntry:
        """Insert a new hottest entry."""
        entry = LRUEntry(payload)
        self._link_tail(entry)
        return entry

    def touch(self, entry: LRUEntry) -> None:
        """Mark ``entry`` most recently used."""
        if entry._list is not self:
            raise ValueError("entry does not belong to this list")
        if entry is self._tail:
            return
        self._unlink(entry)
        self._link_tail(entry)

    def remove(self, entry: LRUEntry) -> None:
        if entry._list is self:
            self._unlink(entry)

    def coldest(self) -> Optional[LRUEntry]:
        """The least recently used entry (without removing it)."""
        return self._head

    def __iter__(self) -> Iterator[LRUEntry]:
        """Entries from coldest to hottest."""
        entry = self._head
        while entry is not None:
            nxt = entry.next  # allow removal during iteration
            yield entry
            entry = nxt

    # ------------------------------------------------------------------
    def _link_tail(self, entry: LRUEntry) -> None:
        entry._list = self
        entry.prev = self._tail
        entry.next = None
        if self._tail is not None:
            self._tail.next = entry
        self._tail = entry
        if self._head is None:
            self._head = entry
        self._size += 1

    def _unlink(self, entry: LRUEntry) -> None:
        if entry.prev is not None:
            entry.prev.next = entry.next
        else:
            self._head = entry.next
        if entry.next is not None:
            entry.next.prev = entry.prev
        else:
            self._tail = entry.prev
        entry.prev = entry.next = None
        entry._list = None
        self._size -= 1
