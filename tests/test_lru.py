"""Unit tests for the LRU range tracker."""

import pytest

from repro.store.lru import LRUList


def pop_coldest(lru):
    """Remove and return the coldest entry, as eviction does."""
    entry = lru.coldest()
    if entry is not None:
        lru.remove(entry)
    return entry


class TestLRUOrdering:
    def test_add_and_pop_coldest(self):
        lru = LRUList()
        lru.add("a")
        lru.add("b")
        lru.add("c")
        assert len(lru) == 3
        assert pop_coldest(lru).payload == "a"
        assert pop_coldest(lru).payload == "b"
        assert len(lru) == 1

    def test_touch_reheats(self):
        lru = LRUList()
        ea = lru.add("a")
        lru.add("b")
        lru.touch(ea)
        assert pop_coldest(lru).payload == "b"
        assert pop_coldest(lru).payload == "a"

    def test_touch_tail_is_noop(self):
        lru = LRUList()
        lru.add("a")
        eb = lru.add("b")
        lru.touch(eb)
        assert [e.payload for e in lru] == ["a", "b"]

    def test_iteration_coldest_first(self):
        lru = LRUList()
        for name in ["a", "b", "c"]:
            lru.add(name)
        assert [e.payload for e in lru] == ["a", "b", "c"]

    def test_empty_pop(self):
        lru = LRUList()
        assert pop_coldest(lru) is None
        assert lru.coldest() is None
        assert not lru


class TestRemoval:
    def test_remove_middle(self):
        lru = LRUList()
        lru.add("a")
        eb = lru.add("b")
        lru.add("c")
        lru.remove(eb)
        assert [e.payload for e in lru] == ["a", "c"]
        assert not eb.linked()

    def test_remove_twice_is_safe(self):
        lru = LRUList()
        ea = lru.add("a")
        lru.remove(ea)
        lru.remove(ea)
        assert len(lru) == 0

    def test_touch_foreign_entry_raises(self):
        lru1, lru2 = LRUList(), LRUList()
        entry = lru1.add("a")
        with pytest.raises(ValueError):
            lru2.touch(entry)

    def test_removal_during_iteration(self):
        lru = LRUList()
        entries = [lru.add(i) for i in range(5)]
        for e in lru:
            if e.payload % 2 == 0:
                lru.remove(e)
        assert [e.payload for e in lru] == [1, 3]
        assert entries[0].linked() is False
