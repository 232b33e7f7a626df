"""Unit tests for the OrderedStore facade."""

import pytest

from repro.store import OrderedStore, SharedValue


class TestBasicOps:
    def test_put_get(self):
        store = OrderedStore()
        store.put("p|bob|0100", "hi")
        assert store.get("p|bob|0100") == "hi"

    def test_get_missing_returns_default(self):
        store = OrderedStore()
        assert store.get("nope") is None
        assert store.get("nope", "dflt") == "dflt"

    def test_empty_key_rejected(self):
        store = OrderedStore()
        with pytest.raises(ValueError):
            store.put("", "v")

    def test_remove(self):
        store = OrderedStore()
        store.put("k|1", "v")
        assert store.remove("k|1")
        assert not store.remove("k|1")
        assert store.get("k|1") is None

    def test_len_counts_all_tables(self):
        store = OrderedStore()
        store.put("a|1", "x")
        store.put("b|1", "y")
        store.put("b|2", "z")
        assert len(store) == 3


class TestScan:
    def test_scan_within_table(self):
        store = OrderedStore()
        store.put("s|ann|bob", "1")
        store.put("s|ann|liz", "1")
        store.put("s|bob|ann", "1")
        got = store.scan("s|ann|", "s|ann}")
        assert got == [("s|ann|bob", "1"), ("s|ann|liz", "1")]

    def test_scan_across_tables(self):
        store = OrderedStore()
        store.put("a|1", "x")
        store.put("b|1", "y")
        store.put("c|1", "z")
        got = store.scan("a|", "c|2")
        assert got == [("a|1", "x"), ("b|1", "y"), ("c|1", "z")]

    def test_scan_iter_matches_scan(self):
        store = OrderedStore()
        for i in range(10):
            store.put(f"p|{i:02d}", str(i))
        assert list(store.scan_iter("p|", "p}")) == store.scan("p|", "p}")

    def test_count(self):
        store = OrderedStore()
        for i in range(10):
            store.put(f"p|{i:02d}", str(i))
        assert store.count("p|03", "p|07") == 4

    def test_remove_range(self):
        store = OrderedStore()
        for i in range(10):
            store.put(f"p|{i:02d}", str(i))
        removed = store.remove_range("p|03", "p|07")
        assert removed == [(f"p|{i:02d}", str(i)) for i in range(3, 7)]
        assert store.count("p|", "p}") == 6


class TestSubtableConfig:
    def test_configured_depth_applies(self):
        store = OrderedStore(subtable_config={"t": 2})
        store.put("t|ann|0100|bob", "x")
        assert store.tables["t"].subtable_depth == 2
        assert store.tables["t"].subtable_count() == 1

    def test_configure_after_creation_empty_table_ok(self):
        store = OrderedStore()
        store.table("t")
        store.configure_subtables("t", 2)
        store.put("t|ann|0100|bob", "x")
        assert store.tables["t"].subtable_depth == 2

    def test_configure_nonempty_table_rejected(self):
        store = OrderedStore()
        store.put("t|ann|0100|bob", "x")
        with pytest.raises(ValueError):
            store.configure_subtables("t", 2)

    def test_reconfigure_same_depth_is_noop(self):
        store = OrderedStore(subtable_config={"t": 2})
        store.put("t|ann|0100|bob", "x")
        store.configure_subtables("t", 2)
        assert store.get("t|ann|0100|bob") == "x"


class TestSharedValues:
    def test_shared_value_materializes_to_string(self):
        store = OrderedStore()
        shared = SharedValue("tweet text")
        store.put("t|ann|0100|bob", shared)
        store.put("t|liz|0100|bob", shared)
        assert store.get("t|ann|0100|bob") == "tweet text"
        assert store.scan("t|ann|", "t|ann}") == [("t|ann|0100|bob", "tweet text")]

    def test_sharing_reduces_memory(self):
        payload = "x" * 1000
        unshared = OrderedStore()
        for i in range(20):
            unshared.put(f"t|u{i:02d}|0001|b", payload)
        shared_store = OrderedStore()
        shared = SharedValue(payload)
        for i in range(20):
            shared_store.put(f"t|u{i:02d}|0001|b", shared)
        assert shared_store.memory_bytes() < unshared.memory_bytes() / 5

    def test_shared_refcount_released_on_remove(self):
        store = OrderedStore()
        shared = SharedValue("payload")
        store.put("t|a|1", shared)
        store.put("t|b|1", shared)
        assert shared.refs == 2
        store.remove("t|a|1")
        assert shared.refs == 1
        store.put("t|b|1", "plain")  # overwrite releases too
        assert shared.refs == 0

    def test_get_raw_exposes_shared_value(self):
        store = OrderedStore()
        shared = SharedValue("p")
        store.put("t|a|1", shared)
        assert store.get_raw("t|a|1") is shared
        assert store.get_raw("missing") is None


class TestMemory:
    def test_memory_bytes_sums_tables(self):
        store = OrderedStore()
        store.put("a|1", "xx")
        store.put("b|1", "yy")
        assert store.memory_bytes() == (
            store.tables["a"].memory_bytes + store.tables["b"].memory_bytes
        )
