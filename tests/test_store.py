"""Unit tests for the OrderedStore facade."""

import pytest

from repro.store import OrderedStore


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

    def test_reconfigure_keeps_copy_output_charging(self):
        store = OrderedStore()
        store.table("t").mark_copy_output()  # a copy join writes "t"
        store.configure_subtables("t", 2)
        assert store.tables["t"].subtable_depth == 2
        assert store.tables["t"].copy_output


class TestMemory:
    def test_memory_bytes_sums_tables(self):
        store = OrderedStore()
        store.put("a|1", "xx")
        store.put("b|1", "yy")
        assert store.memory_bytes() == (
            store.tables["a"].memory_bytes + store.tables["b"].memory_bytes
        )
