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

    def test_unconfigured_table_is_flat(self):
        store = OrderedStore(subtable_config={"t": 2})
        store.put("p|bob|0100", "x")
        assert store.tables["p"].subtable_depth == 0

    def test_subtables_keep_one_key_order(self):
        store = OrderedStore(subtable_config={"t": 2})
        keys = ["t|bob|0100|ann", "t|ann|0200|liz", "t|ann|0100|bob"]
        for k in keys:
            store.put(k, "x")
        assert store.tables["t"].subtable_count() == 2
        assert [k for k, _ in store.scan("t|", "t}")] == sorted(keys)

    def test_copy_output_charging_keeps_the_configured_depth(self):
        store = OrderedStore(subtable_config={"t": 2})
        store.table("t").mark_copy_output()  # a copy join writes "t"
        store.put("t|ann|0100|bob", "x")
        assert store.tables["t"].subtable_depth == 2
        assert store.tables["t"].copy_output

    def test_a_subtabled_output_stays_maintained(self):
        """Depth is fixed before any join installs an updater, so a
        configured timeline keeps taking fan-out writes."""
        from repro import PequodServer
        from repro.apps.twip import TIMELINE_JOIN

        srv = PequodServer(subtable_config={"t": 2})
        srv.add_join(TIMELINE_JOIN)
        srv.put("s|ann|bob", "1")
        srv.put("p|bob|0100", "first")
        assert srv.scan("t|ann|", "t|ann}") == [("t|ann|0100|bob", "first")]
        srv.put("p|bob|0200", "second")
        assert srv.scan("t|ann|", "t|ann}") == [
            ("t|ann|0100|bob", "first"),
            ("t|ann|0200|bob", "second"),
        ]
        assert srv.store.tables["t"].subtable_depth == 2


class TestMemory:
    def test_memory_bytes_sums_tables(self):
        store = OrderedStore()
        store.put("a|1", "xx")
        store.put("b|1", "yy")
        assert store.memory_bytes() == (
            store.tables["a"].memory_bytes + store.tables["b"].memory_bytes
        )
