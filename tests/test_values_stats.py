"""Unit tests for the value protocol and the stats counters."""

from repro.core.operators import AggValue
from repro.store.stats import StoreStats
from repro.store.values import POINTER_SIZE, materialize, value_bytes


class TestValueProtocol:
    def test_materialize_str(self):
        assert materialize("plain") == "plain"

    def test_materialize_agg(self):
        acc = AggValue("count")
        acc.include("x")
        assert materialize(acc) == "1"

    def test_str_accounting_is_length(self):
        assert value_bytes("abcd") == 4

    def test_copy_output_str_accounting_is_a_pointer(self):
        assert value_bytes("x" * 100, copy_output=True) == POINTER_SIZE

    def test_agg_accounting_fixed(self):
        acc = AggValue("sum")
        assert value_bytes(acc) == acc.memory_size()
        assert value_bytes(acc, copy_output=True) == acc.memory_size()


class TestStoreStats:
    def test_add_and_get(self):
        stats = StoreStats()
        stats.add("x")
        stats.add("x", 2.5)
        assert stats.get("x") == 3.5
        assert stats["x"] == 3.5
        assert stats.get("missing") == 0.0

    def test_tree_descent_accumulates_log_cost(self):
        stats = StoreStats()
        stats.tree_descent(0)
        stats.tree_descent(1000)
        assert stats.get("tree_descents") == 2
        assert stats.get("tree_descent_cost") > 10  # log2(2) + log2(1002)

    def test_snapshot_is_independent_copy(self):
        stats = StoreStats()
        stats.add("a")
        snap = stats.snapshot()
        stats.add("a")
        assert snap["a"] == 1.0
        assert stats.get("a") == 2.0

    def test_reset(self):
        stats = StoreStats()
        stats.add("a")
        stats.reset()
        assert stats.get("a") == 0.0

    def test_merged_with(self):
        a, b = StoreStats(), StoreStats()
        a.add("x", 1)
        b.add("x", 2)
        b.add("y", 5)
        merged = a.merged_with(b)
        assert merged.get("x") == 3
        assert merged.get("y") == 5
        assert a.get("x") == 1  # originals untouched

    def test_items_sorted(self):
        stats = StoreStats()
        stats.add("zeta")
        stats.add("alpha")
        assert [k for k, _ in stats.items()] == ["alpha", "zeta"]
