"""Unit tests for the table/subtable layer."""

import random
from unittest import mock

import pytest

from repro.store import sortedarray
from repro.store.sortedarray import SortedArrayMap
from repro.store.stats import StoreStats
from repro.store.table import SUBTABLE_OVERHEAD, Table
from repro.store.values import NODE_OVERHEAD, POINTER_SIZE


class TestFlatTable:
    def test_put_get_remove(self):
        tbl = Table("p")
        tbl.put("p|bob|0100", "hi")
        assert tbl.get("p|bob|0100") == "hi"
        assert tbl.remove("p|bob|0100") == "hi"
        assert tbl.get("p|bob|0100") is None
        assert tbl.remove("p|bob|0100") is None

    def test_put_returns_old_value(self):
        tbl = Table("p")
        assert tbl.put("k", "v1") is None
        assert tbl.put("k", "v2") == "v1"
        assert len(tbl) == 1

    def test_scan_ordering(self):
        tbl = Table("p")
        for poster, time in [("bob", 120), ("ann", 100), ("bob", 100)]:
            tbl.put(f"p|{poster}|{time:04d}", "x")
        got = [k for k, _ in tbl.scan("p|", "p}")]
        assert got == ["p|ann|0100", "p|bob|0100", "p|bob|0120"]

    def test_scan_empty_range(self):
        tbl = Table("p")
        tbl.put("p|a", "1")
        assert list(tbl.scan("p|z", "p|a")) == []

    def test_count_range(self):
        tbl = Table("p")
        for i in range(20):
            tbl.put(f"p|u|{i:03d}", str(i))
        assert tbl.count_range("p|u|005", "p|u|015") == 10


class TestMemoryAccounting:
    def test_memory_grows_and_shrinks(self):
        tbl = Table("p")
        assert tbl.memory_bytes == 0
        tbl.put("p|k", "value")
        expected = len("p|k") + NODE_OVERHEAD + len("value")
        assert tbl.memory_bytes == expected
        tbl.remove("p|k")
        assert tbl.memory_bytes == 0

    def test_overwrite_adjusts_value_bytes(self):
        tbl = Table("p")
        tbl.put("p|k", "aa")
        before = tbl.memory_bytes
        tbl.put("p|k", "aaaa")
        assert tbl.memory_bytes == before + 2

    def test_subtable_overhead_charged(self):
        tbl = Table("t", subtable_depth=2)
        tbl.put("t|ann|0100|bob", "x")
        assert tbl.memory_bytes >= SUBTABLE_OVERHEAD
        tbl.remove("t|ann|0100|bob")
        assert tbl.memory_bytes == 0  # empty subtable dropped

    def test_copy_output_charges_a_pointer(self):
        """A copy join's output pays a pointer per string; the payload
        is charged to the source (§4.3)."""
        tbl = Table("t", subtable_depth=2)
        tbl.put("t|ann|0100|bob", "a tweet")
        tbl.put("t|ann|0200|bob", "another tweet")
        tbl.mark_copy_output()  # rows already stored are recharged
        per_row = NODE_OVERHEAD + POINTER_SIZE
        assert tbl.memory_bytes == SUBTABLE_OVERHEAD + 2 * (14 + per_row)
        tbl.mark_copy_output()  # once
        tbl.put("t|ann|0100|bob", "an edit")  # same charge either way
        tbl.put("t|liz|0100|bob", "x" * 500)
        assert tbl.memory_bytes == 2 * SUBTABLE_OVERHEAD + 3 * (14 + per_row)
        tbl.remove("t|liz|0100|bob")
        tbl.remove_range("t|", "t}")
        assert tbl.memory_bytes == 0


class TestSubtables:
    def test_subtable_created_per_prefix(self):
        tbl = Table("t", subtable_depth=2)
        tbl.put("t|ann|0100|bob", "x")
        tbl.put("t|ann|0120|liz", "y")
        tbl.put("t|bob|0100|ann", "z")
        assert tbl.subtable_count() == 2
        assert len(tbl) == 3

    def test_in_subtable_scan(self):
        tbl = Table("t", subtable_depth=2)
        tbl.put("t|ann|0100|bob", "1")
        tbl.put("t|ann|0120|liz", "2")
        tbl.put("t|bob|0050|ann", "3")
        got = [k for k, _ in tbl.scan("t|ann|", "t|ann}")]
        assert got == ["t|ann|0100|bob", "t|ann|0120|liz"]

    def test_cross_subtable_scan(self):
        tbl = Table("t", subtable_depth=2)
        pairs = [
            ("t|ann|0100|bob", "1"),
            ("t|bob|0050|ann", "2"),
            ("t|liz|0010|jim", "3"),
        ]
        for k, v in pairs:
            tbl.put(k, v)
        got = [k for k, _ in tbl.scan("t|", "t}")]
        assert got == sorted(k for k, _ in pairs)

    def test_partial_cross_subtable_scan(self):
        """Paper §3.1: queries like [t|ann|100, t|bob|200) must work."""
        tbl = Table("t", subtable_depth=2)
        for k in [
            "t|ann|0050|x",
            "t|ann|0150|x",
            "t|bob|0100|x",
            "t|bob|0250|x",
            "t|liz|0100|x",
        ]:
            tbl.put(k, "v")
        got = [k for k, _ in tbl.scan("t|ann|0100", "t|bob|0200")]
        assert got == ["t|ann|0150|x", "t|bob|0100|x"]

    def test_residual_keys_interleave_correctly(self):
        # A key with exactly `depth` segments lives in the residual tree
        # but must still appear in ordered scans at the right position.
        tbl = Table("t", subtable_depth=2)
        tbl.put("t|ann", "bare")
        tbl.put("t|ann|0100|bob", "in-sub")
        tbl.put("t|an", "bare2")
        got = [k for k, _ in tbl.scan("t|", "t}")]
        assert got == sorted(["t|ann", "t|ann|0100|bob", "t|an"])

    def test_matches_flat_table_on_random_workload(self):
        rng = random.Random(3)
        flat = Table("t")
        sub = Table("t", subtable_depth=2)
        model = {}
        users = [f"u{i:02d}" for i in range(12)]
        for step in range(1500):
            user = rng.choice(users)
            key = f"t|{user}|{rng.randrange(50):03d}"
            if rng.random() < 0.7:
                flat.put(key, str(step))
                sub.put(key, str(step))
                model[key] = str(step)
            else:
                flat.remove(key)
                sub.remove(key)
                model.pop(key, None)
        assert len(flat) == len(sub) == len(model)
        full_flat = list(flat.scan("t|", "t}"))
        full_sub = list(sub.scan("t|", "t}"))
        assert full_flat == full_sub == sorted(model.items())
        for _ in range(25):
            u1, u2 = rng.choice(users), rng.choice(users)
            lo = f"t|{u1}|{rng.randrange(50):03d}"
            hi = f"t|{u2}|{rng.randrange(50):03d}"
            assert list(flat.scan(lo, hi)) == list(sub.scan(lo, hi))


class TestStats:
    def test_hash_jumps_counted_with_subtables(self):
        stats = StoreStats()
        tbl = Table("t", subtable_depth=2, stats=stats)
        tbl.put("t|ann|001", "x")
        tbl.get("t|ann|001")
        assert stats.get("hash_jumps") >= 2

    def test_tree_descents_counted(self):
        stats = StoreStats()
        tbl = Table("t", stats=stats)
        tbl.put("t|a", "x")
        tbl.get("t|a")
        assert stats.get("tree_descents") == 2
        assert stats.get("puts") == 1
        assert stats.get("gets") == 1


class TestSplicedInstall:
    @pytest.mark.parametrize("copy_output", [False, True])
    @pytest.mark.parametrize("depth", [0, 2])
    def test_splice_matches_the_per_key_loop(self, depth, copy_output):
        """A run into a gap is spliced in whole; the per-key loop
        (splices refused) leaves the same rows, results, accounting and
        counters, ``tree_descent_cost`` to the last bit — with strings
        charged their length, or (a copy output) a pointer."""

        def install(splice):
            stats = StoreStats()
            tbl = Table("t", subtable_depth=depth, stats=stats)
            if copy_output:
                tbl.mark_copy_output()
            for i in (0, 40):
                tbl.put(f"t|ann|{i:03d}", "x")
            run = [(f"t|ann|{i:03d}", "post" if i % 2 else "v") for i in range(1, 40)]
            calls = []
            real = SortedArrayMap.insert_run

            def insert_run(tree, keys, values):
                calls.append(len(keys))
                return real(tree, keys, values) if splice else None

            with mock.patch.object(sortedarray, "LOAD", 4), mock.patch.object(
                SortedArrayMap, "insert_run", insert_run
            ):
                results = tbl.install_many(run)
                for tree in [tbl._tree, *tbl._subtables.values()]:
                    if tree is not None:
                        tree.check_invariants()  # the splice cut its block
            assert calls == [len(run)]
            rows = list(tbl.scan("t|", "t}"))
            return results, rows, tbl.key_count, tbl.memory_bytes, dict(stats.counters)

        spliced, looped = install(splice=True), install(splice=False)
        assert spliced == looped
        assert spliced[0] == [(f"t|ann|{i:03d}", None) for i in range(1, 40)]

    def test_runs_that_cannot_splice_take_the_per_key_loop(self):
        tbl = Table("t", subtable_depth=2)
        tbl.put("t|ann|005", "old")
        # A duplicate key, and a run over two subtables, never reach
        # the splice.
        with mock.patch.object(
            SortedArrayMap, "insert_run", side_effect=AssertionError
        ):
            assert tbl.install_many([("t|ann|001", "a"), ("t|ann|001", "b")]) == [
                ("t|ann|001", None), ("t|ann|001", "a")
            ]
            tbl.install_many([("t|ann|002", "a"), ("t|bob|001", "b")])
        # A run around a stored key is refused by the map and installed
        # key by key.
        assert tbl.install_many(
            [("t|ann|003", "c"), ("t|ann|005", "new"), ("t|ann|007", "d")]
        ) == [("t|ann|003", None), ("t|ann|005", "old"), ("t|ann|007", None)]
        assert list(tbl.scan("t|", "t}")) == [
            ("t|ann|001", "b"), ("t|ann|002", "a"), ("t|ann|003", "c"),
            ("t|ann|005", "new"), ("t|ann|007", "d"), ("t|bob|001", "b"),
        ]
        assert tbl.key_count == 6
