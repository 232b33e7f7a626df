"""Unit tests for the data plane's ordered map, the blocked sorted array.

The unit tests pin the map's contract on small inputs; the hypothesis
test at the bottom drives random op sequences — exactly the calls the
store makes — against a ``dict`` + ``sorted()`` model, with blocks
shrunk to two keys so every sequence crosses block splits and emptied
blocks.
"""

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import sortedarray
from repro.store.sortedarray import SortedArrayMap


def build(pairs):
    tree = SortedArrayMap()
    for k, v in pairs:
        tree.insert(k, v)
    return tree


class TestBasicOperations:
    def test_empty_tree(self):
        tree = SortedArrayMap()
        assert len(tree) == 0
        assert not tree
        assert tree.get("a") is None
        assert "a" not in tree
        assert tree.floor_key("a") is None
        assert tree.items() == []

    def test_single_insert_and_get(self):
        tree = SortedArrayMap()
        tree.insert("k", "v")
        assert len(tree) == 1
        assert tree.get("k") == "v"
        assert "k" in tree
        tree.check_invariants()

    def test_overwrite_keeps_size(self):
        tree = SortedArrayMap()
        assert tree.insert("k", "v1") is None
        assert tree.insert("k", "v2") == "v1"
        assert len(tree) == 1
        assert tree.get("k") == "v2"

    def test_get_default(self):
        tree = SortedArrayMap()
        assert tree.get("missing", "fallback") == "fallback"

    def test_remove_present(self):
        tree = build([("a", 1), ("b", 2)])
        assert tree.remove("a") == 1
        assert len(tree) == 1
        assert tree.get("a") is None
        tree.check_invariants()

    def test_remove_absent(self):
        tree = build([("a", 1)])
        assert tree.remove("zz") is None
        assert tree.remove("") is None  # below every key
        assert len(tree) == 1

    def test_clear(self):
        tree = build([("a", 1), ("b", 2)])
        tree.clear()
        assert len(tree) == 0
        assert tree.items() == []

    def test_insert_returns_old_value(self):
        tree = SortedArrayMap()
        assert tree.insert("a", 1) is None
        assert tree.insert("a", 2) == 1
        assert tree.get("a") == 2

    def test_get_returns_the_stored_object(self):
        # An accumulator mutated in place needs no write-back.
        tree = SortedArrayMap()
        acc = []
        tree.insert("a", acc)
        tree.get("a").append(1)
        assert tree.get("a") is acc and acc == [1]

    def test_items_is_a_fresh_list(self):
        tree = build([("a", 1), ("b", 2)])
        first = tree.items()
        first.append(("z", 0))
        assert tree.items() == [("a", 1), ("b", 2)]
        assert tree.items() is not tree.items()


class TestOrderedIteration:
    def test_items_sorted(self):
        keys = ["m", "c", "x", "a", "q", "b"]
        tree = build([(k, k.upper()) for k in keys])
        assert [k for k, _ in tree.items()] == sorted(keys)

    def test_range_iteration_half_open(self):
        tree = build([(f"k{i}", i) for i in range(10)])
        got = list(tree.keys("k2", "k5"))
        assert got == ["k2", "k3", "k4"]

    def test_range_iteration_unbounded_hi(self):
        tree = build([(f"k{i}", i) for i in range(5)])
        assert list(tree.keys("k3", None)) == ["k3", "k4"]

    def test_range_iteration_empty_range(self):
        tree = build([(f"k{i}", i) for i in range(5)])
        assert list(tree.keys("k9", "k99")) == []

    def test_count_range(self):
        tree = build([(f"{i:03d}", i) for i in range(100)])
        assert tree.count_range("010", "020") == 10

    def test_iter_protocol(self):
        tree = build([("b", 2), ("a", 1)])
        assert list(tree) == ["a", "b"]


class TestNavigation:
    """The subtable-index walk: ``floor_key``, then ``items`` from it
    (``Table._overlapping_trees``)."""

    @staticmethod
    def tree():
        return build([(f"{i:02d}", i) for i in range(0, 20, 2)])  # 00,02,..18

    def test_floor_exact(self):
        assert self.tree().floor_key("04") == "04"

    def test_floor_between(self):
        assert self.tree().floor_key("05") == "04"

    def test_floor_before_start(self):
        assert self.tree().floor_key("//") is None

    def test_min_max(self):
        # The maximum is the floor of a key past the end.
        tree = self.tree()
        assert tree.keys()[0] == "00"
        assert tree.floor_key("99") == "18"

    def test_floor_walk(self):
        tree = self.tree()
        assert tree.keys(tree.floor_key("05"), "11") == ["04", "06", "08", "10"]
        assert tree.keys(tree.floor_key("//"), None) == [
            f"{i:02d}" for i in range(0, 20, 2)
        ]


class TestStressInvariants:
    def test_random_insert_remove_keeps_invariants(self):
        rng = random.Random(42)
        tree = SortedArrayMap()
        model = {}
        for step in range(2000):
            key = f"{rng.randrange(400):04d}"
            if rng.random() < 0.6:
                tree.insert(key, step)
                model[key] = step
            else:
                assert tree.remove(key) == model.pop(key, None)
            if step % 250 == 0:
                tree.check_invariants()
        tree.check_invariants()
        assert sorted(model.items()) == list(tree.items())

    def test_ascending_descending_inserts(self):
        up = build([(f"{i:04d}", i) for i in range(500)])
        up.check_invariants()
        down = build([(f"{i:04d}", i) for i in range(499, -1, -1)])
        down.check_invariants()
        assert list(up.keys()) == list(down.keys())

    def test_remove_all_in_order(self):
        tree = build([(f"{i:03d}", i) for i in range(200)])
        for i in range(200):
            assert tree.remove(f"{i:03d}") == i
        assert len(tree) == 0
        tree.check_invariants()

    def test_remove_all_reverse_order(self):
        tree = build([(f"{i:03d}", i) for i in range(200)])
        for i in range(199, -1, -1):
            assert tree.remove(f"{i:03d}") == i
        assert len(tree) == 0

    def test_tuple_keys(self):
        tree = SortedArrayMap()
        tree.insert(("a", "b"), 1)
        tree.insert(("a", "a"), 2)
        tree.insert(("b", "a"), 3)
        assert list(tree.keys()) == [("a", "a"), ("a", "b"), ("b", "a")]
        tree.check_invariants()


class TestMapModel:
    """Random op sequences over the calls the store makes match a
    ``dict`` + ``sorted()`` model, op by op."""

    keys = st.text(alphabet="abc01|", min_size=0, max_size=4)
    ops = st.lists(
        st.tuples(
            st.sampled_from([
                "insert", "get", "remove", "remove_stored",
                "remove_range", "items", "items_from", "count_range", "walk",
                "insert_run",
            ]),
            keys,
            keys,
            st.integers(0, 7),
        ),
        min_size=1,
        max_size=120,
    )

    @settings(max_examples=200, deadline=None)
    @given(ops)
    def test_random_ops_match_a_sorted_dict(self, sequence):
        with mock.patch.object(sortedarray, "LOAD", 2):
            self.check(sequence)

    @staticmethod
    def check(sequence):
        tree, model = SortedArrayMap(), {}
        for step, (op, a, b, n) in enumerate(sequence):
            lo, hi = min(a, b), max(a, b)
            if op == "insert":
                assert tree.insert(a, step) == model.get(a)
                model[a] = step
            elif op == "get":
                assert tree.get(a, "absent") == model.get(a, "absent")
                assert (a in tree) == (a in model)
            elif op == "remove":
                assert tree.remove(a) == model.pop(a, None)
            elif op == "remove_stored":
                # A key known to be stored, whichever its block.
                if model:
                    victim = sorted(model)[len(a) % len(model)]
                    assert tree.remove(victim) == model.pop(victim)
            elif op == "remove_range":
                gone = [k for k in sorted(model) if lo <= k < hi]
                assert tree.remove_range(lo, hi) == [
                    (k, model.pop(k)) for k in gone
                ]
            elif op == "items":
                assert tree.items(lo, hi) == [
                    (k, model[k]) for k in sorted(model) if lo <= k < hi
                ]
            elif op == "items_from":
                # The CDC backfill's chunk: n pairs from lo, n of 0..7
                # over two-key blocks spans several of them.
                assert tree.items_from(lo, n) == [
                    (k, model[k]) for k in sorted(model) if k >= lo
                ][:n]
            elif op == "count_range":
                assert tree.count_range(lo, hi) == sum(
                    1 for k in model if lo <= k < hi
                )
            elif op == "insert_run":
                # Up to seven keys into two-key blocks: a splice
                # overfills its block and must cut it.
                run = sorted({a + c for c in ("", "0", "1", "a", "b", "c", "|")[:n]})
                if not run:
                    continue
                values = [(step, j) for j in range(len(run))]
                before = tree.items()
                spliced = tree.insert_run(run, values)
                if any(run[0] <= k <= run[-1] for k in model):
                    assert spliced is False  # refused: the map is unchanged
                    assert tree.items() == before
                else:
                    assert spliced is True
                    model.update(zip(run, values))
            else:
                # Table._overlapping_trees: items from the floor of lo.
                start = tree.floor_key(lo)
                below = [k for k in model if k <= lo]
                assert start == (max(below) if below else None)
                assert [k for k, _ in tree.items(start, hi)] == [
                    k for k in sorted(model)
                    if (start is None or k >= start) and k < hi
                ]
            tree.check_invariants()
            assert len(tree) == len(model)
        assert tree.items() == sorted(model.items())
