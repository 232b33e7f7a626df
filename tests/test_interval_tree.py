"""Unit tests for the interval tree used by updater bookkeeping."""

import random

import pytest

from repro.store.interval_tree import IntervalTree
from repro.store.rbtree import RBTree


class TestAddAndQuery:
    def test_empty(self):
        tree = IntervalTree()
        assert len(tree) == 0
        assert tree.stab("x") == []
        assert tree.overlapping("a", "z") == []

    def test_stab_hit_and_miss(self):
        tree = IntervalTree()
        tree.add("b", "d", "payload")
        assert [e.payloads for e in tree.stab("b")] == [["payload"]]
        assert [e.payloads for e in tree.stab("c")] == [["payload"]]
        assert tree.stab("d") == []  # hi is exclusive
        assert tree.stab("a") == []

    def test_empty_interval_rejected(self):
        tree = IntervalTree()
        with pytest.raises(ValueError):
            tree.add("c", "c", "x")
        with pytest.raises(ValueError):
            tree.add("d", "c", "x")

    def test_combining_same_range(self):
        """Same-range updaters combine onto one entry (paper §3.2)."""
        tree = IntervalTree()
        e1 = tree.add("a", "m", "u1")
        e2 = tree.add("a", "m", "u2")
        assert e1 is e2
        assert len(tree) == 1
        assert tree.payload_count() == 2
        assert tree.stab("g")[0].payloads == ["u1", "u2"]

    def test_nested_intervals(self):
        tree = IntervalTree()
        tree.add("a", "z", "outer")
        tree.add("m", "n", "inner")
        hits = {p for e in tree.stab("m") for p in e.payloads}
        assert hits == {"outer", "inner"}
        hits = {p for e in tree.stab("b") for p in e.payloads}
        assert hits == {"outer"}

    def test_overlapping_query(self):
        tree = IntervalTree()
        tree.add("a", "c", 1)
        tree.add("b", "f", 2)
        tree.add("e", "g", 3)
        tree.add("x", "z", 4)
        found = {p for e in tree.overlapping("c", "f") for p in e.payloads}
        assert found == {2, 3}

    def test_overlapping_excludes_touching(self):
        tree = IntervalTree()
        tree.add("a", "c", 1)
        tree.add("c", "e", 2)
        found = {p for e in tree.overlapping("c", "d") for p in e.payloads}
        assert found == {2}

    def test_entries_sorted(self):
        tree = IntervalTree()
        tree.add("m", "n", 1)
        tree.add("a", "b", 2)
        tree.add("a", "z", 3)
        assert list(tree.intervals()) == [("a", "b"), ("a", "z"), ("m", "n")]


class TestRemoval:
    def test_discard_payload(self):
        tree = IntervalTree()
        tree.add("a", "m", "u1")
        tree.add("a", "m", "u2")
        assert tree.discard("a", "m", "u1")
        assert tree.stab("b")[0].payloads == ["u2"]
        assert len(tree) == 1

    def test_discard_last_payload_prunes_interval(self):
        tree = IntervalTree()
        tree.add("a", "m", "u1")
        assert tree.discard("a", "m", "u1")
        assert len(tree) == 0
        assert tree.stab("b") == []

    def test_discard_missing(self):
        tree = IntervalTree()
        tree.add("a", "m", "u1")
        assert not tree.discard("a", "m", "nope")
        assert not tree.discard("x", "y", "u1")

    def test_remove_interval(self):
        tree = IntervalTree()
        tree.add("a", "m", "u1")
        tree.add("a", "m", "u2")
        entry = tree.remove_interval("a", "m")
        assert entry.payloads == ["u1", "u2"]
        assert len(tree) == 0
        assert tree.remove_interval("a", "m") is None

    def test_clear(self):
        tree = IntervalTree()
        tree.add("a", "b", 1)
        tree.clear()
        assert len(tree) == 0


class TestStressAgainstNaive:
    def test_random_against_bruteforce(self):
        rng = random.Random(11)
        tree = IntervalTree()
        naive = []  # list of (lo, hi, payload)
        for step in range(600):
            lo = f"{rng.randrange(100):03d}"
            hi = f"{rng.randrange(100):03d}"
            if lo >= hi:
                continue
            if rng.random() < 0.7 or not naive:
                tree.add(lo, hi, step)
                naive.append((lo, hi, step))
            else:
                victim = rng.choice(naive)
                assert tree.discard(victim[0], victim[1], victim[2])
                naive.remove(victim)
        tree.check_invariants()
        for probe in range(0, 100, 7):
            point = f"{probe:03d}"
            expected = sorted(p for lo, hi, p in naive if lo <= point < hi)
            got = sorted(p for e in tree.stab(point) for p in e.payloads)
            assert got == expected, f"stab({point})"
        for _ in range(40):
            lo = f"{rng.randrange(100):03d}"
            hi = f"{rng.randrange(100):03d}"
            if lo >= hi:
                continue
            expected = sorted(
                p for ilo, ihi, p in naive if ilo < hi and lo < ihi
            )
            got = sorted(p for e in tree.overlapping(lo, hi) for p in e.payloads)
            assert got == expected, f"overlapping({lo},{hi})"


class TestAugmentation:
    def test_augment_maintained_through_rotations(self):
        """The balanced tree under the interval tree keeps an
        augmentation (here: subtree size) exact through the rotations
        of heavy insert/remove churn."""
        def aug(node):
            node.aug = 1
            if node.left.aug is not None:
                node.aug += node.left.aug
            if node.right.aug is not None:
                node.aug += node.right.aug

        def check(node):
            if node is tree.nil:
                return 0
            size = 1 + check(node.left) + check(node.right)
            assert node.aug == size
            return size

        tree = RBTree(augment=aug)
        rng = random.Random(7)
        present = set()
        for step in range(1500):
            key = rng.randrange(300)
            if rng.random() < 0.55:
                _, created = tree.insert_absent(key, None)
                assert created == (key not in present)
                present.add(key)
            elif present:
                victim = rng.choice(sorted(present))
                tree.remove_node(tree.find_node(victim))
                present.discard(victim)
        tree.check_invariants()
        assert len(tree) == len(present)
        assert [node.key for node in tree.nodes()] == sorted(present)
        assert check(tree.root) == len(present)
