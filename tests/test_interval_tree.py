"""Unit tests for the prefix-filed range index used by updater
bookkeeping and change watches."""

import random

import pytest

from repro.store.range_index import RangeIndex, group_of


class TestAddAndQuery:
    def test_empty(self):
        index = RangeIndex()
        assert len(index) == 0
        assert index.stab("x") == []
        assert index.overlapping("a", "z") == []

    def test_stab_hit_and_miss(self):
        index = RangeIndex()
        index.add("b", "d", "payload")
        assert [e.payloads for e in index.stab("b")] == [["payload"]]
        assert [e.payloads for e in index.stab("c")] == [["payload"]]
        assert index.stab("d") == []  # hi is exclusive
        assert index.stab("a") == []

    def test_empty_interval_rejected(self):
        index = RangeIndex()
        with pytest.raises(ValueError):
            index.add("c", "c", "x")
        with pytest.raises(ValueError):
            index.add("d", "c", "x")

    def test_combining_same_range(self):
        """Same-range updaters combine onto one entry (paper §3.2)."""
        index = RangeIndex()
        e1 = index.add("a", "m", "u1")
        e2 = index.add("a", "m", "u2")
        assert e1 is e2
        assert len(index) == 1
        assert index.payload_count() == 2
        assert index.stab("g")[0].payloads == ["u1", "u2"]

    def test_nested_intervals(self):
        index = RangeIndex()
        index.add("a", "z", "outer")
        index.add("m", "n", "inner")
        hits = {p for e in index.stab("m") for p in e.payloads}
        assert hits == {"outer", "inner"}
        hits = {p for e in index.stab("b") for p in e.payloads}
        assert hits == {"outer"}

    def test_overlapping_query(self):
        index = RangeIndex()
        index.add("a", "c", 1)
        index.add("b", "f", 2)
        index.add("e", "g", 3)
        index.add("x", "z", 4)
        found = {p for e in index.overlapping("c", "f") for p in e.payloads}
        assert found == {2, 3}

    def test_overlapping_excludes_touching(self):
        index = RangeIndex()
        index.add("a", "c", 1)
        index.add("c", "e", 2)
        found = {p for e in index.overlapping("c", "d") for p in e.payloads}
        assert found == {2}

    def test_entries_sorted(self):
        index = RangeIndex()
        index.add("m", "n", 1)
        index.add("a", "b", 2)
        index.add("a", "z", 3)
        assert [(e.lo, e.hi) for e in index.entries()] == [
            ("a", "b"), ("a", "z"), ("m", "n")
        ]


class TestRemoval:
    def test_discard_payload(self):
        index = RangeIndex()
        index.add("a", "m", "u1")
        index.add("a", "m", "u2")
        assert index.discard("a", "m", "u1")
        assert index.stab("b")[0].payloads == ["u2"]
        assert len(index) == 1

    def test_discard_last_payload_prunes_interval(self):
        index = RangeIndex()
        index.add("a", "m", "u1")
        assert index.discard("a", "m", "u1")
        assert len(index) == 0
        assert index.stab("b") == []

    def test_discard_missing(self):
        index = RangeIndex()
        index.add("a", "m", "u1")
        assert not index.discard("a", "m", "nope")
        assert not index.discard("x", "y", "u1")


class TestGroups:
    def test_group_is_the_longest_prefix_holding_the_interval(self):
        # The bounds' common prefix is ``p|u1``; the interval still fits
        # inside ``p|u1|``'s key range, so it files there, not under p|.
        assert group_of("p|u1|0005", "p|u1}") == "p|u1|"
        assert group_of("p|u1|0005", "p|u1|0009") == "p|u1|"
        assert group_of("p|u1|0005", "p|u2|") == "p|"
        assert group_of("p|", "p}") == "p|"
        assert group_of("p|u1|", "q|") == ""
        assert group_of("a", "z") == ""

    def test_stab_merges_groups_in_interval_order(self):
        index = RangeIndex()
        index.add("p|u1|0005", "p|u1}", "user")
        index.add("p|u1|0006", "p|u2|", "users")  # filed under p|
        index.add("p|", "p}", "table")
        index.add("p|u1|0004", "q|", "wide")  # residual
        index.add("a", "z", "all")  # residual
        index.check_invariants()
        # Groups are probed residual first, then p|, then p|u1|; the
        # answer is in (lo, hi) order all the same.
        assert [e.payloads[0] for e in index.stab("p|u1|0007")] == [
            "all", "table", "wide", "user", "users"
        ]
        assert [e.payloads[0] for e in index.overlapping("p|u1|0001", "p|u1|0006")] == [
            "all", "table", "wide", "user"
        ]
        assert [e.payloads[0] for e in index.overlapping("p|u0}", "p|u1|")] == [
            "all", "table"
        ]
        assert [e.payloads[0] for e in index.overlapping("o", "p|u1|0005")] == [
            "all", "table", "wide"
        ]

    def test_emptied_groups_are_pruned(self):
        index = RangeIndex()
        entry, created = index.entry("p|u1|0005", "p|u1}")
        assert created
        entry.payloads.append("u")
        entry.payload_index["k"] = "u"
        index.add("p|", "p}", "table")
        index.remove_payload(entry, "k")
        assert index.stab("p|u1|0007")[0].payloads == ["table"]
        assert index.find_entry("p|u1|0005", "p|u1}") is None
        assert index.discard("p|", "p}", "table")
        assert not index and len(index) == 0
        index.check_invariants()


class TestStressAgainstNaive:
    def test_random_against_bruteforce(self):
        rng = random.Random(11)
        index = RangeIndex()
        naive = []  # list of (lo, hi, payload)
        bounds = [f"{n // 10}|{n % 10}" for n in range(100)]
        bounds += [f"{n}|" for n in range(10)] + [f"{n}}}" for n in range(10)]
        for step in range(600):
            lo, hi = rng.choice(bounds), rng.choice(bounds)
            if lo >= hi:
                continue
            if rng.random() < 0.7 or not naive:
                index.add(lo, hi, step)
                naive.append((lo, hi, step))
            else:
                victim = rng.choice(naive)
                assert index.discard(victim[0], victim[1], victim[2])
                naive.remove(victim)
        index.check_invariants()
        for point in bounds[::7]:
            expected = sorted(p for lo, hi, p in naive if lo <= point < hi)
            got = sorted(p for e in index.stab(point) for p in e.payloads)
            assert got == expected, f"stab({point})"
        for _ in range(40):
            lo, hi = rng.choice(bounds), rng.choice(bounds)
            if lo >= hi:
                continue
            expected = sorted(
                p for ilo, ihi, p in naive if ilo < hi and lo < ihi
            )
            got = sorted(p for e in index.overlapping(lo, hi) for p in e.payloads)
            assert got == expected, f"overlapping({lo},{hi})"
