"""Unit tests for slot constraints and containing ranges (paper §3.1).

The whole module runs twice: once with compiled patterns (where
containing-range computation goes through the per-pattern LRU memo)
and once against the reference walkers, so the memoized and direct
paths cannot diverge.
"""

import pytest

from repro.core.pattern import Pattern
from repro.core.ranges import SlotConstraints
from repro.store.keys import key_successor, prefix_upper_bound

pytestmark = pytest.mark.usefixtures("pattern_mode")

TIMELINE = Pattern("t|<user>|<time>|<poster>")
SUBS = Pattern("s|<user>|<poster>")
POSTS = Pattern("p|<poster>|<time>")


class TestDerivation:
    def test_full_timeline_scan(self):
        """scan(t|ann|, t|ann}) pins user exactly (paper §3.1)."""
        cs = SlotConstraints.for_output_range(TIMELINE, "t|ann|", "t|ann}")
        assert cs.compatible
        assert cs.exact == {"user": "ann"}

    def test_bounded_timeline_scan_gets_time_lower_bound(self):
        """scan(t|ann|0100, t|ann}) also bounds time from below."""
        cs = SlotConstraints.for_output_range(TIMELINE, "t|ann|0100", "t|ann}")
        assert cs.exact == {"user": "ann"}
        assert cs.bounds["time"] == ("0100", None)

    def test_get_style_range_is_fully_exact(self):
        key = "t|ann|0100|bob"
        cs = SlotConstraints.for_output_range(TIMELINE, key, key_successor(key))
        assert cs.exact == {"user": "ann", "time": "0100", "poster": "bob"}

    def test_cross_timeline_scan_bounds_user(self):
        """Paper: queries like [t|ann|100, t|bob|200) must work."""
        cs = SlotConstraints.for_output_range(
            TIMELINE, "t|ann|0100", "t|bob|0200"
        )
        assert cs.compatible
        assert "user" not in cs.exact
        lo, hi = cs.bounds["user"]
        assert lo == "ann"
        assert hi is not None and "bob" < hi  # bob inclusive-ish

    def test_whole_table_scan_unconstrained(self):
        cs = SlotConstraints.for_output_range(TIMELINE, "t|", "t}")
        assert cs.exact == {}

    def test_literal_mismatch_marks_incompatible(self):
        page_a = Pattern("page|<author>|<id>|a")
        cs = SlotConstraints.for_output_range(
            page_a, "page|bob|101|c|", "page|bob|101|c}"
        )
        assert not cs.compatible

    def test_literal_match_stays_compatible(self):
        page_c = Pattern("page|<author>|<id>|c|<cid>|<commenter>")
        cs = SlotConstraints.for_output_range(
            page_c, "page|bob|101|c|", "page|bob|101|c}"
        )
        assert cs.compatible
        assert cs.exact == {"author": "bob", "id": "101"}

    def test_literal_within_frontier_bounds_compatible(self):
        page_c = Pattern("page|<author>|<id>|c|<cid>|<commenter>")
        cs = SlotConstraints.for_output_range(
            page_c, "page|bob|101|a", "page|bob|101|r"
        )
        assert cs.compatible

    def test_literal_outside_frontier_bounds_incompatible(self):
        page_r = Pattern("page|<author>|<id>|r")
        cs = SlotConstraints.for_output_range(
            page_r, "page|bob|101|a", "page|bob|101|c"
        )
        assert not cs.compatible


class TestChildWith:
    def test_merge_consistent(self):
        cs = SlotConstraints(exact={"user": "ann"})
        child = cs.child_with({"poster": "bob"})
        assert child.exact == {"user": "ann", "poster": "bob"}

    def test_conflict_returns_none(self):
        cs = SlotConstraints(exact={"user": "ann"})
        assert cs.child_with({"user": "liz"}) is None

    def test_bound_violation_returns_none(self):
        cs = SlotConstraints(bounds={"time": ("0100", None)})
        assert cs.child_with({"time": "0050"}) is None

    def test_bound_satisfied_promotes_to_exact(self):
        cs = SlotConstraints(bounds={"time": ("0100", "0200")})
        child = cs.child_with({"time": "0150"})
        assert child.exact["time"] == "0150"
        assert "time" not in child.bounds

    def test_upper_bound_violation(self):
        cs = SlotConstraints(bounds={"time": (None, "0200")})
        assert cs.child_with({"time": "0200"}) is None
        assert cs.child_with({"time": "0250"}) is None

    def test_parent_unchanged(self):
        cs = SlotConstraints(exact={"a": "1"})
        cs.child_with({"b": "2"})
        assert cs.exact == {"a": "1"}


class TestContainingRanges:
    def test_paper_subscription_range(self):
        """Given user=ann, the s source range is [s|ann|, s|ann})."""
        cs = SlotConstraints(exact={"user": "ann"})
        assert cs.containing_range(SUBS) == ("s|ann|", "s|ann}")

    def test_paper_post_range_with_time_bound(self):
        """Given user=ann, poster=bob, time>=0100: [p|bob|0100, p|bob})."""
        cs = SlotConstraints(
            exact={"user": "ann", "poster": "bob"},
            bounds={"time": ("0100", None)},
        )
        assert cs.containing_range(POSTS) == ("p|bob|0100", "p|bob}")

    def test_fully_exact_range_is_single_key(self):
        cs = SlotConstraints(exact={"user": "ann", "poster": "bob"})
        lo, hi = cs.containing_range(SUBS)
        assert lo == "s|ann|bob"
        assert hi == key_successor(lo)

    def test_unconstrained_source_scans_whole_table(self):
        cs = SlotConstraints()
        lo, hi = cs.containing_range(POSTS)
        assert lo == "p|"
        assert hi == prefix_upper_bound("p|")

    def test_celebrity_time_bound(self):
        """Paper §2.3: ct range bounded by the scan's time window."""
        ct = Pattern("ct|<time>|<poster>")
        cs = SlotConstraints(
            exact={"user": "ann"}, bounds={"time": ("0100", None)}
        )
        assert cs.containing_range(ct) == ("ct|0100", "ct}")

    def test_bounded_slot_with_upper(self):
        cs = SlotConstraints(bounds={"poster": ("a", "c")})
        lo, hi = cs.containing_range(POSTS)
        assert lo == "p|a"
        assert hi == "p|c"


class TestSoundness:
    """Containing ranges must contain every relevant source key."""

    def test_every_matching_source_key_is_in_range(self):
        import itertools

        users = ["ann", "bob"]
        posters = ["bob", "liz", "zed"]
        times = ["0050", "0100", "0150"]
        scan_ranges = [
            ("t|ann|", "t|ann}"),
            ("t|ann|0100", "t|ann}"),
            ("t|ann|0100", "t|bob|0150"),
            ("t|a", "t|c"),
            ("t|", "t}"),
        ]
        for first, last in scan_ranges:
            cs = SlotConstraints.for_output_range(TIMELINE, first, last)
            if not cs.compatible:
                continue
            for user, poster, time in itertools.product(users, posters, times):
                out_key = f"t|{user}|{time}|{poster}"
                if not (first <= out_key < last):
                    continue
                # The s key for this tuple must be inside s's range.
                s_lo, s_hi = cs.containing_range(SUBS)
                s_key = f"s|{user}|{poster}"
                assert s_lo <= s_key < s_hi, (first, last, s_key)
                # After binding s's slots, p's range must contain p key.
                child = cs.child_with({"user": user, "poster": poster})
                assert child is not None
                p_lo, p_hi = child.containing_range(POSTS)
                p_key = f"p|{poster}|{time}"
                assert p_lo <= p_key < p_hi, (first, last, p_key)
