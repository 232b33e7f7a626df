"""Tests for fixed-width slot definitions (§3).

Real Pequod's slot definitions could take "fixed numbers of bytes";
``<time:10>`` declares a slot that only matches 10-character values,
making values at that position prefix-free so containing ranges are
exactly minimal.
"""

import pytest

from repro import PequodServer
from repro.core.pattern import Pattern, PatternError

#: Fixed-width patterns are exactly the compiled slicing fast path; run
#: the whole module against it and against the reference walkers.
pytestmark = pytest.mark.usefixtures("pattern_mode")


class TestWidthParsing:
    def test_width_parsed(self):
        p = Pattern("p|<poster>|<time:10>")
        assert p.segments[2].width == 10
        assert p.segments[1].width is None

    def test_zero_width_rejected(self):
        with pytest.raises(PatternError):
            Pattern("p|<t:0>")

    def test_conflicting_widths_rejected(self):
        with pytest.raises(PatternError):
            Pattern("x|<a:4>|<a:6>")

    def test_consistent_widths_ok(self):
        p = Pattern("x|<a:4>|<a:4>")
        assert p.slots == ("a",)


class TestWidthMatching:
    def test_exact_width_matches(self):
        p = Pattern("p|<poster>|<time:4>")
        assert p.match("p|bob|0100") == {"poster": "bob", "time": "0100"}

    def test_wrong_width_rejected(self):
        p = Pattern("p|<poster>|<time:4>")
        assert p.match("p|bob|100") is None
        assert p.match("p|bob|00100") is None

    def test_expand_validates_width(self):
        p = Pattern("p|<poster>|<time:4>")
        assert p.expand({"poster": "bob", "time": "0100"}) == "p|bob|0100"
        with pytest.raises(PatternError):
            p.expand({"poster": "bob", "time": "100"})


class TestWidthInJoins:
    def test_join_with_widths_end_to_end(self):
        srv = PequodServer()
        srv.add_join(
            "t|<user>|<time:4>|<poster> = "
            "check s|<user>|<poster> copy p|<poster>|<time:4>"
        )
        srv.put("s|ann|bob", "1")
        srv.put("p|bob|0100", "well-formed")
        srv.put("p|bob|99", "malformed time: ignored")
        got = srv.scan("t|ann|", "t|ann}")
        assert got == [("t|ann|0100|bob", "well-formed")]

    def test_widths_keep_bounded_scans_exact(self):
        """With fixed widths, a time-bounded scan cannot admit keys
        whose slot values are prefixes of the bound."""
        srv = PequodServer()
        srv.add_join(
            "t|<user>|<time:4>|<poster> = "
            "check s|<user>|<poster> copy p|<poster>|<time:4>"
        )
        srv.put("s|ann|bob", "1")
        srv.put("p|bob|0200", "in window")
        srv.put("p|bob|0050", "before window")
        got = srv.scan("t|ann|0100", "t|ann}")
        assert got == [("t|ann|0200|bob", "in window")]
