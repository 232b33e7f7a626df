"""Edge cases of join execution the basic tests don't reach.

Cross-timeline scans, whole-table scans, status-cover invariants under
churn, updater context compression, retirement of a rebuilt range's
updaters, and the §3.1 claim that "correct and minimal containing
ranges are generated in each case" for arbitrary range queries.
"""

from repro import PequodServer

TIMELINE = (
    "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"
)


def twip(**kwargs):
    srv = PequodServer(**kwargs)
    srv.add_join(TIMELINE)
    return srv


class TestArbitraryRangeQueries:
    """§3.1: queries like [t|ann|100, t|bob|200) and [t|a, t|b)."""

    def setup_method(self):
        self.srv = twip()
        for user, poster in [("ann", "liz"), ("bob", "liz"), ("cat", "liz")]:
            self.srv.put(f"s|{user}|{poster}", "1")
        for t in ("0050", "0150", "0250"):
            self.srv.put(f"p|liz|{t}", f"tweet@{t}")

    def full_expected(self):
        out = []
        for user in ("ann", "bob", "cat"):
            for t in ("0050", "0150", "0250"):
                out.append((f"t|{user}|{t}|liz", f"tweet@{t}"))
        return sorted(out)

    def test_cross_timeline_scan(self):
        got = self.srv.scan("t|ann|0100", "t|bob|0200")
        expected = [
            (k, v)
            for k, v in self.full_expected()
            if "t|ann|0100" <= k < "t|bob|0200"
        ]
        assert got == expected

    def test_whole_table_scan(self):
        assert self.srv.scan("t|", "t}") == self.full_expected()

    def test_prefix_crossing_scan(self):
        got = self.srv.scan("t|a", "t|c")
        expected = [
            (k, v) for k, v in self.full_expected() if "t|a" <= k < "t|c"
        ]
        assert got == expected

    def test_results_stable_across_overlapping_scans(self):
        a = self.srv.scan("t|ann|", "t|ann}")
        self.srv.scan("t|", "t}")
        b = self.srv.scan("t|ann|", "t|ann}")
        assert a == b
        self.srv.engine.status["t"].check_disjoint_cover()

    def test_maintenance_after_wide_scan(self):
        self.srv.scan("t|", "t}")
        self.srv.put("p|liz|0300", "late")
        got = self.srv.scan("t|", "t}")
        assert sum(1 for k, _ in got if k.endswith("|liz") and "0300" in k) == 3


class TestStatusCoverInvariants:
    def test_cover_stays_disjoint_under_churn(self):
        srv = twip()
        srv.put("s|ann|bob", "1")
        for t in range(0, 100, 10):
            srv.put(f"p|bob|{t:04d}", str(t))
        # Overlapping scans at many offsets force splits and merges.
        for lo in range(0, 100, 7):
            srv.scan(f"t|ann|{lo:04d}", "t|ann}")
            srv.engine.status["t"].check_disjoint_cover()
        srv.remove("s|ann|bob")
        srv.scan("t|", "t}")
        srv.engine.status["t"].check_disjoint_cover()

    def test_gap_only_created_for_queried_ranges(self):
        srv = twip()
        srv.put("s|ann|bob", "1")
        srv.scan("t|ann|", "t|ann}")
        ranges = srv.engine.status["t"].ranges()
        for sr in ranges:
            assert sr.lo >= "t|ann|"
            assert sr.hi <= "t|ann}"


class TestUpdaterInternals:
    def test_context_compression_drops_derivable_slots(self):
        """§3.2: context holds only slots the source key can't supply."""
        srv = twip()
        srv.put("s|ann|bob", "1")
        srv.scan("t|ann|", "t|ann}")
        p_updaters = [
            u
            for entry in srv.store.tables["p"].updaters.entries()
            for u in entry.payloads
        ]
        assert len(p_updaters) == 1
        # poster/time come from the p key; only user needs storing.
        assert p_updaters[0].names == ("user",)
        assert p_updaters[0].values == ("ann",)

    def test_generation_retires_stale_updaters(self):
        """A rebuild releases the old build's updaters: the one copying
        the unfollowed poster leaves the tree, and the range holds only
        the new build."""
        srv = twip()
        srv.put("s|ann|bob", "1")
        srv.scan("t|ann|", "t|ann}")
        old = [
            u
            for entry in srv.store.tables["p"].updaters.entries()
            for u in entry.payloads
        ][0]
        srv.remove("s|ann|bob")  # complete invalidation
        srv.scan("t|ann|", "t|ann}")  # the rebuild releases the old build
        sr = srv.engine.status["t"].find("t|ann|0")
        assert sr is not None
        assert old.build not in sr.builds
        assert not srv.store.tables["p"].updaters
        (build,) = sr.builds
        assert [u.source_lo for u in build.updaters] == ["s|ann|"]

    def test_reinstall_refreshes_generation_in_place(self):
        srv = twip()
        srv.put("s|ann|bob", "1")
        srv.put("p|bob|0100", "x")
        srv.scan("t|ann|", "t|ann}")
        # Invalidate + recompute: the same logical updater is refreshed
        # rather than duplicated.
        srv.remove("s|ann|bob")
        srv.put("s|ann|bob", "1")
        srv.scan("t|ann|", "t|ann}")
        entries = list(srv.store.tables["p"].updaters.entries())
        assert sum(len(e.payloads) for e in entries) == 1

    def test_multiple_joins_fire_from_one_write(self):
        srv = PequodServer()
        srv.add_join("a|<x>|<y> = copy base|<x>|<y>")
        srv.add_join("b|<y>|<x> = copy base|<x>|<y>")
        srv.scan("a|", "a}")
        srv.scan("b|", "b}")
        srv.put("base|1|2", "v")
        assert srv.store.get("a|1|2") == "v"
        assert srv.store.get("b|2|1") == "v"


class TestGetPaths:
    def test_get_creates_minimal_status_range(self):
        srv = twip()
        srv.put("s|ann|bob", "1")
        srv.put("p|bob|0100", "x")
        assert srv.get("t|ann|0100|bob") == "x"
        ranges = srv.engine.status["t"].ranges()
        assert len(ranges) == 1
        assert ranges[0].hi.startswith("t|ann|0100|bob")

    def test_get_then_scan_composes(self):
        srv = twip()
        srv.put("s|ann|bob", "1")
        srv.put("p|bob|0100", "x")
        srv.put("p|bob|0200", "y")
        assert srv.get("t|ann|0100|bob") == "x"
        got = srv.scan("t|ann|", "t|ann}")
        assert [v for _, v in got] == ["x", "y"]
        srv.engine.status["t"].check_disjoint_cover()

    def test_repeated_get_uses_cached_range(self):
        srv = twip()
        srv.put("s|ann|bob", "1")
        srv.put("p|bob|0100", "x")
        srv.get("t|ann|0100|bob")
        executed = srv.stats.get("joins_executed")
        srv.get("t|ann|0100|bob")
        assert srv.stats.get("joins_executed") == executed


class TestEmptyAndDegenerate:
    def test_scan_empty_server_with_join(self):
        srv = twip()
        assert srv.scan("t|", "t}") == []

    def test_inverted_range(self):
        srv = twip()
        assert srv.scan("t|z", "t|a") == []

    def test_join_over_missing_sources(self):
        srv = twip()
        srv.put("s|ann|ghost", "1")  # follows someone who never posts
        assert srv.scan("t|ann|", "t|ann}") == []
        srv.put("p|ghost|0001", "first ever")
        assert srv.scan("t|ann|", "t|ann}") == [
            ("t|ann|0001|ghost", "first ever")
        ]

    def test_value_with_separator_characters(self):
        srv = twip()
        srv.put("s|ann|bob", "1")
        srv.put("p|bob|0100", "value|with|separators}and{braces")
        got = srv.scan("t|ann|", "t|ann}")
        assert got[0][1] == "value|with|separators}and{braces"
