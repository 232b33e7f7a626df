"""Tests for eviction of computed ranges (paper §2.5)."""

from repro import PequodServer

TIMELINE = (
    "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"
)


def populate(srv, users=6, posts=5):
    names = [f"u{i:02d}" for i in range(users)]
    for u in names:
        srv.put(f"s|{u}|star", "1")
    for t in range(posts):
        srv.put(f"p|star|{t:04d}", f"tweet {t} " + "x" * 50)
    for u in names:
        srv.scan(f"t|{u}|", f"t|{u}}}")
    return names


class TestEviction:
    def test_no_limit_never_evicts(self):
        srv = PequodServer()
        srv.add_join(TIMELINE)
        populate(srv)
        assert srv.eviction.evictions == 0

    def test_eviction_frees_memory(self):
        srv = PequodServer()
        srv.add_join(TIMELINE)
        populate(srv)
        used = srv.memory_bytes()
        srv.eviction.limit_bytes = used // 2
        srv.eviction.maybe_evict()
        assert srv.memory_bytes() <= used // 2
        assert srv.eviction.evictions > 0

    def test_lru_order_evicts_coldest_first(self):
        srv = PequodServer()
        srv.add_join(TIMELINE)
        names = populate(srv)
        hot = names[-1]
        srv.scan(f"t|{hot}|", f"t|{hot}}}")  # touch
        srv.eviction.evict_one()
        # The coldest (first materialized, never re-read) went first.
        cold = names[0]
        assert srv.store.count(f"t|{cold}|", f"t|{cold}}}") == 0
        assert srv.store.count(f"t|{hot}|", f"t|{hot}}}") > 0

    def test_evicted_range_recomputed_on_demand(self):
        srv = PequodServer()
        srv.add_join(TIMELINE)
        srv.put("s|ann|bob", "1")
        srv.put("p|bob|0100", "hello")
        srv.scan("t|ann|", "t|ann}")
        srv.eviction.evict_one()
        assert srv.store.count("t|ann|", "t|ann}") == 0
        # Reads transparently recompute.
        assert srv.scan("t|ann|", "t|ann}") == [("t|ann|0100|bob", "hello")]

    def test_eviction_then_write_then_read_is_fresh(self):
        """An evicted range's updaters are uninstalled with it, not
        misapplied."""
        srv = PequodServer()
        srv.add_join(TIMELINE)
        srv.put("s|ann|bob", "1")
        srv.put("p|bob|0100", "first")
        srv.scan("t|ann|", "t|ann}")
        srv.eviction.evict_one()
        srv.put("p|bob|0200", "while evicted")
        got = srv.scan("t|ann|", "t|ann}")
        assert got == [
            ("t|ann|0100|bob", "first"),
            ("t|ann|0200|bob", "while evicted"),
        ]
        assert srv.stats.get("updaters_collected") >= 1

    def test_eviction_invalidates_dependent_join(self):
        """§2.5: eviction invalidates dependent computed data."""
        srv = PequodServer()
        srv.add_join("mid|<a> = copy base|<a>")
        srv.add_join("top|<a> = copy mid|<a>")
        srv.put("base|x", "v")
        assert srv.scan("top|", "top}") == [("top|x", "v")]
        # Evict both computed levels, then confirm recompute still works.
        while srv.eviction.evict_one():
            pass
        assert srv.store.count("mid|", "mid}") == 0
        assert srv.store.count("top|", "top}") == 0
        assert srv.scan("top|", "top}") == [("top|x", "v")]

    def test_retiring_an_intermediate_output_invalidates_the_join_above(self):
        """Retiring ``a`` retracts ``b``'s copies; without invalidating
        ``b`` it would stay VALID and empty until something read ``a``."""
        srv = PequodServer()
        srv.add_join("a|<x> = copy i|<x>")
        srv.add_join("b|<x> = copy a|<x>")
        srv.put("i|1", "v")
        assert srv.scan("b|", "b}") == [("b|1", "v")]
        for sr in srv.engine.status["a"].ranges():
            srv.engine.retire_range("a", sr)
        assert srv.scan("b|", "b}") == [("b|1", "v")]
        srv.put("i|2", "w")
        assert srv.scan("b|", "b}") == [("b|1", "v"), ("b|2", "w")]

    def test_memory_limit_enforced_during_writes(self):
        srv = PequodServer(memory_limit=20_000)
        srv.add_join(TIMELINE)
        populate(srv, users=20, posts=10)
        assert srv.memory_bytes() <= 20_000

    def test_base_data_over_the_limit_evicts_every_range_then_stops(self):
        """Client-written base data is never evictable.  When it alone
        exceeds the limit, each operation evicts every computed range
        and returns; reads stay exact and later writes do not loop."""
        srv = PequodServer(memory_limit=1)
        srv.add_join(TIMELINE)
        names = [f"u{i:02d}" for i in range(6)]
        for u in names:
            srv.put(f"s|{u}|star", "1")
        for t in range(5):
            srv.put(f"p|star|{t:04d}", f"tweet {t}")
        assert srv.eviction.evictions == 0  # nothing computed yet
        expected = [
            (f"t|{u}|{t:04d}|star", f"tweet {t}")
            for u in names
            for t in range(5)
        ]
        assert srv.scan("t|", "t}") == expected  # computes every timeline
        assert srv.eviction.evictions > 0
        assert not srv.engine.lru
        assert srv.store.count("t|", "t}") == 0
        assert srv.engine.updater_bytes == 0
        assert srv.eviction.over_limit()
        assert srv.eviction.maybe_evict() == 0
        for u in names:
            assert srv.scan(f"t|{u}|", f"t|{u}}}") == [
                row for row in expected if row[0].startswith(f"t|{u}|")
            ]
        evictions = srv.eviction.evictions
        srv.put("p|star|0005", "tweet 5")
        srv.remove("s|u00|star")
        assert srv.eviction.evictions == evictions
        assert srv.scan("t|u00|", "t|u00}") == []
        assert srv.scan("t|u01|", "t|u01}")[-1] == ("t|u01|0005|star", "tweet 5")
        assert srv.get("p|star|0000") == "tweet 0"

    def test_base_data_not_silently_lost(self):
        """Evicting computed ranges never deletes base data."""
        srv = PequodServer()
        srv.add_join(TIMELINE)
        srv.put("s|ann|bob", "1")
        srv.put("p|bob|0100", "keep me")
        srv.scan("t|ann|", "t|ann}")
        while srv.eviction.evict_one():
            pass
        assert srv.get("p|bob|0100") == "keep me"
        assert srv.get("s|ann|bob") == "1"


class TestReadsEvict:
    """Every read that computes joins evicts past the memory limit."""

    @staticmethod
    def read_timelines(read):
        srv = PequodServer(subtable_config={"t": 2}, memory_limit=60_000)
        srv.add_join(TIMELINE)
        for u in range(20):
            srv.put(f"s|u{u:02d}|star", "1")
        for t in range(10):
            srv.put(f"p|star|{t:04d}", "x" * 100)
        for i in range(200):
            read(srv, f"t|u{i % 20:02d}|{i // 20:04d}|star")
        return srv

    def test_get_evicts_like_scan(self):
        by_get = self.read_timelines(lambda srv, key: srv.get(key))
        by_scan = self.read_timelines(
            lambda srv, key: srv.scan(key, key + "\x00")
        )
        assert by_get.eviction.evictions > 0
        assert by_get.memory_bytes() <= 60_000
        assert by_get.memory_bytes() == by_scan.memory_bytes()
        assert by_get.eviction.evictions == by_scan.eviction.evictions


class TestEvictionRetiresUpdaters:
    """Eviction uninstalls the updaters only the evicted range owned
    (§3.2), so a range computed afresh over the same keys inherits
    nothing from the one that was evicted."""

    def test_unfollowed_posts_stay_out_after_evict_and_login(self):
        srv = PequodServer()
        srv.add_join(TIMELINE)
        srv.put("s|ann|bob", "1")
        srv.put("s|ann|liz", "1")
        srv.put("p|liz|0001", "from liz")
        srv.scan("t|ann|", "t|ann}")
        srv.remove("s|ann|bob")  # invalidates ann's timeline
        assert srv.eviction.evict_one()  # ...before anything rebuilt it
        srv.scan("t|ann|", "t|ann}")
        srv.put("p|bob|0002", "from bob")
        assert srv.scan("t|ann|", "t|ann}") == [("t|ann|0001|liz", "from liz")]

    def test_an_aggregate_counts_each_subscribe_once_after_evict(self):
        srv = PequodServer()
        srv.add_join("karma|<poster> = count s|<user>|<poster>")
        srv.put("s|ann|bob", "1")
        assert srv.get("karma|bob") == "1"  # a one-key range
        assert srv.eviction.evict_one()
        assert srv.scan("karma|", "karma}") == [("karma|bob", "1")]
        srv.put("s|liz|bob", "1")
        assert srv.get("karma|bob") == "2"

    def test_other_timelines_stay_memo_hits(self):
        srv = PequodServer()
        srv.add_join(TIMELINE)
        names = populate(srv, users=3)
        for u in names:  # every check from here on is a memo hit
            srv.scan(f"t|{u}|", f"t|{u}}}")
        srv.eviction.evict_one()  # the coldest: names[0]
        hits = srv.stats.get("validation_memo_hits")
        for u in names[1:]:
            srv.scan(f"t|{u}|", f"t|{u}}}")
        assert srv.stats.get("validation_memo_hits") == hits + 2
        assert f"t|{names[0]}}}" not in srv.engine._validation_memo["t"]
