"""Tests for the extensions the paper proposes as future work.

* ``echeck`` — eager maintenance for check-source inserts (§3.2: "we
  would like to offer users more control over maintenance type").
* Cost-aware eviction (§2.5: "considering the expected costs of
  reloading a range") is not implemented; eviction stays LRU.
"""

import pytest

from repro import PequodServer

ECHECK_TIMELINE = (
    "t|<user>|<time>|<poster> = echeck s|<user>|<poster> copy p|<poster>|<time>"
)
LAZY_TIMELINE = (
    "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"
)


class TestEagerCheck:
    def test_results_match_lazy_check(self):
        eager = PequodServer()
        eager.add_join(ECHECK_TIMELINE)
        lazy = PequodServer()
        lazy.add_join(LAZY_TIMELINE)
        for srv in (eager, lazy):
            srv.put("p|bob|0100", "old tweet")
            srv.put("s|ann|bob", "1")
            srv.scan("t|ann|", "t|ann}")
            srv.put("s|ann|liz", "1")
            srv.put("p|liz|0200", "liz tweet")
        assert eager.scan("t|ann|", "t|ann}") == lazy.scan("t|ann|", "t|ann}")

    def test_subscription_insert_applies_at_write_time(self):
        srv = PequodServer()
        srv.add_join(ECHECK_TIMELINE)
        srv.put("s|ann|bob", "1")
        srv.put("p|bob|0100", "existing")
        srv.scan("t|ann|", "t|ann}")  # materialize; install echeck updater
        srv.put("p|liz|0050", "liz old tweet")
        srv.put("s|ann|liz", "1")  # eager: backfills immediately
        assert srv.stats.get("eager_check_inserts") >= 1
        assert srv.stats.get("partial_invalidations") == 0
        # The copy is already in the store before any read.
        assert srv.store.get("t|ann|0050|liz") == "liz old tweet"

    def test_lazy_check_defers_instead(self):
        srv = PequodServer()
        srv.add_join(LAZY_TIMELINE)
        srv.put("s|ann|bob", "1")
        srv.scan("t|ann|", "t|ann}")
        srv.put("p|liz|0050", "liz old tweet")
        srv.put("s|ann|liz", "1")
        # Lazy: nothing in the store until the next read.
        assert srv.store.get("t|ann|0050|liz") is None
        assert srv.scan("t|ann|", "t|ann}")[0][0] == "t|ann|0050|liz"

    def test_echeck_removal_invalidates(self):
        srv = PequodServer()
        srv.add_join(ECHECK_TIMELINE)
        srv.put("s|ann|bob", "1")
        srv.put("p|bob|0100", "x")
        srv.scan("t|ann|", "t|ann}")
        srv.remove("s|ann|bob")
        assert srv.scan("t|ann|", "t|ann}") == []
        srv.put("p|bob|0300", "after unsub")
        assert srv.scan("t|ann|", "t|ann}") == []

    def test_echeck_future_posts_flow(self):
        srv = PequodServer()
        srv.add_join(ECHECK_TIMELINE)
        srv.put("s|ann|bob", "1")
        srv.scan("t|ann|", "t|ann}")
        srv.put("s|ann|liz", "1")  # eager backfill installs p|liz updater
        srv.put("p|liz|0500", "future tweet")
        assert srv.store.get("t|ann|0500|liz") == "future tweet"

    def test_grammar_accepts_echeck(self):
        srv = PequodServer()
        joins = srv.add_join(ECHECK_TIMELINE)
        assert joins[0].sources[0].is_check
        assert joins[0].sources[0].is_eager_check

    def test_echeck_counts_toward_check_quota(self):
        from repro.core.joins import CacheJoin, JoinError

        with pytest.raises(JoinError):
            CacheJoin("o|<a>", [("echeck", "x|<a>")])  # no value source


class TestEvictionIgnoresCost:
    """§2.5 suggests "considering the expected costs of reloading a
    range"; this reproduction keeps the prototype's plain LRU until a
    cost-weighted choice wins on the benchmark."""

    def test_expensive_aggregate_evicted_when_coldest(self):
        srv = PequodServer()
        srv.add_join(LAZY_TIMELINE)
        srv.add_join("karma|<author> = count vote|<author>|<id>|<voter>")
        for i in range(80):
            srv.put(f"vote|bob|{i:03d}|v{i:03d}", "1")
        # One tiny output computed by scanning 80 votes, materialized
        # first (coldest), then a cheap timeline of copies.
        srv.get("karma|bob")
        srv.put("s|ann|bob", "1")
        for t in range(6):
            srv.put(f"p|bob|{t:04d}", "tweet text " * 4)
        srv.scan("t|ann|", "t|ann}")
        srv.eviction.evict_one()
        assert srv.store.count("karma|", "karma}") == 0
        assert srv.store.count("t|ann|", "t|ann}") == 6
        assert srv.get("karma|bob") == "80"  # recomputed on demand
