"""Status ranges merge again: the engine-level contract.

A partial read with pending work cuts a status range (§3.2's lazy
partial invalidation applied to the part that was asked for); the next
read that spans the pieces folds them back into one range with one
united log (``StatusTable.merge_over``).  These tests pin what the
merge must keep: updaters stay live, re-application is silent, LRU /
memo bookkeeping follows the survivor, and accounting
still recounts exactly.
"""

from repro import PequodServer
from repro.apps.twip import TIMELINE_JOIN
from repro.core.clock import SimClock
from repro.core.status import RangeState

from test_accounting_invariants import recount_memory, recount_updater_bytes

LOGIN = ("t|ann|0000000000", "t|ann}")


def tick(n: int) -> str:
    return f"{n:010d}"


def timeline_server(**kwargs) -> PequodServer:
    srv = PequodServer(**kwargs)
    srv.add_join(TIMELINE_JOIN)
    return srv


def fragmented(srv: PequodServer, rounds: int = 4) -> None:
    """Ann logs in, then alternates subscribe / post / check-from-tick:
    every check finds a pending subscription and cuts her range."""
    srv.put("s|ann|bob", "1")
    srv.put(f"p|bob|{tick(1)}", "bob 1")
    srv.scan(*LOGIN)
    for r in range(rounds):
        poster = f"u{r}"
        srv.put(f"p|{poster}|{tick(5 + 10 * r)}", f"{poster} old")
        srv.put(f"s|ann|{poster}", "1")
        srv.put(f"p|{poster}|{tick(15 + 10 * r)}", f"{poster} new")
        srv.scan(f"t|ann|{tick(10 + 10 * r)}", "t|ann}")


def expected_timeline(rounds: int = 4):
    rows = [(f"t|ann|{tick(1)}|bob", "bob 1")]
    for r in range(rounds):
        rows.append((f"t|ann|{tick(5 + 10 * r)}|u{r}", f"u{r} old"))
        rows.append((f"t|ann|{tick(15 + 10 * r)}|u{r}", f"u{r} new"))
    return sorted(rows)


def cover(srv: PequodServer, table: str = "t"):
    return [(sr.lo, sr.hi) for sr in srv.engine.status[table].ranges()]


class TestLoginMergesFragments:
    def test_checks_cut_and_a_login_joins(self):
        srv = timeline_server()
        fragmented(srv)
        assert len(cover(srv)) == 5
        assert srv.scan(*LOGIN) == expected_timeline()
        assert cover(srv) == [LOGIN]
        assert srv.stats.get("status_merges") == 4
        srv.engine.status["t"].check_disjoint_cover()

    def test_one_log_applied_once(self):
        srv = timeline_server()
        fragmented(srv)
        before = srv.stats.get("pending_applied")
        tm = srv.engine.table_metrics["t"]
        applies = tm.pending_applies
        srv.scan(*LOGIN)
        # Four subscriptions back-fill the head: four entries in one
        # merged log, not four entries in each of the fragments that
        # had not seen them yet.
        assert srv.stats.get("pending_applied") - before == 4
        assert tm.pending_applies == applies + 1

    def test_next_login_is_a_memo_hit(self):
        srv = timeline_server()
        fragmented(srv)
        srv.scan(*LOGIN)
        hits = srv.stats.get("validation_memo_hits")
        joins = srv.stats.get("joins_executed")
        assert srv.scan(*LOGIN) == expected_timeline()
        assert srv.stats.get("validation_memo_hits") == hits + 1
        assert srv.stats.get("joins_executed") == joins

    def test_a_check_still_isolates_only_its_tail(self):
        srv = timeline_server()
        fragmented(srv)
        srv.scan(*LOGIN)
        srv.put(f"p|zed|{tick(2)}", "zed old")
        srv.put("s|ann|zed", "1")
        got = srv.scan(f"t|ann|{tick(50)}", "t|ann}")
        assert got == []  # zed's only post is below the tick
        assert cover(srv) == [(LOGIN[0], f"t|ann|{tick(50)}"), (f"t|ann|{tick(50)}", "t|ann}")]
        head = srv.engine.status["t"].find(LOGIN[0])
        assert [e.key for e in head.pending] == ["s|ann|zed"]  # still owed
        assert (f"t|ann|{tick(2)}|zed", "zed old") in srv.scan(*LOGIN)

    def test_post_after_merge_reaches_the_merged_timeline(self):
        srv = timeline_server()
        fragmented(srv)
        srv.scan(*LOGIN)
        fired = srv.stats.get("eager_updates")
        srv.put(f"p|bob|{tick(3)}", "bob 3")  # below every old cut
        srv.put(f"p|u2|{tick(99)}", "u2 late")  # above them
        assert srv.stats.get("eager_updates") >= fired + 2
        joins = srv.stats.get("joins_executed")
        got = srv.scan(*LOGIN)
        assert srv.stats.get("joins_executed") == joins  # maintained, not recomputed
        assert (f"t|ann|{tick(3)}|bob", "bob 3") in got
        assert (f"t|ann|{tick(99)}|u2", "u2 late") in got

    def test_unsubscribe_after_merge_invalidates_the_whole(self):
        srv = timeline_server()
        fragmented(srv)
        srv.scan(*LOGIN)
        srv.remove("s|ann|u1")
        got = srv.scan(*LOGIN)
        assert got == [row for row in expected_timeline() if not row[0].endswith("|u1")]
        # The rebuild retired the old updaters: a late u1 post stays out.
        srv.put(f"p|u1|{tick(77)}", "gone")
        assert srv.scan(*LOGIN) == got

    def test_evicted_merged_range_recomputes(self):
        srv = timeline_server()
        fragmented(srv)
        srv.scan(*LOGIN)
        assert len(srv.engine.lru) == 1
        assert srv.eviction.evict_one()
        assert cover(srv) == []
        assert srv.store.count("t|", "t}") == 0
        assert srv.scan(*LOGIN) == expected_timeline()
        srv.put(f"p|u0|{tick(98)}", "after")
        assert (f"t|ann|{tick(98)}|u0", "after") in srv.scan(*LOGIN)


class TestBookkeepingFollowsTheSurvivor:
    def test_absorbed_ranges_leave_the_lru_and_detach(self):
        srv = timeline_server()
        fragmented(srv)
        pieces = srv.engine.status["t"].ranges()
        srv.scan(*LOGIN)
        survivor = srv.engine.status["t"].ranges()[0]
        assert survivor is pieces[0]
        for dead in pieces[1:]:
            assert not dead.attached
            assert dead.lru_entry is None
            assert dead.pending == {}
        tracked = [entry.payload[1] for entry in srv.engine.lru]
        assert tracked == [survivor]
        assert survivor.lru_entry.linked()

    def test_survivor_is_hottest_after_the_read(self):
        srv = timeline_server()
        fragmented(srv)
        srv.put("s|liz|bob", "1")
        srv.scan("t|liz|", "t|liz}")  # liz is now hotter than ann
        srv.scan(*LOGIN)
        hottest = list(srv.engine.lru)[-1].payload[1]
        assert (hottest.lo, hottest.hi) == LOGIN

    def test_memo_pointing_at_an_absorbed_range_misses(self):
        srv = timeline_server()
        fragmented(srv)
        memo = srv.engine._validation_memo["t"]
        tail = memo["t|ann}"]  # the last check's tail piece
        srv.scan(*LOGIN)
        assert not tail.attached
        assert not srv.engine._memo_usable(tail, tail.lo, "t|ann}", 0.0)
        assert memo["t|ann}"] is srv.engine.status["t"].ranges()[0]
        # ...and a check from the old tick is served by the survivor.
        hits = srv.stats.get("validation_memo_hits")
        srv.scan(f"t|ann|{tick(40)}", "t|ann}")
        assert srv.stats.get("validation_memo_hits") == hits + 1

    def test_accounting_still_recounts(self):
        srv = timeline_server(subtable_config={"t": 2, "p": 2})
        fragmented(srv, rounds=6)
        srv.scan(*LOGIN)
        srv.put(f"p|u3|{tick(97)}", "x" * 40)
        assert srv.store.memory_bytes() == recount_memory(srv)
        assert srv.engine.updater_bytes == recount_updater_bytes(srv)
        while srv.eviction.evict_one():
            pass
        assert srv.engine.updater_bytes == 0  # eviction uninstalled them all
        srv.put(f"p|u3|{tick(96)}", "y")
        assert srv.store.memory_bytes() == recount_memory(srv)
        assert srv.engine.updater_bytes == recount_updater_bytes(srv)


class TestRefusalsInTheEngine:
    def test_invalid_pieces_rebuild_then_merge_on_the_next_login(self):
        srv = timeline_server()
        fragmented(srv, rounds=2)
        srv.remove("s|ann|bob")  # complete invalidation of all three pieces
        assert all(
            sr.state is RangeState.INVALID for sr in srv.engine.status["t"].ranges()
        )
        want = [row for row in expected_timeline(2) if not row[0].endswith("|bob")]
        assert srv.scan(*LOGIN) == want
        assert len(cover(srv)) == 3  # INVALID ranges never merge
        for sr in srv.engine.status["t"].ranges():  # each rebuilt alone
            (build,) = sr.builds
            assert (build.lo, build.hi) == (sr.lo, sr.hi)
        assert srv.scan(*LOGIN) == want
        assert cover(srv) == [LOGIN]  # VALID again: one range
        (merged,) = srv.engine.status["t"].ranges()
        assert [b.holders for b in merged.builds] == [1, 1, 1]
        assert srv.engine.updater_bytes == recount_updater_bytes(srv)
        srv.put(f"p|u0|{tick(60)}", "late")
        assert (f"t|ann|{tick(60)}|u0", "late") in srv.scan(*LOGIN)

    def test_pieces_rebuilt_apart_merge(self):
        """Pieces rebuilt a different number of times own different
        updaters; merged, the range owns them all, and each updater
        still writes only inside its own output bounds."""
        srv = timeline_server()
        fragmented(srv, rounds=1)  # head [0, 10) and tail [10, })
        for _ in range(2):  # the tail is rebuilt twice, the head once
            srv.put("s|ann|liz", "1")
            srv.remove("s|ann|liz")
            srv.scan(f"t|ann|{tick(10)}", "t|ann}")
        srv.scan(*LOGIN)
        assert len(cover(srv)) == 2
        srv.scan(*LOGIN)
        assert cover(srv) == [LOGIN]
        srv.put(f"p|u0|{tick(3)}", "into the head")
        srv.put(f"p|u0|{tick(70)}", "into the tail")
        assert [v for _, v in srv.scan(*LOGIN)] == [
            "bob 1", "into the head", "u0 old", "u0 new", "into the tail",
        ]

    def test_a_piece_rebuilt_alone_stays_apart_from_its_sibling(self):
        """A check cuts an aggregate range and rebuilds only its tail;
        the head still holds the first build, whose updaters span the
        tail's keys.  Merged, both builds' updaters would count each
        post over the tail — so the pieces stay apart until the head
        is rebuilt too."""
        srv = PequodServer()
        srv.add_join(
            "n|<user>|<poster> = check s|<user>|<poster> count p|<poster>|<time>"
        )
        srv.put("s|ann|jim", "1")
        srv.put("p|jim|0001", "x")
        srv.scan("n|ann|", "n|ann}")
        srv.put("s|ann|liz", "1")  # pending on the whole range
        srv.scan("n|ann|jim", "n|ann}")  # cut: the tail is rebuilt
        srv.scan("n|ann|", "n|ann|jim")  # the head has nothing to apply
        srv.scan("n|ann|", "n|ann}")
        assert len(cover(srv, "n")) == 2
        srv.put("p|jim|0002", "y")
        assert srv.scan("n|ann|", "n|ann}") == [("n|ann|jim", "2")]

    def test_snapshot_pieces_merge_only_with_one_expiry(self):
        clock = SimClock()
        srv = PequodServer(clock=clock)
        srv.add_join(
            "t|<user>|<time>|<poster> = snapshot 30 "
            "check s|<user>|<poster> copy p|<poster>|<time>"
        )
        srv.put("s|ann|bob", "1")
        srv.put(f"p|bob|{tick(1)}", "old")
        srv.put(f"p|bob|{tick(60)}", "new")
        srv.scan(f"t|ann|{tick(50)}", "t|ann}")
        clock.advance(10.0)
        srv.scan(*LOGIN)  # computes the head ten seconds later
        assert len(cover(srv)) == 2
        srv.scan(*LOGIN)
        assert len(cover(srv)) == 2  # expiries 30 and 40: kept apart
        clock.advance(100.0)
        srv.put(f"p|bob|{tick(2)}", "newer")
        srv.scan(*LOGIN)  # both rebuilt in one read: one expiry...
        assert len(cover(srv)) == 2
        assert len({sr.expires_at for sr in srv.engine.status["t"].ranges()}) == 1
        srv.scan(*LOGIN)  # ...so the next read folds them
        assert cover(srv) == [LOGIN]
        clock.advance(100.0)
        srv.put(f"p|bob|{tick(70)}", "newest")
        assert [v for _, v in srv.scan(*LOGIN)] == ["old", "newer", "new", "newest"]
        assert cover(srv) == [LOGIN]  # rebuilt as one


class TestSilentReinstall:
    def watched(self):
        srv = timeline_server()
        events = []
        srv.watch("t|ann|", "t|ann}", events.append)
        return srv, events

    def test_each_timeline_row_is_delivered_exactly_once(self):
        srv, events = self.watched()
        srv.put("s|ann|bob", "1")
        srv.put(f"p|bob|{tick(1)}", "bob 1")
        srv.scan(*LOGIN)
        srv.put(f"p|liz|{tick(5)}", "liz head")
        srv.put(f"p|liz|{tick(60)}", "liz tail")
        srv.put("s|ann|liz", "1")
        srv.scan(f"t|ann|{tick(50)}", "t|ann}")  # tail applied
        assert [e.key for e in events] == [
            f"t|ann|{tick(1)}|bob", f"t|ann|{tick(60)}|liz",
        ]
        # The login re-applies the merged log over the tail as well.
        installed = srv.stats.get("outputs_installed")
        got = srv.scan(*LOGIN)
        assert srv.stats.get("outputs_installed") == installed + 2
        assert [e.key for e in events] == [
            f"t|ann|{tick(1)}|bob", f"t|ann|{tick(60)}|liz", f"t|ann|{tick(5)}|liz",
        ]
        assert sorted(e.key for e in events) == [k for k, _ in got]
        assert all(e.old is None for e in events)

    def test_no_downstream_maintenance_for_an_unchanged_value(self):
        srv, _ = self.watched()
        srv.add_join("seen|<user>|<time>|<poster> = copy t|<user>|<time>|<poster>")
        srv.put("s|ann|bob", "1")
        srv.put(f"p|bob|{tick(60)}", "bob")
        srv.scan(*LOGIN)
        srv.scan("seen|ann|", "seen|ann}")
        srv.put(f"p|liz|{tick(70)}", "liz")
        srv.put("s|ann|liz", "1")
        srv.scan(f"t|ann|{tick(50)}", "t|ann}")
        fired = srv.stats.get("updaters_fired")
        srv.scan(*LOGIN)  # re-puts liz's row over the tail: same value
        assert srv.stats.get("updaters_fired") == fired
        assert srv.scan("seen|ann|", "seen|ann}") == [
            (f"seen|ann|{tick(60)}|bob", "bob"), (f"seen|ann|{tick(70)}|liz", "liz"),
        ]

    def test_rewriting_a_post_with_the_same_text_is_silent_downstream(self):
        srv, events = self.watched()
        srv.put("s|ann|bob", "1")
        srv.put(f"p|bob|{tick(1)}", "same")
        srv.scan(*LOGIN)
        srv.put(f"p|bob|{tick(1)}", "same")  # compiled fire re-puts
        assert len(events) == 1
        srv.put(f"p|bob|{tick(1)}", "changed")
        assert [(e.old, e.new) for e in events[1:]] == [("same", "changed")]


class TestSiblingFindings:
    """ROADMAP item A's two siblings: a second scan over tiles an
    earlier scan cut executes no join and leaves one range."""

    def test_a_quiescent_rescan_does_no_work(self):
        srv = timeline_server()
        srv.put("s|ann|bob", "1")
        srv.put(f"p|bob|{tick(1)}", "x")
        srv.scan(*LOGIN)
        first = srv.scan("t|ann|", "t|ann}")
        work = [srv.stats.get(k) for k in
                ("joins_executed", "recomputations", "pending_applied")]
        assert srv.scan("t|ann|", "t|ann}") == first
        assert [srv.stats.get(k) for k in
                ("joins_executed", "recomputations", "pending_applied")] == work

    def test_scan_from_below_the_computed_range(self):
        srv = timeline_server()
        srv.put("s|ann|bob", "1")
        srv.put(f"p|bob|{tick(1)}", "x")
        srv.scan(*LOGIN)
        first = srv.scan("t|ann|", "t|ann}")  # tiles the gap below
        assert len(cover(srv)) == 2
        joins = srv.stats.get("joins_executed")
        assert srv.scan("t|ann|", "t|ann}") == first
        assert srv.stats.get("joins_executed") == joins
        assert cover(srv) == [("t|ann|", "t|ann}")]
        hits = srv.stats.get("validation_memo_hits")
        srv.scan("t|ann|", "t|ann}")
        assert srv.stats.get("validation_memo_hits") == hits + 1

    def test_second_whole_table_scan(self):
        srv = timeline_server()
        for u in ("ann", "bob", "liz"):
            srv.put(f"s|{u}|celeb", "1")
            srv.put(f"p|celeb|{tick(1)}", "x")
            srv.scan(f"t|{u}|0000000000", f"t|{u}}}")
        first = srv.scan("t|", "t}")  # tiles the gaps between users
        assert len(cover(srv)) == 7
        joins = srv.stats.get("joins_executed")
        assert srv.scan("t|", "t}") == first
        assert srv.stats.get("joins_executed") == joins
        assert cover(srv) == [("t|", "t}")]
        # Maintenance still reaches every user's rows in the one range.
        srv.put(f"p|celeb|{tick(2)}", "y")
        assert len(srv.scan("t|", "t}")) == 6
        srv.put("s|bob|ann", "1")
        srv.put(f"p|ann|{tick(3)}", "from ann")
        assert (f"t|bob|{tick(3)}|ann", "from ann") in srv.scan("t|bob|", "t|bob}")


class TestEvictedAfterRebuild:
    """Found by the merge properties, older than the merge: a range
    rebuilt once, evicted, and computed afresh must own the updaters it
    re-installs — when they were matched against a per-range build
    number instead, the survivors of the rebuild were inert for the new
    range and later posts were lost."""

    def test_twip_post_after_unsubscribe_evict_recompute(self):
        srv = timeline_server()
        srv.put("s|ann|bob", "1")
        srv.put("s|ann|liz", "1")
        srv.put(f"p|bob|{tick(1)}", "b1")
        srv.scan(*LOGIN)
        srv.remove("s|ann|liz")
        srv.scan(*LOGIN)  # rebuilt
        assert srv.eviction.evict_one()
        srv.scan(*LOGIN)  # a new range
        srv.put(f"p|bob|{tick(2)}", "b2")
        assert [v for _, v in srv.scan(*LOGIN)] == ["b1", "b2"]
        assert srv.engine.updater_bytes == recount_updater_bytes(srv)

    def test_aggregate_after_pending_rebuild_evict_recompute(self):
        srv = PequodServer()
        srv.add_join(
            "n|<user>|<poster> = check s|<user>|<poster> count p|<poster>|<time>"
        )
        srv.scan("n|ann|", "n|ann}")
        srv.put("s|ann|bob", "1")
        srv.scan("n|ann|", "n|ann}")  # aggregates rebuild on a pending entry
        assert srv.eviction.evict_one()
        srv.scan("n|ann|", "n|ann}")
        srv.put("p|bob|0001", "x")
        assert srv.scan("n|ann|", "n|ann}") == [("n|ann|bob", "1")]
