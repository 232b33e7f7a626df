"""Global invariants: memory accounting is exact, grammar roundtrips.

The memory model drives eviction decisions and two paper measurements
(§4.1's 1.17x, §4.3's value sharing), so it must match a from-scratch
recount after any workload — including the pointer charge of copies.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PequodServer
from repro.apps.twip import TIMELINE_JOIN
from repro.core.grammar import parse_join
from repro.store.store import OrderedStore
from repro.store.table import SUBTABLE_OVERHEAD
from repro.store.values import NODE_OVERHEAD, POINTER_SIZE


def recount_memory(server: PequodServer) -> int:
    """Recompute the store's memory footprint from scratch.

    A string in the output table of an installed (stored) copy join is
    charged a pointer, every other string its length (§4.3).  Uses the
    non-counting iteration: recounting is introspection and must not
    disturb the work counters it runs alongside.
    """
    copy_outputs = {
        join.output.table
        for join in server.joins
        if not join.is_pull and not join.is_aggregate
    }
    total = 0
    for table in server.store.tables.values():
        total += SUBTABLE_OVERHEAD * table.subtable_count()
        for key, value in table.items(table.name, table.name + "\U0010ffff"):
            total += len(key) + NODE_OVERHEAD
            if not isinstance(value, str):
                total += value.memory_size()
            elif table.name in copy_outputs:
                total += POINTER_SIZE
            else:
                total += len(value)
    return total


class TestMemoryAccountingExact:
    def run_random_workload(self, seed, subtables):
        rng = random.Random(seed)
        srv = PequodServer(
            subtable_config={"t": 2, "p": 2} if subtables else None,
        )
        srv.add_join(TIMELINE_JOIN)
        srv.add_join("karma|<poster> = count s|<user>|<poster>")
        users = [f"u{i}" for i in range(6)]
        for _ in range(300):
            action = rng.random()
            u, p = rng.choice(users), rng.choice(users)
            t = f"{rng.randrange(40):04d}"
            if action < 0.3:
                srv.put(f"s|{u}|{p}", "1")
            elif action < 0.5:
                srv.put(f"p|{p}|{t}", f"tweet {t} " * rng.randrange(1, 4))
            elif action < 0.6:
                srv.remove(f"s|{u}|{p}")
            elif action < 0.7:
                srv.remove(f"p|{p}|{t}")
            elif action < 0.9:
                srv.scan(f"t|{u}|", f"t|{u}}}")
            else:
                srv.get(f"karma|{p}")
        return srv

    def test_accounting_matches_recount_default(self):
        srv = self.run_random_workload(1, subtables=True)
        assert srv.store.memory_bytes() == recount_memory(srv)

    def test_accounting_matches_recount_no_subtables(self):
        srv = self.run_random_workload(2, subtables=False)
        assert srv.store.memory_bytes() == recount_memory(srv)

    def test_join_added_over_stored_rows_recharges_them(self):
        """Rows a table held before a copy join writes into it are
        recharged once, as pointers, when the join is installed."""
        srv = PequodServer(subtable_config={"t": 2})
        srv.put("t|ann|0001|bob", "written before the join")
        srv.put("p|bob|0001", "a tweet")
        before = srv.store.tables["t"].memory_bytes
        srv.add_join(TIMELINE_JOIN)
        after = srv.store.tables["t"].memory_bytes
        assert before - after == len("written before the join") - POINTER_SIZE
        assert srv.store.memory_bytes() == recount_memory(srv)
        srv.remove("t|ann|0001|bob")  # released for what it is charged
        assert srv.store.memory_bytes() == recount_memory(srv)

    def test_client_put_into_a_copy_output_is_a_pointer(self):
        srv = PequodServer()
        srv.add_join(TIMELINE_JOIN)
        srv.put("t|ann|0001|bob", "x" * 300)
        assert srv.store.tables["t"].memory_bytes == (
            len("t|ann|0001|bob") + NODE_OVERHEAD + POINTER_SIZE
        )
        srv.put("t|ann|0001|bob", "y")
        assert srv.store.memory_bytes() == recount_memory(srv)

    def test_source_removed_while_its_copy_survives(self):
        """A source removed under a pending range retracts its copy;
        under an invalid one the copy stays until the recompute and
        keeps its pointer charge, while the payload left with the
        source (store/values.py)."""
        srv = PequodServer()
        srv.add_join(TIMELINE_JOIN)
        for key in ("s|ann|bob", "s|ann|liz", "p|bob|0001", "p|liz|0002"):
            srv.put(key, "payload of " + key)
        srv.scan("t|ann|", "t|ann}")
        srv.put("s|ann|zed", "1")  # pending on ann's timeline
        srv.remove("p|bob|0001")
        assert srv.store.get("t|ann|0001|bob") is None
        assert srv.store.memory_bytes() == recount_memory(srv)
        srv.remove("s|ann|bob")  # invalidates ann's timeline
        srv.remove("p|liz|0002")
        assert srv.store.get("t|ann|0002|liz") == "payload of p|liz|0002"
        assert srv.store.memory_bytes() == recount_memory(srv)
        assert srv.scan("t|ann|", "t|ann}") == []  # recomputed: gone
        assert srv.store.memory_bytes() == recount_memory(srv)

    def test_accounting_after_eviction(self):
        srv = self.run_random_workload(3, subtables=True)
        while srv.eviction.evict_one():
            pass
        assert srv.store.memory_bytes() == recount_memory(srv)

    def test_accounting_never_negative(self):
        srv = self.run_random_workload(4, subtables=True)
        for table in srv.store.tables.values():
            assert table.memory_bytes >= 0
        # Remove absolutely everything; accounting must return to the
        # bookkeeping-only baseline.
        for key in [k for k, _ in srv.store.scan_nodes("", "\U0010ffff")]:
            srv.store.remove(key)
        assert srv.store.memory_bytes() == recount_memory(srv)
        assert len(srv.store) == 0


def updater_charge(updater) -> int:
    """An updater's byte charge, recomputed from its fields: a fixed
    48, the context's names and values, and the four bounds."""
    return (
        48
        + sum(len(n) + len(v) for n, v in zip(updater.names, updater.values))
        + len(updater.source_lo)
        + len(updater.source_hi)
        + len(updater.output_lo)
        + len(updater.output_hi)
    )


def recount_updater_bytes(server: PequodServer) -> int:
    """Recompute the engine's updater accounting from the interval
    trees themselves."""
    total = 0
    for table in server.store.tables.values():
        for entry in table.updaters.entries():
            for updater in entry.payloads:
                assert updater.size == updater_charge(updater)
                total += updater_charge(updater)
    return total


class TestUpdaterAccounting:
    def test_memory_size_counts_all_four_bounds(self):
        """Source *and* output bounds are real per-updater strings; the
        old model billed only the context and undercounted."""
        from repro.core.grammar import parse_join
        from repro.core.updaters import Updater

        join = parse_join(TIMELINE_JOIN)
        updater = Updater(
            join, 1, ("user",), ("ann",), "t|ann|", "t|ann}",
            False, "p|bob|", "p|bob}",
        )
        expected = (
            48
            + len("user") + len("ann")
            + len("p|bob|") + len("p|bob}")
            + len("t|ann|") + len("t|ann}")
        )
        assert updater.size == expected == updater_charge(updater)

    def test_engine_updater_bytes_matches_recount(self):
        srv = TestMemoryAccountingExact().run_random_workload(5, subtables=True)
        assert srv.engine.updater_bytes == recount_updater_bytes(srv)
        assert srv.engine.updater_bytes > 0

    def test_updater_bytes_match_after_invalidation_gc(self):
        srv = PequodServer(subtable_config={"t": 2, "p": 2, "s": 2})
        srv.add_join(TIMELINE_JOIN)
        for u in ("ann", "bob"):
            srv.put(f"s|{u}|celeb", "1")
            srv.scan(f"t|{u}|", f"t|{u}}}")
        srv.remove("s|ann|celeb")  # invalidates; the rebuild releases
        srv.put("p|celeb|0001", "x")
        srv.scan("t|ann|", "t|ann}")
        assert srv.engine.updater_bytes == recount_updater_bytes(srv)


def check_updater_ownership(server: PequodServer) -> None:
    """The one updater invariant: the trees hold exactly the updaters of
    the builds attached status ranges hold; each build counts exactly
    its holders and spans its updaters' output bounds; and the engine's
    byte count is the trees' recount."""
    held = {}
    for stable in server.engine.status.values():
        for sr in stable.ranges():
            assert len({id(b) for b in sr.builds}) == len(sr.builds)
            for b in sr.builds:
                held.setdefault(id(b), [b, 0])[1] += 1
    owned = set()
    for b, holders in held.values():
        assert b.holders == holders
        for u in b.updaters:
            assert u.build is b
            assert b.lo <= u.output_lo and u.output_hi <= b.hi
            owned.add(id(u))
    installed = {
        id(u)
        for table in server.store.tables.values()
        for entry in table.updaters.entries()
        for u in entry.payloads
    }
    assert installed == owned
    assert server.engine.updater_bytes == recount_updater_bytes(server)


class TestUpdaterOwnership:
    """Every way the cover changes keeps the ownership invariant."""

    def timelines(self, **kwargs):
        srv = PequodServer(**kwargs)
        srv.add_join(TIMELINE_JOIN)
        for u in ("ann", "bob", "liz"):
            for p in ("bob", "liz", "zed"):
                if u != p:
                    srv.put(f"s|{u}|{p}", "1")
        for i, p in enumerate(("bob", "liz", "zed") * 3):
            srv.put(f"p|{p}|{i:010d}", f"post {i}")
        for u in ("ann", "bob", "liz"):
            srv.scan(f"t|{u}|", f"t|{u}}}")
        check_updater_ownership(srv)
        return srv

    def test_split_then_merge(self):
        srv = self.timelines()
        srv.put("s|ann|cat", "1")  # pending on ann's timeline
        srv.scan(f"t|ann|{4:010d}", "t|ann}")  # the check cuts it
        assert len(srv.engine.status["t"]) == 4
        check_updater_ownership(srv)
        srv.scan("t|ann|", "t|ann}")  # the login folds it again
        assert len(srv.engine.status["t"]) == 3
        check_updater_ownership(srv)

    def test_recompute(self):
        srv = self.timelines()
        srv.put("s|ann|cat", "1")
        srv.scan(f"t|ann|{4:010d}", "t|ann}")
        srv.remove("s|ann|zed")  # invalidates both pieces
        srv.scan(f"t|ann|{2:010d}", "t|ann}")  # rebuilds a cut of them
        check_updater_ownership(srv)
        srv.scan("t|ann|", "t|ann}")
        check_updater_ownership(srv)

    def test_evict(self):
        srv = self.timelines()
        srv.scan(f"t|bob|{4:010d}", "t|bob}")
        while srv.eviction.evict_one():
            check_updater_ownership(srv)
        assert srv.engine.updater_bytes == 0

    def test_failed_compute(self):
        srv = PequodServer()
        srv.add_join(
            "t|<user>|<time:4>|<poster> = check s|<user>|<poster> "
            "copy p|<poster>|<time>"
        )
        for key in ("s|ann|bob", "s|ann|liz", "p|bob|0001", "p|liz|02"):
            srv.put(key, "v")
        with pytest.raises(ValueError, match="declared width 4"):
            srv.scan("t|ann|", "t|ann}")
        check_updater_ownership(srv)
        assert srv.engine.updater_bytes == 0

    @pytest.mark.parametrize("seed", [3, 6])
    def test_random_workload_under_eviction(self, seed):
        srv = TestMemoryAccountingExact().run_random_workload(
            seed, subtables=True
        )
        check_updater_ownership(srv)
        for _ in range(len(srv.engine.lru) // 2):
            srv.eviction.evict_one()
        check_updater_ownership(srv)


class TestMemoryLimitHolds:
    """Under a tight limit, a Twip stream of logins and checks from
    moving ticks keeps ``memory_bytes`` at the limit: evicting a range
    frees its updaters too, so nothing the limit counts is left over."""

    def test_memory_stays_at_the_limit_after_every_op(self):
        rng = random.Random(11)
        limit = 60_000
        srv = PequodServer(memory_limit=limit)
        srv.add_join(TIMELINE_JOIN)
        users = [f"u{i:02d}" for i in range(30)]
        for u in users:
            for p in rng.sample(users, 6):
                srv.put(f"s|{u}|{p}", "1")
        for i in range(120):
            srv.put(f"p|{rng.choice(users)}|{i:010d}", "x" * 20)
        worst = 0.0
        for _ in range(600):
            u = rng.choice(users)
            if rng.random() < 0.5:
                srv.scan(f"t|{u}|", f"t|{u}}}")
            else:
                srv.scan(f"t|{u}|{rng.randrange(120):010d}", f"t|{u}}}")
            worst = max(worst, srv.memory_bytes() / limit)
        assert srv.eviction.evictions > 0
        assert worst <= 1.05
        check_updater_ownership(srv)


class TestCounterInvariants:
    """Work counters bill exactly the work clients cause.

    The pre-overhaul ``count()`` re-walked ``scan_nodes``, charging a
    second scan (plus descents) for an operation that moves no data;
    memory recounts did the same.  Those paths now
    use the non-counting iteration, and these tests pin the invariants.
    """

    def build_store(self) -> OrderedStore:
        store = OrderedStore({"p": 2})
        for i in range(60):
            store.put(f"p|u{i % 4}|{i:04d}", f"v{i}")
        return store

    def test_count_charges_no_scan_counters(self):
        store = self.build_store()
        before = store.stats.snapshot()
        assert store.count("p|", "p}") == 60
        assert store.count("p|u1|", "p|u1}") == 15
        after = store.stats.snapshot()
        for counter in ("scans", "scanned_items", "tree_descents",
                        "tree_descent_cost", "hash_jumps"):
            assert after.get(counter, 0) == before.get(counter, 0), counter

    def test_items_charges_nothing(self):
        store = self.build_store()
        before = store.stats.snapshot()
        tbl = store.tables["p"]
        assert len(tbl.items("p|", "p}")) == 60
        assert len(tbl.items("p|u2|", "p|u2}")) == 15
        assert tbl.count_range("p|", "p}") == 60
        assert store.stats.snapshot() == before

    def test_scan_bills_each_item_exactly_once(self):
        store = self.build_store()
        before = store.stats.get("scanned_items")
        scans_before = store.stats.get("scans")
        out = store.scan("p|u1|", "p|u1}")
        assert len(out) == 15
        assert store.stats.get("scanned_items") == before + len(out)
        assert store.stats.get("scans") == scans_before + 1
        # A count over the same range afterwards adds nothing.
        store.count("p|u1|", "p|u1}")
        assert store.stats.get("scanned_items") == before + len(out)
        assert store.stats.get("scans") == scans_before + 1

    def test_eviction_check_charges_no_scans(self):
        srv = PequodServer(subtable_config={"t": 2}, memory_limit=10**9)
        srv.add_join(TIMELINE_JOIN)
        srv.put("s|ann|bob", "1")
        srv.put("p|bob|0001", "x")
        srv.scan("t|ann|", "t|ann}")
        before = srv.stats.snapshot()
        # Every operation ends in this check; under the limit it and
        # the choice of a victim must be free.  (Eviction itself still
        # bills its range-clearing read.)
        assert srv.eviction.maybe_evict() == 0
        assert srv.engine.lru.coldest() is not None
        assert srv.stats.snapshot() == before


class TestGrammarRoundtrip:
    ops = st.sampled_from(["copy", "count", "sum", "min", "max"])
    tables = st.sampled_from(["alpha", "beta", "gamma", "delta"])
    slots = st.lists(
        st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=3,
        unique=True,
    )

    @settings(max_examples=80)
    @given(ops, tables, tables, tables, slots)
    def test_generated_joins_roundtrip(self, op, out_tbl, chk_tbl, val_tbl, names):
        if len({out_tbl, chk_tbl, val_tbl}) < 3:
            return  # recursion rules need distinct tables
        slot_text = "|".join(f"<{n}>" for n in names)
        text = (
            f"{out_tbl}|{slot_text} = "
            f"check {chk_tbl}|{slot_text} {op} {val_tbl}|{slot_text}"
        )
        join = parse_join(text)
        again = parse_join(join.text)
        assert again.text == join.text
        assert [s.operator for s in again.sources] == ["check", op]
