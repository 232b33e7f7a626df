"""The write-path overhaul: compiled plans, batched installs, validity.

Mirrors ``test_read_path.py``: the write-side slot plan
(``Pattern.slot_tuple``) is property-tested against its reference, the
fire pins of ``core.plan`` are unit-tested, and an end-to-end celebrity
workload fanned out through compiled fires must leave byte-identical
store state to a server that computed everything from scratch.
Whole-table scans validate every range they touch: a quiescent rescan
does no work, and pending logs and invalidations are drained.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pattern_oracle import slot_tuple_reference
from repro import PequodServer
from repro.apps.twip import TIMELINE_JOIN
from repro.core.grammar import parse_join
from repro.core.pattern import Pattern
from repro.core.plan import ComputePlan
from repro.core.status import Build, StatusRange
from repro.core.updaters import Updater, install_updater
from repro.store.keys import prefix_upper_bound
from repro.store.store import OrderedStore


def timeline_server(**kwargs) -> PequodServer:
    srv = PequodServer(subtable_config={"t": 2, "p": 2, "s": 2}, **kwargs)
    srv.add_join(TIMELINE_JOIN)
    return srv


# ----------------------------------------------------------------------
# Write-side slot plan: ``slot_tuple`` vs its reference.
# ----------------------------------------------------------------------
PATTERNS = [
    "p|<poster>|<time>",
    "t|<user>|<time>|<poster>",
    "f|<a:4>|<b:6>",
    "d|<x>|mid|<x>|<y>",
    "w|<x:3>|lit|<x:3>",
]

token = st.text(
    alphabet=st.characters(codec="ascii", exclude_characters="|{}\n"),
    min_size=0,
    max_size=8,
)


class TestSlotTuple:
    @pytest.mark.parametrize("text", PATTERNS)
    @given(parts=st.lists(token, min_size=0, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_arbitrary_keys(self, text, parts):
        pattern = Pattern(text)
        key = "|".join([text.split("|")[0]] + parts)
        assert pattern.slot_tuple(key) == slot_tuple_reference(pattern, key)

    @pytest.mark.parametrize("text", PATTERNS)
    @given(values=st.lists(token.filter(bool), min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_expanded_keys(self, text, values):
        """Keys built *from* the pattern (widths padded) must extract
        the same tuple both ways."""
        pattern = Pattern(text)
        slots = {}
        for seg in pattern.segments:
            if seg.is_slot and seg.slot not in slots:
                value = values[len(slots)]
                if seg.width is not None:
                    value = value[: seg.width].ljust(seg.width, "_")
                slots[seg.slot] = value
        key = pattern.expand(slots)
        expected = slot_tuple_reference(pattern, key)
        assert pattern.slot_tuple(key) == expected
        if expected is not None:
            assert expected == tuple(slots[n] for n in pattern.slots)

    def test_tuple_order_is_first_appearance_order(self):
        pattern = Pattern("t|<user>|<time>|<poster>")
        assert pattern.slots == ("user", "time", "poster")
        assert pattern.slot_tuple("t|ann|0001|bob") == ("ann", "0001", "bob")

    def test_duplicate_slot_disagreement_rejected(self):
        pattern = Pattern("d|<x>|mid|<x>|<y>")
        assert pattern.slot_tuple("d|a|mid|a|b") == ("a", "b")
        assert pattern.slot_tuple("d|a|mid|zz|b") is None


# ----------------------------------------------------------------------
# Fire pins: a fired source key bound into the join's slot vector.
# ----------------------------------------------------------------------
class TestFirePin:
    def pin_for(self, join_text, source_index, context):
        plan = ComputePlan(parse_join(join_text))
        return plan, plan.pin(source_index, tuple(context)), plan.vector(context)

    def test_free_source_slots_assign(self):
        plan, pin, vec = self.pin_for(TIMELINE_JOIN, 1, {"user": "ann"})
        assert pin.checks == ()
        assert len(pin.assigns) == 2  # poster and time
        assert pin.bind("p|bob|0000000007", vec)
        # poster and time come from the source key; user from the context.
        assert plan.out_fmt.format(*vec) == "t|ann|0000000007|bob"
        assert plan.pin(1, ("user",)) is pin  # compiled once, shared

    def test_context_pinned_source_slot_becomes_check(self):
        plan, pin, vec = self.pin_for(
            TIMELINE_JOIN, 1, {"user": "ann", "poster": "bob"}
        )
        assert pin.checks == ((0, plan.index["poster"]),)
        assert pin.bind("p|bob|0000000001", vec)
        assert plan.out_fmt.format(*vec) == "t|ann|0000000001|bob"
        # A key for another poster fails the compiled equality check —
        # the ``child_with`` conflict, compiled.
        assert not pin.bind("p|liz|0000000001", vec)
        assert not pin.bind("q|bob|0000000001", vec)  # not the pattern

    def test_literal_braces_are_escaped(self):
        plan, pin, vec = self.pin_for("o|x{0}y|<a> = copy v|<a>", 0, {})
        assert pin.bind("v|k", vec)
        assert plan.out_fmt.format(*vec) == "o|x{0}y|k"


# ----------------------------------------------------------------------
# Batched installs and O(1) updater dedup.
# ----------------------------------------------------------------------
class TestInstallMany:
    def test_matches_sequential_puts(self):
        store = OrderedStore()
        table = store.table("k")
        pairs = [(f"k|{i:03d}", str(i)) for i in range(20)]
        results = table.install_many(pairs)
        assert [old for _, old in results] == [None] * 20
        assert [k for k, _ in results] == [k for k, _ in pairs]
        for key, value in pairs:
            assert store.get(key) == value
        assert store.stats.get("batched_installs") == 1

    def test_overwrites_report_old_values(self):
        store = OrderedStore()
        table = store.table("k")
        table.put("k|b", "old")
        results = table.install_many([("k|a", "1"), ("k|b", "new")])
        assert results == [("k|a", None), ("k|b", "old")]
        assert store.get("k|b") == "new"

    def test_run_resolves_each_tree_once(self):
        store = OrderedStore(subtable_config={"t": 2})
        table = store.table("t")
        table.put("t|b|000", "floor")
        jumps = store.stats.get("hash_jumps")
        descents = store.stats.get("tree_descents")
        pairs = [(f"t|{u}|{i:03d}", "v") for u in "abc" for i in range(50)]
        table.install_many(pairs)
        # A sorted run enters each of the three subtables once, not
        # once per key; each key is still its own search in that tree.
        assert store.stats.get("hash_jumps") == jumps + 3
        assert store.stats.get("tree_descents") == descents + len(pairs)
        assert store.stats.get("puts") == 1 + len(pairs)
        assert table.subtable_count() == 3
        assert store.scan("t|", "t}") == sorted(pairs)


def _range(lo, hi):
    sr = StatusRange(lo, hi)
    sr.builds = (Build(lo, hi),)
    return sr


class TestUpdaterDedupIndex:
    def make_updater(self, join, user="ann"):
        return Updater(
            join, 1, ("user",), (user,), f"t|{user}|", f"t|{user}}}",
            False, "p|b|", "p|b}",
        )

    def test_reinstall_dedupes_and_adopts(self):
        join = parse_join(TIMELINE_JOIN)
        table = OrderedStore().table("p")
        old, new = _range("t|", "t}"), _range("t|", "t}")
        (old_build,), (new_build,) = old.builds, new.builds
        first = self.make_updater(join)
        assert install_updater(table, first, old) is first
        # A build of the range holding it installing it again: no change.
        assert install_updater(table, self.make_updater(join), old) is first
        assert old_build.updaters == [first] and first.build is old_build
        # A later build over the same keys takes it over.
        assert install_updater(table, self.make_updater(join), new) is first
        assert first.build is new_build
        assert (old_build.updaters, new_build.updaters) == ([], [first])
        entry = table.updaters.find_entry("p|b|", "p|b}")
        assert entry.payloads == [first]

    def test_index_follows_an_uninstall(self):
        join = parse_join(TIMELINE_JOIN)
        table = OrderedStore().table("p")
        sr = _range("t|", "t}")
        kept = install_updater(table, self.make_updater(join), sr)
        gone = install_updater(table, self.make_updater(join, "liz"), sr)
        entry = gone.entry
        table.updaters.remove_payload(entry, gone.key)
        assert entry.payloads == [kept]
        assert list(entry.payload_index.values()) == [kept]
        assert install_updater(table, self.make_updater(join), sr) is kept
        # The node leaves the tree with its last payload, found by handle.
        table.updaters.remove_payload(entry, kept.key)
        assert table.updaters.find_entry("p|b|", "p|b}") is None
        assert not table.updaters

    def test_distinct_contexts_accumulate(self):
        join = parse_join(TIMELINE_JOIN)
        table = OrderedStore().table("p")
        sr = _range("t|", "t}")
        for i in range(5):
            install_updater(table, self.make_updater(join, f"u{i}"), sr)
        entry = table.updaters.find_entry("p|b|", "p|b}")
        assert len(entry.payloads) == 5
        assert sr.builds[0].updaters == entry.payloads


# ----------------------------------------------------------------------
# End-to-end parity: compiled fires vs a from-scratch server.
# ----------------------------------------------------------------------
def state_digest(srv: PequodServer) -> str:
    items = []
    for tag in ("t", "p", "s"):
        items.extend(srv.scan(f"{tag}|", f"{tag}}}"))
    return hashlib.sha256(repr(items).encode()).hexdigest()


class TestWritePathParity:
    """The celebrity workload at unit-test scale: with reads between
    the writes (so every write fans out through compiled fires), every
    config must leave byte-identical store state to a server that took
    the same writes and computed everything from scratch at the end."""

    FAN_OUT = 1000

    def drive(self, reads: bool) -> str:
        srv = timeline_server()

        def scan(lo, hi):
            if reads:
                srv.scan(lo, hi)

        followers = [f"u{i:05d}" for i in range(self.FAN_OUT)]
        for u in followers:
            srv.put(f"s|{u}|celeb", "1")
        srv.put("p|celeb|0000000000", "warmup")
        for u in followers:
            scan(f"t|{u}|", prefix_upper_bound(f"t|{u}|"))
        scan("t|", "t}")  # tile the gaps: contiguous cover
        # Single-key fan-out writes, including an overwrite and a
        # retraction.
        srv.put("p|celeb|0000000001", "post one")
        srv.put("p|celeb|0000000001", "post one, edited")
        srv.remove("p|celeb|0000000000")
        # Batched fan-out writes: coalesced, one maintenance pass.
        with srv.write_batch() as batch:
            for t in range(2, 10):
                batch.put(f"p|celeb|{t:010d}", f"batch {t}")
            batch.remove("p|celeb|0000000002")
        # Interleave reads so validation runs between write rounds.
        scan("t|u00000|", prefix_upper_bound("t|u00000|"))
        scan("t|", "t}")
        with srv.write_batch() as batch:
            for t in range(10, 14):
                batch.put(f"p|celeb|{t:010d}", f"batch {t}")
        fires = srv.stats.get("write_plan_fires")
        assert fires > 0 if reads else fires == 0
        return state_digest(srv)

    def test_compiled_matches_reference(self):
        reference = self.drive(reads=False)
        assert self.drive(reads=True) == reference

    def test_compiled_path_actually_fires(self):
        srv = timeline_server()
        srv.put("s|ann|bob", "1")
        srv.scan("t|ann|", "t|ann}")
        srv.put("p|bob|0000000001", "x")
        with srv.write_batch() as batch:
            batch.put("p|bob|0000000002", "y")
            batch.put("p|bob|0000000003", "z")
        assert srv.stats.get("write_plan_compiles") >= 1
        assert srv.stats.get("write_plan_fires") >= 3
        assert srv.stats.get("write_batched_installs") >= 1
        assert srv.scan("t|ann|", "t|ann}") == [
            ("t|ann|0000000001|bob", "x"),
            ("t|ann|0000000002|bob", "y"),
            ("t|ann|0000000003|bob", "z"),
        ]


# ----------------------------------------------------------------------
# Whole-table scans: every read validates the ranges it touches.
# ----------------------------------------------------------------------
class TestWholeTableScan:
    def quiescent_server(self, **kwargs) -> PequodServer:
        srv = timeline_server(**kwargs)
        for u in ("ann", "bob", "liz"):
            srv.put(f"s|{u}|celeb", "1")
        srv.put("p|celeb|0000000001", "x")
        for u in ("ann", "bob", "liz"):
            srv.scan(f"t|{u}|", prefix_upper_bound(f"t|{u}|"))
        srv.scan("t|", "t}")  # tile gaps -> contiguous, all-valid cover
        return srv

    @staticmethod
    def work(srv: PequodServer):
        return (
            srv.stats.get("joins_executed"),
            srv.stats.get("recomputations"),
            srv.stats.get("pending_applied"),
        )

    def test_quiescent_cross_scan_does_no_work(self):
        srv = self.quiescent_server()
        before = srv.scan("t|", "t}")
        work = self.work(srv)
        assert srv.scan("t|", "t}") == before
        assert self.work(srv) == work

    def test_pending_log_is_drained(self):
        srv = self.quiescent_server()
        srv.scan("t|", "t}")
        srv.put("s|ann|dave", "1")  # partial invalidation: pending entry
        srv.put("p|dave|0000000002", "from dave")
        applied = srv.stats.get("pending_applied")
        got = srv.scan("t|", "t}")
        assert ("t|ann|0000000002|dave", "from dave") in got
        assert srv.stats.get("pending_applied") > applied
        # Drained: the next scan has nothing left to do.
        work = self.work(srv)
        assert srv.scan("t|", "t}") == got
        assert self.work(srv) == work

    def test_invalidation_is_recomputed(self):
        srv = self.quiescent_server()
        srv.scan("t|", "t}")
        recomputed = srv.stats.get("recomputations")
        srv.remove("s|bob|celeb")  # complete invalidation
        got = srv.scan("t|", "t}")
        assert not any(k.startswith("t|bob|") for k, _ in got)
        assert ("t|ann|0000000001|celeb", "x") in got
        assert srv.stats.get("recomputations") > recomputed

    def test_gap_in_cover_is_computed(self):
        srv = timeline_server()
        srv.put("s|ann|celeb", "1")
        srv.put("s|bob|celeb", "1")
        srv.put("s|liz|celeb", "1")
        srv.put("p|celeb|0000000001", "x")
        srv.scan("t|ann|", prefix_upper_bound("t|ann|"))
        srv.scan("t|liz|", prefix_upper_bound("t|liz|"))
        joins = srv.stats.get("joins_executed")
        got = srv.scan("t|", "t}")  # bob's part of the cover is missing
        assert [k for k, _ in got] == [
            f"t|{u}|0000000001|celeb" for u in ("ann", "bob", "liz")
        ]
        assert srv.stats.get("joins_executed") > joins
        srv.engine.status["t"].check_disjoint_cover()

    def test_memory_limited_scan_matches_unlimited(self):
        limited = self.quiescent_server(memory_limit=10_000_000)
        unlimited = self.quiescent_server()
        for srv in (limited, unlimited):
            srv.put("s|ann|dave", "1")
            srv.put("p|dave|0000000002", "from dave")
            srv.remove("s|bob|celeb")
        got = limited.scan("t|", "t}")
        assert got == unlimited.scan("t|", "t}")
        assert ("t|ann|0000000002|dave", "from dave") in got
        assert not any(k.startswith("t|bob|") for k, _ in got)

    def test_scan_past_the_limit_matches_unlimited(self):
        """With a one-byte limit every range is evicted once cold: each
        whole-table scan recomputes, and still owes nothing — the
        pending subscription and the invalidation both show."""
        limited = self.quiescent_server(memory_limit=1)
        unlimited = self.quiescent_server()
        assert limited.eviction.evictions > 0
        for srv in (limited, unlimited):
            srv.put("s|ann|dave", "1")
            srv.put("p|dave|0000000002", "from dave")
            srv.remove("s|bob|celeb")
        got = limited.scan("t|", "t}")
        assert got == unlimited.scan("t|", "t}")
        assert ("t|ann|0000000002|dave", "from dave") in got
        assert not any(k.startswith("t|bob|") for k, _ in got)
        limited.put("p|celeb|0000000003", "y")
        unlimited.put("p|celeb|0000000003", "y")
        assert limited.scan("t|", "t}") == unlimited.scan("t|", "t}")

    def test_eager_writes_show_without_work(self):
        """Copy-join maintenance keeps ranges valid, so a scan after
        fan-out writes sees the new values without executing a join."""
        srv = self.quiescent_server()
        srv.scan("t|", "t}")
        srv.put("p|celeb|0000000009", "fresh")
        work = self.work(srv)
        got = srv.scan("t|", "t}")
        assert ("t|ann|0000000009|celeb", "fresh") in got
        assert self.work(srv) == work
