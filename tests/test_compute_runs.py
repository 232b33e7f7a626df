"""Computed ranges as runs: all-or-nothing computes, run notifications,
and the store's run primitives (``Table.install_many`` /
``Table.remove_range``) against a dict model.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PequodServer
from repro.core.executor import DataResolver
from repro.core.operators import ChangeKind
from repro.core.pattern import PatternError
from repro.store import sortedarray
from repro.store.keys import subtable_prefix
from repro.store.store import OrderedStore
from repro.store.table import SUBTABLE_OVERHEAD
from repro.store.values import NODE_OVERHEAD, POINTER_SIZE

TIMELINE = (
    "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"
)
#: The output declares a width its source does not: ``p|bob|02`` cannot
#: become a timeline row.
WIDE_TIMELINE = (
    "t|<user>|<time:4>|<poster> = check s|<user>|<poster> "
    "copy p|<poster>|<time>"
)
#: The same, its value source first: a post walks the check source.
WIDE_TIMELINE_DEEP = (
    "t|<user>|<time:4>|<poster> = copy p|<poster>|<time> "
    "check s|<user>|<poster>"
)


def _server(join, keys):
    srv = PequodServer()
    srv.add_join(join)
    for key in keys:
        srv.put(key, "v")
    return srv


def _nothing_left(srv):
    """No output, no status range, no LRU entry for ``t``."""
    return (
        srv.store.scan("t|", "t}") == []
        and len(srv.engine.status["t"]) == 0
        and len(srv.engine.lru) == 0
    )


class TestFailedCompute:
    """A compute that raises installs nothing and leaves no VALID range
    behind: the next read retries (and raises again while the cause
    stands), instead of serving the rows emitted before the error."""

    KEYS = ["s|ann|bob", "s|ann|carol", "p|bob|0001", "p|bob|02", "p|carol|0005"]

    def test_fresh_compute_is_all_or_nothing(self):
        srv = _server(WIDE_TIMELINE, self.KEYS)
        for _ in range(2):
            with pytest.raises(PatternError, match="declared width 4"):
                srv.scan("t|ann|", "t|ann}")
            assert _nothing_left(srv)
        srv.remove("p|bob|02")
        assert srv.scan("t|ann|", "t|ann}") == [
            ("t|ann|0001|bob", "v"), ("t|ann|0005|carol", "v"),
        ]
        # Carol's later posts reach the timeline: the range is live.
        srv.put("p|carol|0009", "late")
        assert srv.scan("t|ann|0006", "t|ann}") == [("t|ann|0009|carol", "late")]

    def test_failed_recompute_leaves_the_range_invalid(self):
        srv = _server(WIDE_TIMELINE, ["s|ann|bob", "s|ann|carol", "p|bob|0001"])
        assert srv.scan("t|ann|", "t|ann}") == [("t|ann|0001|bob", "v")]
        srv.remove("s|ann|carol")  # complete invalidation: next read recomputes
        srv.put("p|bob|02", "v")   # lands while the range is invalid
        stable = srv.engine.status["t"]
        for _ in range(2):
            with pytest.raises(PatternError, match="declared width 4"):
                srv.scan("t|ann|", "t|ann}")
            assert [sr.state.value for sr in stable.ranges()] == ["invalid"]
            assert srv.store.scan("t|", "t}") == []
        srv.remove("p|bob|02")
        assert srv.scan("t|ann|", "t|ann}") == [("t|ann|0001|bob", "v")]
        assert [sr.state.value for sr in stable.ranges()] == ["valid"]

    def test_resolver_failing_mid_compute(self):
        class Flaky(DataResolver):
            down = True

            def ensure_range(self, engine, table, lo, hi):
                if self.down and lo.startswith("p|carol|"):
                    raise ConnectionError("backing store down")

        srv = _server(TIMELINE, ["s|ann|bob", "s|ann|carol", "p|bob|0001",
                                 "p|carol|0005"])
        resolver = Flaky()
        srv.set_resolver(resolver)
        for _ in range(2):
            # Bob's rows were emitted before carol's source range failed.
            with pytest.raises(ConnectionError):
                srv.scan("t|ann|", "t|ann}")
            assert _nothing_left(srv)
        resolver.down = False
        assert srv.scan("t|ann|", "t|ann}") == [
            ("t|ann|0001|bob", "v"), ("t|ann|0005|carol", "v"),
        ]


class TestFireWidths:
    """A fire whose output would break a declared width stores nothing
    and raises nothing: it invalidates the ranges its updater maintains,
    so the next read raises the compute's own error — and once the
    offending source key goes, the read returns the good rows."""

    @pytest.mark.parametrize("join", [WIDE_TIMELINE, WIDE_TIMELINE_DEEP])
    def test_a_post_breaking_a_width_is_left_to_the_read(self, join):
        srv = _server(join, ["s|ann|bob", "p|bob|0001"])
        assert srv.scan("t|ann|", "t|ann}") == [("t|ann|0001|bob", "v")]
        srv.put("p|bob|02", "v")
        assert srv.store.get("t|ann|02|bob") is None
        for _ in range(2):
            with pytest.raises(PatternError, match="declared width 4"):
                srv.scan("t|ann|", "t|ann}")
        srv.remove("p|bob|02")
        assert srv.scan("t|ann|", "t|ann}") == [("t|ann|0001|bob", "v")]

    def test_an_eager_check_backfill_breaking_a_width(self):
        srv = _server(
            WIDE_TIMELINE.replace("= check", "= echeck"),
            ["s|ann|bob", "p|bob|0001", "p|carol|0003", "p|carol|02"],
        )
        assert srv.scan("t|ann|", "t|ann}") == [("t|ann|0001|bob", "v")]
        srv.put("s|ann|carol", "1")  # the backfill walks carol's posts
        assert srv.store.get("t|ann|0003|carol") is None
        with pytest.raises(PatternError, match="declared width 4"):
            srv.scan("t|ann|", "t|ann}")
        srv.remove("p|carol|02")
        assert srv.scan("t|ann|", "t|ann}") == [
            ("t|ann|0001|bob", "v"), ("t|ann|0003|carol", "v"),
        ]


class TestRunNotifications:
    #: Bob's posts bracket carol's, so scan order (bob's range, then
    #: carol's) is not key order.
    KEYS = ["s|ann|bob", "s|ann|carol", "p|bob|0001", "p|bob|0003",
            "p|carol|0002"]
    ROWS = ["t|ann|0001|bob", "t|ann|0002|carol", "t|ann|0003|bob"]

    def test_eviction_sends_one_remove_per_key_in_key_order(self):
        srv = _server(TIMELINE, self.KEYS)
        srv.scan("t|ann|", "t|ann}")
        events = []
        srv.watch("t|", "t}", events.append)
        assert srv.eviction.evict_one()
        assert [(e.kind, e.key, e.old) for e in events] == [
            (ChangeKind.REMOVE, key, "v") for key in self.ROWS
        ]
        assert srv.store.scan("t|", "t}") == []

    def test_a_computed_run_is_announced_in_key_order(self):
        srv = _server(TIMELINE, self.KEYS)
        events = []
        srv.watch("t|", "t}", events.append)
        srv.scan("t|ann|", "t|ann}")
        assert [(e.kind, e.key) for e in events] == [
            (ChangeKind.INSERT, key) for key in self.ROWS
        ]
        # A recompute that re-puts the same values announces nothing
        # new beyond the clear's removals and the run's inserts.
        events.clear()
        srv.remove("s|ann|carol")
        srv.put("s|ann|carol", "1")
        srv.scan("t|ann|", "t|ann}")
        assert [e.kind for e in events] == (
            [ChangeKind.REMOVE] * 3 + [ChangeKind.INSERT] * 3
        )

    def test_the_last_emission_of_a_key_wins(self):
        """An ambiguous join emits one key per post; the run installs
        them in emission order, so the latest post wins exactly as when
        each emission was put on the spot — and a watcher sees the
        insert and then the update."""
        srv = _server(
            "t|<user>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>",
            ["s|ann|bob"],
        )
        srv.put("p|bob|0001", "first")
        srv.put("p|bob|0002", "second")
        events = []
        srv.watch("t|", "t}", events.append)
        assert srv.scan("t|ann|", "t|ann}") == [("t|ann|bob", "second")]
        assert [(e.kind, e.old, e.new) for e in events] == [
            (ChangeKind.INSERT, None, "first"),
            (ChangeKind.UPDATE, "first", "second"),
        ]

    def test_a_later_join_wins_a_shared_key(self):
        srv = PequodServer()
        srv.add_join("t|<user>|<x> = check s|<user>|<x> copy a|<x>")
        srv.add_join("t|<user>|<x> = check s|<user>|<x> copy b|<x>")
        for key, value in [("s|ann|k", "1"), ("a|k", "from-a"), ("b|k", "from-b")]:
            srv.put(key, value)
        assert srv.scan("t|ann|", "t|ann}") == [("t|ann|k", "from-b")]

    def test_unobserved_runs_stay_silent(self):
        """No fault hook, listener or downstream updater: installs and
        removals of a run make no ``notify_change`` call at all."""
        srv = _server(TIMELINE, self.KEYS)
        calls = []
        real = srv.engine.notify_change
        srv.engine.notify_change = lambda *a: (calls.append(a[0]), real(*a))
        srv.scan("t|ann|", "t|ann}")
        srv.eviction.evict_one()
        assert calls == []
        hooked = []
        srv.engine.fault_hook = hooked.append
        srv.scan("t|ann|", "t|ann}")
        assert calls == self.ROWS
        assert hooked == ["maintenance"] * 3


# ----------------------------------------------------------------------
# The run primitives against a dict model
# ----------------------------------------------------------------------
run_keys = st.one_of(
    st.tuples(st.sampled_from("abc"), st.sampled_from("0123456789")).map(
        lambda ab: f"k|{ab[0]}|{ab[1]}"
    ),
    st.sampled_from("abc").map(lambda a: f"k|{a}"),  # residual at depth 2
)
run_values = st.sampled_from(["", "x", "payload"])
bounds = st.sampled_from(
    ["k", "k|", "k|a", "k|a|", "k|a|3", "k|b", "k|b|5", "k|c|", "k|c}", "k}"]
)
run_ops = st.lists(
    st.one_of(
        st.tuples(st.just("install"), st.lists(st.tuples(run_keys, run_values),
                                               max_size=30)),
        st.tuples(st.just("remove"), st.tuples(bounds, bounds)),
    ),
    max_size=12,
)


def _recount(table, model):
    """``memory_bytes`` from scratch: nodes, values (a pointer each in
    a copy output) and one overhead per subtable."""
    total = SUBTABLE_OVERHEAD * table.subtable_count()
    for key, value in model.items():
        total += len(key) + NODE_OVERHEAD
        total += POINTER_SIZE if table.copy_output else len(value)
    return total


def _subtables(model, depth):
    """Trees a depth-``depth`` table holds for ``model``: one per
    subtable prefix, plus one residual tree for the keys too short to
    have one."""
    if not depth:
        return 0
    deep = [key for key in model if key.count("|") >= depth]
    residual = len(deep) < len(model)
    return len({subtable_prefix(key, depth) for key in deep}) + residual


class TestRunPrimitives:
    @pytest.mark.parametrize("depth", [0, 2])
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=run_ops, copy_output=st.booleans())
    def test_runs_match_a_dict_model(self, depth, ops, copy_output):
        # Four-key blocks, so runs cross block boundaries.
        with mock.patch.object(sortedarray, "LOAD", 2):
            store = OrderedStore(subtable_config={"k": depth})
            table = store.table("k")
            if copy_output:
                table.mark_copy_output()
            model = {}
            for kind, arg in ops:
                if kind == "install":
                    pairs = sorted(arg, key=lambda pair: pair[0])
                    expected = []
                    for key, value in pairs:
                        expected.append((key, model.get(key)))
                        model[key] = value
                    puts = store.stats.get("puts")
                    results = table.install_many(pairs)
                    assert [(k, old) for k, old in results] == expected
                    assert all(
                        a is b for (_, a), (_, b) in zip(results, expected)
                    )
                    assert store.stats.get("puts") == puts + len(pairs)
                else:
                    lo, hi = arg
                    doomed = sorted(
                        (k, v) for k, v in model.items() if lo <= k < hi
                    )
                    removes = store.stats.get("removes")
                    removed = table.remove_range(lo, hi)
                    assert [k for k, _ in removed] == [k for k, _ in doomed]
                    assert all(a is model[k] for k, a in removed)
                    assert store.stats.get("removes") == removes + len(doomed)
                    for key, _ in doomed:
                        del model[key]
                self._check(table, model, depth)

    @staticmethod
    def _check(table, model, depth):
        pairs = table.items("k", "k}")
        assert pairs == sorted(model.items(), key=lambda pair: pair[0])
        assert all(value is model[key] for key, value in pairs)
        assert table.key_count == len(model)
        assert table.subtable_count() == _subtables(model, depth)
        assert table.memory_bytes == _recount(table, model)

    def test_remove_range_spans_blocks_and_subtables(self):
        with mock.patch.object(sortedarray, "LOAD", 2):
            store = OrderedStore(subtable_config={"t": 2})
            table = store.table("t")
            pairs = [(f"t|{u}|{i:02d}", "v") for u in "abc" for i in range(20)]
            table.install_many(pairs)
            assert table.subtable_count() == 3
            removed = table.remove_range("t|a|05", "t|c|10")
            assert [k for k, _ in removed] == [
                k for k, _ in pairs if "t|a|05" <= k < "t|c|10"
            ]
            assert table.subtable_count() == 2  # b emptied and dropped
            assert table.remove_range("t|", "t}") == [
                (k, "v") for k, _ in pairs if not "t|a|05" <= k < "t|c|10"
            ]
            assert table.subtable_count() == 0
            assert table.memory_bytes == 0 and table.key_count == 0
            assert table.remove_range("t|", "t}") == []
            assert table.remove_range("t|b", "t|a") == []
