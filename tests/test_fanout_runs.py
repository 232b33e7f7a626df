"""One maintenance path: a write is a batch of one, and a fan-out lands
as one sorted run.

Every write reaches ``JoinEngine.notify_batch``; the compiled copy fires
of one table pass are collected and installed as one key-sorted run per
output table.  These tests pin what that must preserve: one event per
output key, in key order; downstream joins maintained through the run's
notifications; and the per-key generation check that keeps a retired
updater out of a recomputed range.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PequodServer
from repro.core.operators import ChangeKind

TIMELINE = (
    "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"
)
COUNT_T = "n|<user> = count t|<user>|<time>|<poster>"


def _timeline(srv, user):
    return srv.scan(f"t|{user}|", f"t|{user}}}")


def _followers(srv, n):
    """``n`` followers of ``star`` with computed timelines.  They are
    computed in descending key order, so the updater entry on
    ``p|star|`` holds their updaters against key order."""
    users = [f"u{i:03d}" for i in range(n)]
    for user in users:
        srv.put(f"s|{user}|star", "1")
    for user in reversed(users):
        _timeline(srv, user)
    return users


class TestOneRunPerWrite:
    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_one_event_per_timeline_in_key_order(self, n):
        srv = PequodServer()
        srv.add_join(TIMELINE)
        users = _followers(srv, n)
        events = []
        srv.watch("t|", "t}", events.append)
        runs = srv.stats.get("write_batched_installs")
        srv.put("p|star|0100", "hello")
        assert [(e.kind, e.key, e.new) for e in events] == [
            (ChangeKind.INSERT, f"t|{user}|0100|star", "hello") for user in users
        ]
        assert srv.stats.get("write_batched_installs") == runs + 1
        events.clear()
        srv.put("p|star|0100", "edited")
        assert [(e.kind, e.key, e.old, e.new) for e in events] == [
            (ChangeKind.UPDATE, f"t|{user}|0100|star", "hello", "edited")
            for user in users
        ]
        events.clear()
        srv.remove("p|star|0100")
        assert [(e.kind, e.key) for e in events] == [
            (ChangeKind.REMOVE, f"t|{user}|0100|star") for user in users
        ]
        assert srv.store.scan("t|", "t}") == []

    def test_a_batch_of_posts_is_one_run(self):
        srv = PequodServer()
        srv.add_join(TIMELINE)
        users = _followers(srv, 3)
        events = []
        srv.watch("t|", "t}", events.append)
        runs = srv.stats.get("write_batched_installs")
        srv.apply_batch([("p|star|0102", "b"), ("p|star|0101", "a")])
        assert srv.stats.get("write_batched_installs") == runs + 1
        assert [e.key for e in events] == sorted(
            f"t|{user}|{time}|star" for user in users for time in ("0101", "0102")
        )

    def test_a_mixed_batch_applies_in_key_order(self):
        """A removal inside the collected fires lands the inserts before
        it first; the result equals the changes applied one at a time."""
        srv = PequodServer()
        srv.add_join(TIMELINE)
        users = _followers(srv, 2)
        srv.put("p|star|0102", "old")
        events = []
        srv.watch("t|", "t}", events.append)
        srv.apply_batch(
            [("p|star|0101", "a"), ("p|star|0102", None), ("p|star|0103", "c")]
        )
        assert [(e.kind, e.key) for e in events] == [
            (kind, f"t|{user}|{time}|star")
            for user in users
            for kind, time in [
                (ChangeKind.INSERT, "0101"),
                (ChangeKind.REMOVE, "0102"),
                (ChangeKind.INSERT, "0103"),
            ]
        ]
        for user in users:
            assert _timeline(srv, user) == [
                (f"t|{user}|0101|star", "a"), (f"t|{user}|0103|star", "c"),
            ]


# ----------------------------------------------------------------------
# A join downstream of a run
# ----------------------------------------------------------------------
FOLLOWS = {"ann": ("bob", "cat"), "dan": ("bob",), "eve": ("cat",)}

writes = st.lists(
    st.tuples(
        st.sampled_from(["post", "edit", "unpost", "batch"]),
        st.sampled_from(["bob", "cat"]),
        st.integers(min_value=0, max_value=5),
    ),
    max_size=25,
)


class TestDownstreamOfARun:
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=writes)
    def test_a_count_over_t_equals_a_naive_recount(self, ops):
        """The run's install notifications drive the count join over
        ``t``: after fan-out posts, overwrites and removes, every count
        equals a recount of the posts its reader follows."""
        srv = PequodServer()
        srv.add_join(TIMELINE)
        srv.add_join(COUNT_T)
        for reader, posters in FOLLOWS.items():
            for poster in posters:
                srv.put(f"s|{reader}|{poster}", "1")
        for reader in FOLLOWS:
            assert srv.get(f"n|{reader}") is None  # computes n and t
        assert srv.store.tables["t"].updaters  # the run is observed
        posts = {}
        for kind, poster, tick in ops:
            key = f"p|{poster}|{tick:04d}"
            if kind == "post":
                srv.put(key, f"v{tick}")
                posts[key] = f"v{tick}"
            elif kind == "edit" and key in posts:
                srv.put(key, "edited")
                posts[key] = "edited"
            elif kind == "unpost":
                srv.remove(key)
                posts.pop(key, None)
            elif kind == "batch":
                batch = {f"p|{poster}|{t:04d}": "b" for t in range(tick, tick + 3)}
                batch[key] = None  # and unpost the first
                srv.apply_batch(list(batch.items()))
                posts.update(batch)
                posts.pop(key)
            for reader, posters in FOLLOWS.items():
                expected = sorted(
                    (f"t|{reader}|{k.split('|')[2]}|{k.split('|')[1]}", v)
                    for k, v in posts.items()
                    if k.split("|")[1] in posters
                )
                assert srv.get(f"n|{reader}") == (
                    str(len(expected)) if expected else None
                )
                assert _timeline(srv, reader) == expected


# ----------------------------------------------------------------------
# A retired updater inside a run
# ----------------------------------------------------------------------
class TestStaleUpdaterInARun:
    @pytest.mark.parametrize("batched", [False, True])
    def test_a_recomputed_range_rejects_its_old_updater(self, batched):
        """kim unfollows bob and her timeline is recomputed (generation
        1), but the updater her first compute installed on ``p|bob|``
        (generation 0) stays in the tree.  bob's next post reaches ann,
        kim and zed's updaters in one run; only kim's output must be
        dropped — checked per key, against the emitting updater."""
        srv = PequodServer()
        srv.add_join(TIMELINE)
        for user in ("ann", "kim", "zed"):
            srv.put(f"s|{user}|bob", "1")
        srv.put("s|kim|cat", "1")
        srv.put("p|cat|0001", "from cat")
        for user in ("ann", "kim", "zed"):
            _timeline(srv, user)
        srv.remove("s|kim|bob")
        assert _timeline(srv, "kim") == [("t|kim|0001|cat", "from cat")]
        stable = srv.engine.status["t"]
        assert stable.find("t|kim|").generation == 1
        assert srv.store.tables["p"].updaters.payload_count() == 4
        runs = srv.stats.get("write_batched_installs")
        if batched:
            srv.apply_batch([("p|bob|0002", "from bob"), ("p|bob|0003", "again")])
        else:
            srv.put("p|bob|0002", "from bob")
        assert srv.stats.get("write_batched_installs") == runs + 1
        assert srv.store.scan("t|kim|", "t|kim}") == [
            ("t|kim|0001|cat", "from cat")
        ]
        for user in ("ann", "zed"):
            assert _timeline(srv, user)[0] == (f"t|{user}|0002|bob", "from bob")
