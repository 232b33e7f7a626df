"""Tests for the §4 optimizations: subtables and value sharing."""

from repro import PequodServer, SharedValue

TIMELINE = (
    "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"
)


def run_twip_workload(srv, followers=8, posts=12):
    if not srv.joins:
        srv.add_join(TIMELINE)
    users = [f"u{i:02d}" for i in range(followers)]
    for u in users:
        srv.put(f"s|{u}|star", "1")
    for u in users:
        srv.scan(f"t|{u}|", f"t|{u}}}")
    for t in range(posts):
        srv.put(f"p|star|{t:04d}", f"tweet number {t}")
    for u in users:
        srv.scan(f"t|{u}|", f"t|{u}}}")
    return srv


class TestValueSharing:
    def test_copies_share_one_buffer(self):
        """§4.3: timeline copies of one tweet share the value."""
        srv = run_twip_workload(PequodServer(enable_sharing=True))
        raw = srv.store.get_raw("t|u00|0000|star")
        assert isinstance(raw, SharedValue)
        assert raw.refs >= 8  # one per follower, plus the source

    def test_sharing_disabled_stores_strings(self):
        srv = run_twip_workload(PequodServer(enable_sharing=False))
        raw = srv.store.get_raw("t|u00|0000|star")
        assert isinstance(raw, str)

    def test_sharing_reduces_memory(self):
        """The paper reports a 1.14x reduction on Twip."""
        shared = run_twip_workload(PequodServer(enable_sharing=True))
        unshared = run_twip_workload(PequodServer(enable_sharing=False))
        assert shared.memory_bytes() < unshared.memory_bytes()

    def test_same_results_with_and_without_sharing(self):
        a = run_twip_workload(PequodServer(enable_sharing=True))
        b = run_twip_workload(PequodServer(enable_sharing=False))
        assert a.scan("t|", "t}") == b.scan("t|", "t}")

    def test_shared_value_released_on_removal(self):
        srv = PequodServer(enable_sharing=True)
        srv.add_join(TIMELINE)
        srv.put("s|ann|star", "1")
        srv.put("s|bob|star", "1")
        srv.scan("t|ann|", "t|ann}")
        srv.scan("t|bob|", "t|bob}")
        srv.put("p|star|0001", "shared tweet")
        raw = srv.store.get_raw("p|star|0001")
        assert isinstance(raw, SharedValue)
        assert raw.refs == 3
        srv.remove("p|star|0001")  # eager removal retracts both copies
        assert raw.refs == 0


class TestSubtables:
    def test_subtable_server_matches_flat_server(self):
        flat = run_twip_workload(PequodServer())
        sub = run_twip_workload(PequodServer(subtable_config={"t": 2, "p": 2, "s": 2}))
        assert flat.scan("t|", "t}") == sub.scan("t|", "t}")

    def test_subtables_create_per_timeline_trees(self):
        srv = run_twip_workload(PequodServer(subtable_config={"t": 2}))
        assert srv.store.tables["t"].subtable_count() == 8

    def test_subtables_reduce_descent_cost_at_scale(self):
        flat = run_twip_workload(PequodServer(), followers=30, posts=30)
        sub = run_twip_workload(
            PequodServer(subtable_config={"t": 2, "p": 2, "s": 2}),
            followers=30,
            posts=30,
        )
        assert (
            sub.stats.get("tree_descent_cost")
            < flat.stats.get("tree_descent_cost")
        )

    def test_subtables_increase_memory(self):
        """§4.1: subtables trade memory (1.17x in the paper) for speed."""
        flat = run_twip_workload(PequodServer())
        sub = run_twip_workload(PequodServer(subtable_config={"t": 2}))
        assert sub.memory_bytes() > flat.memory_bytes()


class TestUpdaterCombining:
    def test_same_range_updaters_share_entry(self):
        """§3.2: a user's posts get one combined updater per range."""
        srv = PequodServer()
        srv.add_join(TIMELINE)
        srv.put("s|ann|star", "1")
        srv.put("s|bob|star", "1")
        srv.scan("t|ann|", "t|ann}")
        srv.scan("t|bob|", "t|bob}")
        p_updaters = srv.store.tables["p"].updaters
        # Two different contexts (ann, bob) on the same p|star| range.
        assert len(p_updaters) == 1
        assert p_updaters.payload_count() == 2

    def test_reread_does_not_duplicate_updaters(self):
        srv = PequodServer()
        srv.add_join(TIMELINE)
        srv.put("s|ann|star", "1")
        srv.scan("t|ann|", "t|ann}")
        count = srv.stats.get("updaters_installed")
        srv.scan("t|ann|", "t|ann}")
        srv.scan("t|ann|", "t|ann}")
        assert srv.stats.get("updaters_installed") == count
