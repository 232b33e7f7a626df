"""Tests for the §4 optimizations: subtables and value sharing."""

from repro import PequodServer
from repro.apps.twip import PequodTwipBackend
from repro.baselines.client_pequod import ClientPequodBackend
from repro.store.values import POINTER_SIZE

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
    """§4.3: a tweet copied into many timelines is stored once."""

    def test_copy_output_holds_the_source_string(self):
        srv = run_twip_workload(PequodServer())
        source = srv.store.tables["p"].get("p|star|0000")
        assert srv.store.tables["t"].get("t|u00|0000|star") is source
        assert srv.store.tables["t"].get("t|u07|0000|star") is source

    def test_sharing_reduces_memory(self):
        """The server's copied timelines cost less than the same
        timelines written by a client as plain puts (client Pequod,
        §5.2): each copy is charged a pointer, not the tweet."""
        server = PequodTwipBackend(subtables=False)
        client = ClientPequodBackend()
        for backend in (server, client):
            for i in range(8):
                backend.subscribe(f"u{i:02d}", "star")
            for t in range(12):
                backend.post("star", f"{t:04d}", f"tweet number {t}")
        for i in range(8):
            assert server.timeline(f"u{i:02d}", "") == client.timeline(
                f"u{i:02d}", ""
            )
        copied = server.app.client.server.store.tables["t"]
        written = client.client.server.store.tables["t"]
        assert len(copied) == len(written) == 8 * 12
        payload = sum(len(f"tweet number {t}") for t in range(12))
        assert written.memory_bytes - copied.memory_bytes == 8 * (
            payload - 12 * POINTER_SIZE
        )


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
