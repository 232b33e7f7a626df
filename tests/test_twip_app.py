"""Tests for the Twip application (§2.1, §2.3)."""

from repro.apps.social_graph import generate_graph
from repro.apps.twip import PequodTwipBackend, TwipApp, format_time


class TestTwipBasics:
    def test_post_and_timeline(self):
        app = TwipApp()
        app.subscribe("ann", "bob")
        app.post("bob", 100, "hello")
        assert app.timeline("ann") == [(format_time(100), "bob", "hello")]

    def test_timeline_since(self):
        app = TwipApp()
        app.subscribe("ann", "bob")
        for t in (100, 200, 300):
            app.post("bob", t, f"tweet{t}")
        got = app.timeline("ann", since=200)
        assert [time for time, _, _ in got] == [format_time(200), format_time(300)]

    def test_timeline_merges_posters_by_time(self):
        app = TwipApp()
        app.subscribe("ann", "bob")
        app.subscribe("ann", "liz")
        app.post("bob", 200, "second")
        app.post("liz", 100, "first")
        got = app.timeline("ann")
        assert [text for _, _, text in got] == ["first", "second"]

    def test_unsubscribe(self):
        app = TwipApp()
        app.subscribe("ann", "bob")
        app.post("bob", 100, "x")
        assert len(app.timeline("ann")) == 1
        app.unsubscribe("ann", "bob")
        assert app.timeline("ann") == []

    def test_load_graph(self):
        g = generate_graph(30, 4, seed=2)
        app = TwipApp()
        app.load_graph(g)
        user = g.users[0]
        followee = g.following[user][0] if g.following[user] else None
        if followee:
            app.post(followee, 50, "from a followee")
            assert len(app.timeline(user)) == 1


class TestCelebrityMode:
    def test_celebrity_posts_not_fanned_out(self):
        g = generate_graph(60, 6, seed=3)
        threshold = 2
        app = TwipApp(celebrity_threshold=threshold, graph=g)
        app.load_graph(g)
        celebs = g.celebrities(threshold)
        assert celebs, "graph should have celebrities at this threshold"
        celeb = max(celebs, key=g.follower_count)
        fan = g.followers[celeb][0]
        app.post(celeb, 100, "celebrity tweet")
        timeline = app.timeline(fan)
        assert (format_time(100), celeb, "celebrity tweet") in timeline
        # The tweet is served via the pull join, never copied into t|.
        assert app.server.store.count("t|", "t}") == 0 or all(
            poster != celeb
            for key, _ in app.server.store.scan("t|", "t}")
            for poster in [key.rsplit("|", 1)[1]]
        )

    def test_mixed_celebrity_and_normal_timeline(self):
        app = TwipApp(celebrity_threshold=10)
        app.mark_celebrity("star")
        app.subscribe("ann", "star")
        app.subscribe("ann", "bob")
        app.post("bob", 100, "normal")
        app.post("star", 150, "famous")
        got = app.timeline("ann")
        assert [text for _, _, text in got] == ["normal", "famous"]

    def test_celebrity_memory_savings(self):
        """§2.3: celebrity joins save memory, not necessarily time, and
        change no timeline."""
        g = generate_graph(80, 8, seed=4)
        threshold = 3

        def run(app):
            app.load_graph(g)
            for i, user in enumerate(g.users):
                app.post(user, i, f"tweet from {user}")
            for user in g.users:
                app.timeline(user)
            return app.server.memory_bytes()

        plain_app = TwipApp()
        plain = run(plain_app)
        celeb_app = TwipApp(celebrity_threshold=threshold, graph=g)
        celeb = run(celeb_app)
        assert celeb < plain
        for user in g.users:
            assert celeb_app.timeline(user) == plain_app.timeline(user), user


class TestBackendAdapter:
    def test_backend_counts_one_rpc_per_op(self):
        backend = PequodTwipBackend()
        backend.subscribe("ann", "bob")
        backend.post("bob", format_time(10), "x")
        backend.timeline("ann", format_time(0))
        assert backend.meter.get("rpcs") == 3

    def test_backend_timeline_tuples(self):
        backend = PequodTwipBackend()
        backend.subscribe("ann", "bob")
        backend.post("bob", format_time(5), "hi")
        got = backend.timeline("ann", format_time(0))
        assert got == [(format_time(5), "bob", "hi")]
