"""Tests for performance annotations: push, pull, snapshot (paper §3.4)."""

from repro import PequodServer, SimClock


class TestPullJoins:
    def test_pull_not_cached(self):
        srv = PequodServer()
        srv.add_join("v|<a> = pull copy src|<a>")
        srv.put("src|x", "1")
        assert srv.scan("v|", "v}") == [("v|x", "1")]
        # Nothing materialized in the store.
        assert srv.store.count("v|", "v}") == 0

    def test_pull_recomputed_every_query(self):
        srv = PequodServer()
        srv.add_join("v|<a> = pull copy src|<a>")
        srv.put("src|x", "1")
        srv.scan("v|", "v}")
        before = srv.stats.get("pull_executions")
        srv.scan("v|", "v}")
        assert srv.stats.get("pull_executions") == before + 1

    def test_pull_always_fresh(self):
        srv = PequodServer()
        srv.add_join("v|<a> = pull copy src|<a>")
        srv.put("src|x", "1")
        assert srv.scan("v|", "v}") == [("v|x", "1")]
        srv.put("src|x", "2")
        assert srv.scan("v|", "v}") == [("v|x", "2")]
        srv.remove("src|x")
        assert srv.scan("v|", "v}") == []

    def test_pull_get(self):
        srv = PequodServer()
        srv.add_join("v|<a> = pull copy src|<a>")
        srv.put("src|x", "1")
        assert srv.get("v|x") == "1"
        assert srv.get("v|y") is None

    def test_pull_read_changes_nothing_in_the_store(self):
        """A pull read computes and returns; it installs no output, no
        updater, and shares no source value (§4.3 sharing is for what
        gets stored)."""
        srv = PequodServer()
        srv.add_join("v|<a> = pull copy src|<a>")
        srv.add_join("n|<a> = pull count src|<a>")
        srv.put("src|x", "1")
        srv.put("src|y", "2")

        def footprint():
            values = [value for _, value in srv.store.scan_nodes("src|", "src}")]
            return (
                srv.memory_bytes(),
                srv.stats.get("updaters_installed"),
                srv.stats.get("outputs_installed"),
                [type(value) for value in values],
            )

        before = footprint()
        assert before[3] == [str, str]
        assert srv.scan("v|", "v}") == [("v|x", "1"), ("v|y", "2")]
        assert srv.scan("n|", "n}") == [("n|x", "1"), ("n|y", "1")]
        assert srv.get("v|y") == "2"
        assert srv.get("n|x") == "1"
        assert footprint() == before

    def test_celebrity_configuration(self):
        """The §2.3 celebrity join set: push for normals, pull for celebs."""
        srv = PequodServer()
        srv.add_join("ct|<time>|<poster> = copy cp|<poster>|<time>")
        srv.add_join(
            "t|<user>|<time>|<poster> = "
            "check s|<user>|<poster> copy p|<poster>|<time>"
        )
        srv.add_join(
            "t|<user>|<time>|<poster> = "
            "pull check s|<user>|<poster> copy ct|<time>|<poster>"
        )
        srv.put("s|ann|bob", "1")
        srv.put("s|ann|celeb", "1")
        srv.put("p|bob|0100", "normal tweet")
        srv.put("cp|celeb|0150", "celebrity tweet")
        got = srv.scan("t|ann|", "t|ann}")
        assert got == [
            ("t|ann|0100|bob", "normal tweet"),
            ("t|ann|0150|celeb", "celebrity tweet"),
        ]
        # Celebrity tweets are not copied into per-user timelines.
        stored = [k for k, _ in srv.store.scan("t|", "t}")]
        assert stored == ["t|ann|0100|bob"]

    def test_celebrity_unsubscribed_filtered(self):
        srv = PequodServer()
        srv.add_join("ct|<time>|<poster> = copy cp|<poster>|<time>")
        srv.add_join(
            "t|<user>|<time>|<poster> = "
            "pull check s|<user>|<poster> copy ct|<time>|<poster>"
        )
        srv.put("s|ann|celeb", "1")
        srv.put("cp|celeb|0100", "for fans")
        srv.put("cp|other|0110", "not followed")
        got = srv.scan("t|ann|", "t|ann}")
        assert got == [("t|ann|0100|celeb", "for fans")]

    def test_pull_memory_savings(self):
        """§2.3: celebrity joins save memory versus copying to all fans."""
        push = PequodServer()
        push.add_join(
            "t|<u>|<time>|<poster> = check s|<u>|<poster> copy p|<poster>|<time>"
        )
        pull = PequodServer()
        pull.add_join("ct|<time>|<poster> = copy cp|<poster>|<time>")
        pull.add_join(
            "t|<u>|<time>|<poster> = "
            "pull check s|<u>|<poster> copy ct|<time>|<poster>"
        )
        fans = [f"fan{i:03d}" for i in range(50)]
        text = "celebrity wisdom " * 5
        for srv, table, store_key in ((push, "p", "p|celeb"), (pull, "cp", "cp|celeb")):
            for fan in fans:
                srv.put(f"s|{fan}|celeb", "1")
            srv.put(f"{store_key}|0100", text)
            for fan in fans:
                srv.scan(f"t|{fan}|", f"t|{fan}}}")
        assert pull.memory_bytes() < push.memory_bytes() / 2


class TestSnapshotJoins:
    def setup_method(self):
        self.clock = SimClock()
        self.srv = PequodServer(clock=self.clock)
        self.srv.add_join("v|<a> = snapshot 30 copy src|<a>")

    def test_snapshot_cached_without_maintenance(self):
        self.srv.put("src|x", "1")
        assert self.srv.scan("v|", "v}") == [("v|x", "1")]
        self.srv.put("src|x", "2")  # no updaters: stays stale
        assert self.srv.scan("v|", "v}") == [("v|x", "1")]

    def test_snapshot_refreshes_after_expiry(self):
        self.srv.put("src|x", "1")
        self.srv.scan("v|", "v}")
        self.srv.put("src|x", "2")
        self.clock.advance(31)
        assert self.srv.scan("v|", "v}") == [("v|x", "2")]

    def test_snapshot_not_refreshed_before_expiry(self):
        self.srv.put("src|x", "1")
        self.srv.scan("v|", "v}")
        before = self.srv.stats.get("recomputations")
        self.clock.advance(29)
        self.srv.put("src|x", "2")
        self.srv.scan("v|", "v}")
        assert self.srv.stats.get("recomputations") == before

    def test_snapshot_no_updaters_installed(self):
        self.srv.put("src|x", "1")
        self.srv.scan("v|", "v}")
        assert self.srv.stats.get("updaters_installed", ) == 0

    def test_snapshot_handles_removals_on_refresh(self):
        self.srv.put("src|x", "1")
        self.srv.put("src|y", "2")
        assert len(self.srv.scan("v|", "v}")) == 2
        self.srv.remove("src|y")
        self.clock.advance(31)
        assert self.srv.scan("v|", "v}") == [("v|x", "1")]


class TestSourceOrderAnnotation:
    """§3.4: source order is a performance annotation, not semantics."""

    def test_both_orders_same_results(self):
        a = PequodServer()
        a.add_join(
            "t|<u>|<time>|<p> = check s|<u>|<p> copy p|<p>|<time>"
        )
        b = PequodServer()
        b.add_join(
            "t|<u>|<time>|<p> = copy p|<p>|<time> check s|<u>|<p>"
        )
        for srv in (a, b):
            srv.put("s|ann|bob", "1")
            srv.put("s|ann|liz", "1")
            srv.put("p|bob|0100", "b1")
            srv.put("p|liz|0150", "l1")
            srv.put("p|jim|0120", "unfollowed")
        assert a.scan("t|ann|", "t|ann}") == b.scan("t|ann|", "t|ann}")

    def test_check_first_examines_fewer_keys(self):
        """Scanning the small subscriptions range first prunes work."""
        def build(spec):
            srv = PequodServer()
            srv.add_join(spec)
            srv.put("s|ann|bob", "1")
            for poster in [f"u{i:03d}" for i in range(40)]:
                srv.put(f"p|{poster}|0100", "x")
            srv.put("p|bob|0100", "followed")
            srv.scan("t|ann|", "t|ann}")
            return srv.stats.get("source_keys_examined")

        check_first = build(
            "t|<u>|<time>|<p> = check s|<u>|<p> copy p|<p>|<time>"
        )
        copy_first = build(
            "t|<u>|<time>|<p> = copy p|<p>|<time> check s|<u>|<p>"
        )
        assert check_first < copy_first
