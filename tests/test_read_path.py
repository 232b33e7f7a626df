"""The read-path overhaul: validation memo and parity.

The validation memo (paper §4.2's hint idea applied to status-range
validation) must never serve stale data: every test here mutates the
cover out from under a remembered range — invalidation, splits,
eviction, snapshot expiry — and asserts reads stay correct.  The
end-to-end parity test runs the same workload on both pattern paths
and requires byte-identical output.
"""

from repro import PequodServer
from repro.apps.twip import TIMELINE_JOIN
from repro.core.clock import SimClock


def timeline_server(**kwargs) -> PequodServer:
    srv = PequodServer(subtable_config={"t": 2, "p": 2, "s": 2}, **kwargs)
    srv.add_join(TIMELINE_JOIN)
    return srv


class TestValidationMemo:
    def test_repeated_scans_hit_the_memo(self):
        srv = timeline_server()
        srv.put("s|ann|bob", "1")
        for i in range(10):
            srv.put(f"p|bob|{i:04d}", f"tweet {i}")
        srv.scan("t|ann|", "t|ann}")
        assert srv.stats.get("validation_memo_hits") == 0
        srv.scan("t|ann|0005", "t|ann}")  # same upper bound, later lo
        srv.scan("t|ann|0008", "t|ann}")
        assert srv.stats.get("validation_memo_hits") == 2

    def test_writes_through_memo_stay_visible(self):
        srv = timeline_server()
        srv.put("s|ann|bob", "1")
        srv.put("p|bob|0001", "first")
        srv.scan("t|ann|", "t|ann}")
        srv.put("p|bob|0002", "second")  # eager updater, range stays valid
        got = srv.scan("t|ann|", "t|ann}")
        assert [k for k, _ in got] == ["t|ann|0001|bob", "t|ann|0002|bob"]
        assert srv.stats.get("validation_memo_hits") >= 1

    def test_complete_invalidation_defeats_the_hint(self):
        srv = timeline_server()
        srv.put("s|ann|bob", "1")
        srv.put("p|bob|0001", "x")
        srv.scan("t|ann|", "t|ann}")
        srv.scan("t|ann|", "t|ann}")  # memo hit
        srv.remove("s|ann|bob")  # lazy check removal -> invalidate
        assert srv.scan("t|ann|", "t|ann}") == []
        # And the rebuilt range is remembered again afterwards.
        hits = srv.stats.get("validation_memo_hits")
        srv.scan("t|ann|", "t|ann}")
        assert srv.stats.get("validation_memo_hits") == hits + 1

    def test_pending_log_defeats_the_hint(self):
        srv = timeline_server()
        srv.put("s|ann|bob", "1")
        srv.put("p|bob|0001", "x")
        srv.scan("t|ann|", "t|ann}")
        srv.put("s|ann|liz", "1")  # lazy partial invalidation (pending)
        srv.put("p|liz|0002", "from liz")
        got = srv.scan("t|ann|", "t|ann}")
        assert ("t|ann|0002|liz", "from liz") in got

    def test_eviction_detaches_the_hint(self):
        srv = timeline_server(memory_limit=1)  # evicts after every op
        srv.put("s|ann|bob", "1")
        srv.put("p|bob|0001", "x")
        assert srv.scan("t|ann|", "t|ann}") == [("t|ann|0001|bob", "x")]
        assert srv.scan("t|ann|", "t|ann}") == [("t|ann|0001|bob", "x")]
        assert srv.stats.get("evictions") > 0

    def test_snapshot_expiry_defeats_the_hint(self):
        clock = SimClock()
        srv = PequodServer(subtable_config={"t": 2}, clock=clock)
        srv.add_join(
            "t|<user>|<time>|<poster> = snapshot 30 "
            "check s|<user>|<poster> copy p|<poster>|<time>"
        )
        srv.put("s|ann|bob", "1")
        srv.put("p|bob|0001", "x")
        srv.scan("t|ann|", "t|ann}")
        clock.advance(5)
        srv.scan("t|ann|", "t|ann}")
        recomputes = srv.stats.get("recomputations")
        clock.advance(60)  # past the snapshot interval
        srv.scan("t|ann|", "t|ann}")
        assert srv.stats.get("recomputations") == recomputes + 1

    def test_group_split_shrinks_the_hint(self):
        """An aggregate min-retreat splits the remembered range; the
        shrunk hint no longer covers whole-table scans and reads stay
        exact."""
        srv = PequodServer()
        srv.add_join("low|<poster> = min p|<poster>|<time>")
        srv.put("p|bob|0005", "five")
        srv.put("p|bob|0009", "nine")
        assert srv.scan("low|", "low}") == [("low|bob", "five")]
        assert srv.scan("low|", "low}") == [("low|bob", "five")]
        srv.remove("p|bob|0005")  # min departs -> group invalidation/split
        assert srv.scan("low|", "low}") == [("low|bob", "nine")]


class TestEndToEndParity:
    """One deterministic Twip mini-workload; identical output state
    on both pattern paths (compiled, and the reference walkers patched
    in)."""

    def drive(self) -> list:
        srv = timeline_server()
        users = [f"u{i}" for i in range(8)]
        for i, u in enumerate(users):
            srv.put(f"s|{u}|u{(i + 1) % 8}", "1")
            srv.put(f"s|{u}|u{(i + 3) % 8}", "1")
        for t in range(40):
            srv.put(f"p|u{t % 8}|{t:04d}", f"tweet {t}")
        out = []
        for u in users:
            out.extend(srv.scan(f"t|{u}|", f"t|{u}}}"))
        for t in range(40, 50):
            srv.put(f"p|u{t % 8}|{t:04d}", f"tweet {t}")
        srv.remove("s|u0|u1")
        srv.put("s|u0|u5", "1")
        for u in users:
            out.extend(srv.scan(f"t|{u}|0020", f"t|{u}}}"))
        out.extend(srv.scan("t|", "t}"))  # cross-timeline sweep
        return out

    def test_all_configurations_agree(self, request):
        compiled = self.drive()
        request.getfixturevalue("reference_patterns")
        reference = self.drive()
        assert reference  # non-trivial workload
        assert compiled == reference
