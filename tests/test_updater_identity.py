"""One updater per identity, whichever path installs it.

An updater's identity is its join, source, flavour, output bounds and
context, the context being two aligned tuples (names, values) in
slot-vector order.  Two paths install updaters: the compiled compute
(``ComputePlan`` through ``JoinEngine._walk``) and pending-log
application (``JoinEngine._exec_source``).  They must order a context
the same way, or the one updater gets two keys, is installed twice and
fires twice.

The join below gives its copy source a two-slot context (``user`` and
``friend``), and a resolver makes the pending log and the compute cover
the same chain: while the compute walks bob's friend ``fx``, the
resolver loads ``f|fx|py``.  That fires the lazy updater ann's pass
installed on ``f|fx|`` (a pending entry on the range being computed),
and bob's pass then scans the loaded key itself.  Applying the entry
re-derives bob's chain through ``p|py|``, which the compute already
installed.
"""

from repro import PequodServer
from repro.core.executor import DataResolver

#: Friends-of-friends' posts.  At the copy level ``user`` and ``friend``
#: are bound but not in the range prefix ``p|<poster>|``: the context.
#: Pending application pins ``f|<friend>|<poster>`` first, so it binds
#: ``friend`` before ``user`` — the reverse of the slot-vector order.
JOIN = (
    "o|<user>|<time>|<poster> = "
    "check s|<user>|<friend> check f|<friend>|<poster> copy p|<poster>|<time>"
)
COUNT = "n|<user> = count o|<user>|<time>|<poster>"


class LoadOnSecondVisit(DataResolver):
    """Loads ``f|fx|py`` the second time ``f|fx|`` is resolved: after
    ann's pass installed its updater there, before bob's pass scans."""

    def __init__(self, srv):
        self.srv = srv
        self.visits = 0

    def ensure_range(self, engine, table, lo, hi):
        if table == "f" and lo == "f|fx|":
            self.visits += 1
            if self.visits == 2:
                self.srv.put("f|fx|py", "1")


def server():
    srv = PequodServer()
    srv.add_join(JOIN)
    srv.add_join(COUNT)
    srv.put("s|ann|fx", "1")
    srv.put("s|bob|fx", "1")
    srv.put("p|py|0001", "hi")
    srv.set_resolver(LoadOnSecondVisit(srv))
    return srv


def p_payloads(srv):
    (entry,) = [
        e for e in srv.store.tables["p"].updaters.entries() if e.lo == "p|py|"
    ]
    return entry


class TestOneUpdaterPerIdentity:
    def test_pending_application_reuses_the_computed_updater(self):
        srv = server()
        # The compute: bob's chain is complete, ann's is owed to the log.
        assert srv.store.scan("o|", "o}") == []
        srv.scan("o|", "o}")
        (sr,) = srv.engine.status["o"].ranges()
        assert [e.key for e in sr.pending] == ["f|fx|py"]
        assert p_payloads(srv).payloads[0].values == ("bob", "fx")
        # Applying the log derives ann's chain and bob's again.
        assert srv.scan("o|", "o}") == [
            ("o|ann|0001|py", "hi"), ("o|bob|0001|py", "hi"),
        ]
        entry = p_payloads(srv)
        assert len(entry.payload_index) == len(entry.payloads) == 2
        assert sorted(u.values for u in entry.payloads) == [
            ("ann", "fx"), ("bob", "fx"),
        ]
        assert all(u.names == ("user", "friend") for u in entry.payloads)

    def test_an_aggregate_over_the_join_counts_exactly(self):
        srv = server()
        srv.scan("o|", "o}")
        srv.scan("o|", "o}")
        assert srv.scan("n|", "n}") == [("n|ann", "1"), ("n|bob", "1")]
        fired = srv.stats.get("updaters_fired")
        srv.put("p|py|0002", "again")
        # Ann's and bob's copy updaters, then the count's on their
        # timelines: four fires, not a fifth for a second bob.
        assert srv.stats.get("updaters_fired") - fired == 4
        assert srv.scan("n|", "n}") == [("n|ann", "2"), ("n|bob", "2")]
        srv.remove("p|py|0001")
        assert srv.scan("n|", "n}") == [("n|ann", "1"), ("n|bob", "1")]
        assert srv.scan("o|", "o}") == [
            ("o|ann|0002|py", "again"), ("o|bob|0002|py", "again"),
        ]
