"""Tests for the backing database and cache deployments (paper §2)."""

from repro import PequodServer
from repro.backing import (
    BackingDatabase,
    LookasideDeployment,
    WriteAroundDeployment,
    WriteThroughDeployment,
)

TIMELINE = (
    "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"
)


class TestBackingDatabase:
    def test_put_get_query(self):
        db = BackingDatabase()
        db.put("p|bob|0100", "hi")
        db.put("p|ann|0050", "yo")
        assert db.get("p|bob|0100") == "hi"
        assert db.query("p|", "p}") == [("p|ann|0050", "yo"), ("p|bob|0100", "hi")]

    def test_remove(self):
        db = BackingDatabase()
        db.put("k|1", "v")
        assert db.remove("k|1")
        assert not db.remove("k|1")
        assert db.get("k|1") is None

    def test_accounting(self):
        db = BackingDatabase()
        db.put("a|1", "x")
        db.query("a|", "a}")
        assert db.write_count == 1
        assert db.query_count == 1
        assert db.rows_returned == 1


class TestWriteAround:
    def make(self):
        db = BackingDatabase()
        srv = PequodServer()
        srv.add_join(TIMELINE)
        return WriteAroundDeployment(srv, db, base_tables={"p", "s"}), db, srv

    def test_reads_pull_base_data_from_db(self):
        dep, db, srv = self.make()
        dep.put("s|ann|bob", "1")
        dep.put("p|bob|0100", "from the db")
        got = dep.scan("t|ann|", "t|ann}")
        assert got == [("t|ann|0100|bob", "from the db")]
        assert db.query_count >= 2  # s range and p range were fetched

    def test_db_changes_flow_into_cache(self):
        dep, db, srv = self.make()
        dep.put("s|ann|bob", "1")
        dep.scan("t|ann|", "t|ann}")  # cache warm, subscriptions installed
        dep.put("p|bob|0200", "later post")
        got = dep.scan("t|ann|", "t|ann}")
        assert got == [("t|ann|0200|bob", "later post")]

    def test_unfetched_ranges_not_notified(self):
        dep, db, srv = self.make()
        dep.put("p|stranger|1", "x")  # nobody is looking: no cache work
        assert srv.key_count() == 0

    def test_db_removal_flows(self):
        dep, db, srv = self.make()
        dep.put("s|ann|bob", "1")
        dep.put("p|bob|0100", "x")
        dep.scan("t|ann|", "t|ann}")
        dep.remove("p|bob|0100")
        assert dep.scan("t|ann|", "t|ann}") == []

    def test_ranges_fetched_once(self):
        dep, db, srv = self.make()
        dep.put("s|ann|bob", "1")
        dep.scan("t|ann|", "t|ann}")
        queries = db.query_count
        dep.scan("t|ann|", "t|ann}")
        assert db.query_count == queries  # resident ranges are not re-read


class TestWriteThrough:
    def test_read_your_own_writes(self):
        db = BackingDatabase()
        srv = PequodServer()
        srv.add_join(TIMELINE)
        dep = WriteThroughDeployment(srv, db, base_tables={"p", "s"})
        dep.put("s|ann|bob", "1")
        dep.put("p|bob|0100", "instant")
        # The writes reached the cache itself, not via a later fetch:
        # no range is mirrored yet, so no notification carried them.
        assert db.query_count == 0
        assert srv.store.get("p|bob|0100") == "instant"
        assert srv.store.get("s|ann|bob") == "1"
        assert dep.scan("t|ann|", "t|ann}") == [("t|ann|0100|bob", "instant")]
        assert db.get("p|bob|0100") == "instant"


class TestLookaside:
    def test_writes_bypass_database(self):
        srv = PequodServer()
        srv.add_join(TIMELINE)
        dep = LookasideDeployment(srv)
        dep.put("s|ann|bob", "1")
        dep.put("p|bob|0100", "direct")
        assert dep.scan("t|ann|", "t|ann}") == [("t|ann|0100|bob", "direct")]
        assert dep.db.write_count == 0
