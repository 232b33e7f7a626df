"""CDC write-around deployment: feed, pump, and conformance tests.

The contract under test (§2's write-around deployment, made durable):

* the change feed assigns dense sequence numbers, queues a record
  until every cursor acknowledges it, and backpressures instead of
  growing without bound; it keeps nothing on disk;
* a durable database keeps its own log in the WAL format, sealed into
  segments and compacted like the write-through server's: torn tails
  truncate, unsynced tails die in a crash, a reopen rebuilds every
  acknowledged row and starts a fresh feed, and the log stays bounded
  by the live rows under overwrites and removes;
* the pump's fenced backfill converges a cold cache under concurrent
  write load without losing or double-applying a change;
* a ``mode="write-around"`` deployment is observationally identical to
  write-through after ``settle_cdc()`` — on the local, rpc, and procs
  backends, after a server crash + reopen, and under ``chaos.cdc_lag``
  fault injection.
"""

import hashlib
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.twip import TIMELINE_JOIN, format_time
from repro.backing import BackingDatabase
from repro.cdc import ChangeFeed, CdcPump, FeedOverflowError
from repro.chaos import CdcLag, crash_server
from repro.client import make_client
from repro.client.procs import ProcClusterClient
from repro.core.operators import ChangeKind
from repro.core.server import PequodServer
from repro.distrib.procs import ProcCluster
from repro.persist import DataDirError, manager
from repro.persist.wal import WAL_HEADER_SIZE
from repro.store.stats import StoreStats

KARMA = "karma|<author> = count vote|<author>|<id>|<voter>"
MODES = ("write-through", "write-around")


# ======================================================================
# The feed: sequencing, retention, backpressure
# ======================================================================
class TestChangeFeed:
    def test_dense_sequencing_and_fetch(self):
        feed = ChangeFeed()
        feed.cursor("c")
        for i in range(5):
            rec = feed.record(f"k{i}", None, str(i), ChangeKind.INSERT)
            assert rec.seq == i + 1
        assert feed.high_water == 5
        got = feed.fetch(0, limit=10)
        assert [r.seq for r in got] == [1, 2, 3, 4, 5]
        assert feed.fetch(3, limit=10)[0].seq == 4

    def test_ack_trims_in_memory(self):
        feed = ChangeFeed()
        cur = feed.cursor("c")
        for i in range(4):
            feed.record(f"k{i}", None, "v", ChangeKind.INSERT)
        feed.ack(cur, 3)
        assert feed.pending_records() == 1
        assert feed.depth(cur) == 1

    def test_nothing_queued_without_a_cursor(self):
        feed = ChangeFeed()
        for i in range(4):
            feed.record(f"k{i}", None, "v", ChangeKind.INSERT)
        assert feed.pending_records() == 0
        cur = feed.cursor("late")  # starts past what nobody was owed
        assert cur.acked == 4
        feed.record("k4", None, "v", ChangeKind.INSERT)
        assert [r.key for r in feed.fetch(cur.acked)] == ["k4"]

    def test_backpressure_raises_without_consumer(self):
        feed = ChangeFeed(max_pending=4)
        feed.cursor("stuck")  # attached but never acks
        for i in range(4):
            feed.record(f"k{i}", None, "v", ChangeKind.INSERT)
        with pytest.raises(FeedOverflowError):
            feed.record("k4", None, "v", ChangeKind.INSERT)

    def test_backpressure_hook_drains(self):
        feed = ChangeFeed(max_pending=4)
        cur = feed.cursor("c")
        feed.backpressure_hook = lambda: feed.ack(cur, feed.high_water)
        for i in range(20):
            feed.record(f"k{i}", None, "v", ChangeKind.INSERT)
        assert feed.high_water == 20  # never overflowed


# ======================================================================
# The database log: the WAL format, sealed and compacted
# ======================================================================
def rows(db: BackingDatabase):
    return db.scan_from("", 1000)


def disk_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(directory)
        for name in names
    )


class TestDatabaseLog:
    def test_log_replay_rebuilds_database(self, tmp_path):
        d = str(tmp_path / "db")
        db = BackingDatabase(d, fsync="always")
        db.put("a", "1")
        db.put("a", "2")
        db.put("b", "x")
        db.remove("a")
        db.log.close()
        db2 = BackingDatabase(d)
        assert rows(db2) == [("b", "x")]
        # Nothing is re-recorded: the reopened feed starts empty at 1.
        assert db2.feed.high_water == 0
        db2.feed.cursor("c")
        db2.put("c", "y")
        assert [r.seq for r in db2.feed.fetch(0)] == [1]
        db2.log.close()
        assert sorted(os.listdir(d)) == ["pequod.wal", "segments"]

    def test_torn_tail_truncates_to_last_intact_record(self, tmp_path):
        d = str(tmp_path / "db")
        db = BackingDatabase(d, fsync="always")
        for i in range(3):
            db.put(f"k{i}", str(i))
        db.log.close()
        with open(os.path.join(d, "pequod.wal"), "ab") as fh:
            fh.write(b"\x00\x00\x00\x30torn-mid-record")
        stats = StoreStats()
        db2 = BackingDatabase(d, stats=stats)
        assert rows(db2) == [("k0", "0"), ("k1", "1"), ("k2", "2")]
        assert stats.get("cdc_journal_torn_tails") == 1
        db2.log.close()

    def test_unsynced_tail_lost_on_crash(self, tmp_path):
        d = str(tmp_path / "db")
        db = BackingDatabase(d, fsync="batch")
        db.put("a", "1")
        db.log.flush()
        db.put("b", "2")
        assert db.log.simulate_crash() > 0
        db2 = BackingDatabase(d)
        assert rows(db2) == [("a", "1")]
        db2.log.close()

    def test_corrupt_sealed_segment_raises(self, tmp_path):
        d = str(tmp_path / "db")
        db = BackingDatabase(d)
        db.put("a", "1")
        db.log.checkpoint()
        db.log.close()
        (path,) = db.log.segments
        with open(path, "r+b") as fh:
            fh.seek(WAL_HEADER_SIZE + 2)
            byte = fh.read(1)
            fh.seek(WAL_HEADER_SIZE + 2)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(DataDirError, match="seg-"):
            BackingDatabase(d)

    def test_server_checkpoint_seals_the_database_log(self, tmp_path):
        d = str(tmp_path / "srv")
        srv = PequodServer(mode="write-around", data_dir=d)
        for i in range(5):
            srv.put(f"p|bob|{i:04d}", f"v{i}")
        srv.remove("p|bob|0002")
        srv.checkpoint()
        assert len(os.listdir(os.path.join(d, "db", "segments"))) == 1
        assert srv.stats.get("persist_checkpoints") == 0  # the cache WAL is idle
        want = srv.backing.query("p|", "p}")
        srv.close()
        srv2 = PequodServer(mode="write-around", data_dir=d)
        srv2.settle_cdc()
        assert srv2.backing.query("p|", "p}") == want
        assert srv2.scan("p|", "p}") == want
        srv2.close()

    def test_a_batch_is_one_frame(self, tmp_path):
        """A write-around batch of 256 ops is one database log frame, and
        a crash + reopen rebuilds the database and the cache from it."""
        d = str(tmp_path / "srv")
        srv = PequodServer(mode="write-around", data_dir=d, wal_fsync="always")
        keys = [f"p|u{i % 8}|{i:04d}" for i in range(256)]
        for key in keys[:64]:
            srv.put(key, "old")
        before = srv.stats.get("cdc_journal_records")
        # 32 removes, 32 updates and 192 inserts.
        srv.apply_batch([(k, None) for k in keys[:32]] + [(k, k) for k in keys[32:]])
        assert srv.stats.get("cdc_journal_records") == before + 1
        model = sorted((k, k) for k in keys[32:])
        assert crash_server(srv) == 0
        srv2 = PequodServer(mode="write-around", data_dir=d, wal_fsync="always")
        srv2.settle_cdc()
        assert srv2.backing.query("p|", "p}") == model
        assert srv2.scan("p|", "p}") == model
        srv2.close()

    def test_old_feed_journal_layout_raises(self, tmp_path):
        """A data dir holding the older write-around layout (a change
        feed journal at ``cdc/feed.log``) is refused, not silently
        opened empty."""
        (tmp_path / "cdc").mkdir()
        (tmp_path / "cdc" / "feed.log").write_bytes(b"\x00" * 16)
        with pytest.raises(DataDirError, match="feed.log"):
            PequodServer(mode="write-around", data_dir=str(tmp_path))

    def test_log_stays_bounded_under_overwrites_and_removes(
        self, tmp_path, monkeypatch
    ):
        """Checkpoints seal the log and compaction folds the segments,
        so the log on disk is bounded by the live rows plus a fixed
        number of unfolded segments, not by the write history."""
        monkeypatch.setattr(manager, "CHECKPOINT_BYTES", 2048)
        d = str(tmp_path / "srv")
        srv = PequodServer(mode="write-around", data_dir=d, wal_fsync="off")
        rng = random.Random(7)
        keys = [f"p|u{i % 4}|{i:04d}" for i in range(24)]
        model = {}
        frame = 64  # one small record, framed, with room to spare
        bound = (manager.COMPACT_THRESHOLD + 1) * (manager.CHECKPOINT_BYTES + frame)
        for i in range(3000):
            key = rng.choice(keys)
            if rng.random() < 0.4:
                srv.remove(key)
                model.pop(key, None)
            else:
                srv.put(key, f"v{i}")
                model[key] = f"v{i}"
            if i % 500 == 499:
                srv.flush()
                assert disk_bytes(d) <= bound + frame * len(model), i
        srv.close()
        srv2 = PequodServer(mode="write-around", data_dir=d)
        srv2.settle_cdc()
        assert srv2.backing.query("p|", "p}") == sorted(model.items())
        assert srv2.scan("p|", "p}") == sorted(model.items())
        srv2.close()


# ======================================================================
# The backing database produces the feed
# ======================================================================
def test_backing_database_records_old_and_new():
    db = BackingDatabase()
    db.feed.cursor("c")
    db.put("k", "1")
    db.put("k", "2")
    db.remove("k")
    recs = db.feed.fetch(0)
    assert [(r.kind, r.old, r.new) for r in recs] == [
        (ChangeKind.INSERT, None, "1"),
        (ChangeKind.UPDATE, "1", "2"),
        (ChangeKind.REMOVE, "2", None),
    ]


# ======================================================================
# The pump: tailing, backfill cut-over
# ======================================================================
def fresh_cache() -> PequodServer:
    server = PequodServer(subtable_config={"t": 2})
    server.add_join(TIMELINE_JOIN)
    return server


def test_pump_applies_changes_to_cache():
    db = BackingDatabase()
    server = fresh_cache()
    pump = CdcPump(db, db.feed, server.engine)
    pump.bootstrap()
    db.put("s|ann|bob", "1")
    db.put("p|bob|0100", "hello")
    assert server.scan("t|ann|", "t|ann}") == []  # not yet pumped
    pump.settle()
    assert server.scan("t|ann|", "t|ann}") == [("t|ann|0100|bob", "hello")]
    db.remove("p|bob|0100")
    pump.settle()
    assert server.scan("t|ann|", "t|ann}") == []


def test_bootstrap_backfills_past_trimmed_feed():
    db = BackingDatabase()
    db.feed.max_pending = 4
    for i in range(8):  # trims the feed: no cursor attached yet
        db.put(f"p|u|{i:04d}", str(i))
    server = fresh_cache()
    pump = CdcPump(db, db.feed, server.engine)
    pump.bootstrap()
    assert server.scan("p|", "p}") == db.scan_from("", 100)


def test_backfill_cutover_under_concurrent_writes():
    """The acceptance property: a cold cache backfilling in small
    chunks while writes land between every chunk scan converges to
    exactly the database's state — nothing lost, nothing doubled."""
    db = BackingDatabase()
    for i in range(40):
        db.put(f"p|u{i % 4}|{i:04d}", f"v{i}")
    server = fresh_cache()
    pump = CdcPump(db, db.feed, server.engine, chunk_size=8)
    pump.begin_backfill()
    tick = 0
    while pump.backfilling:
        pump.backfill_step()
        tick += 1
        # Writes racing the scan: behind the frontier (must arrive via
        # the feed), ahead of it (covered by a later chunk), updates,
        # removes, and brand-new keys at both ends.
        db.put(f"p|u0|{tick:04d}", f"rewrite{tick}")  # behind/within
        db.put(f"p|zz|{tick:04d}", f"tail{tick}")  # ahead of frontier
        db.remove(f"p|u3|{(tick * 4 + 3):04d}")
        db.put(f"p|aa|{tick:04d}", f"head{tick}")
    assert pump.backfill_chunks > 1  # the race actually interleaved
    pump.settle()
    assert pump.records_skipped > 0  # fences actually engaged
    assert server.scan("p|", "p}") == db.scan_from("", 10_000)


_KEYS = [f"p|u{i}|{j:02d}" for i in (0, 1) for j in range(3)] + [
    f"s|u{i}|u{j}" for i in (0, 1) for j in (0, 1)
]


@settings(deadline=None, max_examples=25)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(_KEYS),
            st.one_of(st.none(), st.text("ab", min_size=1, max_size=3)),
        ),
        max_size=24,
    ),
    data=st.data(),
)
def test_server_crash_property(ops, data):
    """Crash a durable write-around server after an arbitrary op stream,
    pumped at arbitrary points: the reopened server rebuilds its
    database from the database log and backfills its cache, and both
    equal the model of every acknowledged write."""
    with tempfile.TemporaryDirectory() as d:
        srv = PequodServer(mode="write-around", data_dir=d, wal_fsync="always")
        model = {}
        try:
            for i, (key, value) in enumerate(ops):
                if value is None:
                    srv.remove(key)
                    model.pop(key, None)
                else:
                    srv.put(key, value)
                    model[key] = value
                pumped = data.draw(st.integers(0, 3), label=f"pumped after op {i}")
                srv.cdc.step(pumped)
            assert crash_server(srv) == 0  # fsync="always" loses nothing
        finally:
            srv.close()  # a no-op after the crash; not when a draw aborts
        srv2 = PequodServer(mode="write-around", data_dir=d, wal_fsync="always")
        try:
            srv2.settle_cdc()
            for table in ("p", "s"):
                want = sorted(
                    (k, v) for k, v in model.items() if k.startswith(f"{table}|")
                )
                assert srv2.backing.query(f"{table}|", f"{table}}}") == want
                assert srv2.scan(f"{table}|", f"{table}}}") == want
        finally:
            srv2.close()
        assert os.listdir(d) == ["db"]  # one log, the database's
        assert sorted(os.listdir(os.path.join(d, "db"))) == ["pequod.wal", "segments"]


# ======================================================================
# Deployment conformance: write-around == write-through, by digest
# ======================================================================
def state_digest(client) -> str:
    """SHA-256 over every table in key order (computed ranges are
    materialized first, so demand-filled backends compare equal)."""
    for user in ("ann", "liz", "mike", "zoe"):
        client.scan_prefix(f"t|{user}|")
        client.scan_prefix(f"karma|{user}")
    state = []
    for table in ("p", "s", "t", "vote", "karma"):
        state.append((table, client.scan_prefix(f"{table}|")))
    return hashlib.sha256(repr(state).encode()).hexdigest()


def twip_workload(client, phase: int) -> None:
    """The §2 Twip slice from the cluster conformance suite, with the
    write-around barrier at each phase end."""
    users = ("ann", "liz", "mike", "zoe")
    if phase == 0:
        client.add_join(TIMELINE_JOIN)
        client.add_join(KARMA)
        for user in users:
            for poster in users:
                if poster != user:
                    client.put(f"s|{user}|{poster}", "1")
        for i, poster in enumerate(users):
            client.put(f"p|{poster}|{format_time(100 + i)}", f"t{i}")
        for i, voter in enumerate(users):
            client.put(f"vote|ann|{i:04d}|{voter}", "1")
    else:
        client.put(f"p|ann|{format_time(200)}", "second wave")
        client.remove("s|zoe|ann")
        client.put(f"p|mike|{format_time(210)}", "late post")
        client.put("s|ann|ann", "1")
        client.put("vote|mike|0000|ann", "1")
        client.remove("vote|ann|0001|liz")
    client.settle()
    client.settle_cdc()


@pytest.mark.parametrize("backend", ["local", "rpc"])
def test_write_around_matches_write_through(backend):
    digests = {}
    for mode in MODES:
        with make_client(
            backend, mode=mode, subtable_config={"t": 2}
        ) as client:
            for phase in (0, 1):
                twip_workload(client, phase)
            digests[mode] = state_digest(client)
    assert digests["write-around"] == digests["write-through"]


def test_write_around_matches_write_through_procs():
    digests = {}
    for mode in MODES:
        with ProcCluster(
            2,
            tables=("p", "s", "t", "vote", "karma"),
            splits=("f", "m", "s"),
            replication=2,
            in_process=True,
            mode=mode,
        ) as pc:
            client = ProcClusterClient.for_cluster(pc)
            try:
                for phase in (0, 1):
                    twip_workload(client, phase)
                digests[mode] = state_digest(client)
            finally:
                client.close()
    assert digests["write-around"] == digests["write-through"]


def test_write_around_durable_restart(tmp_path):
    """In write-around mode the database's log is the durability
    story: a restarted server rebuilds the DB from it, backfills the
    cache, and serves identical state."""
    d = str(tmp_path / "srv")

    def boot() -> PequodServer:
        srv = PequodServer(
            mode="write-around", data_dir=d, subtable_config={"t": 2}
        )
        srv.add_join(TIMELINE_JOIN)
        return srv

    srv = boot()
    srv.put("s|ann|bob", "1")
    srv.put("p|bob|0100", "durable first")
    srv.settle_cdc()
    expected = srv.scan("t|ann|", "t|ann}")
    assert expected == [("t|ann|0100|bob", "durable first")]
    srv.close()
    srv2 = boot()
    srv2.settle_cdc()
    assert srv2.scan("t|ann|", "t|ann}") == expected
    assert srv2.scan("p|", "p}") == [("p|bob|0100", "durable first")]
    srv2.close()


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        PequodServer(mode="write-behind")


# ======================================================================
# Chaos: deferred/redelivered feed batches still converge
# ======================================================================
@pytest.mark.chaos
def test_cdc_lag_chaos_converges_to_oracle():
    def run(faulted: bool) -> str:
        with make_client(
            "local", mode="write-around", subtable_config={"t": 2}
        ) as client:
            client.add_join(TIMELINE_JOIN)
            client.add_join(KARMA)
            injector = None
            if faulted:
                server = client._async.server  # noqa: SLF001
                injector = CdcLag(defer_every=2).install(server.cdc)
            for phase in (0, 1):
                twip_workload(client, phase)
            digest = state_digest(client)
            if injector is not None:
                assert injector.batches_deferred > 0  # the fault fired
        return digest

    assert run(faulted=True) == run(faulted=False)


@pytest.mark.chaos
def test_cdc_lag_delay_inflates_measured_lag():
    with make_client("local", mode="write-around") as client:
        server = client._async.server  # noqa: SLF001
        CdcLag(delay_s=0.02, limit=2).install(server.cdc)
        client.put("p|bob|0100", "x")
        client.put("p|bob|0200", "y")
        client.settle_cdc()
        assert server.cdc.lag.percentile(99) >= 0.01
        assert client.get("p|bob|0100") == "x"
