"""Backend conformance: one suite, every deployment shape, sync and
async.

Each test runs against all three backends — in-process, real TCP RPC,
and a simulated cluster — through the synchronous facade (the
parameterized ``client`` fixture) *and* through the async-native API
(the ``TestAsync*`` classes), asserting identical results for the
paper's §2 walkthrough, batches, aggregates, error cases, and the
server-push watch streams (ordering, range filtering, unsubscribe,
disconnect cleanup).  The local backend is the semantic reference;
staleness is normalized by ``settle()`` (a no-op off-cluster), the one
deliberate difference the API admits (§2.4).
"""

import shutil
import tempfile
import weakref

import pytest

from repro.client import (
    BadRequestError,
    ClientError,
    JoinSpecError,
    LocalClient,
    NotFoundError,
    RemoteClient,
    ServerError,
    join,
    make_async_client,
    make_client,
)

TIMELINE = (
    "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"
)
KARMA = "karma|<author> = count vote|<author>|<id>|<voter>"

#: Partitioned base tables for the cluster backend (the other
#: backends ignore this).
BASE_TABLES = ("p", "s", "vote", "article", "comment")

#: "durable" is the local backend journaling to a WAL and checkpoint
#: segments under a per-test data dir — the whole suite doubles as the
#: persistence tier's semantic oracle.
BACKENDS = ("local", "rpc", "cluster", "durable")


def _sync_client(backend, **extra):
    """make_client for one conformance backend; "durable" maps to the
    local backend with a WAL, rooted in a throwaway data dir that
    outlives the client and is reaped behind it.  ``extra`` reaches
    every server the backend builds."""
    if backend == "durable":
        data_dir = tempfile.mkdtemp(prefix="pequod-durable-")
        c = make_client(
            "local", base_tables=BASE_TABLES, data_dir=data_dir, **extra
        )
        weakref.finalize(c, shutil.rmtree, data_dir, ignore_errors=True)
        return c
    return make_client(backend, base_tables=BASE_TABLES, **extra)


@pytest.fixture(params=BACKENDS)
def client(request):
    c = _sync_client(request.param)
    yield c
    c.close()


class TestWalkthrough:
    """The §2 Twip walkthrough, byte-identical on every backend."""

    def test_demand_computation_and_maintenance(self, client):
        client.add_join(TIMELINE)
        client.put("s|ann|bob", "1")
        client.put("p|bob|0100", "hello!")
        client.settle()
        assert client.scan_prefix("t|ann|") == [("t|ann|0100|bob", "hello!")]
        # Eager incremental maintenance after the range is cached.
        client.put("p|bob|0120", "again")
        client.settle()
        assert client.scan_prefix("t|ann|") == [
            ("t|ann|0100|bob", "hello!"),
            ("t|ann|0120|bob", "again"),
        ]

    def test_subscribe_and_unsubscribe(self, client):
        client.add_join(TIMELINE)
        client.put("s|ann|bob", "1")
        client.put("p|bob|0100", "bob's tweet")
        client.put("p|liz|0050", "liz's old tweet")
        client.settle()
        assert len(client.scan_prefix("t|ann|")) == 1
        # Lazy subscription handling: liz's old tweet appears on read.
        client.put("s|ann|liz", "1")
        client.settle()
        assert client.scan_prefix("t|ann|") == [
            ("t|ann|0050|liz", "liz's old tweet"),
            ("t|ann|0100|bob", "bob's tweet"),
        ]
        # Unsubscribe retracts the copied tweets.
        assert client.remove("s|ann|liz") is True
        client.settle()
        assert client.scan_prefix("t|ann|") == [
            ("t|ann|0100|bob", "bob's tweet")
        ]

    def test_get_put_remove_roundtrip(self, client):
        assert client.get("p|bob|0100") is None
        client.put("p|bob|0100", "x")
        assert client.get("p|bob|0100") == "x"
        assert client.exists("p|bob|0100") is True
        client.put("p|bob|0100", "y")  # overwrite
        assert client.get("p|bob|0100") == "y"
        assert client.remove("p|bob|0100") is True
        assert client.remove("p|bob|0100") is False
        assert client.get("p|bob|0100") is None

    def test_scan_forms_agree(self, client):
        client.put_many([(f"p|u|{i:04d}", f"v{i}") for i in range(8)])
        client.settle()
        full = client.scan("p|u|", "p|u}")
        assert full == client.scan_prefix("p|u|")
        assert client.count("p|u|", "p|u}") == 8
        assert client.scan("p|u|0002", "p|u|0005") == [
            ("p|u|0002", "v2"),
            ("p|u|0003", "v3"),
            ("p|u|0004", "v4"),
        ]
        assert client.scan("p|u|0005", "p|u|0005") == []


class TestBatches:
    def test_write_batch_context_manager(self, client):
        client.add_join(TIMELINE)
        client.put("s|ann|bob", "1")
        client.settle()
        client.scan_prefix("t|ann|")  # warm the timeline
        with client.write_batch() as batch:
            batch.put("p|bob|0100", "one")
            batch.put("p|bob|0200", "two")
        client.settle()
        assert client.scan_prefix("t|ann|") == [
            ("t|ann|0100|bob", "one"),
            ("t|ann|0200|bob", "two"),
        ]

    def test_batch_coalesces_per_key(self, client):
        batch = client.write_batch()
        batch.put("p|bob|0100", "draft")
        batch.put("p|bob|0100", "final")
        batch.remove("p|bob|0999")  # remove of an absent key
        applied = batch.apply()
        assert applied == 1
        assert batch.coalesced_ops == 1
        assert client.get("p|bob|0100") == "final"

    def test_put_many_returns_changes(self, client):
        pairs = [("p|a|1", "x"), ("p|b|1", "y"), ("p|c|1", "z")]
        assert client.put_many(pairs) == 3
        # A rewrite applies each op again — same count on every backend.
        assert client.put_many(pairs) == 3
        client.settle()
        assert client.count("p|", "p}") == 3

    def test_apply_batch_accepts_pairs(self, client):
        applied = client.apply_batch(
            [("p|a|1", "x"), ("p|b|1", None), ("p|c|1", "z")]
        )
        assert applied == 2  # the remove targets an absent key
        assert client.get("p|a|1") == "x"


class TestAggregates:
    def test_count_join(self, client):
        client.add_join(KARMA)
        client.put("vote|bob|001|ann", "1")
        client.put("vote|bob|001|liz", "1")
        client.settle()
        assert client.get("karma|bob") == "2"
        client.put("vote|bob|002|jim", "1")
        client.settle()
        assert client.get("karma|bob") == "3"

    def test_aggregate_tracks_removal(self, client):
        client.add_join(KARMA)
        client.put("vote|bob|001|ann", "1")
        client.put("vote|bob|001|liz", "1")
        client.settle()
        assert client.get("karma|bob") == "2"
        assert client.remove("vote|bob|001|liz") is True
        client.settle()
        assert client.get("karma|bob") == "1"


class TestJoinInstallation:
    def test_grammar_and_builder_agree(self, client):
        text_form = client.add_join(TIMELINE)
        built = (
            join("t2|<user>|<time>|<poster>")
            .check("s|<user>|<poster>")
            .copy("p|<poster>|<time>")
        )
        builder_form = client.add_join(built)
        assert text_form == [TIMELINE]
        assert builder_form == [TIMELINE.replace("t|", "t2|", 1)]

    def test_multiple_joins_one_call(self, client):
        installed = client.add_join(f"{TIMELINE};{KARMA}")
        assert len(installed) == 2

    @pytest.mark.parametrize("shape", ["text", "sequence"])
    def test_failed_multi_join_installs_nothing(self, client, shape):
        """Add-join is atomic per call — for ';'-joined text and for
        sequence input alike: a failing statement leaves no partial
        install behind (and, on a cluster, no divergence between
        compute servers)."""
        first = "cyc|<x> = copy dep|<x>"
        second = "dep|<x> = copy cyc|<x>"
        spec = f"{first}; {second}" if shape == "text" else [first, second]
        with pytest.raises(JoinSpecError):
            client.add_join(spec)
        client.put("dep|1", "v")
        client.settle()
        # The first statement did not survive: nothing was computed.
        assert client.scan_prefix("cyc|") == []

    def test_joins_drive_data_identically(self, client):
        client.add_join(
            join("page|<a>|<id>|k|<c>").check("comment|<a>|<id>|<c>")
            .copy("karma|<c>")
        )
        client.add_join(KARMA)
        client.put("comment|ann|001|bob", "nice")
        client.put("vote|bob|001|cid", "1")
        client.settle()
        assert client.scan_prefix("page|ann|001|") == [
            ("page|ann|001|k|bob", "1")
        ]


class TestComputedRangeWrites:
    """Direct writes into a join's output range behave identically:
    on a cluster they route to the compute tier the range is read
    from, not to a base home no reader consults."""

    def test_manual_write_visible(self, client):
        client.add_join(TIMELINE)
        client.put("t|ann|0100|bob", "manual")
        client.settle()
        assert client.get("t|ann|0100|bob") == "manual"
        assert client.scan_prefix("t|ann|") == [("t|ann|0100|bob", "manual")]

    def test_manual_write_merges_with_computed(self, client):
        client.add_join(TIMELINE)
        client.put("t|ann|0100|bob", "manual")
        client.put("s|ann|bob", "1")
        client.put("p|bob|0200", "real")
        client.settle()
        assert client.scan_prefix("t|ann|") == [
            ("t|ann|0100|bob", "manual"),
            ("t|ann|0200|bob", "real"),
        ]

    def test_cross_affinity_scan_sees_every_write(self, client):
        """A scan spanning several users' computed slices returns
        direct writes for all of them (on a cluster those writes live
        on different compute servers)."""
        client.add_join(TIMELINE)
        client.put("t|ann|0100|bob", "for ann")
        client.put("t|liz|0100|bob", "for liz")
        client.put("t|zed|0100|bob", "for zed")
        client.settle()
        assert client.scan_prefix("t|") == [
            ("t|ann|0100|bob", "for ann"),
            ("t|liz|0100|bob", "for liz"),
            ("t|zed|0100|bob", "for zed"),
        ]
        assert client.count("t|", "t}") == 3

    def test_batched_computed_writes(self, client):
        client.add_join(TIMELINE)
        applied = client.apply_batch(
            [("t|ann|0100|bob", "manual"), ("p|bob|0300", "base")]
        )
        assert applied == 2
        client.settle()
        assert client.get("t|ann|0100|bob") == "manual"
        assert client.get("p|bob|0300") == "base"
        assert client.remove("t|ann|0100|bob") is True
        client.settle()
        assert client.get("t|ann|0100|bob") is None


class TestErrors:
    """The unified exception hierarchy, identical over every transport."""

    def test_unparseable_join(self, client):
        with pytest.raises(JoinSpecError):
            client.add_join("not a join at all")

    def test_recursive_join_rejected(self, client):
        with pytest.raises(JoinSpecError):
            client.add_join("t|<a> = copy t|<a>")

    def test_join_error_is_bad_request_is_client_error(self, client):
        with pytest.raises(BadRequestError):
            client.add_join("nope")
        with pytest.raises(ClientError):
            client.add_join("nope")

    def test_non_string_value_rejected(self, client):
        with pytest.raises(BadRequestError):
            client.put("p|bob|0100", 42)
        with pytest.raises(BadRequestError):
            client.put_many([("p|bob|0100", None)])

    def test_malformed_batch_rejected(self, client):
        with pytest.raises(BadRequestError):
            client.apply_batch([("p|bob|0100", 42)])
        with pytest.raises(BadRequestError):
            client.apply_batch([("", "empty key")])

    def test_client_usable_after_errors(self, client):
        with pytest.raises(ClientError):
            client.add_join("broken")
        client.put("p|bob|0100", "still works")
        assert client.get("p|bob|0100") == "still works"

    def test_server_error_type_exists(self, client):
        # Nothing in the normal API raises ServerError; assert the
        # type is part of the shared hierarchy so transports can map
        # genuine faults onto it.
        assert issubclass(ServerError, ClientError)


class TestStats:
    def test_stats_reflect_work(self, client):
        client.put("p|a|1", "x")
        client.get("p|a|1")
        stats = client.stats()
        assert stats.get("op_put", 0) >= 1
        assert stats.get("op_get", 0) >= 1


class TestFactory:
    def test_unknown_backend_rejected(self):
        with pytest.raises(BadRequestError):
            make_client("redis")

    @pytest.mark.parametrize("backend", ["local", "cluster"])
    def test_connect_intent_rejected_off_rpc(self, backend):
        with pytest.raises(BadRequestError):
            make_client(backend, port=7709)
        with pytest.raises(BadRequestError):
            make_client(backend, host="10.0.0.5")

    def test_rpc_by_port_rejects_server_kwargs(self):
        with pytest.raises(BadRequestError):
            make_client("rpc", port=7709, subtable_config={"t": 2})

    def test_rpc_host_alone_means_connect(self):
        """make_client('rpc', host=...) connects (to the default
        port) rather than silently starting a fresh empty server."""
        from repro.client import TransportError

        with pytest.raises(TransportError):
            # RFC 2606 reserves .invalid: resolution always fails, so
            # this cannot start a server and cannot accidentally
            # connect to one.
            make_client("rpc", host="host.invalid")


class TestBackendReporting:
    def test_backend_tag(self, client):
        assert client.backend in ("local", "rpc", "cluster")

    def test_local_exposes_server(self):
        with make_client("local") as c:
            assert isinstance(c, LocalClient)
            c.put("p|a|1", "x")
            assert c.server.key_count() == 1


class TestDiskCloseFlushes:
    """Closing a client closes the servers it built — one, or every
    node of a cluster: under the default ``wal_fsync="batch"`` the
    buffered WAL tail reaches disk, so every acknowledged write is
    readable after a reopen."""

    WRITES = [(f"p|bob|{i:04d}", f"post {i}") for i in range(37)]

    @pytest.mark.parametrize("backend", ("local", "rpc", "cluster"))
    def test_sync_close_then_reopen(self, backend, tmp_path):
        data_dir = str(tmp_path)
        c = make_client(backend, base_tables=BASE_TABLES, data_dir=data_dir)
        for key, value in self.WRITES:
            c.put(key, value)
        c.close()
        with make_client(
            backend, base_tables=BASE_TABLES, data_dir=data_dir
        ) as again:
            assert again.scan_prefix("p|") == self.WRITES

    @pytest.mark.parametrize("backend", ("local", "rpc", "cluster"))
    async def test_async_aclose_then_reopen(self, backend, tmp_path):
        data_dir = str(tmp_path)
        async with await make_async_client(
            backend, base_tables=BASE_TABLES, data_dir=data_dir
        ) as c:
            for key, value in self.WRITES:
                await c.put(key, value)
        async with await make_async_client(
            backend, base_tables=BASE_TABLES, data_dir=data_dir
        ) as again:
            assert await again.scan_prefix("p|") == self.WRITES

    def test_a_server_passed_in_stays_open(self, tmp_path):
        from repro import PequodServer

        server = PequodServer(data_dir=str(tmp_path))
        with LocalClient(server) as c:
            c.put("p|bob|0001", "x")
        server.put("p|bob|0002", "y")  # still writable: the caller owns it
        server.close()
        with make_client("local", data_dir=str(tmp_path)) as again:
            assert len(again.scan_prefix("p|")) == 2

    def test_a_cluster_passed_in_stays_open(self, tmp_path):
        from repro import PequodServer
        from repro.client.cluster import ClusterClient
        from repro.distrib import Cluster

        cluster = Cluster(
            1, 1, ("p",),
            server_factory=lambda name: PequodServer(
                name=name, data_dir=str(tmp_path / name)
            ),
        )
        with ClusterClient(cluster) as c:
            c.put("p|bob|0001", "x")
        cluster.put("p|bob|0002", "y")  # still writable: the caller owns it
        for node in cluster.nodes:
            node.server.close()


# ======================================================================
# Async conformance: the same semantics through the async-native API
# ======================================================================
async def _async_client(backend, **extra):
    """Build an async client for one backend (awaitable)."""
    if backend == "durable":
        data_dir = tempfile.mkdtemp(prefix="pequod-durable-")
        client = await make_async_client(
            "local", base_tables=BASE_TABLES, data_dir=data_dir, **extra
        )
        weakref.finalize(client, shutil.rmtree, data_dir, ignore_errors=True)
        return client
    return await make_async_client(backend, base_tables=BASE_TABLES, **extra)


@pytest.mark.parametrize("backend", BACKENDS)
class TestAsyncConformance:
    async def test_walkthrough(self, backend):
        async with await _async_client(backend) as client:
            await client.add_join(TIMELINE)
            await client.put("s|ann|bob", "1")
            await client.put("p|bob|0100", "hello!")
            await client.settle()
            assert await client.scan_prefix("t|ann|") == [
                ("t|ann|0100|bob", "hello!")
            ]
            await client.put("p|bob|0120", "again")
            await client.settle()
            assert await client.scan_prefix("t|ann|") == [
                ("t|ann|0100|bob", "hello!"),
                ("t|ann|0120|bob", "again"),
            ]

    async def test_roundtrip_and_derived_ops(self, backend):
        async with await _async_client(backend) as client:
            assert await client.get("p|bob|0100") is None
            await client.put("p|bob|0100", "x")
            assert await client.get("p|bob|0100") == "x"
            assert await client.exists("p|bob|0100") is True
            assert await client.remove("p|bob|0100") is True
            assert await client.remove("p|bob|0100") is False
            await client.put_many([(f"p|u|{i:04d}", f"v{i}") for i in range(6)])
            await client.settle()
            assert await client.count("p|u|", "p|u}") == 6
            assert await client.scan_prefix("p|u|") == await client.scan(
                "p|u|", "p|u}"
            )

    async def test_write_batch_async_context(self, backend):
        async with await _async_client(backend) as client:
            await client.add_join(TIMELINE)
            await client.put("s|ann|bob", "1")
            await client.settle()
            await client.scan_prefix("t|ann|")  # warm the timeline
            async with client.write_batch() as batch:
                batch.put("p|bob|0100", "one")
                batch.put("p|bob|0100", "two")  # coalesces in-batch
                batch.put("p|bob|0200", "three")
            await client.settle()
            assert batch.coalesced_ops == 1
            assert await client.scan_prefix("t|ann|") == [
                ("t|ann|0100|bob", "two"),
                ("t|ann|0200|bob", "three"),
            ]

    async def test_aggregates(self, backend):
        async with await _async_client(backend) as client:
            await client.add_join(KARMA)
            await client.put("vote|bob|001|ann", "1")
            await client.put("vote|bob|001|liz", "1")
            await client.settle()
            assert await client.get("karma|bob") == "2"
            assert await client.remove("vote|bob|001|liz") is True
            await client.settle()
            assert await client.get("karma|bob") == "1"

    async def test_errors(self, backend):
        async with await _async_client(backend) as client:
            with pytest.raises(JoinSpecError):
                await client.add_join("not a join at all")
            with pytest.raises(BadRequestError):
                await client.put("p|bob|0100", 42)
            with pytest.raises(BadRequestError):
                await client.apply_batch([("", "empty key")])
            # The client stays usable after errors.
            await client.put("p|bob|0100", "still works")
            assert await client.get("p|bob|0100") == "still works"

    async def test_stats(self, backend):
        async with await _async_client(backend) as client:
            await client.put("p|a|1", "x")
            await client.get("p|a|1")
            stats = await client.stats()
            assert stats.get("op_put", 0) >= 1
            assert stats.get("op_get", 0) >= 1


# ======================================================================
# Sync/async parity: byte-identical store state on the same workload
# ======================================================================
def _conformance_ops():
    """A deterministic workload touching joins, batches, aggregates,
    overwrites, and removes."""
    ops = [("join", TIMELINE), ("join", KARMA)]
    users = ["ann", "bob", "cid", "liz"]
    for u in users:
        for v in users:
            if u != v:
                ops.append(("put", f"s|{u}|{v}", "1"))
    for tick in range(12):
        poster = users[tick % len(users)]
        ops.append(("put", f"p|{poster}|{tick:04d}", f"tweet {tick}"))
        if tick % 3 == 0:
            ops.append(("scan", f"t|{users[(tick + 1) % len(users)]}|"))
        if tick % 4 == 0:
            ops.append(("vote", f"vote|{poster}|{tick:03d}|ann"))
    ops.append(("batch", [("p|ann|9000", "batched"), ("p|bob|0000", None)]))
    ops.append(("remove", "s|liz|ann"))
    for u in users:
        ops.append(("scan", f"t|{u}|"))
    return ops


def _read_state(scan_prefix):
    state = []
    for prefix in ("t|", "p|", "s|", "vote|", "karma|"):
        state.extend(scan_prefix(prefix))
    return state


def _drive_sync(client):
    for op in _conformance_ops():
        if op[0] == "join":
            client.add_join(op[1])
        elif op[0] == "put":
            client.put(op[1], op[2])
        elif op[0] == "vote":
            client.put(op[1], "1")
        elif op[0] == "scan":
            client.scan_prefix(op[1])
        elif op[0] == "batch":
            client.apply_batch(op[1])
        elif op[0] == "remove":
            client.remove(op[1])
        client.settle()
    return _read_state(client.scan_prefix)


async def _drive_async(client):
    for op in _conformance_ops():
        if op[0] == "join":
            await client.add_join(op[1])
        elif op[0] == "put":
            await client.put(op[1], op[2])
        elif op[0] == "vote":
            await client.put(op[1], "1")
        elif op[0] == "scan":
            await client.scan_prefix(op[1])
        elif op[0] == "batch":
            await client.apply_batch(op[1])
        elif op[0] == "remove":
            await client.remove(op[1])
        await client.settle()
    state = []
    for prefix in ("t|", "p|", "s|", "vote|", "karma|"):
        state.extend(await client.scan_prefix(prefix))
    return state


class TestSyncAsyncParity:
    def test_state_identical_across_all_backends(self):
        """The acceptance bar: the conformance workload leaves
        byte-identical observable state through every sync facade and
        every async backend."""
        import asyncio

        async def drive(backend):
            async with await _async_client(backend) as client:
                return await _drive_async(client)

        states = {}
        for backend in BACKENDS:
            with _sync_client(backend) as client:
                states[f"sync-{backend}"] = _drive_sync(client)
            states[f"async-{backend}"] = asyncio.run(drive(backend))
        reference = states["sync-local"]
        assert reference  # the workload actually produced data
        for name, state in states.items():
            assert state == reference, f"{name} diverged from sync-local"


# ======================================================================
# Watch streams: server push on every backend (§2.4)
# ======================================================================
class TestWatchSync:
    """iter_watch through the sync facade, all three backends."""

    def test_delivers_committed_changes_in_order(self, client):
        watch = client.iter_watch("p|", "p}")
        client.put("p|a|1", "x")
        client.put("p|a|2", "y")
        client.put("p|a|1", "x2")
        client.settle()
        events = watch.drain()
        assert [(e.key, e.new, e.kind.value) for e in events] == [
            ("p|a|1", "x", "insert"),
            ("p|a|2", "y", "insert"),
            ("p|a|1", "x2", "update"),
        ]
        # Key-version order: seqs strictly increase.
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        watch.close()

    def test_range_filtering(self, client):
        watch = client.iter_watch("p|b|", "p|b}")
        client.put("p|a|1", "outside")
        client.put("p|b|1", "inside")
        client.put("p|c|1", "outside")
        client.remove("p|b|1")
        client.settle()
        events = watch.drain()
        assert [(e.key, e.kind.value) for e in events] == [
            ("p|b|1", "insert"),
            ("p|b|1", "remove"),
        ]
        watch.close()

    def test_close_stops_delivery(self, client):
        watch = client.iter_watch("p|", "p}")
        client.put("p|a|1", "x")
        client.settle()
        assert len(watch.drain()) == 1
        watch.close()
        client.put("p|a|2", "y")
        client.settle()
        assert watch.drain() == []

    def test_watch_sees_maintained_outputs(self, client):
        """Join maintenance commits count as changes: the watcher of a
        computed range sees every output the engine installs."""
        client.add_join(TIMELINE)
        client.put("s|ann|bob", "1")
        client.settle()
        client.scan_prefix("t|ann|")  # materialize (empty) timeline
        watch = client.iter_watch("t|ann|", "t|ann}")
        client.put("p|bob|0100", "pushed")
        client.settle()
        events = watch.drain()
        assert [(e.key, e.new) for e in events] == [
            ("t|ann|0100|bob", "pushed")
        ]
        watch.close()

    def test_empty_range_rejected(self, client):
        with pytest.raises(BadRequestError):
            client.iter_watch("p}", "p|")


class TestIdleWatchOverRpc:
    """The sync RPC facade has no event loop reading its socket
    between calls, so a watcher that makes no call must still see what
    *other* connections commit: ``next`` reads the socket while it
    waits.  (A transport that reads only during calls passes every
    single-client watch test above and fails these.)"""

    @pytest.fixture
    def service(self):
        from repro import PequodServer
        from repro.net.rpc_server import ThreadedRpcService

        service = ThreadedRpcService(PequodServer())
        yield service
        service.stop()

    @pytest.fixture
    def watcher(self, service):
        with RemoteClient("127.0.0.1", service.port) as client:
            yield client

    @pytest.fixture
    def writer(self, service):
        with RemoteClient("127.0.0.1", service.port) as client:
            yield client

    def test_next_sees_another_connections_write(self, watcher, writer):
        watch = watcher.iter_watch("p|", "p}")
        writer.put("p|bob|0001", "hi")
        event = watch.next(timeout=1.0)  # no call on `watcher` in between
        assert event is not None
        assert (event.key, event.new, event.kind.value) == (
            "p|bob|0001", "hi", "insert",
        )
        assert watch.next(timeout=0.05) is None  # exactly once
        watch.close()

    def test_drain_collects_a_burst_in_key_version_order(self, watcher, writer):
        watch = watcher.iter_watch("p|", "p}")
        expected = []
        for i in range(30):
            key = f"p|u{i % 3}|{i // 6:04d}"
            writer.put(key, f"v{i}")
            expected.append((key, f"v{i}"))
        events = watch.drain(settle=0.5)
        assert [(e.key, e.new) for e in events] == expected
        per_key = {}
        for e in events:
            assert per_key.get(e.key, -1) < e.seq
            per_key[e.key] = e.seq
        watch.close()

    def test_own_and_foreign_writes_interleave_in_commit_order(
        self, watcher, writer
    ):
        watch = watcher.iter_watch("p|", "p}")
        writer.put("p|a|1", "theirs")
        watcher.put("p|a|2", "mine")  # its push precedes its own ack
        writer.put("p|a|3", "theirs")
        assert [e.key for e in watch.drain(settle=0.5)] == [
            "p|a|1", "p|a|2", "p|a|3",
        ]
        watch.close()

    def test_blocking_iteration_wakes_on_a_push(self, watcher, writer):
        import threading

        watch = watcher.iter_watch("p|", "p}")
        timer = threading.Timer(0.1, writer.put, ("p|late|1", "x"))
        timer.start()
        try:
            assert next(iter(watch)).key == "p|late|1"  # next(timeout=None)
        finally:
            timer.join()
        watch.close()

    def test_server_going_away_ends_the_stream(self, service, watcher):
        from repro.client import TransportError

        watch = watcher.iter_watch("p|", "p}")
        watcher.put("p|a|1", "x")
        service.stop()
        assert [e.key for e in watch] == ["p|a|1"]  # then the stream ends
        assert watch.next(timeout=1.0) is None
        with pytest.raises(TransportError):
            watcher.get("p|a|1")
        with pytest.raises(TransportError):
            watcher.iter_watch("p|", "p}")
        watcher.close()
        watcher.close()  # idempotent, also on a dead connection


class TestScanParity:
    def test_rpc_scan_equals_local_scan_with_types(self):
        """What a scan returns does not depend on the wire: the same
        list of (str, str) tuples, here 300 rows of non-ASCII text —
        a reply that spans more than one 64 KiB socket read."""
        rows = [
            (f"p|üser{i % 7}|{i:06d}", f"{i} · héllo wörld 日本語 🐳 " * 6)
            for i in range(300)
        ]
        results = {}
        for backend in ("local", "rpc"):
            with make_client(backend) as client:
                client.put_many(rows)
                results[backend] = (
                    client.scan("p|", "p}"),
                    client.scan_prefix("p|üser3|"),
                    client.scan("p|zzz", "p}"),
                )
        assert sum(len(k.encode()) + len(v.encode()) for k, v in rows) > 65536
        assert results["local"][0] == sorted(rows)
        assert results["rpc"] == results["local"]
        for got in results["rpc"]:
            assert type(got) is list
            assert all(type(row) is tuple and len(row) == 2 for row in got)
            assert all(type(s) is str for row in got for s in row)


@pytest.mark.parametrize("backend", BACKENDS)
class TestWatchAsync:
    """The async watch stream: exactly-once, ordered, range-true."""

    async def test_exactly_once_in_commit_order(self, backend):
        async with await _async_client(backend) as client:
            watch = await client.watch("p|", "p}")
            expected = []
            for i in range(10):
                key = f"p|u{i % 3}|{i:04d}"
                await client.put(key, f"v{i}")
                expected.append((key, f"v{i}"))
            await client.settle()
            events = watch.drain()
            assert [(e.key, e.new) for e in events] == expected
            # Exactly once: no duplicate (key, seq); versions ordered.
            stamps = [(e.key, e.seq) for e in events]
            assert len(set(stamps)) == len(stamps)
            per_key = {}
            for e in events:
                assert per_key.get(e.key, -1) < e.seq
                per_key[e.key] = e.seq
            await watch.close()

    async def test_unsubscribe_stops_push(self, backend):
        async with await _async_client(backend) as client:
            watch = await client.watch("p|", "p}")
            await client.put("p|a|1", "x")
            await client.settle()
            assert len(watch.drain()) == 1
            await watch.close()
            await client.put("p|a|2", "y")
            await client.settle()
            assert watch.drain() == []
            assert await watch.next_event(timeout=0.01) is None

    async def test_async_iteration(self, backend):
        async with await _async_client(backend) as client:
            watch = await client.watch("p|", "p}")
            for i in range(3):
                await client.put(f"p|a|{i}", f"v{i}")
            await client.settle()
            seen = []
            async for event in watch:
                seen.append(event.key)
                if len(seen) == 3:
                    break
            assert seen == ["p|a|0", "p|a|1", "p|a|2"]
            await watch.close()

    async def test_two_watches_independent_ranges(self, backend):
        async with await _async_client(backend) as client:
            wa = await client.watch("p|a|", "p|a}")
            wb = await client.watch("p|b|", "p|b}")
            await client.put("p|a|1", "x")
            await client.put("p|b|1", "y")
            await client.settle()
            assert [e.key for e in wa.drain()] == ["p|a|1"]
            assert [e.key for e in wb.drain()] == ["p|b|1"]
            await wa.close()
            await wb.close()


class TestNotFoundHierarchy:
    def test_not_found_is_client_and_key_error(self):
        """The wire-distinguishable "missing thing" error (the
        classify_error satellite): a ClientError for the unified
        hierarchy and a KeyError for idiomatic handling.  It is NOT a
        BadRequestError — missing is not malformed."""
        assert issubclass(NotFoundError, ClientError)
        assert issubclass(NotFoundError, KeyError)
        assert not issubclass(NotFoundError, BadRequestError)


# ----------------------------------------------------------------------
# Observability: identical surface on every backend
# ----------------------------------------------------------------------


class TestStatsSuperset:
    """stats() returns the metrics superset — raw counters plus the
    derived flat series — with the same key shapes on every backend."""

    def test_counters_and_derived_series_present(self, client):
        client.add_join(TIMELINE)
        client.put("s|ann|bob", "1")
        client.put("p|bob|0100", "hello")
        client.settle()
        client.scan_prefix("t|ann|")
        stats = client.stats()
        # Raw counter-bag entries pass through untouched.
        assert stats.get("op_put", 0) >= 2
        # Derived per-join series, Prometheus-style flat keys.
        assert any(
            k.startswith('join_validations_total{table="t"') for k in stats
        ), sorted(k for k in stats if k.startswith("join"))
        assert any(k.startswith("status_ranges{") for k in stats)
        assert any(k.startswith("table_memory_bytes{") for k in stats)
        assert stats.get("memory_bytes", 0) > 0

    def test_rpc_histograms_only_where_rpc_exists(self, client):
        client.put("p|a|1", "x")
        stats = client.stats()
        from repro.client import RemoteClient

        has_rpc_series = any(k.startswith("rpc_requests_total") for k in stats)
        # The RPC backend serves over TCP and must expose its frame
        # accounting; local and cluster have no RPC layer to account.
        assert has_rpc_series == isinstance(client, RemoteClient)


# ----------------------------------------------------------------------
# Memory pressure: eviction is the one answer, on every backend
# ----------------------------------------------------------------------
USERS = [f"u{i:02d}" for i in range(8)]


@pytest.fixture(params=BACKENDS)
def tight_client(request):
    """Every backend with a one-byte memory limit: the server is over
    its limit after every operation, so every evictable range — computed
    timelines, and on the cluster the compute servers' copies of base
    data — goes as soon as it is cold."""
    c = _sync_client(request.param, memory_limit=1)
    yield c
    c.close()


def _follow_ring(client, hops=(1, 2)):
    """Each user follows the users ``hops`` places after it."""
    for i, user in enumerate(USERS):
        for hop in hops:
            client.put(f"s|{user}|{USERS[(i + hop) % len(USERS)]}", "1")


def _expected_timeline(client, user):
    """The timeline recomputed by hand from the base tables."""
    followed = [k.split("|")[2] for k, _ in client.scan_prefix(f"s|{user}|")]
    rows = []
    for poster in followed:
        for key, value in client.scan_prefix(f"p|{poster}|"):
            rows.append((f"t|{user}|{key.split('|')[2]}|{poster}", value))
    return sorted(rows)


def _assert_all_timelines_fresh(client):
    for user in USERS:
        assert client.scan_prefix(f"t|{user}|") == _expected_timeline(
            client, user
        ), user


class TestFreshUnderMemoryPressure:
    """Past its memory limit a server evicts cold ranges and goes on
    serving: no write is refused and no read is stale.  An evicted
    range is recomputed on its next read, from data that is itself
    refetched if it was evicted too (§2.5)."""

    def test_every_timeline_matches_its_base_data(self, tight_client):
        c = tight_client
        c.add_join(TIMELINE)
        _follow_ring(c)
        for tick in range(24):
            c.put(f"p|{USERS[tick % len(USERS)]}|{tick:04d}", f"tweet {tick}")
            if tick % 6 == 5:
                c.settle()
                _assert_all_timelines_fresh(c)
        assert c.stats().get("evictions", 0) > 0

    def test_post_after_eviction_shows_on_the_next_read(self, tight_client):
        c = tight_client
        c.add_join(TIMELINE)
        _follow_ring(c, hops=(1,))
        c.put("p|u01|0001", "first")
        c.settle()
        assert c.scan_prefix("t|u00|") == [("t|u00|0001|u01", "first")]
        for user in USERS[1:]:
            c.scan_prefix(f"t|{user}|")  # colder than u00's by now
        evicted = c.stats().get("evictions", 0)
        assert evicted > 0
        c.put("p|u01|0002", "second")
        c.settle()
        assert c.scan_prefix("t|u00|") == [
            ("t|u00|0001|u01", "first"),
            ("t|u00|0002|u01", "second"),
        ]

    def test_subscription_after_eviction_backfills(self, tight_client):
        c = tight_client
        c.add_join(TIMELINE)
        c.put("s|ann|bob", "1")
        c.put("p|bob|0100", "bob's")
        c.put("p|liz|0050", "liz's old")
        c.settle()
        assert c.scan_prefix("t|ann|") == [("t|ann|0100|bob", "bob's")]
        c.scan_prefix("t|zed|")  # another range; ann's is evicted
        c.put("s|ann|liz", "1")
        c.settle()
        assert c.scan_prefix("t|ann|") == [
            ("t|ann|0050|liz", "liz's old"),
            ("t|ann|0100|bob", "bob's"),
        ]

    def test_unsubscribe_after_eviction_retracts(self, tight_client):
        c = tight_client
        c.add_join(TIMELINE)
        c.put("s|ann|bob", "1")
        c.put("s|ann|liz", "1")
        c.put("p|bob|0100", "bob's")
        c.put("p|liz|0200", "liz's")
        c.settle()
        assert len(c.scan_prefix("t|ann|")) == 2
        c.scan_prefix("t|zed|")
        assert c.remove("s|ann|liz") is True
        c.settle()
        assert c.scan_prefix("t|ann|") == [("t|ann|0100|bob", "bob's")]

    def test_aggregate_recounts_after_eviction(self, tight_client):
        c = tight_client
        c.add_join(KARMA)
        for voter in ("ann", "liz", "zed"):
            c.put(f"vote|bob|001|{voter}", "1")
        c.settle()
        assert c.get("karma|bob") == "3"
        c.put("vote|cid|002|ann", "1")
        c.settle()
        assert c.get("karma|cid") == "1"  # bob's count is now the colder
        assert c.remove("vote|bob|001|zed") is True
        c.put("vote|bob|003|cid", "1")
        c.put("vote|bob|004|cid", "1")
        c.settle()
        assert c.get("karma|bob") == "4"
        assert c.stats().get("evictions", 0) > 0

    def test_writes_past_the_limit_are_all_accepted(self, tight_client):
        c = tight_client
        rows = [(f"p|bob|{i:04d}", f"tweet {i}") for i in range(64)]
        for key, value in rows[:32]:
            c.put(key, value)
        c.apply_batch(rows[32:])
        c.settle()
        # Base data a client wrote is never evicted, limit or not.
        assert c.scan_prefix("p|bob|") == rows
        stats = c.stats()
        assert stats.get("memory_bytes", 0) > 1
        assert "overloaded" not in stats


@pytest.mark.parametrize("backend", BACKENDS)
class TestAsyncFreshUnderMemoryPressure:
    async def test_pipelined_ops_are_all_answered_fresh(self, backend):
        """Many operations outstanding at once on a server past its
        limit: every one is answered, none refused, and the reads that
        follow the writes see all of them."""
        import asyncio

        async with await _async_client(backend, memory_limit=1) as c:
            await c.add_join(TIMELINE)
            await asyncio.gather(*(
                c.put(f"s|{user}|{USERS[(i + 1) % len(USERS)]}", "1")
                for i, user in enumerate(USERS)
            ))
            posts = [
                (f"p|{USERS[t % len(USERS)]}|{t:04d}", f"tweet {t}")
                for t in range(48)
            ]
            acks = await asyncio.gather(*(c.put(k, v) for k, v in posts))
            assert len(acks) == len(posts)
            await c.settle()
            timelines = await asyncio.gather(*(
                c.scan_prefix(f"t|{user}|") for user in USERS
            ))
            for i, (user, got) in enumerate(zip(USERS, timelines)):
                poster = USERS[(i + 1) % len(USERS)]
                assert got == [
                    (f"t|{user}|{k.split('|')[2]}|{poster}", v)
                    for k, v in posts if k.startswith(f"p|{poster}|")
                ], user
            assert (await c.stats()).get("evictions", 0) > 0


# ----------------------------------------------------------------------
# A failed durable log: one typed error on every backend
# ----------------------------------------------------------------------
from repro.client import DurabilityError  # noqa: E402
from repro.persist import DurabilityError as LogDurabilityError  # noqa: E402
from repro.persist.wal import WriteAheadLog  # noqa: E402


class TestDurabilityConformance:
    """A write whose log append fails raises the client-layer
    DurabilityError on every backend — catchable as a ServerError and
    as the log's own DurabilityError — and so does every later write,
    while reads go on."""

    @pytest.mark.parametrize("backend", ("local", "rpc", "cluster"))
    def test_failed_log_raises_typed_durability_error(
        self, backend, tmp_path, monkeypatch
    ):
        c = make_client(
            backend, base_tables=BASE_TABLES, data_dir=str(tmp_path),
            wal_fsync="always",
        )
        try:
            c.put("p|a|1", "acked")

            def full_disk(*_):
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(WriteAheadLog, "append", full_disk)
            with pytest.raises(DurabilityError) as ei:
                c.put("p|a|2", "lost")
            assert isinstance(ei.value, ServerError)
            assert isinstance(ei.value, LogDurabilityError)
            assert "unknown until a restart" in str(ei.value)
            monkeypatch.undo()
            with pytest.raises(DurabilityError):
                c.apply_batch([("p|a|3", "refused")])
            assert c.get("p|a|1") == "acked"
        finally:
            monkeypatch.undo()
            c.close()  # closes the servers it built, logs and all
