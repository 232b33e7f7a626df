"""Tests for the metrics layer: histograms, flat series keys, cluster
merging, Prometheus rendering, scrape-time server derivation, and the
HTTP endpoint."""

import asyncio
import re

import pytest

from repro import PequodServer
from repro.metrics import (
    Histogram,
    LATENCY_BUCKETS,
    MetricsHttpServer,
    ServerMetrics,
    merge_snapshots,
    render_prometheus,
    sample_key,
    split_key,
)

TIMELINE = (
    "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"
)


class TestHistogram:
    def test_observations_land_in_buckets(self):
        h = Histogram((1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.counts == [1, 1, 1, 1]
        assert h.count == 4
        assert h.total == pytest.approx(105.0)

    def test_boundary_value_goes_to_its_bucket(self):
        h = Histogram((1.0, 2.0))
        h.observe(1.0)  # inclusive upper bound
        assert h.counts == [1, 0, 0]

    def test_percentile(self):
        h = Histogram((1.0, 2.0, 4.0))
        for _ in range(90):
            h.observe(0.5)
        for _ in range(10):
            h.observe(3.0)
        assert h.percentile(50) == 1.0
        assert h.percentile(99) == 4.0

    def test_percentile_empty(self):
        assert Histogram((1.0,)).percentile(95) == 0.0

    def test_samples_are_cumulative_with_inf(self):
        h = Histogram((1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        h.observe(9.0)
        got = dict(h.samples("lat", backend="rpc"))
        assert got['lat_bucket{backend="rpc",le="1"}'] == 1.0
        assert got['lat_bucket{backend="rpc",le="2"}'] == 2.0
        assert got['lat_bucket{backend="rpc",le="+Inf"}'] == 3.0
        assert got['lat_count{backend="rpc"}'] == 3.0
        assert got['lat_sum{backend="rpc"}'] == pytest.approx(11.0)

    def test_default_latency_buckets_sorted(self):
        assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)


class TestFlatKeys:
    def test_sample_key_no_labels(self):
        assert sample_key("op_get") == "op_get"

    def test_sample_key_sorts_labels(self):
        assert (
            sample_key("x", b="2", a="1") == 'x{a="1",b="2"}'
        )

    def test_sample_key_allows_name_label(self):
        # The metric-name parameter is positional-only, so a label
        # literally called "name" (the generic stat family) works.
        assert sample_key("stat", name="op_get") == 'stat{name="op_get"}'

    def test_label_escaping(self):
        key = sample_key("x", t='a"b\\c\nd')
        name, labels = split_key(key)
        assert name == "x"
        assert labels == '{t="a\\"b\\\\c\\nd"}'

    def test_split_key_roundtrip(self):
        name, labels = split_key('join_memo_hits_total{table="t"}')
        assert name == "join_memo_hits_total"
        assert labels == '{table="t"}'

    def test_split_key_sanitizes_garbage(self):
        name, labels = split_key("99 bad key!")
        assert re.match(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$", name)
        assert labels == ""


class TestMergeSnapshots:
    def test_counters_sum(self):
        merged = merge_snapshots([{"op_get": 2.0}, {"op_get": 3.0}])
        assert merged["op_get"] == 5.0

    def test_max_series_take_max(self):
        a = {'join_stale_age_max_seconds{table="t"}': 0.5}
        b = {'join_stale_age_max_seconds{table="t"}': 2.0}
        merged = merge_snapshots([a, b])
        assert merged['join_stale_age_max_seconds{table="t"}'] == 2.0

    def test_disjoint_keys_union(self):
        merged = merge_snapshots([{"a": 1.0}, {"b": 2.0}])
        assert merged == {"a": 1.0, "b": 2.0}


class TestRenderPrometheus:
    def test_bare_counters_fold_into_stat_family(self):
        text = render_prometheus({"op_get": 3.0})
        assert 'repro_stat{name="op_get"} 3' in text
        assert "# TYPE repro_stat counter" in text

    def test_labeled_series_keep_their_name(self):
        text = render_prometheus({'join_memo_hits_total{table="t"}': 7.0})
        assert 'repro_join_memo_hits_total{table="t"} 7' in text
        assert "# TYPE repro_join_memo_hits_total counter" in text

    def test_standalone_gauges_not_folded(self):
        text = render_prometheus({"overloaded": 1.0, "memory_bytes": 640.0})
        assert "repro_overloaded 1" in text
        assert "# TYPE repro_overloaded gauge" in text
        assert "repro_memory_bytes 640" in text
        assert "# TYPE repro_memory_bytes gauge" in text

    def test_histogram_series_typed_histogram(self):
        h = Histogram((0.1,))
        h.observe(0.05)
        text = render_prometheus(dict(h.samples("rpc_frame_latency_seconds")))
        assert "# TYPE repro_rpc_frame_latency_seconds histogram" in text

    def test_histogram_buckets_ascending_with_inf_last(self):
        h = Histogram((0.5, 0.001, 0.1))
        for v in (0.0005, 0.05, 0.3, 2.0):
            h.observe(v)
        text = render_prometheus(dict(h.samples("lat_seconds")))
        bounds = re.findall(r'repro_lat_seconds_bucket\{le="([^"]+)"\}', text)
        assert bounds == ["0.001", "0.1", "0.5", "+Inf"]
        # _sum and _count follow the buckets.
        order = [
            line.split("{")[0].split(" ")[0]
            for line in text.splitlines()
            if line.startswith("repro_lat_seconds")
        ]
        assert order[-2:] == ["repro_lat_seconds_sum", "repro_lat_seconds_count"]

    def test_every_sample_line_well_formed(self):
        server = _traffic_server()
        text = server.metrics_text()
        sample_re = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? [-+0-9.eInfNa]+$"
        )
        for line in text.splitlines():
            if line and not line.startswith("#"):
                assert sample_re.match(line), line

    def test_non_numeric_values_skipped(self):
        text = render_prometheus({"weird": "a string", "ok_total": 1.0})
        assert "weird" not in text
        assert "repro_ok_total 1" in text


def _traffic_server(**kwargs) -> PequodServer:
    server = PequodServer(**kwargs)
    server.add_join(TIMELINE)
    server.put("s|ann|bob", "1")
    server.put("p|bob|0100", "hello")
    server.scan("t|ann|", "t|ann}")
    server.put("p|bob|0200", "again")
    server.scan("t|ann|", "t|ann}")
    return server


class TestServerMetrics:
    def test_snapshot_is_stats_superset(self):
        server = _traffic_server()
        snap = server.metrics_snapshot()
        for key, value in server.stats.snapshot().items():
            assert snap[key] == value

    def test_per_join_series_present(self):
        snap = _traffic_server().metrics_snapshot()
        assert snap['join_validations_total{table="t"}'] >= 2
        assert snap['join_computes_total{table="t"}'] >= 1
        assert 'join_memo_hits_total{table="t"}' in snap
        assert 'join_stale_served_total{table="t"}' in snap

    def test_backlog_and_memory_series_present(self):
        snap = _traffic_server().metrics_snapshot()
        assert 'status_ranges{table="t"}' in snap
        assert 'pending_log_depth{table="t"}' in snap
        assert snap['table_keys{table="t"}'] >= 1
        assert snap['table_memory_bytes{table="t"}'] > 0
        assert snap["memory_bytes"] > 0

    def test_status_merges_counted(self):
        server = PequodServer()
        server.add_join(TIMELINE)
        server.put("s|ann|bob", "1")
        server.put("p|bob|0100", "hello")
        server.scan("t|ann|", "t|ann}")
        assert server.metrics_snapshot()['join_status_merges_total{table="t"}'] == 0
        # A subscription leaves a pending entry; a check that reads
        # only the tail cuts the range in two...
        server.put("s|ann|liz", "1")
        server.scan("t|ann|0150", "t|ann}")
        assert server.metrics_snapshot()['status_ranges{table="t"}'] == 2
        # ...and the next read spanning both pieces joins them again.
        server.scan("t|ann|", "t|ann}")
        snap = server.metrics_snapshot()
        assert snap['status_ranges{table="t"}'] == 1
        assert snap['join_status_merges_total{table="t"}'] == 1
        assert snap["status_merges"] == 1
        assert server.stats.get("status_merges") == 1

    def test_write_path_series_present(self):
        server = _traffic_server()
        snap = server.metrics_snapshot()
        # The second put fan-fires through a compiled plan.
        assert snap["write_plan_compiles_total"] >= 1
        assert snap["write_plan_fires_total"] >= 1
        assert snap["write_fanout_max"] >= 1
        assert "write_batched_installs_total" in snap
        with server.write_batch() as batch:
            batch.put("p|bob|0300", "3")
            batch.put("p|bob|0400", "4")
        assert server.metrics_snapshot()["write_batched_installs_total"] >= 1

    def test_fanout_max_merges_as_max(self):
        merged = merge_snapshots(
            [{"write_fanout_max": 3.0}, {"write_fanout_max": 9.0}]
        )
        assert merged["write_fanout_max"] == 9.0

    def test_unscraped_server_builds_no_metrics_object(self):
        server = _traffic_server()
        assert server._metrics is None  # lazy until first scrape
        server.metrics_snapshot()
        assert server._metrics is not None

    def test_extra_source_merged(self):
        server = PequodServer()
        metrics = ServerMetrics(server)
        metrics.add_source(lambda: [("extra_total", 42.0)])
        assert metrics.snapshot()["extra_total"] == 42.0

    def test_watch_series_appear_with_hub(self):
        server = _traffic_server()
        handle = server.watch("t|ann|", "t|ann}", lambda ev: None)
        try:
            snap = server.metrics_snapshot()
            assert snap["watch_watchers"] == 1.0
        finally:
            handle.close()


class TestMetricsHttpServer:
    def _fetch(self, host, port, path):
        async def go():
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                f"GET {path} HTTP/1.0\r\nHost: x\r\n\r\n".encode()
            )
            await writer.drain()
            data = await reader.read()
            writer.close()
            return data.decode()

        return go()

    def test_serves_metrics_and_404(self):
        server = _traffic_server()

        async def body():
            http = MetricsHttpServer(server.metrics_text)
            await http.start()
            try:
                ok = await self._fetch("127.0.0.1", http.port, "/metrics")
                assert ok.startswith("HTTP/1.0 200")
                assert "text/plain; version=0.0.4" in ok
                assert 'repro_join_validations_total{table="t"}' in ok
                missing = await self._fetch(
                    "127.0.0.1", http.port, "/nope"
                )
                assert missing.startswith("HTTP/1.0 404")
            finally:
                await http.close()

        asyncio.new_event_loop().run_until_complete(body())

    def test_port_resolved_after_start(self):
        async def body():
            http = MetricsHttpServer(lambda: "x_total 1\n")
            assert http.port == 0
            await http.start()
            try:
                assert http.port > 0
            finally:
                await http.close()

        asyncio.new_event_loop().run_until_complete(body())
