#!/usr/bin/env python3
"""End-to-end smoke of the observability surface, for the CI chaos lane.

Boots a real ``ThreadedRpcService`` (its own thread, genuine TCP),
drives traffic through the unified RPC client, hosts the Prometheus endpoint
on the service's loop, then scrapes ``GET /metrics`` over HTTP like a
Prometheus server would and asserts the exposition text is well-formed
and carries the series the README documents.  Exits non-zero with a
diagnostic on any failure.

Run from the repo root: ``PYTHONPATH=src python scripts/metrics_smoke.py``.
"""

from __future__ import annotations

import asyncio
import re
import shutil
import sys
import tempfile
import urllib.error
import urllib.request

from repro.apps.twip import TIMELINE_JOIN
from repro.client import make_client
from repro.core.server import PequodServer
from repro.metrics import MetricsHttpServer
from repro.net.rpc_server import ThreadedRpcService
from repro.store.keys import prefix_upper_bound

SAMPLE_RE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? '
    r"[-+]?([0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|Inf|NaN)$"
)

#: Series the README's metric catalog promises; the scrape must carry
#: at least one sample of each family.
REQUIRED_FAMILIES = (
    "repro_join_validations_total",
    "repro_join_memo_hits_total",
    "repro_pending_log_depth",
    "repro_status_ranges",
    "repro_table_memory_bytes",
    "repro_memory_bytes",
    "repro_rpc_frame_latency_seconds_bucket",
    "repro_rpc_window_occupancy_bucket",
    "repro_stat",
    # The compiled write path (the server drives a materialize-then-post
    # sequence, so the plan counters must be live, not just present).
    "repro_write_plan_compiles_total",
    "repro_write_plan_fires_total",
    "repro_write_batched_installs_total",
    "repro_write_fanout_max",
    # The persistence tier (the server below runs with a data dir, so
    # every family must be present).
    "repro_persist_wal_bytes",
    "repro_persist_segments",
    "repro_persist_checkpoints_total",
    "repro_persist_recovery_ms",
    "repro_persist_flush_seconds_bucket",
    "repro_persist_compaction_seconds_bucket",
)

#: Series a *write-around* deployment must additionally expose (the
#: scrape below runs against a second, mode="write-around" server).
CDC_FAMILIES = (
    "repro_cdc_feed_depth",
    "repro_cdc_feed_high_water",
    "repro_cdc_journal_bytes",
    "repro_cdc_consumer_lag_records",
    "repro_cdc_consumer_lag_seconds",
    "repro_cdc_backfill_active",
    "repro_cdc_records_applied_total",
    "repro_cdc_records_skipped_total",
    "repro_cdc_batches_applied_total",
    "repro_cdc_backfill_rows_total",
    "repro_cdc_backfill_chunks_total",
    "repro_cdc_propagation_lag_seconds_bucket",
)


def fail(message: str) -> "NoReturn":  # noqa: F821 - py3.12 has NoReturn
    print(f"metrics smoke FAILED: {message}", file=sys.stderr)
    raise SystemExit(1)


def drive_traffic(port: int) -> None:
    with make_client("rpc", host="127.0.0.1", port=port) as client:
        client.put("s|ann|bob", "1")
        client.put("p|bob|0001", "hello")
        client.scan("t|ann|", prefix_upper_bound("t|ann|"))
        client.put("p|bob|0002", "again")
        client.scan("t|ann|", prefix_upper_bound("t|ann|"))
        for i in range(20):
            client.put(f"p|liz|{i:04d}", "x" * 100)  # checkpoint fodder
        stats = client.stats()
        if "op_get" not in stats and "op_scan" not in stats:
            fail(f"stats() over RPC lacks op counters: {sorted(stats)[:8]}")


def drive_persistence(server: PequodServer) -> None:
    """Exercise the durability tier so its families carry real values:
    a checkpoint seals the WAL as a segment."""
    server.checkpoint()


def check_sealed(text: str) -> None:
    """The scrape must show the checkpoint and the segment it sealed."""
    for family in ("repro_persist_segments", "repro_persist_checkpoints_total"):
        found = re.search(rf"^{family} (\S+)$", text, re.M)
        if found is None or float(found.group(1)) < 1:
            fail(f"{family} < 1: the checkpoint sealed no segment")


def check_exposition(text: str, families=REQUIRED_FAMILIES) -> int:
    """Validate Prometheus text format; return the number of samples."""
    helped, typed = set(), set()
    samples = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        if line.startswith("# HELP "):
            helped.add(line.split()[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if parts[3] not in ("counter", "gauge", "histogram"):
                fail(f"line {lineno}: bad TYPE {line!r}")
            typed.add(parts[2])
            continue
        if line.startswith("#"):
            fail(f"line {lineno}: unknown comment {line!r}")
        if not SAMPLE_RE.match(line):
            fail(f"line {lineno}: malformed sample {line!r}")
        samples += 1
        name = line.split("{")[0].split(" ")[0]
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in typed and family not in typed:
            fail(f"line {lineno}: sample {name} precedes its # TYPE")
    if helped != typed:
        fail(f"HELP/TYPE mismatch: {sorted(helped ^ typed)}")
    for family in families:
        if not re.search(rf"^{re.escape(family)}(\{{| )", text, re.M):
            fail(f"required series {family} absent from scrape")
    return samples


def scrape_cdc(loop) -> int:
    """Boot a write-around server, drive it, and scrape its CDC family
    over HTTP; the records-applied counter must be live (> 0)."""
    server = PequodServer(mode="write-around")
    metrics = MetricsHttpServer(server.metrics_text)
    try:
        server.add_join(TIMELINE_JOIN)
        server.put("s|ann|bob", "1")
        server.put("p|bob|0001", "hello")
        server.put("p|bob|0002", "again")
        server.settle_cdc()
        server.scan("t|ann|", prefix_upper_bound("t|ann|"))
        asyncio.run_coroutine_threadsafe(metrics.start(), loop).result(
            timeout=5
        )
        url = f"http://127.0.0.1:{metrics.port}/metrics"
        with urllib.request.urlopen(url, timeout=5) as resp:
            text = resp.read().decode()
        samples = check_exposition(text, families=CDC_FAMILIES)
        applied = re.search(
            r"^repro_cdc_records_applied_total (\S+)$", text, re.M
        )
        if applied is None or float(applied.group(1)) <= 0:
            fail("write-around pump applied no records during the drive")
        return samples
    finally:
        asyncio.run_coroutine_threadsafe(metrics.close(), loop).result(
            timeout=5
        )
        server.close()


def main() -> int:
    data_dir = tempfile.mkdtemp(prefix="pequod-metrics-smoke-")
    server = PequodServer(data_dir=data_dir, wal_fsync="batch")
    server.add_join(TIMELINE_JOIN)
    service = ThreadedRpcService(server)
    metrics = MetricsHttpServer(server.metrics_text)
    try:
        drive_traffic(service.port)
        drive_persistence(server)
        asyncio.run_coroutine_threadsafe(
            metrics.start(), service.loop
        ).result(timeout=5)
        url = f"http://127.0.0.1:{metrics.port}/metrics"
        with urllib.request.urlopen(url, timeout=5) as resp:
            if resp.status != 200:
                fail(f"GET /metrics -> {resp.status}")
            ctype = resp.headers.get("Content-Type", "")
            if not ctype.startswith("text/plain"):
                fail(f"unexpected content type {ctype!r}")
            text = resp.read().decode()
        samples = check_exposition(text)
        check_sealed(text)
        fires = re.search(
            r"^repro_write_plan_fires_total (\S+)$", text, re.M
        )
        if fires is None or float(fires.group(1)) <= 0:
            fail("compiled write path never fired during the drive")
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{metrics.port}/other", timeout=5
            ) as resp:
                fail(f"GET /other -> {resp.status}, expected 404")
        except urllib.error.HTTPError as exc:
            if exc.code != 404:
                fail(f"GET /other -> {exc.code}, expected 404")
        cdc_samples = scrape_cdc(service.loop)
        print(f"metrics smoke OK: {samples} samples at {url}, "
              f"{cdc_samples} write-around samples")
        return 0
    finally:
        asyncio.run_coroutine_threadsafe(
            metrics.close(), service.loop
        ).result(timeout=5)
        service.stop()
        server.close()
        shutil.rmtree(data_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
