"""Lightweight metrics: counters, gauges, histograms, Prometheus text.

The repro's accounting has always been honest (``StoreStats`` counters
are bumped exactly where the work happens) but invisible: ``stats()``
returned a grab-bag and nothing was exported.  This module adds the
export layer without taxing the hot paths:

* Raw ``StoreStats`` counters pass through untouched — instrumented
  code keeps bumping a ``defaultdict`` and pays nothing new.
* Derived series (per-join hit/validation rates, pending-log and
  watch-backlog depth, per-table memory, overload state) are computed
  **at scrape time** by :class:`ServerMetrics`, by walking structures
  the server already maintains.  An unscraped server never computes
  them.
* The only always-on additions are a handful of fixed-bucket
  :class:`Histogram` observations on the RPC path (frame latency,
  window occupancy) — two integer adds per observation.

Snapshots are *flat* ``{key: number}`` dicts.  A key is either a bare
counter name (``op_get``) or a Prometheus-style series key
(``join_memo_hits_total{table="t"}``), so one dict round-trips through
the wire codec, merges across cluster nodes, and renders to Prometheus
exposition text (:func:`render_prometheus`) without a schema.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

Samples = Iterable[Tuple[str, float]]

#: Default buckets for RPC frame service time, in seconds.
LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: Default buckets for pipelined-window occupancy (requests per read).
WINDOW_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class Histogram:
    """A fixed-bucket histogram: two integer adds per observation.

    ``bounds`` are inclusive upper bounds per bucket; values above the
    last bound land in the implicit overflow bucket, matching
    Prometheus's ``+Inf``.
    """

    __slots__ = ("bounds", "counts", "count", "total")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = tuple(sorted(bounds))  # bisect needs ascending order
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def percentile(self, p: float) -> float:
        """Approximate p-th percentile (0..100): the upper bound of the
        bucket containing that rank (the last finite bound for the
        overflow bucket)."""
        if self.count == 0:
            return 0.0
        rank = max(1, int(self.count * p / 100.0 + 0.5))
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= rank:
                return float(self.bounds[min(i, len(self.bounds) - 1)])
        return float(self.bounds[-1])  # pragma: no cover - unreachable

    def samples(self, name: str, **labels: str) -> Iterator[Tuple[str, float]]:
        """Flat Prometheus-histogram series: cumulative ``_bucket``
        counts per ``le``, plus ``_sum`` and ``_count``."""
        cumulative = 0
        for bound, n in zip(self.bounds, self.counts):
            cumulative += n
            yield sample_key(f"{name}_bucket", le=format_number(bound), **labels), float(cumulative)
        yield sample_key(f"{name}_bucket", le="+Inf", **labels), float(self.count)
        yield sample_key(f"{name}_sum", **labels), self.total
        yield sample_key(f"{name}_count", **labels), float(self.count)


def format_number(value: float) -> str:
    """Render a bucket bound / sample value without float noise."""
    if value == int(value):
        return str(int(value))
    return repr(value)


def sample_key(metric: str, /, **labels: str) -> str:
    """The flat key for one series: ``metric{label="value",...}``."""
    if not labels:
        return metric
    inner = ",".join(
        f'{k}="{_escape_label(v)}"' for k, v in sorted(labels.items())
    )
    return f"{metric}{{{inner}}}"


def _escape_label(value: str) -> str:
    return str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


_KEY_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})?$")
_NAME_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")


def split_key(key: str) -> Tuple[str, str]:
    """Split a flat key into (metric name, label block or '')."""
    m = _KEY_RE.match(key)
    if m is None:
        safe = _NAME_SANITIZE_RE.sub("_", key)
        if not safe or not (safe[0].isalpha() or safe[0] in "_:"):
            safe = "_" + safe
        return safe, ""
    return m.group(1), m.group(2) or ""


def merge_snapshots(snapshots: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Combine per-node flat snapshots into one cluster view.

    Counters and depths sum; ``*_max`` series (staleness high-water
    marks) take the maximum, which is the only sound cluster-wide
    reading of a bound.
    """
    out: Dict[str, float] = {}
    for snap in snapshots:
        for key, value in snap.items():
            name, _ = split_key(key)
            if name.endswith("_max") or name.endswith("_max_seconds"):
                prev = out.get(key)
                out[key] = value if prev is None else max(prev, value)
            else:
                out[key] = out.get(key, 0.0) + value
    return out


def label_by_node(per_node: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Tag every series in per-node snapshots with a ``node`` label.

    The per-node complement to :func:`merge_snapshots`: instead of
    collapsing the cluster into one aggregate, each node's series stay
    distinct — ``stat{node="node0",...}`` — so a scrape of a
    multi-process cluster can attribute load and staleness per node.
    """
    out: Dict[str, float] = {}
    for node, snap in sorted(per_node.items()):
        tag = f'node="{_escape_label(node)}"'
        for key, value in snap.items():
            name, labels = split_key(key)
            if labels:
                out[f"{name}{{{tag},{labels[1:-1]}}}"] = value
            else:
                out[f"{name}{{{tag}}}"] = value
    return out


#: Unlabeled, unsuffixed derived gauges that must render as their own
#: families (not fold into the generic ``stat`` family): the load and
#: watch state the README's catalog documents by name, plus the
#: persistence tier's gauges.
_STANDALONE_GAUGES = frozenset(
    {
        "overloaded",
        "overload_queue_depth",
        "watch_watchers",
        "write_fanout_max",
        "persist_segments",
        "persist_recovery_ms",
        "cdc_feed_depth",
        "cdc_feed_high_water",
        "cdc_consumer_lag_records",
        "cdc_backfill_active",
    }
)


def _histogram_order(sample: Tuple[str, float]) -> Tuple:
    """Exposition order within one histogram family: for each label
    set, buckets ascending by numeric ``le`` (``+Inf`` last), then
    ``_sum``, then ``_count`` — the order Prometheus parsers expect
    (lexical sorting would put ``+Inf`` first)."""
    name, labels = split_key(sample[0])
    le_match = re.search(r'(?<![a-zA-Z0-9_])le="([^"]*)"', labels)
    if name.endswith("_bucket") and le_match:
        le = le_match.group(1)
        group = (labels[: le_match.start()] + labels[le_match.end():])
        bound = float("inf") if le == "+Inf" else float(le)
        return (group.strip("{},"), 0, bound)
    rank = 1 if name.endswith("_sum") else 2
    return (labels.strip("{},"), rank, 0.0)


def render_prometheus(snapshot: Dict[str, float], prefix: str = "repro_") -> str:
    """Render a flat snapshot as Prometheus exposition text.

    Derived series keep their own metric names (prefixed); bare
    ``StoreStats`` counter names collapse into one
    ``<prefix>stat{name="..."}`` family so arbitrary counter names
    never produce invalid metric names.
    """
    families: Dict[str, List[Tuple[str, float]]] = {}
    for key in sorted(snapshot):
        value = snapshot[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        name, labels = split_key(key)
        if (
            not labels
            and name not in _STANDALONE_GAUGES
            and not name.endswith(
                ("_total", "_bytes", "_seconds", "_sum", "_count")
            )
        ):
            # Bare counter-bag entry: fold into the generic family.
            families.setdefault(f"{prefix}stat", []).append(
                (sample_key(f"{prefix}stat", name=name), float(value))
            )
            continue
        base = name
        kind = "gauge"
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                base, kind = name[: -len(suffix)], "histogram"
                break
        if kind != "histogram" and name.endswith("_total"):
            kind = "counter"
        fam = f"{prefix}{base}|{kind}"
        families.setdefault(fam, []).append((prefix + key, float(value)))
    lines: List[str] = []
    for fam in sorted(families):
        if "|" in fam:
            fam_name, kind = fam.rsplit("|", 1)
        else:
            fam_name, kind = fam, "counter"
        lines.append(f"# HELP {fam_name} repro series {fam_name}")
        lines.append(f"# TYPE {fam_name} {kind}")
        samples = families[fam]
        if kind == "histogram":
            samples = sorted(samples, key=_histogram_order)
        for key, value in samples:
            lines.append(f"{key} {format_number(value)}")
    return "\n".join(lines) + "\n"


class ServerMetrics:
    """Scrape-time metric derivation for one ``PequodServer``.

    Holds no per-operation state of its own: :meth:`samples` walks the
    engine's status tables, the store's tables, the change hub, and the
    admission controller — structures the server maintains anyway — so
    the instrumented paths pay nothing until someone actually scrapes.
    Extra sources (the RPC layer's histograms, say) register through
    :meth:`add_source`.
    """

    def __init__(self, server) -> None:
        self.server = server
        self._sources: List[Callable[[], Samples]] = []

    def add_source(self, source: Callable[[], Samples]) -> None:
        self._sources.append(source)

    # ------------------------------------------------------------------
    def samples(self) -> Iterator[Tuple[str, float]]:
        """All derived series, as (flat key, value) pairs."""
        server = self.server
        engine = server.engine
        for table, tm in sorted(engine.table_metrics.items()):
            yield sample_key("join_validations_total", table=table), float(tm.validations)
            yield sample_key("join_memo_hits_total", table=table), float(tm.memo_hits)
            yield sample_key("join_fresh_hits_total", table=table), float(tm.fresh_hits)
            yield sample_key("join_computes_total", table=table), float(tm.computes)
            yield sample_key("join_recomputes_total", table=table), float(tm.recomputes)
            yield sample_key("join_pending_applies_total", table=table), float(tm.pending_applies)
            yield sample_key("join_stale_served_total", table=table), float(tm.stale_served)
            yield sample_key("join_stale_age_max_seconds", table=table), float(tm.stale_age_max)
        for table, stable in sorted(engine.status.items()):
            depth = 0
            count = 0
            for sr in stable.ranges():
                count += 1
                depth += len(sr.pending)
            yield sample_key("status_ranges", table=table), float(count)
            yield sample_key("join_status_merges_total", table=table), float(stable.merges)
            yield sample_key("pending_log_depth", table=table), float(depth)
        for name, tbl in sorted(server.store.tables.items()):
            yield sample_key("table_keys", table=name), float(tbl.key_count)
            yield sample_key("table_memory_bytes", table=name), float(tbl.memory_bytes)
        yield "memory_bytes", float(engine.memory_bytes())
        yield "updater_memory_bytes", float(engine.updater_bytes)
        # The compiled write path (fire pins, batched fan-out installs):
        # how many fire pins compiled, how many value-last fires
        # rendered an output key, how installs batch, and the worst
        # fan-out one write has faced.
        stats = engine.stats
        yield "write_plan_compiles_total", stats.get("write_plan_compiles")
        yield "write_plan_fires_total", stats.get("write_plan_fires")
        yield "write_batched_installs_total", stats.get(
            "write_batched_installs"
        )
        yield "write_fanout_max", stats.get("write_fanout_max")
        yield "eviction_memory_limit_bytes", float(server.eviction.limit_bytes or 0)
        hub = server._hub
        if hub is not None:
            yield "watch_watchers", float(hub.watcher_count())
            yield "watch_published_total", float(hub.published)
            yield "watch_delivered_total", float(hub.delivered)
        load = getattr(server, "load", None)
        if load is not None:
            yield "overloaded", 1.0 if load.overloaded else 0.0
            yield "overload_queue_depth", float(load.queue_depth)
        # Persistence: always-present families (zeros before first use)
        # whenever the server has a durable tier, so dashboards need no
        # existence checks.
        persist = getattr(server, "persist", None)
        if persist is not None:
            yield "persist_wal_bytes", float(persist.wal.size)
            yield "persist_wal_synced_bytes", float(persist.wal.synced_size)
            yield "persist_segments", float(len(persist.segments))
            yield "persist_segment_file_bytes", float(persist.bytes() - persist.wal.size)
            yield "persist_checkpoints_total", float(persist.checkpoints)
            yield "persist_recovered_ops_total", float(persist.recovered_ops)
            yield "persist_recovery_ms", float(persist.recovery_ms)
            yield from persist.flush_seconds.samples("persist_flush_seconds")
            yield from persist.compaction_seconds.samples(
                "persist_compaction_seconds", tier="checkpoint"
            )
        # CDC (write-around deployments): feed depth, consumer lag, and
        # the propagation-lag distribution — the freshness story of the
        # asynchronous write path, measured instead of assumed.
        cdc = getattr(server, "cdc", None)
        if cdc is not None:
            feed = cdc.feed
            yield "cdc_feed_high_water", float(feed.high_water)
            yield "cdc_feed_depth", float(feed.pending_records())
            # The database log's bytes: its WAL plus sealed segments.
            log = server.backing.log
            yield "cdc_journal_bytes", float(log.bytes() if log is not None else 0)
            yield "cdc_consumer_lag_records", float(cdc.lag_records)
            yield "cdc_consumer_lag_seconds", float(cdc.lag_seconds())
            yield "cdc_backfill_active", 1.0 if cdc.backfilling else 0.0
            yield "cdc_records_applied_total", float(cdc.records_applied)
            yield "cdc_records_skipped_total", float(cdc.records_skipped)
            yield "cdc_batches_applied_total", float(cdc.batches_applied)
            yield "cdc_backfill_rows_total", float(cdc.backfill_rows)
            yield "cdc_backfill_chunks_total", float(cdc.backfill_chunks)
            yield from cdc.lag.samples("cdc_propagation_lag_seconds")
        for source in self._sources:
            yield from source()

    def snapshot(self) -> Dict[str, float]:
        """Raw ``StoreStats`` counters plus every derived series —
        the ``stats()`` superset every backend returns."""
        out: Dict[str, float] = self.server.stats.snapshot()
        for key, value in self.samples():
            out[key] = value
        return out

    def prometheus(self) -> str:
        return render_prometheus(self.snapshot())


class MetricsHttpServer:
    """A minimal asyncio HTTP endpoint serving ``GET /metrics``.

    Deliberately tiny — one route, HTTP/1.0 close-after-response — so
    ``repro serve --metrics-port`` needs no web framework.  ``render``
    is any zero-argument callable returning exposition text.
    """

    def __init__(self, render: Callable[[], str], host: str = "127.0.0.1", port: int = 0):
        self.render = render
        self.host = host
        self.port = port
        self._server = None

    async def start(self) -> "MetricsHttpServer":
        import asyncio

        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def _handle(self, reader, writer) -> None:
        try:
            request = await reader.readline()
            parts = request.decode("latin-1", "replace").split()
            # Drain headers so well-behaved clients see a clean close.
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            if len(parts) >= 2 and parts[0] == "GET" and parts[1].split("?")[0] == "/metrics":
                body = self.render().encode()
                head = (
                    "HTTP/1.0 200 OK\r\n"
                    "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                )
            else:
                body = b"not found\n"
                head = (
                    "HTTP/1.0 404 Not Found\r\n"
                    "Content-Type: text/plain\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                )
            writer.write(head.encode() + body)
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover - client went away
            pass
        finally:
            writer.close()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
