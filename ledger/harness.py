"""Drive one ledger workload end to end and turn what happened into the
named metrics of ``BENCHMARK.json``.

Shape of a run (closed loop: one client, one outstanding request):

1. generate the inputs from the seed (:mod:`ledger.gen`);
2. set up — build the deployment, ``add_join``, load edges and
   prepopulated posts in batches of 256, settle;
3. run the first tenth of the op stream untimed as warm-up;
4. run the rest timed, in ``ROUNDS`` equal rounds, keeping per-op
   latency and a digest per read; every timing metric is computed per
   round and reported as the median over the rounds, so a burst of
   host noise that slows a few rounds does not move it;  between the
   rounds a fixed kernel is timed (:class:`HostSpeed`) and the timing
   metrics are scaled to the speed of a reference host;
5. settle, read the whole state back, close, then replay the stream
   through the naive model (:mod:`ledger.oracle`) to find failed and
   stale ops and compare state digests.

``--trace 1`` instead runs the first fifth of the timed stream twice on
fresh deployments — untraced, then with :mod:`ledger.trace` wrappers
recording spans — and reports the per-layer metrics.
"""

from __future__ import annotations

import gc
import json
from bisect import bisect_left
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter
from typing import Dict, List, NamedTuple, Sequence, Tuple

from . import gen
from .gen import CHECK, KIND_NAMES, LOGIN, POST, SUBSCRIBE, Inputs, Op
from .oracle import BAD_READ, TwipModel, observe, read_back_sha256
from .trace import SPAN_NAMES, Analysis, Tracer
from .workloads import Workload

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
LOAD_BATCH = 256
#: The timed section is cut into this many equal rounds (a constant, so
#: counters repeat exactly).
ROUNDS = 12
#: What :func:`_calibration_kernel` takes on this box when nothing else
#: loads the host: the speed every timing metric is scaled to.
REFERENCE_KERNEL_S = 1.70e-3
#: Kernel runs per calibration point (one point before and after set-up
#: and at each round boundary).
KERNEL_BURST = 8

#: (name, unit, better, regression bound as a share of the median).
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("ops_per_s", "1/s", "higher", 0.25),
    ("check_p50_us", "us", "lower", 0.25),
    ("check_p99_us", "us", "lower", 0.25),
    ("login_p50_us", "us", "lower", 0.25),
    ("login_p95_us", "us", "lower", 0.25),
    ("post_p50_us", "us", "lower", 0.25),
    ("post_p90_us", "us", "lower", 0.25),
    ("subscribe_p50_us", "us", "lower", 0.25),
    ("subscribe_p95_us", "us", "lower", 0.25),
    ("fresh_read_frac", "frac", "higher", 0.02),
    ("store_bytes_per_user_byte", "B/B", "lower", 0.015),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
)

#: Per-layer metrics whose larger values are the better ones; for every
#: other per-layer metric smaller is better.
HIGHER_IS_BETTER = frozenset(
    {
        "core.memo_hit_ratio",
        "core.fresh_hit_ratio",
        "core.whole_table_fastpath_hits",
        "store.hint_hit_ratio",
        "cdc.records_per_batch",
    }
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("client.self_us_per_op", "us"),
    ("net.codec_self_us_per_op", "us"),
    ("net.wire_us_per_op", "us"),
    ("net.bytes_per_op", "B"),
    ("net.frames_per_op", "count"),
    ("core.server_self_us_per_op", "us"),
    ("core.validate_self_us_per_op", "us"),
    ("core.validations_per_read", "count"),
    ("core.memo_hit_ratio", "ratio"),
    ("core.fresh_hit_ratio", "ratio"),
    ("core.pending_applies_per_read", "count"),
    ("core.whole_table_fastpath_hits", "count"),
    ("core.computes_per_read", "count"),
    ("core.recomputes_per_read", "count"),
    ("core.source_keys_per_output", "count"),
    ("core.maintain_self_us_per_write", "us"),
    ("core.updaters_fired_per_write", "count"),
    ("core.outputs_installed_per_write", "count"),
    ("core.plan_fires_per_write", "count"),
    ("core.batched_installs_per_write", "count"),
    ("core.pattern_calls_per_op", "count"),
    ("core.pattern_self_us_per_op", "us"),
    ("core.status_calls_per_op", "count"),
    ("core.status_self_us_per_op", "us"),
    ("core.status_ranges_t", "count"),
    ("core.evict_self_us_per_op", "us"),
    ("core.evictions_per_op", "count"),
    ("core.memory_over_limit_ratio", "ratio"),
    ("store.read_self_us_per_op", "us"),
    ("store.write_self_us_per_write", "us"),
    ("store.calls_per_op", "count"),
    ("store.scanned_items_per_read", "count"),
    ("store.tree_descents_per_op", "count"),
    ("store.hint_hit_ratio", "ratio"),
    ("store.table_bytes_t", "B"),
    ("persist.log_self_us_per_write", "us"),
    ("persist.wal_bytes_per_user_byte", "B/B"),
    ("persist.fsyncs", "count"),
    ("persist.checkpoints", "count"),
    ("persist.checkpoint_s_total", "s"),
    ("persist.checkpoint_stall_max_us", "us"),
    ("persist.recover_s", "s"),
    ("backing.put_self_us_per_write", "us"),
    ("cdc.feed_record_self_us_per_write", "us"),
    ("cdc.pump_self_us_per_op", "us"),
    ("cdc.records_per_batch", "count"),
    ("cdc.skipped_ratio", "ratio"),
    ("cdc.max_lag_records", "count"),
    ("cdc.journal_bytes_per_user_byte", "B/B"),
    ("cdc.recover_s", "s"),
    ("distrib.route_self_us_per_op", "us"),
    ("distrib.node_call_us_per_op", "us"),
    ("distrib.node_calls_per_op", "count"),
    ("distrib.mirror_msgs_per_write", "count"),
    ("distrib.map_refreshes", "count"),
    ("distrib.final_settle_s", "s"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.span_sum_error", "ratio"),
)

#: The tail percentile reported per op kind, beside its median.
TAILS = ((CHECK, 99), (LOGIN, 95), (POST, 90), (SUBSCRIBE, 95))

#: A traced run whose self times do not add up to its op latencies
#: within this share is rejected.
MAX_SPAN_SUM_ERROR = 0.02


class Result(NamedTuple):
    workload: str
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    #: Sample counts behind the latency metrics, exact counters and
    #: digests: what two same-seed runs must agree on.
    detail: Dict[str, object]
    problems: List[str]

    def summary(self) -> Dict[str, object]:
        """The benchmark contract's result object."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }

    def last_line(self) -> str:
        return json.dumps(self.summary())


# ----------------------------------------------------------------------
# Fingerprint
# ----------------------------------------------------------------------
def fingerprint(workload: Workload, inputs: Inputs, seconds: float) -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=HERE, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "cpu_cores": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "workload": workload.name,
        "seconds": seconds,
        "flush_policy": workload.flush_policy,
        "inputs": inputs.fingerprint(),
    }


# ----------------------------------------------------------------------
# Driving a deployment
# ----------------------------------------------------------------------
class Deployment:
    """One built and loaded deployment plus its scratch directory."""

    def __init__(self, workload: Workload, inputs: Inputs) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="data-", dir=OUT_DIR)
        started = perf_counter()
        try:
            self.client, self._close = workload.deploy(self.scratch)
        except BaseException:
            self._drop_scratch()
            raise
        try:
            client = self.client
            client.add_join(gen.TIMELINE_JOIN)
            for pairs in (inputs.edge_pairs, inputs.prepop_pairs):
                for at in range(0, len(pairs), LOAD_BATCH):
                    client.put_many(pairs[at : at + LOAD_BATCH])
            client.settle()
            client.settle_cdc()
        except BaseException:
            self.discard()
            raise
        self.setup_s = perf_counter() - started

    def close(self) -> None:
        """Stop the deployment; its data directory stays."""
        close, self._close = self._close, lambda: None
        close()

    def discard(self) -> None:
        try:
            self.close()
        finally:
            self._drop_scratch()

    def _drop_scratch(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


class Stream:
    """Per-op records of one pass over (part of) the op stream."""

    def __init__(self, ops: Sequence[Op]) -> None:
        self.ops = ops
        n = len(ops)
        self.latency = [0.0] * n
        self.seen_count = [0] * n
        self.seen_digest = [0] * n
        self.errors: List[str] = []

    def drive(self, client, lo: int, hi: int, tracer: Tracer) -> float:
        """Run ops ``[lo, hi)`` back to back; returns elapsed seconds.
        An op that raises is recorded as failed and the loop goes on."""
        ops = self.ops
        latency, seen_count, seen_digest = (
            self.latency, self.seen_count, self.seen_digest,
        )
        scan, put = client.scan, client.put
        started = perf_counter()
        for i in range(lo, hi):
            kind, a, b = ops[i][:3]
            tracer.current_op = i
            rows = None
            t0 = perf_counter()
            try:
                if kind <= CHECK:
                    rows = scan(a, b)
                else:
                    put(a, b)
            except Exception:  # noqa: BLE001 - a failed op, not a failed run
                seen_count[i] = BAD_READ
                if len(self.errors) < 5:
                    self.errors.append(f"op {i}: {traceback.format_exc(limit=2)}")
                continue
            latency[i] = perf_counter() - t0
            if rows is not None:
                seen_count[i], seen_digest[i] = observe(rows, a, b)
        return perf_counter() - started


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
_KERNEL_KEYS = tuple(
    f"t|u{i % 997:04d}|{i * 7919 % 100003:010d}|u{i % 31:04d}"
    for i in range(3000)
)


def _calibration_kernel() -> float:
    """Seconds one pass of a fixed piece of interpreter work takes now:
    dict inserts, a sort, lookups, bisects and a string join over 3000
    timeline-shaped keys.  It calls nothing under ``src/``."""
    started = perf_counter()
    table = {}
    for key in _KERNEL_KEYS:
        table[key] = len(key)
    ordered = sorted(table)
    total = 0
    for key in ordered:
        total += table[key] + bisect_left(ordered, key)
    "".join(map("%s\x00%s\n".__mod__, table.items()))
    return perf_counter() - started


class HostSpeed:
    """How fast this host ran the calibration kernel during one run,
    against the reference.

    The box the ledger was sized on shares its cores with neighbours:
    for minutes at a time everything — a bare loop as much as the
    program — runs 20-60 % slower (README, "Host noise").  The kernel is
    timed in bursts spread over the run; ``factor`` is the reference
    time over the mean kernel time, 1.0 on a quiet reference host and
    below 1 on a slower or busier one.  A timing scaled by it estimates
    what the reference host would have measured."""

    def __init__(self) -> None:
        self.points: List[List[float]] = []

    def sample(self) -> None:
        self.points.append([_calibration_kernel() for _ in range(KERNEL_BURST)])

    def factor(self) -> float:
        samples = [s for point in self.points for s in point]
        # One pre-empted sample reads many times too long; a slow host
        # reads up to about twice.
        ceiling = 2.0 * statistics.median(samples)
        mean = statistics.fmean(min(s, ceiling) for s in samples)
        return REFERENCE_KERNEL_S / mean


def _freeze_heap() -> None:
    """Move everything set-up and warm-up allocated out of the garbage
    collector's reach, so a full collection inside the measured section
    scans what the section allocated and not the whole store (one such
    pause is ~0.2 s here and lands on a random op)."""
    gc.collect()
    gc.freeze()


def _percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sample (NaN if empty)."""
    if not ordered:
        return math.nan
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def _delta(after: Dict[str, float], before: Dict[str, float], key: str) -> float:
    return after.get(key, 0.0) - before.get(key, 0.0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _verify(
    inputs: Inputs, stream: Stream, upto: int, workload: Workload
) -> Tuple[TwipModel, List[int], List[int], List[str]]:
    """Replay ``ops[:upto]`` through the model.  Returns the model (at
    its final state), stale and failed stream indexes, and problems."""
    model = TwipModel(inputs)
    verdict = model.replay(
        stream.ops[:upto], stream.seen_count, stream.seen_digest
    )
    problems = list(stream.errors)
    if verdict.failed:
        problems.append(
            f"{len(verdict.failed)} ops failed the oracle, first at "
            f"stream index {verdict.failed[0]}"
        )
    if verdict.stale and not workload.may_be_stale:
        problems.append(
            f"{len(verdict.stale)} stale reads on a write-through workload"
        )
    return model, verdict.stale, verdict.failed, problems


# ----------------------------------------------------------------------
# The untraced run: end-to-end metrics
# ----------------------------------------------------------------------
def run_end_to_end(workload: Workload, seed: int, seconds: float) -> Result:
    warm, _prefix_end, n_ops = workload.plan(seconds)
    inputs = Inputs(seed, workload.mix, (warm, n_ops - warm))
    tracer = Tracer()  # never installed: the loop only sets current_op
    bounds = [warm + (n_ops - warm) * r // ROUNDS for r in range(ROUNDS + 1)]

    host = HostSpeed()
    host.sample()
    deployment = Deployment(workload, inputs)
    host.sample()
    stream = Stream(inputs.ops)
    try:
        client = deployment.client
        warmup_s = stream.drive(client, 0, warm, tracer)
        _freeze_heap()
        host.sample()
        round_s = []
        for lo, hi in zip(bounds, bounds[1:]):
            round_s.append(stream.drive(client, lo, hi, tracer))
            host.sample()
        started = perf_counter()
        client.settle()
        client.settle_cdc()
        final_settle_s = perf_counter() - started
        stats = client.stats()
        started = perf_counter()
        state_sha = read_back_sha256(client)
        read_back_s = perf_counter() - started
    finally:
        deployment.discard()
        gc.unfreeze()
    peak_rss = _peak_rss_mib()

    started = perf_counter()
    model, stale, failed, problems = _verify(inputs, stream, n_ops, workload)
    model_sha = model.state_sha256()
    oracle_s = perf_counter() - started
    if state_sha != model_sha:
        problems.append(
            f"state_sha256 mismatch: read back {state_sha[:16]}, "
            f"model {model_sha[:16]}"
        )
    failed_set = set(failed)
    timed_failed = [i for i in failed if i >= warm]
    timed_reads = sum(1 for op in inputs.ops[warm:] if op.kind <= CHECK)
    stale_frac = _ratio(sum(1 for i in stale if i >= warm), timed_reads)

    # Per round: successful-op latencies (µs, ascending) by kind.
    rounds: List[Dict[int, List[float]]] = []
    for lo, hi in zip(bounds, bounds[1:]):
        by_kind: Dict[int, List[float]] = {kind: [] for kind, _tail in TAILS}
        for i in range(lo, hi):
            if i not in failed_set:
                by_kind[inputs.ops[i].kind].append(stream.latency[i] * 1e6)
        for samples in by_kind.values():
            samples.sort()
        rounds.append(by_kind)

    metrics: Dict[str, Tuple[float, str]] = {}
    units = {name: unit for name, unit, _b, _bound in END_TO_END}
    per_round: Dict[str, List[object]] = {}
    measured: Dict[str, float] = {}
    speed = host.factor()

    def put(name: str, value: float) -> None:
        metrics[name] = (value, units[name])

    def put_duration(name: str, value: float) -> None:
        """``value`` as the clock read it; reported as the reference
        host would have read it."""
        measured[name] = value
        put(name, value * speed)

    def over_rounds(name: str, values: List[float]) -> float:
        """The median of one figure per round (NaN for a round that saw
        no op of the kind, which happens only at test scale)."""
        per_round[name] = [None if math.isnan(v) else v for v in values]
        return statistics.median([v for v in values if not math.isnan(v)])

    # One outstanding request, no think time: the rate a caller gets is
    # ops over the time spent inside them (the loop's own digest
    # bookkeeping between ops is the benchmark's, not the program's).
    measured["ops_per_s"] = over_rounds(
        "ops_per_s",
        [
            _ratio(sum(map(len, r.values())), sum(map(sum, r.values())) / 1e6)
            for r in rounds
        ],
    )
    put("ops_per_s", measured["ops_per_s"] / speed)
    for kind, tail in TAILS:
        for p in (50, tail):
            name = f"{KIND_NAMES[kind]}_p{p}_us"
            put_duration(
                name, over_rounds(name, [_percentile(r[kind], p) for r in rounds])
            )
    put("fresh_read_frac", 1.0 - stale_frac)
    put(
        "store_bytes_per_user_byte",
        _ratio(stats.get("memory_bytes", 0.0), model.user_bytes),
    )
    put("peak_rss_mb", peak_rss)
    put_duration("setup_s", deployment.setup_s + warmup_s)

    pooled = {
        kind: sorted(x for r in rounds for x in r[kind]) for kind, _tail in TAILS
    }
    detail: Dict[str, object] = {
        "fingerprint": fingerprint(workload, inputs, seconds),
        "samples": {KIND_NAMES[k]: len(v) for k, v in pooled.items()},
        "samples_per_round": {
            KIND_NAMES[k]: [len(r[k]) for r in rounds] for k in pooled
        },
        "host_speed": speed,
        "kernel_ms": [1e3 * statistics.fmean(point) for point in host.points],
        "measured": measured,
        "per_round": per_round,
        "pooled_latency_us": {
            KIND_NAMES[k]: {f"p{p}": _percentile(v, p) for p in (50, 75, 90, 95, 99)}
            for k, v in pooled.items()
        },
        "stale_read_frac": stale_frac,
        "state_sha256": state_sha,
        "model_sha256": model_sha,
        "user_bytes": model.user_bytes,
        "counters": _exact_counters(stats),
        "seconds": {
            "setup": deployment.setup_s,
            "warmup": warmup_s,
            "timed": sum(round_s),
            "rounds": round_s,
            "final_settle": final_settle_s,
            "read_back": read_back_s,
            "oracle": oracle_s,
        },
    }
    return Result(
        workload.name, not problems, n_ops - warm, len(timed_failed),
        metrics, detail, problems,
    )


#: ``stats()`` counters that depend only on the op stream (no clocks,
#: no histograms), so two same-seed runs must agree on them exactly.
_EXACT_PREFIXES = (
    "op_", "join_computes", "join_recomputes", "join_validations",
    "join_memo_hits", "join_fresh_hits", "join_pending_applies",
    "updaters_fired", "outputs_installed", "source_keys_examined",
    "scanned_items", "tree_descents", "hint_hits", "puts", "evictions",
    "memory_bytes", "table_keys", "persist_wal_appended_bytes",
    "persist_checkpoints_total", "cdc_records", "cdc_journal_bytes",
    "write_plan_fires_total", "write_batched_installs_total",
    "status_ranges",
)


def _exact_counters(stats: Dict[str, float]) -> Dict[str, float]:
    return {
        key: value
        for key, value in sorted(stats.items())
        if key.startswith(_EXACT_PREFIXES) and 'node="' not in key
    }


# ----------------------------------------------------------------------
# The traced run: per-layer metrics
# ----------------------------------------------------------------------
def run_traced(workload: Workload, seed: int, seconds: float) -> Result:
    warm, prefix_end, n_ops = workload.plan(seconds)
    inputs = Inputs(seed, workload.mix, (warm, n_ops - warm))
    n_prefix = prefix_end - warm
    tracer = Tracer()

    # Same prefix, no wrappers: the base of bench.trace_overhead_ratio.
    plain = Stream(inputs.ops)
    deployment = Deployment(workload, inputs)
    try:
        plain.drive(deployment.client, 0, warm, tracer)
        _freeze_heap()
        untraced_s = plain.drive(deployment.client, warm, prefix_end, tracer)
    finally:
        deployment.discard()
        gc.unfreeze()

    stream = Stream(inputs.ops)
    tracer.install()
    try:
        deployment = Deployment(workload, inputs)
        try:
            client = deployment.client
            stream.drive(client, 0, warm, tracer)
            _freeze_heap()
            before = client.stats()
            tracer.enabled = True
            traced_s = stream.drive(client, warm, prefix_end, tracer)
            tracer.enabled = False
            after = client.stats()
            started = perf_counter()
            client.settle()
            client.settle_cdc()
            final_settle_s = perf_counter() - started
            final = client.stats()
            deployment.close()
            model, stale, failed, problems = _verify(
                inputs, stream, prefix_end, workload
            )
            recover_s = _reopen(workload, deployment.scratch, model, problems)
        finally:
            deployment.discard()
            gc.unfreeze()
    finally:
        tracer.uninstall()

    analysis = tracer.analyse()
    problems.extend(analysis.unexpected(workload.layers))
    timed_failed = [i for i in failed if i >= warm]
    kinds = [op.kind for op in inputs.ops[warm:prefix_end]]
    reads = sum(1 for kind in kinds if kind <= CHECK)
    writes = n_prefix - reads
    latency_sum = sum(stream.latency[warm:prefix_end])
    span_sum_error = _ratio(
        abs(analysis.all_self_s() - latency_sum) + analysis.clamped_s, latency_sum
    )
    if span_sum_error > MAX_SPAN_SUM_ERROR:
        problems.append(
            f"bench.span_sum_error {span_sum_error:.4f} > {MAX_SPAN_SUM_ERROR}"
        )

    values = _layer_values(
        workload, analysis, before, after, final, model.user_bytes,
        n_prefix, reads, writes, stream, recover_s, final_settle_s,
    )
    values["bench.trace_overhead_ratio"] = _ratio(traced_s, untraced_s)
    values["bench.span_sum_error"] = span_sum_error
    metrics = {name: (float(values[name]), unit) for name, unit in PER_LAYER}

    header = {
        "fingerprint": fingerprint(workload, inputs, seconds),
        "traced_ops": [warm, prefix_end],
        "untraced_prefix_s": untraced_s,
        "traced_prefix_s": traced_s,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    analysis.write(os.path.join(OUT_DIR, f"trace_{workload.name}.json"), header)
    detail: Dict[str, object] = dict(header)
    detail["counters"] = {
        key: _delta(after, before, key) for key in _exact_counters(after)
    }
    total_self = analysis.all_self_s()
    detail["layer_share_of_op"] = {
        layer: round(_ratio(share, total_self), 4)
        for layer, share in analysis.self_s_by_layer().items()
        if share
    }
    detail["calls"] = {
        name: analysis.calls[i]
        for i, name in enumerate(SPAN_NAMES)
        if analysis.calls[i]
    }
    return Result(
        workload.name, not problems, n_prefix, len(timed_failed),
        metrics, detail, problems,
    )


def _reopen(
    workload: Workload, scratch: str, model: TwipModel, problems: List[str]
) -> float:
    """Reopen a durable deployment's directory after the run: every
    acknowledged base write must be readable.  Returns the time to
    construct the reopened server (0 for RAM workloads)."""
    if workload.reopen is None:
        return 0.0
    from repro.client import make_client

    started = perf_counter()
    client = make_client("local", data_dir=scratch, **workload.reopen)
    recover_s = perf_counter() - started
    try:
        client.settle_cdc()
        edges, posts = model.base_rows()
        got = (len(client.scan("s|", "s}")), len(client.scan("p|", "p}")))
        if got != (edges, posts):
            problems.append(
                f"reopened data_dir holds {got} (edges, posts), the model "
                f"acknowledged {(edges, posts)}"
            )
    finally:
        client.close()
    return recover_s


def _layer_values(
    workload: Workload,
    a: Analysis,
    before: Dict[str, float],
    after: Dict[str, float],
    final: Dict[str, float],
    user_bytes: int,
    n_ops: int,
    reads: int,
    writes: int,
    stream: Stream,
    recover_s: float,
    final_settle_s: float,
) -> Dict[str, float]:
    def d(key: str) -> float:
        return _delta(after, before, key)

    def self_us(group: str, per: int) -> float:
        return _ratio(a.group_self_s(group) * 1e6, per)

    t = '{table="t"}'
    validations = d(f"join_validations_total{t}")
    call_spans = a.span_calls("RpcClient.call")
    on_nodes = "distrib" in workload.layers
    stalled = a.ops_containing("PersistenceManager.checkpoint")
    durable_wal = workload.reopen is not None and "persist" in workload.layers
    journal = workload.reopen is not None and "cdc" in workload.layers
    return {
        "client.self_us_per_op": self_us("client", n_ops),
        "net.codec_self_us_per_op": self_us("net.codec", n_ops),
        "net.wire_us_per_op": self_us("net.call", n_ops),
        "net.bytes_per_op": _ratio(
            a.span_extra("encode_request") + a.span_extra("encode_response"), n_ops
        ),
        "net.frames_per_op": _ratio(
            a.span_calls("encode_request") + a.span_calls("encode_response"), n_ops
        ),
        "core.server_self_us_per_op": self_us("core.server", n_ops),
        "core.validate_self_us_per_op": self_us("core.validate", n_ops),
        "core.validations_per_read": _ratio(validations, reads),
        "core.memo_hit_ratio": _ratio(d(f"join_memo_hits_total{t}"), validations),
        "core.fresh_hit_ratio": _ratio(d(f"join_fresh_hits_total{t}"), validations),
        "core.pending_applies_per_read": _ratio(
            d(f"join_pending_applies_total{t}"), reads
        ),
        "core.whole_table_fastpath_hits": d("write_whole_table_fastpath_hits_total"),
        "core.computes_per_read": _ratio(d(f"join_computes_total{t}"), reads),
        "core.recomputes_per_read": _ratio(d(f"join_recomputes_total{t}"), reads),
        "core.source_keys_per_output": _ratio(
            d("source_keys_examined"), d("outputs_installed")
        ),
        "core.maintain_self_us_per_write": self_us("core.maintain", writes),
        "core.updaters_fired_per_write": _ratio(d("updaters_fired"), writes),
        "core.outputs_installed_per_write": _ratio(d("outputs_installed"), writes),
        "core.plan_fires_per_write": _ratio(d("write_plan_fires_total"), writes),
        "core.batched_installs_per_write": _ratio(
            d("write_batched_installs_total"), writes
        ),
        "core.pattern_calls_per_op": _ratio(a.group_calls("core.pattern"), n_ops),
        "core.pattern_self_us_per_op": self_us("core.pattern", n_ops),
        "core.status_calls_per_op": _ratio(a.group_calls("core.status"), n_ops),
        "core.status_self_us_per_op": self_us("core.status", n_ops),
        "core.status_ranges_t": final.get(f"status_ranges{t}", 0.0),
        "core.evict_self_us_per_op": self_us("core.evict", n_ops),
        "core.evictions_per_op": _ratio(d("evictions"), n_ops),
        "core.memory_over_limit_ratio": _ratio(
            final.get("memory_bytes", 0.0) if workload.memory_limit else 0.0,
            workload.memory_limit,
        ),
        "store.read_self_us_per_op": self_us("store.read", n_ops),
        "store.write_self_us_per_write": self_us("store.write", writes),
        "store.calls_per_op": _ratio(
            a.group_calls("store.read") + a.group_calls("store.write"), n_ops
        ),
        "store.scanned_items_per_read": _ratio(d("scanned_items"), reads),
        "store.tree_descents_per_op": _ratio(d("tree_descents"), n_ops),
        "store.hint_hit_ratio": _ratio(d("hint_hits"), d("puts")),
        "store.table_bytes_t": final.get(f"table_memory_bytes{t}", 0.0),
        "persist.log_self_us_per_write": self_us("persist.log", writes),
        "persist.wal_bytes_per_user_byte": _ratio(
            final.get("persist_wal_appended_bytes", 0.0), user_bytes
        ),
        "persist.fsyncs": d("persist_wal_syncs"),
        "persist.checkpoints": d("persist_checkpoints_total"),
        "persist.checkpoint_s_total": a.span_total_s("PersistenceManager.checkpoint"),
        "persist.checkpoint_stall_max_us": max(
            (stream.latency[i] * 1e6 for i in stalled), default=0.0
        ),
        "persist.recover_s": recover_s if durable_wal else 0.0,
        "backing.put_self_us_per_write": self_us("backing.put", writes),
        "cdc.feed_record_self_us_per_write": self_us("cdc.feed", writes),
        "cdc.pump_self_us_per_op": self_us("cdc.pump", n_ops),
        "cdc.records_per_batch": _ratio(
            d("cdc_records_applied_total"), d("cdc_batches_applied_total")
        ),
        "cdc.skipped_ratio": _ratio(
            d("cdc_records_skipped_total"), d("cdc_records")
        ),
        "cdc.max_lag_records": float(
            a.max_backlog("ChangeFeed.record", "CdcPump.step")
        ),
        "cdc.journal_bytes_per_user_byte": _ratio(
            final.get("cdc_journal_bytes", 0.0), user_bytes
        ),
        "cdc.recover_s": recover_s if journal else 0.0,
        "distrib.route_self_us_per_op": self_us("distrib.route", n_ops),
        "distrib.node_call_us_per_op": _ratio(
            a.span_total_s("RpcClient.call") * 1e6 if on_nodes else 0.0, n_ops
        ),
        "distrib.node_calls_per_op": _ratio(call_spans if on_nodes else 0, n_ops),
        "distrib.mirror_msgs_per_write": _ratio(
            d("cluster_updates_sent_total"), writes
        ),
        "distrib.map_refreshes": float(a.group_calls("distrib.refresh")),
        "distrib.final_settle_s": final_settle_s if on_nodes else 0.0,
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def report(result: Result, traced: bool, out=sys.stdout) -> None:
    """Every metric by name with its unit; latencies with their sample
    counts beside them."""
    mode = "traced (per-layer)" if traced else "untraced (end-to-end)"
    print(f"== {result.workload} · {mode}", file=out)
    samples = result.detail.get("samples", {})
    for name, (value, unit) in result.metrics.items():
        kind = name.split("_", 1)[0]
        beside = f"  n={samples[kind]}" if kind in samples else ""
        print(f"  {name:<38} {value:>16.6g} {unit}{beside}", file=out)
    if traced:
        shares = ", ".join(
            f"{layer} {share:.1%}"
            for layer, share in result.detail["layer_share_of_op"].items()
        )
        print(f"  traced self time by layer: {shares}", file=out)
    else:
        print(
            f"  {'host_speed':<38} {result.detail['host_speed']:>16.6g} ratio"
            "  (timings above are scaled by it to the reference host)",
            file=out,
        )
        print(
            f"  {'stale_read_frac':<38} "
            f"{result.detail['stale_read_frac']:>16.6g} frac", file=out,
        )
        print(f"  state_sha256 {result.detail['state_sha256']}", file=out)
    print(
        f"  ops attempted {result.attempted}, failed {result.failed}", file=out
    )
    for problem in result.problems:
        print(f"  PROBLEM: {problem}", file=out)


def save(result: Result, traced: bool, seed: int) -> None:
    """Write the run's full record (fingerprint, counters, digests,
    metrics) under ``ledger/out/``."""
    os.makedirs(OUT_DIR, exist_ok=True)
    kind = "layers" if traced else "result"
    path = os.path.join(OUT_DIR, f"{kind}_{result.workload}_seed{seed}.json")
    doc = dict(result.detail, problems=result.problems, **result.summary())
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
