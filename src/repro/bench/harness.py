"""Experiment harness: the runnable reproductions of §5's Figures 7–10.

Each ``run_figure*`` function regenerates one figure at a configurable
scale and returns a structured result that the pytest benchmarks under
``benchmarks/`` and ``repro bench`` print from.  The scale parameter
trades fidelity for runtime; shapes (who wins, rough factors, crossover
locations) are stable across scales.  ``run_cluster_scaleout`` runs
Figure 10's scale-out claim on real processes.  This system's own
end-to-end performance is measured by the ledger (``ledger/run.py``),
not here.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

from ..apps.newp import NewpApp
from ..apps.social_graph import SocialGraph, generate_graph
from ..apps.twip import PequodTwipBackend, TIMELINE_JOIN, format_time
from ..apps.workload import (
    NewpWorkload,
    OP_POST,
    TwipWorkload,
    checks_and_posts_workload,
)
from ..baselines import (
    ClientPequodBackend,
    MemcacheLikeBackend,
    RedisLikeBackend,
    SqlViewBackend,
    TwipBackend,
)
from ..core.server import PequodServer
from ..distrib.cluster import Cluster
from ..store.keys import prefix_upper_bound
from .costmodel import CostModel, DEFAULT_MODEL


class SystemRun:
    """One system's measurements for a comparison experiment."""

    def __init__(
        self,
        name: str,
        modeled_us: float,
        wall_s: float,
        counters: Dict[str, float],
    ) -> None:
        self.name = name
        self.modeled_us = modeled_us
        self.wall_s = wall_s
        self.counters = counters

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SystemRun {self.name}: {self.modeled_us:.0f}us>"


def _wall(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# ======================================================================
# Figure 7: system comparison
# ======================================================================
def figure7_backends() -> Dict[str, Callable[[], TwipBackend]]:
    return {
        "pequod": lambda: PequodTwipBackend(),
        "redis": lambda: RedisLikeBackend(),
        "client pequod": lambda: ClientPequodBackend(),
        "memcached": lambda: MemcacheLikeBackend(),
        "postgresql": lambda: SqlViewBackend(),
    }


def run_figure7(
    n_users: int = 500,
    mean_follows: float = 15.0,
    total_ops: int = 12000,
    prepopulated_posts: Optional[int] = None,
    seed: int = 42,
    model: CostModel = DEFAULT_MODEL,
) -> List[SystemRun]:
    """Run the same Twip workload to completion on all five systems.

    Before measurement each backend is loaded with the social graph and
    a body of existing posts (log-follower weighted, §5.1) through its
    normal write path — logins must return "a list of many recent
    tweets", which is where architectures that re-ship whole timelines
    pay.

    Scale note: the paper ran 1.8M users and ~73M operations; at very
    small scales (a few hundred users) Pequod's fixed join-engine
    bookkeeping is not yet amortized and Redis can edge ahead.  From
    roughly 500 users / 12k operations upward the paper's ordering is
    stable (and widens with scale).
    """
    import random as _random

    graph = generate_graph(n_users, mean_follows, seed=seed)
    workload = TwipWorkload(graph, total_ops, seed=seed)
    ops = workload.generate()
    if prepopulated_posts is None:
        prepopulated_posts = n_users
    rng = _random.Random(seed + 1)
    weights = [graph.post_weight(u) for u in graph.users]
    pre_posts = [
        (rng.choices(graph.users, weights)[0], i)
        for i in range(prepopulated_posts)
    ]
    runs: List[SystemRun] = []
    for name, factory in figure7_backends().items():
        backend = factory()
        backend.load_graph(graph.edges)
        for poster, i in pre_posts:
            backend.post(poster, format_time(i), f"old tweet {i} from {poster}")
        backend.reset_meter()
        wall = _wall(lambda: workload.run(backend, ops=ops, load_graph=False))
        counters = backend.meter.snapshot()
        runs.append(SystemRun(name, model.runtime_us(counters), wall, counters))
    runs.sort(key=lambda r: r.modeled_us)
    return runs


# ======================================================================
# Figure 8: materialization strategies
# ======================================================================
def _twip_server(strategy: str) -> PequodServer:
    server = PequodServer(subtable_config={"t": 2, "p": 2, "s": 2})
    if strategy == "none":
        # No materialization: recompute on every read, cache nothing.
        server.add_join(
            "t|<user>|<time>|<poster> = pull "
            "check s|<user>|<poster> copy p|<poster>|<time>"
        )
    else:
        server.add_join(TIMELINE_JOIN)
    return server


def run_figure8_point(
    graph: SocialGraph,
    strategy: str,
    active_pct: int,
    posts: int,
    seed: int = 7,
    model: CostModel = DEFAULT_MODEL,
) -> SystemRun:
    """One (strategy, %active) cell of Figure 8."""
    server = _twip_server(strategy)
    for follower, followee in graph.edges:
        server.put(f"s|{follower}|{followee}", "1")
    if strategy == "full":
        # Full materialization: every timeline computed and maintained
        # up front, active or not.
        for user in graph.users:
            server.scan(f"t|{user}|", prefix_upper_bound(f"t|{user}|"))
    server.stats.reset()
    ops = checks_and_posts_workload(graph, active_pct, posts, seed=seed)
    tick = 0

    def drive() -> None:
        nonlocal tick
        for op in ops:
            tick += 1
            if op.kind == OP_POST:
                server.put(f"p|{op.user}|{format_time(tick)}", f"tweet {tick}")
            else:
                server.scan(f"t|{op.user}|", prefix_upper_bound(f"t|{op.user}|"))

    wall = _wall(drive)
    counters = server.stats.snapshot()
    return SystemRun(strategy, model.runtime_us(counters), wall, counters)


def run_figure8(
    n_users: int = 300,
    mean_follows: float = 10.0,
    posts: int = 600,
    active_pcts: Sequence[int] = (1, 10, 30, 50, 70, 90, 100),
    seed: int = 7,
    model: CostModel = DEFAULT_MODEL,
) -> Dict[str, List[SystemRun]]:
    graph = generate_graph(n_users, mean_follows, seed=seed)
    out: Dict[str, List[SystemRun]] = {"none": [], "full": [], "dynamic": []}
    for strategy in out:
        for pct in active_pcts:
            out[strategy].append(
                run_figure8_point(graph, strategy, pct, posts, seed=seed, model=model)
            )
    return out


# ======================================================================
# Figure 9: Newp interleaved vs non-interleaved joins
# ======================================================================
def run_figure9_point(
    interleaved: bool,
    vote_rate: float,
    scale: float = 1.0,
    seed: int = 9,
    model: CostModel = DEFAULT_MODEL,
) -> SystemRun:
    # Floors keep every positive scale runnable: a session needs an
    # article, and an article an author.
    workload = NewpWorkload(
        n_articles=max(1, int(200 * scale)),
        n_users=max(1, int(100 * scale)),
        n_comments=int(2000 * scale),
        n_votes=int(4000 * scale),
        n_sessions=max(1, int(2000 * scale)),
        vote_rate=vote_rate,
        seed=seed,
    )
    app = NewpApp(interleaved=interleaved)
    workload.prepopulate(app)
    wall = _wall(lambda: workload.run(app))
    counters = app.meter.snapshot()
    name = "interleaved" if interleaved else "non-interleaved"
    return SystemRun(name, model.runtime_us(counters), wall, counters)


def run_figure9(
    vote_rates: Sequence[float] = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0),
    scale: float = 1.0,
    seed: int = 9,
    model: CostModel = DEFAULT_MODEL,
) -> Dict[str, List[SystemRun]]:
    return {
        "interleaved": [
            run_figure9_point(True, rate, scale, seed, model) for rate in vote_rates
        ],
        "non-interleaved": [
            run_figure9_point(False, rate, scale, seed, model) for rate in vote_rates
        ],
    }


# ======================================================================
# Figure 10: distributed scalability
# ======================================================================
class ScalabilityPoint:
    """One cluster size's measurements (§5.5)."""

    def __init__(
        self,
        compute_servers: int,
        throughput_qps: float,
        base_memory: int,
        compute_memory: int,
        subscription_fraction: float,
    ) -> None:
        self.compute_servers = compute_servers
        self.throughput_qps = throughput_qps
        self.base_memory = base_memory
        self.compute_memory = compute_memory
        self.subscription_fraction = subscription_fraction


def run_figure10_point(
    compute_servers: int,
    n_users: int = 300,
    mean_follows: float = 10.0,
    total_ops: int = 6000,
    base_servers: int = 4,
    seed: int = 10,
    model: CostModel = DEFAULT_MODEL,
) -> ScalabilityPoint:
    """Run the fixed Twip workload on a cluster of the given size.

    Mirrors §5.5: base servers absorb writes, compute servers execute
    the timeline join, every user's reads go to one compute server, and
    caches are warmed by logging every user in before measurement.  The
    workload uses the §5.1 mix (timeline checks dominate; 9% new
    subscriptions; 1% posts, log-follower weighted) with incremental
    checks.  The measured bottleneck is compute-server CPU, so modeled
    runtime is the busiest compute server's modeled time and throughput
    is ops / that time.

    Sublinear scaling has the paper's cause: a popular poster's tweets
    are mirrored on — and applied by — every compute server with a
    subscribed reader, so total maintenance work grows with the server
    count while scan work divides across it.
    """
    graph = generate_graph(n_users, mean_follows, seed=seed)
    cluster = Cluster(base_servers, compute_servers, ("p", "s"), joins=TIMELINE_JOIN)
    for follower, followee in graph.edges:
        cluster.put(f"s|{follower}|{followee}", "1")
    # Warm: log every user in (§5.5 warms caches before measuring).
    for user in graph.users:
        cluster.scan(user, f"t|{user}|", prefix_upper_bound(f"t|{user}|"))
    cluster.settle()
    for node in cluster.nodes:
        node.server.stats.reset()
    cluster.net.kind_bytes.clear()

    workload = TwipWorkload(graph, total_ops, active_fraction=1.0, seed=seed)
    ops = workload.generate()
    drive_twip_ops(
        ops,
        put=cluster.put,
        scan_timeline=lambda user, since: cluster.scan(
            user, f"t|{user}|{since}", prefix_upper_bound(f"t|{user}|")
        ),
        settle=cluster.settle,
    )

    busiest_us = max(
        model.runtime_us(node.server.stats.snapshot())
        for node in cluster.compute_nodes
    )
    runtime_s = max(busiest_us / 1e6, 1e-9)
    return ScalabilityPoint(
        compute_servers=compute_servers,
        throughput_qps=len(ops) / runtime_s,
        base_memory=cluster.base_memory_bytes(),
        compute_memory=cluster.compute_memory_bytes(),
        subscription_fraction=cluster.subscription_traffic_fraction(),
    )


def run_figure10(
    server_counts: Sequence[int] = (3, 6, 9, 12),
    **kwargs,
) -> List[ScalabilityPoint]:
    return [run_figure10_point(count, **kwargs) for count in server_counts]


# ======================================================================
# The Twip op-dispatch loop the figure-10 runner drives
# ======================================================================
def drive_twip_ops(
    ops,
    put: Callable[[str, str], object],
    scan_timeline: Callable[[str, str], object],
    settle: Optional[Callable[[], object]] = None,
    settle_every: int = 100,
) -> None:
    """Dispatch a generated Twip op stream onto write/read callables.

    Posts and new subscriptions become puts; logins scan the whole
    timeline and incremental checks scan from the user's last seen
    time (§5.1).  ``settle``, when given, runs every ``settle_every``
    ticks and once at the end — bounding staleness on deployments
    with asynchronous propagation.
    """
    last_seen: Dict[str, str] = {}
    tick = 0
    for op in ops:
        tick += 1
        now = format_time(tick)
        if op.kind == OP_POST:
            put(f"p|{op.user}|{now}", f"tweet {tick} from {op.user}")
        elif op.kind == "subscribe":
            put(f"s|{op.user}|{op.target}", "1")
        else:  # login or incremental check
            since = (
                format_time(0) if op.kind == "login"
                else last_seen.get(op.user, format_time(0))
            )
            scan_timeline(op.user, since)
            last_seen[op.user] = now
        if settle is not None and tick % settle_every == 0:
            settle()
    if settle is not None:
        settle()


# ======================================================================
# Cluster scale-out: real processes, real TCP, partitioned ownership
# ======================================================================
def _percentiles_us(samples: List[float]) -> Dict[str, float]:
    if not samples:
        return {"p50_us": 0.0, "p95_us": 0.0, "p99_us": 0.0}
    ordered = sorted(samples)

    def at(q: float) -> float:
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return round(ordered[index], 1)

    return {"p50_us": at(0.50), "p95_us": at(0.95), "p99_us": at(0.99)}


def run_cluster_scaleout(
    proc_counts: Sequence[int] = (1, 2, 4, 8),
    total_ops: int = 4000,
    depth: int = 32,
    drivers: int = 2,
    n_keys: int = 256,
    value_size: int = 32,
    replication: int = 1,
    in_process: bool = False,
) -> Dict[str, object]:
    """Aggregate throughput and latency of the multi-process cluster
    as nodes are added (the scale-out claim behind Figure 10, run on
    real processes instead of the simulator).

    For each process count a fresh :class:`ProcCluster` is started
    with the base table range-partitioned evenly across the nodes,
    and ``drivers`` separate load-driver *processes* (see
    :mod:`repro.bench.cluster_driver`) split ``total_ops`` between
    them — so neither the nodes nor the drivers ever share a GIL.
    Each point reports aggregate ops/s, per-op p50/p95/p99, and the
    speedup over the single-process point.

    Honesty contract: ``cpu_cores`` is recorded in the result, and
    scaling beyond the core count is *not* expected — on a 1-core
    machine every extra process multiplies coordination cost while
    adding no compute, so the committed artifact documents whatever
    the hardware actually did.
    """
    import json as _json
    import os
    import subprocess
    import sys

    from ..distrib.procs import ProcCluster

    user_width = 4

    def splits_for(count: int) -> List[str]:
        return [
            f"u{int(i * n_keys / count):0{user_width}d}"
            for i in range(1, count)
        ]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    ops_per_driver = max(1, total_ops // drivers)
    points: List[Dict[str, object]] = []
    baseline_rate: Optional[float] = None
    for count in proc_counts:
        with ProcCluster(
            count,
            tables=("p",),
            splits=splits_for(count),
            replication=min(replication, count),
            in_process=in_process,
        ) as cluster:
            endpoints = ",".join(
                f"{host}:{port}" for host, port in cluster.client_addresses()
            )
            procs = [
                subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro.bench.cluster_driver",
                        "--endpoints", endpoints,
                        "--ops", str(ops_per_driver),
                        "--depth", str(depth),
                        "--n-keys", str(n_keys),
                        "--value-size", str(value_size),
                        "--seed", str(seed),
                    ],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                    env=env,
                )
                for seed in range(drivers)
            ]
            results = []
            for proc in procs:
                out, err = proc.communicate(timeout=600)
                if proc.returncode != 0:
                    raise RuntimeError(
                        f"cluster driver failed ({proc.returncode}): {err}"
                    )
                results.append(_json.loads(out))
            # Sanity: the partitioned writes actually landed.
            total = cluster.info()
            stored = sum(node["keys"] for node in total.values())
            assert stored >= n_keys, (
                f"{stored} keys stored across {count} nodes"
            )
        ops_done = sum(r["ops"] for r in results)
        wall = max(r["wall_s"] for r in results)
        rate = ops_done / max(wall, 1e-9)
        if baseline_rate is None:
            baseline_rate = rate
        merged = [l for r in results for l in r["latencies_us"]]
        point: Dict[str, object] = {
            "config": f"procs={count}",
            "processes": count,
            "ops": ops_done,
            "wall_s": round(wall, 4),
            "ops_per_sec": round(rate, 1),
            "speedup": round(rate / baseline_rate, 3),
        }
        point.update(_percentiles_us(merged))
        points.append(point)
    return {
        "workload": {
            "total_ops": total_ops,
            "depth": depth,
            "drivers": drivers,
            "n_keys": n_keys,
            "value_size": value_size,
            "replication": replication,
            "in_process": in_process,
            "op_mix": "1:1 put:scan_prefix",
        },
        "cpu_cores": os.cpu_count(),
        "points": points,
        "max_speedup": max(p["speedup"] for p in points),
    }
