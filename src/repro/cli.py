"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``serve``  — run a Pequod RPC server on TCP (optionally installing
  joins from a file or the command line);
* ``watch``  — stream committed changes in a key range as the server
  pushes them (§2.4): any backend, or a live ``serve`` instance via
  ``--host``/``--port``; ``--feed`` drives demo Twip writes so the
  stream shows live updates;
* ``demo``   — the quickstart walkthrough, on any backend
  (``--backend local|rpc|cluster``);
* ``bench``  — regenerate one of the paper's Figures 7–10 (``fig7`` /
  ``fig8`` / ``fig9`` / ``fig10``) at ``--scale`` and print its table
  or series; this system's own performance is measured by the ledger
  (``ledger/run.py``);
* ``joins``  — parse and validate a join file, printing the normalized
  forms (a linter for cache-join specs).
"""

from __future__ import annotations

import argparse
import asyncio
import math
import sys
from typing import List, Optional

from . import __version__
from .core.grammar import parse_joins
from .core.server import PequodServer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pequod cache joins (NSDI '14) reproduction",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run a Pequod RPC server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7709)
    serve.add_argument(
        "--join", action="append", default=[],
        help="cache join spec to install at startup (repeatable)",
    )
    serve.add_argument(
        "--join-file", default=None,
        help="file of cache join specs (';'-separated, // comments)",
    )
    serve.add_argument(
        "--subtable", action="append", default=[], metavar="TABLE:DEPTH",
        help="mark a subtable boundary, e.g. t:2 (repeatable)",
    )
    serve.add_argument("--memory-limit", type=int, default=None)
    serve.add_argument(
        "--data-dir", default=None, metavar="DIR",
        help="journal client writes to a WAL under DIR, checkpoint them "
        "into segment files, and recover prior state on startup",
    )
    serve.add_argument(
        "--wal-fsync", choices=["always", "batch", "off"], default="batch",
        help="WAL durability policy (default: batch — fsync every 64 KiB "
        "and on shutdown)",
    )
    serve.add_argument(
        "--mode", choices=["write-through", "write-around"],
        default="write-through",
        help="write deployment (§2): write-through applies writes to the "
        "cache synchronously; write-around routes them to a backing "
        "database whose durable change feed drives cache maintenance "
        "asynchronously (see repro.cdc)",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="also serve Prometheus text on http://HOST:PORT/metrics",
    )
    serve.add_argument(
        "--overload-mode", choices=["shed", "degrade"], default=None,
        help="admission control: shed overloaded work with a typed "
        "error, or degrade reads to bounded staleness",
    )
    serve.add_argument(
        "--max-staleness", type=float, default=None, metavar="SECONDS",
        help="staleness bound for --overload-mode degrade",
    )
    serve.add_argument(
        "--overload-queue-depth", type=int, default=None, metavar="N",
        help="pipelined request depth above which the server is overloaded",
    )
    serve.add_argument(
        "--overload-memory-limit", type=int, default=None, metavar="BYTES",
        help="soft memory ceiling above which the server is overloaded",
    )

    cluster = sub.add_parser(
        "cluster",
        help="run a partitioned multi-process cluster (real TCP scale-out)",
    )
    cluster.add_argument("--nodes", type=int, default=2, metavar="N")
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument(
        "--tables", default="p,s,t", metavar="T1,T2,...",
        help="tables to range-partition across the nodes",
    )
    cluster.add_argument(
        "--splits", default="", metavar="S1,S2,...",
        help="aligned segment cut points within each table "
        "(default: one contiguous slice per table)",
    )
    cluster.add_argument(
        "--replication", type=int, default=2, metavar="K",
        help="copies of each base range (1 = no replicas; default 2)",
    )
    cluster.add_argument(
        "--join", action="append", default=[],
        help="cache join spec to install on every node (repeatable)",
    )
    cluster.add_argument(
        "--join-file", default=None,
        help="file of cache join specs (';'-separated, // comments)",
    )
    cluster.add_argument(
        "--data-dir", default=None, metavar="DIR",
        help="per-node WAL + checkpoints under DIR/<node>",
    )
    cluster.add_argument(
        "--in-process", action="store_true",
        help="run nodes on threads instead of subprocesses (debugging)",
    )
    cluster.add_argument(
        "--mode", choices=["write-through", "write-around"],
        default="write-through",
        help="write deployment on every node (see `repro serve --mode`)",
    )

    # Hidden: the subprocess entry `repro cluster` spawns per node.
    cnode = sub.add_parser("cluster-node")
    cnode.add_argument("--name", required=True)
    cnode.add_argument("--host", default="127.0.0.1")
    cnode.add_argument("--port", type=int, default=0)
    cnode.add_argument("--peer-port", type=int, default=0)
    cnode.add_argument("--data-dir", default=None)
    cnode.add_argument("--memory-limit", type=int, default=None)
    cnode.add_argument(
        "--mode", choices=["write-through", "write-around"],
        default="write-through",
    )

    metrics = sub.add_parser(
        "metrics", help="scrape a running server's metrics"
    )
    metrics.add_argument("--host", default="127.0.0.1")
    metrics.add_argument("--port", type=int, default=7709)
    metrics.add_argument(
        "--cluster", default=None, metavar="HOST:PORT,HOST:PORT,...",
        help="scrape several cluster nodes and merge their series, "
        'each tagged with its node label (stat{node="..."})',
    )
    metrics.add_argument(
        "--format", choices=["table", "prom"], default="table",
        help="table of series, or raw Prometheus exposition text",
    )
    metrics.add_argument(
        "--match", default=None, metavar="SUBSTRING",
        help="only show series whose key contains SUBSTRING",
    )

    watch = sub.add_parser(
        "watch", help="stream committed changes in a key range (server push)"
    )
    watch.add_argument("lo", help="inclusive lower bound of the key range")
    watch.add_argument("hi", help="exclusive upper bound of the key range")
    watch.add_argument(
        "--backend", choices=["local", "rpc", "cluster"], default="rpc",
        help="deployment shape to watch (default: rpc — true server push "
        "over one pipelined TCP connection)",
    )
    watch.add_argument(
        "--host", default=None,
        help="connect to an existing RPC server (e.g. a `repro serve`)",
    )
    watch.add_argument("--port", type=int, default=None)
    watch.add_argument(
        "--count", type=int, default=None,
        help="exit after printing this many events",
    )
    watch.add_argument(
        "--timeout", type=float, default=None,
        help="exit after this many seconds without an event",
    )
    watch.add_argument(
        "--feed", action="store_true",
        help="drive the demo Twip writes so the stream shows live updates",
    )

    demo = sub.add_parser("demo", help="run the quickstart walkthrough")
    demo.add_argument(
        "--backend", choices=["local", "rpc", "cluster"], default="local",
        help="deployment shape to run the walkthrough on",
    )

    bench = sub.add_parser("bench", help="regenerate a paper figure")
    bench.add_argument("experiment", choices=["fig7", "fig8", "fig9", "fig10"])
    bench.add_argument(
        "--scale", type=_positive_scale, default=1.0,
        help="scale factor (> 0) on the canonical figure size",
    )
    bench.add_argument(
        "--json", dest="json_path", default=None, metavar="PATH",
        help="also write the result as JSON",
    )

    joins = sub.add_parser("joins", help="validate a cache-join file")
    joins.add_argument("path")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "cluster-node":
        from .distrib.procs import run_node

        run_node(
            args.name,
            host=args.host,
            port=args.port,
            peer_port=args.peer_port,
            data_dir=args.data_dir,
            memory_limit=args.memory_limit,
            mode=args.mode,
        )
        return 0
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "watch":
        return _cmd_watch(args)
    if args.command == "demo":
        return _cmd_demo(args.backend)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "joins":
        return _cmd_joins(args)
    return 2  # pragma: no cover - argparse enforces the choices


# ----------------------------------------------------------------------
def _positive_scale(text: str) -> float:
    """``bench --scale``: a finite number above zero (argparse exits 2
    on anything else)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text!r}"
        )
    return value


def _scaled(size: int, scale: float, floor: int) -> int:
    """A figure's canonical ``size`` at ``scale``, never below the
    smallest size the figure can run (e.g. two users for a graph)."""
    return max(floor, int(size * scale))


def _overload_policy_from(args):
    """Build an OverloadPolicy from serve flags, or None."""
    if args.overload_mode is None:
        if args.max_staleness is not None or args.overload_queue_depth is not None \
                or args.overload_memory_limit is not None:
            print("overload flags require --overload-mode", file=sys.stderr)
            raise SystemExit(2)
        return None
    from .core.load import OverloadPolicy

    try:
        return OverloadPolicy(
            mode=args.overload_mode,
            max_staleness=args.max_staleness,
            soft_memory_limit=args.overload_memory_limit,
            max_queue_depth=args.overload_queue_depth,
        )
    except ValueError as exc:
        print(f"bad overload policy: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc


def _cmd_serve(args) -> int:
    from .net.rpc_server import RpcServer

    config = {}
    for spec in args.subtable:
        table, _, depth = spec.partition(":")
        if not depth.isdigit():
            print(f"bad --subtable {spec!r}; expected TABLE:DEPTH",
                  file=sys.stderr)
            return 2
        config[table] = int(depth)
    server = PequodServer(
        subtable_config=config or None,
        memory_limit=args.memory_limit,
        overload_policy=_overload_policy_from(args),
        data_dir=args.data_dir,
        wal_fsync=args.wal_fsync,
        mode=args.mode,
    )
    if args.data_dir is not None and server.stats.get("persist_recovered_ops"):
        print(f"recovered {server.stats.get('persist_recovered_ops'):.0f} "
              f"op(s) from {args.data_dir} in "
              f"{server.stats.get('persist_recovery_ms'):.1f} ms")
    texts = list(args.join)
    if args.join_file:
        with open(args.join_file) as fh:
            texts.append(fh.read())
    for text in texts:
        for join in server.add_join(text):
            print(f"installed: {join.text}")

    async def run() -> None:
        import signal

        rpc = RpcServer(server, args.host, args.port)
        await rpc.start()
        print(f"pequod {__version__} listening on {rpc.host}:{rpc.port}")
        if args.metrics_port is not None:
            from .metrics import MetricsHttpServer

            http = MetricsHttpServer(
                server.metrics_text, args.host, args.metrics_port
            )
            await http.start()
            print(
                f"metrics on http://{args.host}:{http.port}/metrics"
            )
        # Graceful shutdown: SIGTERM/SIGINT stop accepting, then flush
        # and close the WAL so every acknowledged write is durable.
        shutdown = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, shutdown.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        serve_task = asyncio.ensure_future(rpc.serve_forever())
        stop_task = asyncio.ensure_future(shutdown.wait())
        try:
            await asyncio.wait(
                (serve_task, stop_task),
                return_when=asyncio.FIRST_COMPLETED,
            )
        finally:
            serve_task.cancel()
            stop_task.cancel()
            await rpc.stop()
            server.close()
            print("shut down cleanly (WAL flushed)")

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("bye")
    return 0


def _cmd_cluster(args) -> int:
    """Run a real multi-process cluster until interrupted."""
    from .distrib.procs import ProcCluster

    texts = list(args.join)
    if args.join_file:
        with open(args.join_file) as fh:
            texts.append(fh.read())
    tables = [t for t in args.tables.split(",") if t]
    splits = [s for s in args.splits.split(",") if s]
    cluster = ProcCluster(
        args.nodes,
        tables=tables,
        splits=splits,
        replication=args.replication,
        in_process=args.in_process,
        host=args.host,
        data_dir=args.data_dir,
        joins=texts,
        mode=args.mode,
    )
    with cluster:
        print(f"pequod {__version__} cluster: {args.nodes} node(s), "
              f"replication {cluster.replication}, "
              f"map v{cluster.map.version} ({len(cluster.map.ranges)} ranges)")
        for name, (host, port, peer_port) in sorted(cluster.addresses().items()):
            print(f"  {name}: client {host}:{port}  peer {host}:{peer_port}")
        for text in texts:
            print(f"  join installed on all nodes: {text.strip()}")
        print("Ctrl-C to stop")
        try:
            import signal

            waiter = __import__("threading").Event()
            signal.signal(signal.SIGTERM, lambda *_: waiter.set())
            waiter.wait()
        except KeyboardInterrupt:
            pass
    print("cluster stopped")
    return 0


def _metrics_cluster(args) -> int:
    """Scrape every node of a process cluster; node-label the series."""
    from .client.base import run_unsuspended
    from .metrics import label_by_node, render_prometheus
    from .net.rpc_client import BlockingRpcClient

    per_node: dict = {}
    for spec in args.cluster.split(","):
        host, _, port = spec.strip().rpartition(":")
        if not host or not port.isdigit():
            print(f"bad --cluster endpoint {spec!r}; expected HOST:PORT",
                  file=sys.stderr)
            return 2
        client = BlockingRpcClient(host, int(port))
        try:
            run_unsuspended(client.connect())
        except OSError as exc:
            print(f"cannot connect to {spec}: {exc}", file=sys.stderr)
            return 1
        try:
            info = run_unsuspended(client.call("cluster_info"))
            name = info["name"] if isinstance(info, dict) else spec
            per_node[name] = run_unsuspended(client.stats())
        finally:
            run_unsuspended(client.close())
    merged = label_by_node(per_node)
    if args.match:
        merged = {k: v for k, v in merged.items() if args.match in k}
    if args.format == "prom":
        sys.stdout.write(render_prometheus(merged))
        return 0
    rows = sorted(merged.items())
    width = max((len(k) for k, _ in rows), default=0)
    for key, value in rows:
        print(f"{key:<{width}}  {value:g}")
    return 0


def _cmd_metrics(args) -> int:
    """Scrape a live ``repro serve`` instance over its RPC port."""
    from .client.base import run_unsuspended
    from .net.rpc_client import BlockingRpcClient

    if args.cluster is not None:
        return _metrics_cluster(args)
    client = BlockingRpcClient(args.host, args.port)
    try:
        run_unsuspended(client.connect())
    except OSError as exc:
        print(f"cannot connect to {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    try:
        if args.format == "prom":
            text = run_unsuspended(client.call("metrics"))
            if args.match:
                text = "\n".join(
                    line for line in text.splitlines() if args.match in line
                ) + "\n"
            sys.stdout.write(text)
            return 0
        snapshot = run_unsuspended(client.stats())
    finally:
        run_unsuspended(client.close())
    rows = sorted(snapshot.items())
    if args.match:
        rows = [(k, v) for k, v in rows if args.match in k]
    width = max((len(k) for k, _ in rows), default=0)
    for key, value in rows:
        print(f"{key:<{width}}  {value:g}")
    return 0


#: Demo writes driven by ``repro watch --feed``: the §2 Twip
#: walkthrough, producing pushed timeline updates.
_FEED_JOIN = (
    "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"
)


async def _watch_feed(client) -> None:
    await client.add_join(_FEED_JOIN)
    await client.put("s|ann|bob", "1")
    await client.scan_prefix("t|ann|")  # materialize: maintenance now pushes
    for tick, message in enumerate(
        ("hello, world!", "pushed, not polled", "freshness is easy")
    ):
        await client.put(f"p|bob|{100 + 20 * tick:04d}", message)
        # Deliver in-flight propagation so deployments with
        # asynchronous maintenance (the cluster) push promptly too.
        await client.settle()


def _cmd_watch(args) -> int:
    from .client import make_async_client

    async def run() -> int:
        kwargs: dict = {}
        if args.host is not None or args.port is not None:
            if args.backend != "rpc":
                print("--host/--port connect to an RPC server; use "
                      "--backend rpc", file=sys.stderr)
                return 2
            kwargs.update(host=args.host, port=args.port)
        if args.backend == "cluster":
            kwargs.update(base_tables=("p", "s"))
        client = await make_async_client(args.backend, **kwargs)
        try:
            watch = await client.watch(args.lo, args.hi)
            print(f"watching [{args.lo!r}, {args.hi!r}) on "
                  f"{client.backend} (server push; Ctrl-C to stop)")
            async def run_feed() -> None:
                try:
                    await _watch_feed(client)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    # A dead feed must not leave the stream hanging
                    # silently: report it and end the watch.
                    print(f"feed failed: {exc}", file=sys.stderr)
                    await watch.close()

            feed = asyncio.ensure_future(run_feed()) if args.feed else None
            seen = 0
            try:
                while args.count is None or seen < args.count:
                    event = await watch.next_event(timeout=args.timeout)
                    if event is None:
                        break  # stream closed, or --timeout with no event
                    seen += 1
                    was = f"  (was {event.old!r})" if event.old is not None else ""
                    print(f"#{event.seq:<6} {event.kind.value:<7} "
                          f"{event.key} = {event.new!r}{was}")
            finally:
                if feed is not None:
                    feed.cancel()
                await watch.close()
            print(f"{seen} event(s)")
            return 0
        finally:
            await client.aclose()

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("bye")
        return 0


def _cmd_demo(backend: str = "local") -> int:
    from .client import join, make_client

    timeline = (
        join("t|<user>|<time>|<poster>")
        .check("s|<user>|<poster>")
        .copy("p|<poster>|<time>")
    )
    with make_client(
        backend,
        joins=timeline,
        subtable_config={"t": 2},
        base_tables=("p", "s"),
    ) as client:
        print(f"backend: {client.backend}")
        client.put("s|ann|bob", "1")
        client.put("p|bob|0100", "hello, world!")
        client.settle()
        print("ann's timeline:", client.scan("t|ann|", "t|ann}"))
        client.put("p|bob|0120", "again")
        client.settle()
        print("after another post:", client.scan("t|ann|", "t|ann}"))
    return 0


def _cmd_bench(args) -> int:
    from .bench.harness import (
        run_figure7,
        run_figure8,
        run_figure9,
        run_figure10,
    )
    from .bench.report import format_series, format_table, normalized

    s = args.scale
    payload: dict = {"experiment": args.experiment, "scale": s}
    if args.experiment == "fig7":
        runs = run_figure7(
            n_users=_scaled(500, s, 2), mean_follows=15,
            total_ops=_scaled(12000, s, 1),
        )
        base = next(r.modeled_us for r in runs if r.name == "pequod")
        rows = [
            (r.name, f"{r.modeled_us / 1e6:.4f} s",
             normalized(r.modeled_us, base))
            for r in runs
        ]
        payload["systems"] = {r.name: r.modeled_us for r in runs}
        print(format_table(["System", "Modeled runtime", "Factor"], rows,
                           title="Figure 7 — Twip system comparison"))
    elif args.experiment == "fig8":
        pcts = (1, 10, 30, 50, 70, 90, 100)
        data = run_figure8(
            n_users=_scaled(200, s, 2), mean_follows=8,
            posts=_scaled(250, s, 1), active_pcts=pcts,
        )
        series = {
            name: [r.modeled_us / 1e3 for r in runs]
            for name, runs in data.items()
        }
        payload["active_pcts"] = list(pcts)
        payload["series_modeled_ms"] = series
        print(format_series("%active", list(pcts), series,
                            title="Figure 8 — materialization (modeled ms)"))
    elif args.experiment == "fig9":
        rates = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
        data = run_figure9(vote_rates=rates, scale=s)
        series = {
            name: [r.modeled_us / 1e3 for r in runs]
            for name, runs in data.items()
        }
        payload["vote_rates"] = list(rates)
        payload["series_modeled_ms"] = series
        print(format_series("vote%", [int(r * 100) for r in rates], series,
                            title="Figure 9 — Newp joins (modeled ms)"))
    else:
        points = run_figure10(
            server_counts=(3, 6, 9, 12), n_users=_scaled(300, s, 2),
            mean_follows=10, total_ops=_scaled(6000, s, 1),
        )
        rows = [
            (p.compute_servers, f"{p.throughput_qps / 1e6:.2f}M",
             f"{p.subscription_fraction * 100:.1f}%")
            for p in points
        ]
        payload["points"] = [
            {
                "compute_servers": p.compute_servers,
                "throughput_qps": p.throughput_qps,
                "subscription_fraction": p.subscription_fraction,
            }
            for p in points
        ]
        print(format_table(["servers", "modeled qps", "sub traffic"], rows,
                           title="Figure 10 — scalability"))
    if args.json_path:
        import json

        try:
            with open(args.json_path, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
        except OSError as exc:
            print(f"cannot write {args.json_path}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {args.json_path}")
    return 0


def _cmd_joins(args) -> int:
    try:
        with open(args.path) as fh:
            joins = parse_joins(fh.read())
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"invalid join spec: {exc}", file=sys.stderr)
        return 1
    # Installation-time validation catches cycles and pull misuse.
    probe = PequodServer()
    for join in joins:
        try:
            probe.add_join(join)
        except Exception as exc:
            print(f"rejected: {join.text}\n  {exc}", file=sys.stderr)
            return 1
        print(f"ok: {join.text}")
    return 0
