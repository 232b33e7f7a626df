"""Launch and coordinate a real multi-process Pequod cluster.

:class:`ProcCluster` spawns N cluster-node processes (each a full
:class:`~.procnode.ClusterNodeRuntime`: engine + client endpoint +
peer endpoint), builds a contiguous-range :class:`~.partition_map.
PartitionMap` over their addresses, and installs it everywhere.  It
then acts as the cluster's (only) coordinator: live migrations and
failover promotions go through it, so map-version bumps are
serialized.

Two deployment modes:

* ``in_process=False`` (default) — one OS process per node, spawned
  through the hidden ``repro cluster-node`` CLI entry.  Nodes bind
  ephemeral ports and report them on stdout with a READY line; hard
  kills (``kill -9``) exercise real crash recovery.
* ``in_process=True`` — node runtimes on threads inside the caller's
  process.  Same code paths over real TCP sockets, but startup is
  ~10x faster and coverage/debugging see into the nodes; most tests
  use this.

The coordinator is deliberately *not* highly available: the paper's
prototype drives reconfiguration from the experiment harness, and so
does this reproduction.  What IS resilient is the data plane — killing
a node loses no acknowledged base write (replication) and no watch
events (map-gated exactly-once pushes).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..net.rpc_client import RpcClient
from .partition_map import PartitionMap
from .procnode import ClusterNodeRuntime

#: Seconds to wait for a spawned node's READY line.
READY_TIMEOUT = 30.0


class ClusterError(RuntimeError):
    """A cluster-level coordination failure (spawn, migrate, promote)."""


class _ProcNode:
    """One spawned cluster-node subprocess."""

    def __init__(self, name: str, proc: subprocess.Popen, host: str,
                 port: int, peer_port: int) -> None:
        self.name = name
        self.proc = proc
        self.host = host
        self.port = port
        self.peer_port = peer_port

    def address(self) -> Tuple[str, int, int]:
        return (self.host, self.port, self.peer_port)

    def alive(self) -> bool:
        return self.proc.poll() is None

    def terminate(self) -> None:
        if self.alive():
            self.proc.terminate()

    def kill_hard(self) -> None:
        """``kill -9``: no WAL flush, no goodbye — real crash."""
        if self.alive():
            self.proc.kill()

    def wait(self, timeout: float = 10.0) -> None:
        """Reap the process and close its stdout pipe."""
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(5)
        self.proc.stdout.close()


class _ThreadNode:
    """One in-process node: the same runtime on private threads."""

    def __init__(self, runtime: ClusterNodeRuntime) -> None:
        self.name = runtime.name
        self.runtime = runtime
        self._dead = False

    def address(self) -> Tuple[str, int, int]:
        return self.runtime.address()

    @property
    def host(self) -> str:
        return self.runtime.host

    @property
    def port(self) -> int:
        return self.runtime.port

    @property
    def peer_port(self) -> int:
        return self.runtime.peer_port

    def alive(self) -> bool:
        return not self._dead

    def terminate(self) -> None:
        self._dead = True
        self.runtime.stop()

    def kill_hard(self) -> None:
        # Threads can't be SIGKILLed; stopping the endpoints without
        # draining is the closest in-process approximation — peers and
        # clients see connections drop mid-flight.
        self.terminate()

    def wait(self, timeout: float = 10.0) -> None:
        pass


class ProcCluster:
    """A partitioned, replicated cluster of Pequod processes."""

    def __init__(
        self,
        count: int = 2,
        *,
        tables: Sequence[str] = ("t",),
        splits: Sequence[str] = (),
        replication: int = 2,
        in_process: bool = False,
        host: str = "127.0.0.1",
        data_dir: Optional[str] = None,
        joins: Sequence[str] = (),
        memory_limit: Optional[int] = None,
        mode: str = "write-through",
    ) -> None:
        if count < 1:
            raise ValueError("a cluster needs at least one node")
        self.names = [f"node{i}" for i in range(count)]
        self.tables = list(tables)
        self.splits = list(splits)
        self.replication = min(replication, count)
        self.in_process = in_process
        self.host = host
        self.data_dir = data_dir
        self.joins = list(joins)
        self.memory_limit = memory_limit
        self.mode = mode
        self.nodes: Dict[str, Any] = {}
        self.map: Optional[PartitionMap] = None
        self._migrate_lock = threading.Lock()
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ProcCluster":
        if self._started:
            return self
        try:
            for name in self.names:
                self.nodes[name] = (
                    self._start_thread_node(name)
                    if self.in_process
                    else self._spawn(name)
                )
            self.map = PartitionMap.for_tables(
                self.names,
                {n: node.address() for n, node in self.nodes.items()},
                tables=self.tables,
                splits=self.splits,
                replication=self.replication,
            )
            wire = self.map.to_wire()
            for name in self.names:
                self._call(name, "install_map", wire)
            for text in self.joins:
                self.add_join(text)
        except BaseException:
            self.stop_all()
            raise
        self._started = True
        return self

    def __enter__(self) -> "ProcCluster":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop_all()

    def _node_data_dir(self, name: str) -> Optional[str]:
        if self.data_dir is None:
            return None
        path = os.path.join(self.data_dir, name)
        os.makedirs(path, exist_ok=True)
        return path

    def _start_thread_node(self, name: str) -> _ThreadNode:
        runtime = ClusterNodeRuntime(
            name,
            host=self.host,
            server_kwargs={
                "data_dir": self._node_data_dir(name),
                "memory_limit": self.memory_limit,
                "mode": self.mode,
            },
        )
        runtime.start_threaded()
        return _ThreadNode(runtime)

    def _spawn(self, name: str) -> _ProcNode:
        cmd = [
            sys.executable, "-m", "repro", "cluster-node",
            "--name", name, "--host", self.host,
        ]
        node_dir = self._node_data_dir(name)
        if node_dir is not None:
            cmd += ["--data-dir", node_dir]
        if self.memory_limit is not None:
            cmd += ["--memory-limit", str(self.memory_limit)]
        if self.mode != "write-through":
            cmd += ["--mode", self.mode]
        env = dict(os.environ)
        # The child must resolve the same `repro` package as the
        # parent, venv or no venv.
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, env=env, text=True, bufsize=1,
        )
        deadline = time.monotonic() + READY_TIMEOUT
        while True:
            if proc.poll() is not None:
                proc.stdout.close()
                raise ClusterError(
                    f"cluster node {name} exited with {proc.returncode} "
                    f"before READY"
                )
            line = proc.stdout.readline()
            if not line:
                if time.monotonic() > deadline:
                    proc.kill()
                    proc.wait()
                    proc.stdout.close()
                    raise ClusterError(f"cluster node {name}: READY timeout")
                continue
            try:
                ready = json.loads(line)
            except ValueError:
                continue  # stray startup output
            if ready.get("ready"):
                return _ProcNode(
                    name, proc, self.host, ready["port"], ready["peer_port"]
                )

    def stop_all(self) -> None:
        for node in self.nodes.values():
            node.terminate()
        for node in self.nodes.values():
            node.wait()
        self.nodes.clear()
        self._started = False

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def live_names(self) -> List[str]:
        return [n for n, node in self.nodes.items() if node.alive()]

    def addresses(self) -> Dict[str, Tuple[str, int, int]]:
        return {n: node.address() for n, node in self.nodes.items()}

    def client_addresses(self) -> List[Tuple[str, int]]:
        """(host, port) of every live client endpoint — what a
        :class:`~repro.client.procs.ProcClusterClient` bootstraps from."""
        return [
            (node.host, node.port)
            for node in self.nodes.values()
            if node.alive()
        ]

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def _call(self, name: str, method: str, *args, timeout: float = 60.0):
        node = self.nodes[name]

        async def go():
            client = RpcClient(node.host, node.port)
            await client.connect()
            try:
                return await asyncio.wait_for(
                    client.call(method, *args), timeout
                )
            finally:
                await client.close()

        return asyncio.run(go())

    def add_join(self, text: str) -> None:
        """Install a cache join on every node (each node runs the full
        join set; §3.2's compute-where-owned placement)."""
        for name in self.live_names():
            self._call(name, "add_join", text)

    def info(self) -> Dict[str, dict]:
        return {n: self._call(n, "cluster_info") for n in self.live_names()}

    def settle(self, timeout: float = 30.0) -> None:
        """Block until inter-node update traffic has drained: every
        node's per-peer sent counters match the receivers' applied
        counters (dead peers excluded pairwise), nothing in flight,
        stable across two polls."""
        deadline = time.monotonic() + timeout
        stable = 0
        while stable < 2:
            live = self.live_names()
            counters = {n: self._call(n, "cluster_settle") for n in live}
            quiet = all(
                c["inflight"] == 0 and c["queued"] == 0 for c in counters.values()
            ) and all(
                counters[src]["sent_to"].get(dst, 0)
                == counters[dst]["applied_from"].get(src, 0)
                for src in live
                for dst in live
                if dst != src
            )
            stable = stable + 1 if quiet else 0
            if stable < 2:
                if time.monotonic() > deadline:
                    raise ClusterError(f"settle timeout: {counters}")
                time.sleep(0.02)

    # ------------------------------------------------------------------
    # Reconfiguration
    # ------------------------------------------------------------------
    def migrate(self, lo: str, hi: str, target: str) -> PartitionMap:
        """Live-migrate ownership of ``[lo, hi)`` to ``target``.

        The source node drives snapshot + tail catch-up + subscription
        handoff (see ``procnode.migrate_out``); this coordinator picks
        the source, builds the new map, and afterwards installs it on
        the bystander nodes.  Serialized: concurrent migrations could
        interleave fences.
        """
        with self._migrate_lock:
            if self.map is None:
                raise ClusterError("cluster has no partition map yet")
            source = self.map.owner_of(lo)
            if source == target:
                return self.map
            new_map = self.map.reassign(lo, hi, target)
            self._call(source, "migrate_range", lo, hi, target,
                       new_map.to_wire())
            self.map = new_map
            wire = new_map.to_wire()
            for name in self.live_names():
                if name not in (source, target):
                    self._call(name, "install_map", wire)
            return new_map

    def fail_over(self, dead: str) -> PartitionMap:
        """Promote replicas over a dead node's ranges.

        The dead node keeps no role: every range it led is promoted to
        its first surviving replica, and live nodes drop subscriptions
        and mirror coverage that depended on it.  Raises if some range
        it led has no replica (data loss would be real — refuse)."""
        with self._migrate_lock:
            if self.map is None:
                raise ClusterError("cluster has no partition map yet")
            node = self.nodes.get(dead)
            if node is not None and node.alive():
                raise ClusterError(f"{dead} is still alive; kill it first")
            new_map = self.map.promote(dead)
            self.map = new_map
            wire = new_map.to_wire()
            for name in self.live_names():
                self._call(name, "install_map", wire, dead)
            return new_map

    def kill(self, name: str, hard: bool = True) -> None:
        """Kill one node (``hard`` = SIGKILL / no flush)."""
        node = self.nodes[name]
        if hard:
            node.kill_hard()
        else:
            node.terminate()
        node.wait()


def run_node(
    name: str,
    host: str = "127.0.0.1",
    port: int = 0,
    peer_port: int = 0,
    data_dir: Optional[str] = None,
    memory_limit: Optional[int] = None,
    mode: str = "write-through",
) -> None:
    """The ``repro cluster-node`` subprocess entry point: start both
    endpoints, print one READY line for the launcher's handshake, and
    serve until SIGTERM/SIGINT."""
    runtime = ClusterNodeRuntime(
        name,
        host=host,
        port=port,
        peer_port=peer_port,
        server_kwargs={
            "data_dir": data_dir,
            "memory_limit": memory_limit,
            "mode": mode,
        },
    )
    runtime.start_threaded()
    print(
        json.dumps(
            {
                "ready": True,
                "name": name,
                "port": runtime.port,
                "peer_port": runtime.peer_port,
                "pid": os.getpid(),
            }
        ),
        flush=True,
    )
    stop = threading.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: stop.set())
    stop.wait()
    runtime.stop()
