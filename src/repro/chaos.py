"""Fault injection hooks (`repro.chaos`).

The observability layer's claim is that the system *degrades instead of
collapsing*; these hooks are how the chaos tests (and the CI chaos
lane) make it prove that:

* :class:`RpcChaos` — delay or drop RPC response frames on a live
  ``RpcServer`` (install as ``rpc.chaos``).  A dropped response leaves
  exactly one pipelined request hanging — the shape of a lost frame —
  while earlier and later requests on the window complete.
* :class:`SlowMaintenance` — stall the join engine's maintenance entry
  points (install as ``engine.fault_hook``), the "one hot write fans
  out forever" failure.
* :func:`kill_compute` — kill a cluster compute node mid-workload (the
  node vanishes from the network, in-flight messages and all; routing
  rehashes onto survivors, which demand-recompute from base data).
* :func:`kill_node_process` — the real-process variant: ``kill -9``
  one node of a :class:`~repro.distrib.procs.ProcCluster`; failover
  promotes a replica without losing acknowledged base writes.
* :func:`net_latency` / :func:`net_drop_filter` — degrade the simulated
  network under a workload.
* :func:`crash_server` — hard-kill a durable server: drop everything
  after the last fsync of its WAL (of its database's log, in
  write-around mode), exactly the power-loss contract of the
  configured fsync policy.
* :func:`torn_wal_tail` — tear the WAL mid-record (a crash inside a
  ``write()``): recovery must truncate to the last intact record, not
  refuse to start.
* :class:`CdcLag` (alias ``cdc_lag``) — delay or defer change-feed
  batches on a write-around pump (install as ``pump.chaos``): deferred
  batches redeliver, so the test asserts the at-least-once feed still
  converges to the fault-free oracle's digest.

Every injector counts what it injected, so tests can assert the fault
actually fired and wasn't silently bypassed.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, List, Optional


class RpcChaos:
    """Delay and/or drop encoded RPC response frames.

    Installed as ``RpcServer.chaos``; the server passes each pipelined
    chunk's responses through :meth:`apply` before writing them.

    * ``delay_s`` — sleep this long (wall clock, on the event loop)
      before releasing each chunk's responses.
    * ``drop_every`` — drop every Nth response frame (1-indexed over
      the injector's lifetime); 0 disables dropping.  The dropped
      request's client future simply never resolves — the client-side
      symptom of a lost frame.
    """

    def __init__(self, delay_s: float = 0.0, drop_every: int = 0) -> None:
        if delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        if drop_every < 0:
            raise ValueError("drop_every must be >= 0")
        self.delay_s = delay_s
        self.drop_every = drop_every
        self.frames_seen = 0
        self.frames_dropped = 0
        self.chunks_delayed = 0

    async def apply(self, responses: List[bytes]) -> List[bytes]:
        if self.delay_s and responses:
            self.chunks_delayed += 1
            await asyncio.sleep(self.delay_s)
        if not self.drop_every:
            self.frames_seen += len(responses)
            return responses
        kept: List[bytes] = []
        for frame in responses:
            self.frames_seen += 1
            if self.frames_seen % self.drop_every == 0:
                self.frames_dropped += 1
                continue
            kept.append(frame)
        return kept


class SlowMaintenance:
    """Stall every maintenance pass by ``seconds`` (wall clock).

    Installed as ``JoinEngine.fault_hook``; the engine calls it at each
    notification entry point (per-write and batched).  ``limit`` bounds
    how many stalls fire, so a test can inject a burst of slowness and
    then let the system recover.
    """

    def __init__(self, seconds: float, limit: Optional[int] = None) -> None:
        if seconds < 0:
            raise ValueError("seconds must be >= 0")
        self.seconds = seconds
        self.limit = limit
        self.stalls = 0

    def __call__(self, site: str) -> None:
        if self.limit is not None and self.stalls >= self.limit:
            return
        self.stalls += 1
        if self.seconds:
            time.sleep(self.seconds)

    def install(self, engine) -> "SlowMaintenance":
        engine.fault_hook = self
        return self

    @staticmethod
    def uninstall(engine) -> None:
        engine.fault_hook = None


class CdcLag:
    """Delay and defer change-feed batches on a live CDC pump.

    Installed as ``CdcPump.chaos``; the pump passes each fetched batch
    through the injector before applying it.

    * ``defer_every`` — defer every Nth batch (1-indexed over the
      injector's lifetime); the pump does not ack a deferred batch, so
      the feed *redelivers the same records* on the next step — the
      shape of a lost-then-retried feed delivery.  0 disables.
    * ``delay_s`` — sleep this long (wall clock) before releasing each
      non-deferred batch, inflating measured propagation lag.
    * ``limit`` — stop injecting after this many faults, so a workload
      can suffer a burst and then converge.

    Because the pump's apply path is idempotent (it derives the actual
    old/new from the cache's own store), redelivery converges to the
    same state a fault-free run produces — the chaos convergence test
    asserts exactly that, by digest.
    """

    def __init__(
        self,
        defer_every: int = 0,
        delay_s: float = 0.0,
        limit: Optional[int] = None,
    ) -> None:
        if defer_every < 0:
            raise ValueError("defer_every must be >= 0")
        if delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        self.defer_every = defer_every
        self.delay_s = delay_s
        self.limit = limit
        self.batches_seen = 0
        self.batches_deferred = 0
        self.delays = 0

    def __call__(self, records: List) -> Optional[List]:
        self.batches_seen = seen = self.batches_seen + 1
        faults = self.batches_deferred + self.delays
        if self.limit is not None and faults >= self.limit:
            return records
        if self.defer_every and seen % self.defer_every == 0:
            self.batches_deferred += 1
            return None
        if self.delay_s:
            self.delays += 1
            time.sleep(self.delay_s)
        return records

    def install(self, pump) -> "CdcLag":
        pump.chaos = self
        return self

    @staticmethod
    def uninstall(pump) -> None:
        pump.chaos = None


#: Importable alias matching the injector registry naming used by the
#: chaos tests (``chaos.cdc_lag``).
cdc_lag = CdcLag


def kill_compute(cluster, affinity: Optional[str] = None, name: Optional[str] = None):
    """Kill one compute node mid-workload; returns the killed node.

    Pick the victim by ``affinity`` (the node currently serving that
    user — the worst case for that user's timeline), by ``name``, or
    let the injector take the first live compute node.
    """
    if name is not None:
        return cluster.kill_node(name)
    if affinity is not None:
        return cluster.kill_node(cluster.compute_node_for(affinity))
    live = cluster.live_compute_nodes
    if not live:
        raise RuntimeError("no live compute nodes to kill")
    return cluster.kill_node(live[0])


def kill_node_process(proc_cluster, name: Optional[str] = None) -> str:
    """``kill -9`` one node of a real multi-process cluster.

    The process (or, in-process, its endpoints) dies with no WAL
    flush and no goodbye: peers see connections drop mid-flight and
    clients get transport errors until :meth:`ProcCluster.fail_over`
    promotes a replica.  Returns the victim's name.
    """
    live = proc_cluster.live_names()
    if name is None:
        if not live:
            raise RuntimeError("no live nodes to kill")
        name = live[0]
    elif name not in live:
        raise RuntimeError(f"node {name!r} is not alive")
    proc_cluster.kill(name, hard=True)
    return name


def crash_server(server) -> int:
    """Hard-kill a durable server (``kill -9`` + power loss).

    Unsynced log bytes — the WAL's, or on a write-around server the
    database log's — are discarded, pessimistically assuming they never
    reached the platter, and the server object is left unusable, like
    the process it models.  Returns the number of bytes lost (0 under
    ``fsync="always"``); recovery is opening a fresh server on the same
    ``data_dir``.
    """
    if server.log is None:
        raise ValueError("crash_server needs a server with a data_dir")
    return server.log.simulate_crash()


def torn_wal_tail(data_dir: str, rng) -> int:
    """Truncate the WAL inside its last record (a crash mid-``write``).

    Cuts at a random byte strictly inside the final record, so the tail
    fails the length or CRC check on replay.  Returns bytes torn off;
    0 means the WAL had no records to tear (no fault injected — callers
    should assert against this).
    """
    import os

    from .persist.wal import encode_frame, scan_wal

    path = os.path.join(data_dir, "pequod.wal")
    records, good_offset, _ = scan_wal(path)
    if not records:
        return 0
    size = os.path.getsize(path)
    last_start = good_offset - len(encode_frame(*records[-1]))
    cut = rng.randrange(last_start + 1, size)
    with open(path, "r+b") as fh:
        fh.truncate(cut)
    return size - cut


def net_latency(net, extra_seconds: float) -> None:
    """Add ``extra_seconds`` to every subsequent simulated delivery."""
    if extra_seconds < 0:
        raise ValueError("extra_seconds must be >= 0")
    net.extra_latency = extra_seconds


def net_drop_filter(
    net, should_drop: Callable[[str, str, str, object], bool]
) -> None:
    """Install a message drop predicate ``(src, dst, kind, body)`` on a
    :class:`~repro.net.simnet.SimNetwork` (None clears)."""
    net.loss_filter = should_drop
