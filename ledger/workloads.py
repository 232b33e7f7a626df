"""The six ledger workloads: which deployment each builds, its op mix,
its size, and which layers it is expected to exercise.

Deployments are built through the public client API only
(``repro.client.make_client`` and ``ProcCluster`` +
``ProcClusterClient.for_cluster``).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, FrozenSet, NamedTuple, Optional, Tuple

from .gen import N_USERS, user_name

#: login / subscribe / check / post shares.
MIX_51 = (0.05, 0.09, 0.85, 0.01)  # paper §5.1
MIX_WRITE_HEAVY = (0.05, 0.10, 0.55, 0.30)

#: The issue sized its op counts for 15-25 s timed sections; a run of
#: ``--seconds S`` executes ``full_ops * S / FULL_SECONDS`` ops, so one
#: common factor scales all six workloads.
FULL_SECONDS = 20
#: The first tenth of the scaled op count runs untimed as warm-up — or
#: this many ops per ``--seconds`` second when that is more: the short
#: streams (rpc, evict, procs2) would otherwise leave a quarter of the
#: active users' timelines to be computed inside the timed section.
WARMUP_SHARE = 0.10
WARMUP_MIN_OPS_PER_SECOND = 1000
#: The traced run replays the first fifth of the timed ops.
TRACE_SHARE = 0.20

#: ``twip_mix_evict``: the same stream without a limit ends at 29.6 MB
#: of ``memory_bytes`` — 6.9 MB of base data that cannot be evicted and
#: 22.8 MB of timelines and their updaters — so at this limit 57 % of
#: what can be evicted fits.  The limit is boxed in (README, findings):
#: at 18 MB the server thrashes (1.0k ops/s, memory 2.4x the limit); at
#: 22 MB half the logins find their timeline evicted, so ``login_p50``
#: flips between 0.25 and 2 ms from seed to seed.  Here most logins and
#: 1 % of checks recompute, and the medians sit inside one mode.
EVICT_MEMORY_LIMIT = 20_000_000

#: Layers (packages under ``src/repro``) whose wrappers may fire.
SERVER_LAYERS = frozenset({"core", "store"})
LOCAL_LAYERS = SERVER_LAYERS | {"client.sync", "client.local"}


class Plan(NamedTuple):
    """How one run cuts its op stream: ``[0, warm)`` untimed warm-up,
    ``[warm, n_ops)`` timed, ``[warm, prefix_end)`` replayed traced."""

    warm: int
    prefix_end: int
    n_ops: int


class Workload(NamedTuple):
    name: str
    why: str
    mix: Tuple[float, float, float, float]
    full_ops: int
    #: ``deploy(scratch_dir) -> (client, close)``.
    deploy: Callable[[str], Tuple[object, Callable[[], None]]]
    layers: FrozenSet[str]
    #: Reads may legitimately lag acknowledged writes.
    may_be_stale: bool = False
    #: Server kwargs to reopen ``data_dir`` with after the run.
    reopen: Optional[Dict[str, object]] = None
    memory_limit: int = 0
    flush_policy: str = "none (RAM)"

    def plan(self, seconds: float) -> Plan:
        scaled = max(200, int(self.full_ops * seconds / FULL_SECONDS))
        tenth = int(scaled * WARMUP_SHARE)
        timed = scaled - tenth
        warm = max(tenth, int(WARMUP_MIN_OPS_PER_SECOND * seconds))
        return Plan(warm, warm + int(timed * TRACE_SHARE), warm + timed)


def _local(**server_kwargs):
    def deploy(scratch: str):
        from repro.client import make_client

        kwargs = dict(server_kwargs)
        durable = kwargs.pop("durable", False)
        if durable:
            kwargs["data_dir"] = scratch
        client = make_client("local", **kwargs)

        def close() -> None:
            try:
                if durable:
                    # LocalClient.close() leaves its server open; only
                    # the server's own close flushes the batch-mode
                    # WAL / feed tail (see README, findings).
                    client.server.close()
            finally:
                client.close()

        return client, close

    return deploy


def _rpc(scratch: str):
    """``make_client("rpc")``: the sync facade's loop on this thread,
    the loopback TCP server on a second one — both held on one CPU.

    Left free, the two threads land on different cores and every
    request pays two idle-core wake-ups, whose cost is the scheduler's
    and flips with whatever else keeps the cores awake: the same stream
    ran at 1.7-2.3k ops/s (check p50 310-440 us) or 4.0k (110 us) from
    one run to the next, and at 4.6-5.1k (108-119 us) pinned (README,
    findings).  The server thread inherits the affinity set here."""
    from repro.client import make_client

    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        client = make_client("rpc")
    except BaseException:
        os.sched_setaffinity(0, allowed)
        raise

    def close() -> None:
        try:
            client.close()
        finally:
            os.sched_setaffinity(0, allowed)

    return client, close


def _procs2(scratch: str):
    from repro.client.procs import ProcClusterClient
    from repro.distrib.procs import ProcCluster

    cluster = ProcCluster(
        2,
        tables=("p", "s", "t"),
        splits=(user_name(N_USERS // 2),),
        replication=1,
        in_process=False,
    ).start()
    try:
        client = ProcClusterClient.for_cluster(cluster)
    except BaseException:
        cluster.stop_all()
        raise

    def close() -> None:
        try:
            client.close()
        finally:
            cluster.stop_all()

    return client, close


WORKLOADS = (
    Workload(
        "twip_mix_local",
        "The paper's headline mix with no network: core validation and "
        "store scans do nearly all the work.",
        MIX_51,
        250_000,
        _local(),
        LOCAL_LAYERS,
    ),
    Workload(
        "twip_mix_rpc",
        "The same stream behind client + net over loopback TCP: codec, "
        "framing and sockets dominate, core barely shows.",
        MIX_51,
        50_000,
        _rpc,
        SERVER_LAYERS | {"client.sync", "client.rpc", "net", "net.server"},
    ),
    Workload(
        "fanout_write_durable",
        "30% posts fanning out to up to 1.1k timelines with a WAL: "
        "maintenance, store inserts and persist carry the run.",
        MIX_WRITE_HEAVY,
        100_000,
        _local(durable=True, wal_fsync="batch"),
        LOCAL_LAYERS | {"persist"},
        reopen={"wal_fsync": "batch"},
        flush_policy='wal_fsync="batch"',
    ),
    Workload(
        "twip_mix_evict",
        "Data larger than the cache: about half the timelines fit, so "
        "eviction and demand recompute do most of the work.",
        MIX_51,
        60_000,
        _local(memory_limit=EVICT_MEMORY_LIMIT),
        LOCAL_LAYERS,
        memory_limit=EVICT_MEMORY_LIMIT,
    ),
    Workload(
        "twip_mix_write_around",
        "The paper's default deployment: writes hit backing + the "
        "durable cdc feed, the pump applies them later, reads can lag.",
        MIX_51,
        250_000,
        _local(durable=True, mode="write-around"),
        LOCAL_LAYERS | {"backing", "cdc"},
        may_be_stale=True,
        reopen={"mode": "write-around"},
        flush_policy='cdc journal, wal_fsync="batch"',
    ),
    Workload(
        "twip_mix_procs2",
        "The only workload through distrib: two node processes split at "
        "the median user, partition-map routing and mirror pushes.",
        MIX_51,
        60_000,
        _procs2,
        frozenset({"client.sync", "net", "distrib"}),
        may_be_stale=True,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
