"""Fault-injection tests (the CI chaos lane, ``pytest -m chaos``).

Every test here injects a failure through :mod:`repro.chaos` and
asserts two things: the fault demonstrably fired (the injectors count),
and the system *recovered* — output converges to the no-fault oracle."""

import asyncio
import time

import pytest

from repro import PequodServer
from repro.chaos import (
    RpcChaos,
    SlowMaintenance,
    kill_compute,
    net_drop_filter,
    net_latency,
)
from repro.distrib.cluster import Cluster
from repro.net.rpc_client import RpcClient
from repro.net.rpc_server import RpcServer
from repro.net.simnet import SimError, SimHost, SimNetwork

pytestmark = pytest.mark.chaos

TIMELINE = (
    "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"
)
BASE_TABLES = ("p", "s")


# ======================================================================
# Kill a compute node mid-workload (the acceptance-criteria scenario)
# ======================================================================
class TestKillComputeNode:
    USERS = [f"u{i}" for i in range(8)]

    def _build(self):
        cluster = Cluster(2, 3, BASE_TABLES, joins=TIMELINE)
        oracle = PequodServer()
        oracle.add_join(TIMELINE)
        return cluster, oracle

    def _apply(self, cluster, oracle, key, value):
        cluster.put(key, value)
        oracle.put(key, value)

    def _timeline(self, store, user):
        return store.scan(f"t|{user}|", "t|" + user + "}")

    def _cluster_timeline(self, cluster, user):
        return cluster.scan(user, f"t|{user}|", "t|" + user + "}")

    def test_kill_mid_workload_recovers_and_converges(self):
        cluster, oracle = self._build()
        users = self.USERS
        for i, user in enumerate(users):
            self._apply(cluster, oracle, f"s|{user}|{users[(i + 1) % 8]}", "1")
            self._apply(cluster, oracle, f"s|{user}|{users[(i + 3) % 8]}", "1")
        for i, user in enumerate(users):
            self._apply(cluster, oracle, f"p|{user}|{1000 + i:04d}", f"post {i}")
        cluster.settle()
        for user in users:
            self._cluster_timeline(cluster, user)  # warm every compute node

        # --- fault: the node serving u0 dies mid-workload ------------
        victim = kill_compute(cluster, affinity="u0")
        assert victim.name in cluster.dead
        assert victim not in cluster.live_compute_nodes
        assert len(cluster.live_compute_nodes) == 2

        # The workload continues: writes (routed to base homes) land,
        # follow churn leaves lazy pending work, and reads rehash onto
        # the survivors.
        for i, user in enumerate(users):
            self._apply(cluster, oracle, f"p|{user}|{2000 + i:04d}", f"late {i}")
        self._apply(cluster, oracle, "s|u0|u5", "1")
        for user in users:
            assert self._cluster_timeline(cluster, user)

        # --- recovery: converge and match the never-failed oracle ----
        cluster.settle()
        for user in users:
            assert self._cluster_timeline(cluster, user) == self._timeline(
                oracle, user
            ), f"timeline {user} diverged after node kill"

    def test_routing_rehashes_onto_survivors(self):
        cluster, _ = self._build()
        victim = cluster.compute_node_for("u0")
        cluster.kill_node(victim)
        replacement = cluster.compute_node_for("u0")
        assert replacement is not victim
        assert replacement.name not in cluster.dead

    def test_kill_drops_base_subscriptions(self):
        cluster, oracle = self._build()
        self._apply(cluster, oracle, "s|u0|u1", "1")
        self._apply(cluster, oracle, "p|u1|0100", "x")
        self._cluster_timeline(cluster, "u0")
        assert cluster.total_subscriptions() >= 1
        before = cluster.total_subscriptions()
        victim = cluster.compute_node_for("u0")
        cluster.kill_node(victim)
        assert cluster.total_subscriptions() < before

    def test_base_nodes_not_killable(self):
        cluster, _ = self._build()
        with pytest.raises(ValueError):
            cluster.kill_node(cluster.base_nodes[0])

    def test_cannot_kill_last_compute(self):
        cluster = Cluster(1, 1, BASE_TABLES, joins=TIMELINE)
        with pytest.raises(RuntimeError):
            cluster.kill_node(cluster.compute_nodes[0])

    def test_kill_idempotent_and_by_name(self):
        cluster, _ = self._build()
        victim = cluster.compute_nodes[0]
        assert cluster.kill_node(victim.name) is victim
        assert cluster.kill_node(victim) is victim  # already dead: no-op
        assert len(cluster.live_compute_nodes) == 2


# ======================================================================
# RPC frame chaos: delayed and dropped response frames
# ======================================================================
def run(coro):
    return asyncio.new_event_loop().run_until_complete(coro)


async def with_server(fn):
    server = RpcServer(PequodServer())
    await server.start()
    client = RpcClient("127.0.0.1", server.port)
    await client.connect()
    try:
        return await fn(server, client)
    finally:
        await client.close()
        await server.stop()


class TestRpcChaos:
    def test_dropped_frame_hangs_only_its_request(self):
        async def body(server, client):
            await client.put("x|1", "a")
            server.chaos = chaos = RpcChaos(drop_every=3)
            assert await client.call("get", "x|1") == "a"  # frame 1
            assert await client.call("get", "x|1") == "a"  # frame 2
            with pytest.raises(asyncio.TimeoutError):
                # frame 3: response dropped, future never resolves
                await asyncio.wait_for(client.call("get", "x|1"), 0.3)
            assert chaos.frames_dropped == 1
            server.chaos = None
            # Recovery: the connection still serves later requests,
            # and a fresh connection sees consistent data.
            assert await client.ping() == "pong"
            fresh = RpcClient("127.0.0.1", server.port)
            await fresh.connect()
            try:
                assert await fresh.call("get", "x|1") == "a"
            finally:
                await fresh.close()

        run(with_server(body))

    def test_delay_slows_but_completes(self):
        async def body(server, client):
            server.chaos = chaos = RpcChaos(delay_s=0.05)
            start = time.perf_counter()
            assert await client.ping() == "pong"
            assert time.perf_counter() - start >= 0.05
            assert chaos.chunks_delayed >= 1
            assert chaos.frames_dropped == 0

        run(with_server(body))

    def test_invalid_injector_args_rejected(self):
        with pytest.raises(ValueError):
            RpcChaos(delay_s=-1)
        with pytest.raises(ValueError):
            RpcChaos(drop_every=-1)


# ======================================================================
# Slow maintenance: the join engine's write path stalls
# ======================================================================
class TestSlowMaintenance:
    def test_stalls_counted_and_limited(self):
        server = PequodServer()
        server.add_join(TIMELINE)
        sm = SlowMaintenance(0.0, limit=2).install(server.engine)
        for i in range(5):
            server.put(f"p|bob|{i:04d}", "x")
        assert sm.stalls == 2  # the limit bounds the injected burst

    def test_stall_actually_blocks(self):
        server = PequodServer()
        SlowMaintenance(0.02, limit=1).install(server.engine)
        start = time.perf_counter()
        server.put("p|bob|0001", "x")
        assert time.perf_counter() - start >= 0.02
        # Recovered: later writes are not stalled.
        start = time.perf_counter()
        server.put("p|bob|0002", "y")
        assert time.perf_counter() - start < 0.02

    def test_uninstall(self):
        server = PequodServer()
        sm = SlowMaintenance(0.0).install(server.engine)
        server.put("p|a|1", "x")
        assert sm.stalls == 1
        SlowMaintenance.uninstall(server.engine)
        server.put("p|a|2", "y")
        assert sm.stalls == 1

    def test_negative_seconds_rejected(self):
        with pytest.raises(ValueError):
            SlowMaintenance(-0.1)


# ======================================================================
# Simulated-network faults: partitions, latency, targeted loss
# ======================================================================
class TestSimnetChaos:
    def _host(self, net, name):
        host = SimHost(net, name)
        seen = []
        host.on("k", lambda src, body: seen.append(body))
        return host, seen

    def test_in_flight_messages_vanish_with_killed_host(self):
        net = SimNetwork()
        _, seen = self._host(net, "dst")
        self._host(net, "src")
        net.send("src", "dst", "k", "in flight")
        net.kill_host("dst")  # after send, before delivery
        net.run_until_idle()
        assert seen == []
        assert net.messages_dropped == 1

    def test_send_to_down_host_dropped_at_source(self):
        net = SimNetwork()
        _, seen = self._host(net, "dst")
        self._host(net, "src")
        net.kill_host("dst")
        net.send("src", "dst", "k", "x")
        net.run_until_idle()
        assert seen == []
        assert net.messages_dropped == 1

    def test_revive_restores_delivery(self):
        net = SimNetwork()
        _, seen = self._host(net, "dst")
        self._host(net, "src")
        net.kill_host("dst")
        net.revive_host("dst")
        net.send("src", "dst", "k", "back")
        net.run_until_idle()
        assert seen == ["back"]

    def test_kill_unknown_host_rejected(self):
        with pytest.raises(SimError):
            SimNetwork().kill_host("ghost")

    def test_extra_latency_delays_delivery(self):
        net = SimNetwork()
        _, seen = self._host(net, "dst")
        self._host(net, "src")
        net_latency(net, 0.5)
        net.send("src", "dst", "k", "slow")
        net.run_for(0.25)
        assert seen == []  # still in flight
        net.run_until_idle()
        assert seen == ["slow"]
        with pytest.raises(ValueError):
            net_latency(net, -1)

    def test_drop_filter_targets_kinds(self):
        net = SimNetwork()
        host, seen = self._host(net, "dst")
        host.on("keep", lambda src, body: seen.append(body))
        self._host(net, "src")
        net_drop_filter(net, lambda src, dst, kind, body: kind == "k")
        net.send("src", "dst", "k", "lost")
        net.send("src", "dst", "keep", "kept")
        net.run_until_idle()
        assert seen == ["kept"]
        assert net.messages_dropped == 1
        net_drop_filter(net, None)
        net.send("src", "dst", "k", "now fine")
        net.run_until_idle()
        assert seen == ["kept", "now fine"]
