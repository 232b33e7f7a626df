"""Tests for the discrete-event network simulator."""

import pytest

from repro.apps.twip import TIMELINE_JOIN
from repro.distrib import Cluster
from repro.net.simnet import SimError, SimHost, SimNetwork


class TestEventQueue:
    def test_schedule_order(self):
        net = SimNetwork()
        order = []
        net.schedule(0.3, lambda: order.append("c"))
        net.schedule(0.1, lambda: order.append("a"))
        net.schedule(0.2, lambda: order.append("b"))
        net.run_until_idle()
        assert order == ["a", "b", "c"]
        assert net.now() == pytest.approx(0.3)

    def test_fifo_for_simultaneous_events(self):
        net = SimNetwork()
        order = []
        for i in range(5):
            net.schedule(0.1, lambda i=i: order.append(i))
        net.run_until_idle()
        assert order == [0, 1, 2, 3, 4]

    def test_nested_scheduling(self):
        net = SimNetwork()
        seen = []

        def first():
            seen.append("first")
            net.schedule(0.1, lambda: seen.append("second"))

        net.schedule(0.1, first)
        net.run_until_idle()
        assert seen == ["first", "second"]
        assert net.now() == pytest.approx(0.2)

    def test_negative_delay_rejected(self):
        net = SimNetwork()
        with pytest.raises(SimError):
            net.schedule(-1, lambda: None)

    def test_run_for_stops_at_deadline(self):
        net = SimNetwork()
        seen = []
        net.schedule(0.5, lambda: seen.append("early"))
        net.schedule(2.0, lambda: seen.append("late"))
        net.run_for(1.0)
        assert seen == ["early"]
        assert net.now() == pytest.approx(1.0)
        net.run_until_idle()
        assert seen == ["early", "late"]


class TestMessaging:
    def test_send_and_deliver(self):
        net = SimNetwork()
        a = SimHost(net, "a")
        b = SimHost(net, "b")
        got = []
        b.on("hello", lambda src, body: got.append((src, body)))
        a.send("b", "hello", {"x": 1})
        assert got == []  # not delivered until the clock advances
        net.run_until_idle()
        assert got == [("a", {"x": 1})]

    def test_latency_and_bandwidth_model(self):
        net = SimNetwork(latency=0.010, bandwidth_bytes_per_sec=1000)
        a = SimHost(net, "a")
        b = SimHost(net, "b")
        b.on("data", lambda src, body: None)
        a.send("b", "data", None, size_bytes=500)
        net.run_until_idle()
        # 10ms latency + 500B at 1kB/s = 0.51s
        assert net.now() == pytest.approx(0.510)

    def test_one_link_is_first_in_first_out(self):
        """A small message never overtakes a larger one sent before it
        on the same link, as on the TCP stream the link models."""
        net = SimNetwork(latency=0.010, bandwidth_bytes_per_sec=1000)
        a, b, c = SimHost(net, "a"), SimHost(net, "b"), SimHost(net, "c")
        got = []
        b.on("m", lambda src, body: got.append(body))
        c.on("m", lambda src, body: got.append(body))
        a.send("b", "m", "big", size_bytes=500)
        a.send("b", "m", "small", size_bytes=1)
        a.send("c", "m", "other link", size_bytes=1)
        net.run_until_idle()
        assert got == ["other link", "big", "small"]

    def test_a_reordered_unsubscribe_cannot_resurrect_a_follow(self):
        """A same-value re-put then a remove of ``s|u0|u3``: were the
        REMOVE delivered first, the mirror would keep the follow and
        u3's post would stay in u0's timeline for good."""
        cluster = Cluster(2, 2, ("p", "s"), joins=TIMELINE_JOIN)
        cluster.put("p|u3|0032", "post")
        cluster.put("s|u0|u3", "1")
        assert cluster.scan("u0", "t|u0|", "t|u0}") == [("t|u0|0032|u3", "post")]
        cluster.put("s|u0|u3", "1")
        cluster.remove("s|u0|u3")
        cluster.settle()
        assert cluster.scan("u0", "t|u0|", "t|u0}") == []

    def test_unknown_destination(self):
        net = SimNetwork()
        a = SimHost(net, "a")
        with pytest.raises(SimError):
            a.send("ghost", "hello", None)

    def test_unknown_kind_raises_on_delivery(self):
        net = SimNetwork()
        a = SimHost(net, "a")
        SimHost(net, "b")
        a.send("b", "unhandled", None)
        with pytest.raises(SimError):
            net.run_until_idle()

    def test_duplicate_host_rejected(self):
        net = SimNetwork()
        SimHost(net, "a")
        with pytest.raises(SimError):
            SimHost(net, "a")


class TestAccounting:
    def test_traffic_counters(self):
        net = SimNetwork()
        a = SimHost(net, "a")
        b = SimHost(net, "b")
        b.on("m", lambda src, body: None)
        a.send("b", "m", "payload")
        net.run_until_idle()
        assert net.messages_sent == 1
        assert net.bytes_sent > 0
        assert net.link_messages[("a", "b")] == 1
        assert "m" in net.kind_bytes

    def test_account_without_delivery(self):
        net = SimNetwork()
        SimHost(net, "a")
        net.account("a", "x", "fetch", 1000)
        assert net.bytes_sent == 1000
        assert net.pending() == 0

    def test_kind_byte_breakdown(self):
        net = SimNetwork()
        SimHost(net, "a")
        net.account("a", "b", "client_op", 100)
        net.account("a", "b", "sub_update", 300)
        assert net.kind_bytes == {"client_op": 100, "sub_update": 300}
