"""Deterministic discrete-event network simulation.

The paper's distributed evaluation ran on an EC2 cluster with a 10 Gbps
network (§5.1); this module is the substitute substrate: a discrete-
event simulator with per-link latency and per-byte cost, deterministic
given a seed, so the distributed benchmarks are exactly reproducible.

``SimNetwork`` owns a simulated clock and an event queue.  ``SimHost``s
register message handlers; ``send`` schedules delivery after
``latency + size / bandwidth``, but never before an earlier message on
the same link: each (src, dst) link is first-in-first-out, as the TCP
stream it models is.  Messages between hosts are counted and
sized (via the wire codec) so benchmarks can report network overheads
like the paper's subscription-traffic percentages (§5.5).
"""

from __future__ import annotations

import heapq
import itertools
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.clock import SimClock
from .codec import encode


class SimError(RuntimeError):
    pass


class SimNetwork:
    """Event queue + simulated clock + host registry."""

    def __init__(
        self,
        latency: float = 0.0001,
        bandwidth_bytes_per_sec: float = 1.25e9,  # 10 Gbps
    ) -> None:
        self.clock = SimClock()
        self.latency = latency
        self.bandwidth = bandwidth_bytes_per_sec
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self.hosts: Dict[str, "SimHost"] = {}
        #: Hosts taken down by fault injection; messages to (or already
        #: in flight toward) a down host are dropped, not delivered.
        self.down: set = set()
        #: Extra per-message delay injected by fault injection, on top
        #: of the configured link latency.
        self.extra_latency = 0.0
        #: Optional fault injector: called as (src, dst, kind, body);
        #: returning True drops the message (counted, never delivered).
        self.loss_filter: Optional[Callable[[str, str, str, Any], bool]] = None
        self.messages_dropped = 0
        self.messages_sent = 0
        self.bytes_sent = 0
        #: per (src, dst) message/byte counters for traffic breakdowns
        self.link_bytes: Dict[Tuple[str, str], int] = {}
        self.link_messages: Dict[Tuple[str, str], int] = {}
        #: per message-kind byte counters (client vs subscription traffic,
        #: the §5.5 breakdown)
        self.kind_bytes: Dict[str, int] = {}
        #: per (src, dst) delivery time of the last message scheduled
        #: on the link, which the next one may not precede (FIFO)
        self._link_due: Dict[Tuple[str, str], float] = {}

    # ------------------------------------------------------------------
    def add_host(self, host: "SimHost") -> None:
        if host.name in self.hosts:
            raise SimError(f"duplicate host {host.name!r}")
        self.hosts[host.name] = host

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` ``delay`` simulated seconds from now."""
        if delay < 0:
            raise SimError("cannot schedule into the past")
        heapq.heappush(
            self._queue, (self.clock.now() + delay, next(self._seq), fn)
        )

    def send(
        self,
        src: str,
        dst: str,
        kind: str,
        body: Any,
        size_bytes: Optional[int] = None,
    ) -> None:
        """Deliver ``body`` to ``dst``'s handler after link delay."""
        if dst not in self.hosts:
            raise SimError(f"unknown host {dst!r}")
        size = size_bytes if size_bytes is not None else len(encode([kind, body]))
        self.account(src, dst, kind, size)
        if dst in self.down or src in self.down:
            self.messages_dropped += 1
            return
        if self.loss_filter is not None and self.loss_filter(src, dst, kind, body):
            self.messages_dropped += 1
            return
        link = (src, dst)
        delay = self.latency + self.extra_latency + size / self.bandwidth
        due = self.clock.now() + delay
        due = self._link_due[link] = max(due, self._link_due.get(link, due))
        deliver = partial(self._deliver, self.hosts[dst], src, kind, body)
        heapq.heappush(self._queue, (due, next(self._seq), deliver))

    def _deliver(self, host: "SimHost", src: str, kind: str, body: Any) -> None:
        # Down-ness is re-checked at delivery time so messages already
        # in flight when a host is killed vanish with it.
        if host.name in self.down:
            self.messages_dropped += 1
            return
        host.deliver(src, kind, body)

    # ------------------------------------------------------------------
    # Fault injection (repro.chaos)
    # ------------------------------------------------------------------
    def kill_host(self, name: str) -> None:
        """Partition ``name`` off: everything to or from it — including
        messages already in flight — is dropped until revived."""
        if name not in self.hosts:
            raise SimError(f"unknown host {name!r}")
        self.down.add(name)

    def revive_host(self, name: str) -> None:
        self.down.discard(name)

    def account(self, src: str, dst: str, kind: str, size: int) -> None:
        """Charge traffic without scheduling a delivery.

        Used for exchanges whose effect is applied synchronously (bulk
        range fetches, §3.3) but whose network cost must still be
        measured.
        """
        self.messages_sent += 1
        self.bytes_sent += size
        link = (src, dst)
        self.link_bytes[link] = self.link_bytes.get(link, 0) + size
        self.link_messages[link] = self.link_messages.get(link, 0) + 1
        self.kind_bytes[kind] = self.kind_bytes.get(kind, 0) + size

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the earliest pending event; returns False when idle."""
        if not self._queue:
            return False
        when, _, fn = heapq.heappop(self._queue)
        if when > self.clock.now():
            self.clock.set(when)
        fn()
        return True

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Drain the event queue; returns number of events processed."""
        processed = 0
        while self.step():
            processed += 1
            if processed >= max_events:
                raise SimError("simulation did not quiesce")
        return processed

    def run_for(self, seconds: float) -> int:
        """Process events up to ``now + seconds``; advances the clock."""
        deadline = self.clock.now() + seconds
        processed = 0
        while self._queue and self._queue[0][0] <= deadline:
            self.step()
            processed += 1
        self.clock.set(max(self.clock.now(), deadline))
        return processed

    def pending(self) -> int:
        return len(self._queue)

    def now(self) -> float:
        return self.clock.now()


class SimHost:
    """A named endpoint on the simulated network.

    Subclasses or owners register handlers per message kind with
    :meth:`on`; unhandled kinds raise, keeping protocol drift loud.
    """

    def __init__(self, net: SimNetwork, name: str) -> None:
        self.net = net
        self.name = name
        self._handlers: Dict[str, Callable[[str, Any], None]] = {}
        self.received = 0
        net.add_host(self)

    def on(self, kind: str, handler: Callable[[str, Any], None]) -> None:
        self._handlers[kind] = handler

    def send(self, dst: str, kind: str, body: Any, size_bytes: Optional[int] = None) -> None:
        self.net.send(self.name, dst, kind, body, size_bytes)

    def deliver(self, src: str, kind: str, body: Any) -> None:
        self.received += 1
        handler = self._handlers.get(kind)
        if handler is None:
            raise SimError(f"host {self.name!r} has no handler for {kind!r}")
        handler(src, body)
