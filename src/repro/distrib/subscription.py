"""Cross-server base-data subscriptions (paper §2.4).

"When a base key k is read from a server S other than its home server
H, S requests k's value from H.  In addition to returning the value, H
installs a subscription for S to k.  When H receives an update to k's
value, it will send the new value to S."

A subscription is a watch on the home server's
:class:`~repro.core.hub.ChangeHub` — the same range fan-out that
serves client watches — keyed by ``(subscriber, lo, hi)`` (ranges, not
single keys: fetches are containing ranges).  Each covered change goes
to a ``send(dst, updates)`` the deployment supplies, or, inside
:meth:`SubscriptionRegistry.batch`, into an outbox flushed as one
message per subscriber.  Updates travel as asynchronous messages, so
replicas are eventually consistent.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..core.hub import ChangeEvent, ChangeHub, WatchHandle
from ..core.operators import ChangeKind

#: An asynchronous subscription update: (key, old, new, kind).
Update = Tuple[str, Optional[str], Optional[str], ChangeKind]


class SubscriptionRegistry:
    """Home-server side: who mirrors which of my ranges."""

    def __init__(
        self, hub: ChangeHub, send: Callable[[str, List[Update]], None]
    ) -> None:
        self.hub = hub
        self.send = send
        self._watches: Dict[Tuple[str, str, str], WatchHandle] = {}
        #: Per subscriber, the seq of the last change pushed to it: a
        #: subscriber holding overlapping ranges still gets one push.
        self._last_seq: Dict[str, int] = {}
        self._outbox: Optional[UpdateBuffer] = None
        self.installed = 0

    def subscribe(self, subscriber: str, lo: str, hi: str) -> None:
        """Record that ``subscriber`` mirrors ``[lo, hi)``."""
        key = (subscriber, lo, hi)
        if key in self._watches:
            return  # idempotent re-subscription
        self._watches[key] = self.hub.watch(
            lo, hi, lambda event: self._deliver(subscriber, event)
        )
        self.installed += 1

    def _deliver(self, subscriber: str, event: ChangeEvent) -> None:
        if self._last_seq.get(subscriber) == event.seq:
            return
        self._last_seq[subscriber] = event.seq
        update = (event.key, event.old, event.new, event.kind)
        if self._outbox is not None:
            self._outbox.add(subscriber, update)
        else:
            self.send(subscriber, [update])

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Collect the pushes of one write batch; on exit, send ONE
        coalesced message per subscriber."""
        self._outbox = UpdateBuffer()
        try:
            yield
        finally:
            outbox, self._outbox = self._outbox, None
            for dst, updates in outbox.flush():
                self.send(dst, updates)

    def unsubscribe(self, subscriber: str, lo: str, hi: str) -> bool:
        handle = self._watches.pop((subscriber, lo, hi), None)
        if handle is None:
            return False
        handle.close()
        return True

    def drop_subscriber(self, subscriber: str) -> int:
        """Remove every subscription ``subscriber`` holds — what a home
        server does when a subscriber crashes (cluster fault injection).
        Returns how many range subscriptions were dropped."""
        doomed = [key for key in self._watches if key[0] == subscriber]
        for key in doomed:
            self._watches.pop(key).close()
        return len(doomed)

    def overlapping(self, lo: str, hi: str) -> List[Tuple[str, str, str]]:
        """Every ``(subscriber, lo, hi)`` whose range intersects
        ``[lo, hi)`` — what a migration source enumerates to hand its
        subscriptions off to the target."""
        return [
            (subscriber, s_lo, s_hi)
            for subscriber, s_lo, s_hi in self._watches
            if s_lo < hi and lo < s_hi
        ]

    def subscription_count(self) -> int:
        return len(self._watches)

    def memory_bytes(self) -> int:
        """Approximate bookkeeping cost (the §5.5 base-server growth)."""
        ranges = Counter((lo, hi) for _subscriber, lo, hi in self._watches)
        return sum(
            64 + len(lo) + len(hi) + 16 * count
            for (lo, hi), count in ranges.items()
        )


def encode_update(update: Update) -> list:
    key, old, new, kind = update
    return [key, old, new, kind.value]


def decode_update(body: list) -> Update:
    key, old, new, kind = body
    return key, old, new, ChangeKind(kind)


def encode_update_batch(updates: List[Update]) -> list:
    return [encode_update(update) for update in updates]


def decode_update_batch(body: list) -> List[Update]:
    return [decode_update(item) for item in body]


class UpdateBuffer:
    """Per-destination coalescing buffer for outbound updates.

    During a batched write a home server collects every subscriber
    notification here instead of sending it; flushing ships ONE
    coalesced message per subscriber.  Updates to the same key
    coalesce last-write-wins — mirrors apply the carried new value
    directly, so a superseded update is pure waste on the wire.
    """

    def __init__(self) -> None:
        self._by_dst: Dict[str, Dict[str, Update]] = {}
        self.coalesced = 0

    def add(self, dst: str, update: Update) -> None:
        buffered = self._by_dst.setdefault(dst, {})
        if update[0] in buffered:
            self.coalesced += 1
        buffered[update[0]] = update

    def __len__(self) -> int:
        return sum(len(buffered) for buffered in self._by_dst.values())

    def __bool__(self) -> bool:
        return bool(self._by_dst)

    def flush(self) -> List[Tuple[str, List[Update]]]:
        """Drain: one (destination, key-ordered updates) pair each."""
        out = [
            (dst, [buffered[key] for key in sorted(buffered)])
            for dst, buffered in self._by_dst.items()
        ]
        self._by_dst.clear()
        return out
