"""Cross-server base-data subscriptions (paper §2.4).

"When a base key k is read from a server S other than its home server
H, S requests k's value from H.  In addition to returning the value, H
installs a subscription for S to k.  When H receives an update to k's
value, it will send the new value to S."

The home side keeps subscriptions in an interval tree (ranges, not
single keys — fetches are containing ranges).  Updates propagate as
asynchronous messages, so replicas are eventually consistent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..core.operators import ChangeKind
from ..store.interval_tree import IntervalTree
from ..store.keys import table_of


class SubscriptionRegistry:
    """Home-server side: who mirrors which of my ranges."""

    def __init__(self) -> None:
        self._by_table: Dict[str, IntervalTree] = {}
        self.installed = 0

    def subscribe(self, subscriber: str, lo: str, hi: str) -> None:
        """Record that ``subscriber`` mirrors ``[lo, hi)``."""
        table = table_of(lo)
        tree = self._by_table.setdefault(table, IntervalTree())
        entry = tree.find_entry(lo, hi)
        if entry is not None and subscriber in entry.payloads:
            return  # idempotent re-subscription
        tree.add(lo, hi, subscriber)
        self.installed += 1

    def unsubscribe(self, subscriber: str, lo: str, hi: str) -> bool:
        table = table_of(lo)
        tree = self._by_table.get(table)
        if tree is None:
            return False
        return tree.discard(lo, hi, subscriber)

    def subscribers_of(self, key: str) -> Set[str]:
        """Every server mirroring ``key``'s range."""
        tree = self._by_table.get(table_of(key))
        if tree is None:
            return set()
        out: Set[str] = set()
        for entry in tree.stab(key):
            out.update(entry.payloads)
        return out

    def drop_subscriber(self, subscriber: str) -> int:
        """Remove every subscription ``subscriber`` holds — what a home
        server does when a subscriber crashes (cluster fault injection).
        Returns how many range subscriptions were dropped."""
        dropped = 0
        for tree in self._by_table.values():
            doomed = [
                (entry.lo, entry.hi)
                for entry in tree.entries()
                if subscriber in entry.payloads
            ]
            for lo, hi in doomed:
                if tree.discard(lo, hi, subscriber):
                    dropped += 1
        return dropped

    def overlapping(self, lo: str, hi: str) -> List[Tuple[str, str, str]]:
        """Every ``(subscriber, lo, hi)`` whose range intersects
        ``[lo, hi)`` — what a migration source enumerates to hand its
        subscriptions off to the target."""
        out: List[Tuple[str, str, str]] = []
        for tree in self._by_table.values():
            for entry in tree.entries():
                if entry.lo < hi and lo < entry.hi:
                    for subscriber in entry.payloads:
                        out.append((subscriber, entry.lo, entry.hi))
        return out

    def subscription_count(self) -> int:
        return sum(t.payload_count() for t in self._by_table.values())

    def memory_bytes(self) -> int:
        """Approximate bookkeeping cost (the §5.5 base-server growth)."""
        total = 0
        for tree in self._by_table.values():
            for entry in tree.entries():
                total += 64 + len(entry.lo) + len(entry.hi)
                total += 16 * len(entry.payloads)
        return total


#: An asynchronous subscription update: (key, old, new, kind).
Update = Tuple[str, Optional[str], Optional[str], ChangeKind]


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
