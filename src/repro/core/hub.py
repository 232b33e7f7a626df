"""Server-push change streams (paper §2.4): the system's range fan-out.

The paper's servers push updates to subscribers instead of being
polled: home servers keep per-range subscriptions in an interval tree
(here the :class:`~repro.store.range_index.RangeIndex` that also holds
updaters) and forward every covered change (§2.4).
``ChangeHub`` is that machinery, once: a range watcher over one
server's committed changes, feeding

* in-process watchers (the async local client's ``watch`` streams),
* RPC connections (the ``subscribe`` protocol method's push frames),
* cluster-routed watches (one hub per node, filtered by key ownership),
* cross-server mirror subscriptions
  (:class:`~repro.distrib.subscription.SubscriptionRegistry`).

The backing database is not a hub publisher: its changes reach a
cache only through its :class:`~repro.cdc.feed.ChangeFeed` (§2's
"e.g., using Postgres's notify", in the shape of logical replication),
drained by a :class:`~repro.cdc.pump.CdcPump`.

Every committed change — client writes and the outputs the join engine
installs or retracts during maintenance — is stamped with a
server-local, strictly increasing sequence number and delivered to
every watcher whose range covers the key.  Delivery is synchronous
with the commit (the engine's listener hook fires before the write
returns), so a single watcher observes changes exactly once, in commit
order; per key that is key-version order.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..store.range_index import RangeIndex
from .operators import ChangeKind


class ChangeEvent:
    """One committed change, as delivered to watchers.

    ``seq`` is the publishing server's commit sequence number: strictly
    increasing per server, so two events for the same key order by
    version.  ``old``/``new`` are the values before and after; an
    insert has ``old is None``, a remove has ``new is None``.
    """

    __slots__ = ("seq", "key", "old", "new", "kind")

    def __init__(
        self,
        seq: int,
        key: str,
        old: Optional[str],
        new: Optional[str],
        kind: ChangeKind,
    ) -> None:
        self.seq = seq
        self.key = key
        self.old = old
        self.new = new
        self.kind = kind

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ChangeEvent)
            and self.seq == other.seq
            and self.key == other.key
            and self.old == other.old
            and self.new == other.new
            and self.kind == other.kind
        )

    def __hash__(self) -> int:
        return hash((self.seq, self.key, self.kind))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ChangeEvent #{self.seq} {self.kind.value} {self.key!r} "
            f"{self.old!r}->{self.new!r}>"
        )


#: A watcher's delivery callback: receives each covered ChangeEvent.
EventSink = Callable[[ChangeEvent], None]


class WatchHandle:
    """One registered watch range; ``close()`` stops delivery."""

    __slots__ = ("hub", "lo", "hi", "sink", "active")

    def __init__(self, hub: "ChangeHub", lo: str, hi: str, sink: EventSink):
        self.hub = hub
        self.lo = lo
        self.hi = hi
        self.sink = sink
        self.active = True

    def close(self) -> None:
        if self.active:
            self.active = False
            self.hub._drop(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.active else "closed"
        return f"<WatchHandle [{self.lo!r},{self.hi!r}) {state}>"


class ChangeHub:
    """Range watchers over one server's committed changes."""

    def __init__(self) -> None:
        self._index = RangeIndex()
        self.next_seq = 1
        self.published = 0
        self.delivered = 0

    def watch(self, lo: str, hi: str, sink: EventSink) -> WatchHandle:
        """Deliver every future committed change in ``[lo, hi)`` to
        ``sink``, exactly once, in commit order."""
        if not lo < hi:
            raise ValueError(f"empty watch range [{lo!r}, {hi!r})")
        handle = WatchHandle(self, lo, hi, sink)
        self._index.add(lo, hi, handle)
        return handle

    def _drop(self, handle: WatchHandle) -> None:
        self._index.discard(handle.lo, handle.hi, handle)

    def watcher_count(self) -> int:
        return self._index.payload_count()

    def overlapping(self, lo: str, hi: str) -> bool:
        """True when any active watcher's range intersects ``[lo, hi)``
        — what a cluster node checks before deciding whether a
        reconfigured computed range must be rebuilt for its watchers
        (mirror subscriptions cover base tables only, so they never
        match)."""
        return any(
            handle.active
            for entry in self._index.overlapping(lo, hi)
            for handle in entry.payloads
        )

    # ------------------------------------------------------------------
    def publish(
        self,
        key: str,
        old: Optional[str],
        new: Optional[str],
        kind: ChangeKind,
    ) -> int:
        """Stamp one committed change and fan it out; returns the
        number of watchers it reached.  Installed as an engine change
        listener, so it sees client writes and maintained outputs
        alike, in commit order."""
        seq = self.next_seq
        self.next_seq += 1
        self.published += 1
        matched = 0
        event: Optional[ChangeEvent] = None
        for entry in self._index.stab(key):
            for handle in list(entry.payloads):
                if not handle.active:
                    continue
                if event is None:
                    event = ChangeEvent(seq, key, old, new, kind)
                matched += 1
                self.delivered += 1
                handle.sink(event)
        return matched
