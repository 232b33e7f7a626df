"""Mirrored source ranges: missing-data resolution (paper §3.3, §2.4).

A server that lacks some base data fetches the missing range from the
data's home and subscribes there, so the home pushes every later change
(§2.4); §2.5 evicts these copies like any other range.  The mechanism is
the same wherever the home lives — a backing database, a simulated home
server, a peer process — so it lives here once, and a deployment
supplies only three callables:

* ``homes(table, lo, hi)`` — where the slices of ``[lo, hi)`` live, as
  ``(slo, shi, home, held)`` tuples: ``home`` is None for a slice this
  server is home for (never fetched), and ``held`` is True for a slice
  whose rows this server keeps itself (never cleared).  None means the
  table is not mirrored.
* ``fetch(home, table, lo, hi)`` — the rows of ``[lo, hi)`` at
  ``home``, with a subscription installed there.
* ``unsubscribe(home, table, lo, hi)`` — cancel that subscription.

Forgetting a mirror first invalidates what was built on it
(:meth:`~repro.core.executor.JoinEngine.invalidate_dependents`): its
REMOVEs alone would leave those ranges VALID and short, with no
subscription left to fill them again.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..store.keys import table_of
from .executor import Change, DataResolver, JoinEngine
from .operators import ChangeKind
from .status import StatusRange, StatusTable

#: ``(slo, shi, home, held)``: one slice of a range and where it lives.
Slice = Tuple[str, str, Optional[str], bool]


class MirroredRange:
    """The LRU payload of one mirrored range — the only payload that is
    not a join status range.  Evicting it forgets the mirror (§2.5)."""

    __slots__ = ("resolver", "table", "lo", "hi")

    def __init__(self, resolver: "MirrorResolver", table: str, lo: str, hi: str):
        self.resolver = resolver
        self.table = table
        self.lo = lo
        self.hi = hi

    def evict(self, engine: JoinEngine) -> None:
        self.resolver.drop_range(engine, self.table, self.lo, self.hi)


class MirrorResolver(DataResolver):
    """Fetch and subscribe before a join scans a missing source range."""

    def __init__(
        self,
        homes: Callable[[str, str, str], Optional[Sequence[Slice]]],
        fetch: Callable[[str, str, str, str], Iterable[Tuple[str, str]]],
        unsubscribe: Callable[[str, str, str, str], None],
    ) -> None:
        self.homes = homes
        self.fetch = fetch
        self.unsubscribe = unsubscribe
        #: Per table, the mirrored ranges (a disjoint cover, like a
        #: join's status ranges).
        self.presence: Dict[str, StatusTable] = {}
        self.fetches = 0
        self.evicted_ranges = 0

    def covers(self, key: str) -> bool:
        stable = self.presence.get(table_of(key))
        return stable is not None and stable.find(key) is not None

    def covered(self, updates: Iterable[Change]) -> List[Tuple[str, Optional[str]]]:
        """The write batch for the pushed ``updates`` still mirrored:
        ``(key, value)`` pairs, value None for a removal.  A push for a
        range forgotten since it was sent is dropped; the next read
        fetches the range afresh."""
        return [
            (key, None if kind is ChangeKind.REMOVE else (new or ""))
            for key, _old, new, kind in updates
            if self.covers(key)
        ]

    def ensure_range(self, engine: JoinEngine, table: str, lo: str, hi: str) -> None:
        stable = self.presence.get(table)
        gaps = [(lo, hi, None)] if stable is None else stable.pieces(lo, hi)
        for gap_lo, gap_hi, sr in gaps:
            if sr is not None:
                continue
            slices = self.homes(table, gap_lo, gap_hi)
            if slices is None:
                return
            for slo, shi, home, _held in slices:
                if home is None:
                    continue
                rows = self.fetch(home, table, slo, shi)
                tbl = engine.store.table(table)
                for key, value in rows:
                    tbl.put(key, value)
                self.fetches += 1
            if stable is None:
                stable = self.presence[table] = StatusTable()
            fresh = stable.add(StatusRange(gap_lo, gap_hi))
            fresh.lru_entry = engine.lru.add(
                MirroredRange(self, table, gap_lo, gap_hi)
            )

    def drop_range(self, engine: JoinEngine, table: str, lo: str, hi: str) -> None:
        """Forget the mirror of ``[lo, hi)`` (eviction, a dead home):
        coverage, the ranges built on it, rows and subscriptions.
        Slices this server holds itself keep their rows."""
        stable = self.presence.get(table)
        dropped = stable.isolate(lo, hi) if stable is not None else []
        if not dropped:
            return
        for sr in dropped:
            stable.remove(sr)
        engine.invalidate_dependents(table, lo, hi)
        for slo, shi, home, held in self.homes(table, lo, hi) or ():
            if not held:
                engine._clear_range(slo, shi)
            if home is not None:
                self.unsubscribe(home, table, slo, shi)
        self.evicted_ranges += 1
