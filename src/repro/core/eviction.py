"""Eviction under memory pressure (paper §2.5).

Pequod evicts least-recently-used *ranges*: computed join outputs,
remote subscribed copies, and cached base data.  Evicting a range first
invalidates the computed ranges built on it — the updaters installed
over it name them (:meth:`JoinEngine.invalidate_dependents`) — then
removes its keys.  A dependent recomputes on its next read, which
recomputes or refetches what it reads in turn: the paper's transitive
effect.  The REMOVEs alone would not give it: a copy source's REMOVE
only deletes the derived row, leaving the downstream range VALID and
short.

The engine tracks join status ranges in its LRU automatically.  The
mirrored ranges of a :class:`~repro.core.mirror.MirrorResolver` (remote
copies and cached base data) join the same list as
:class:`~repro.core.mirror.MirroredRange` payloads, so one policy covers
all three kinds of data.  Base data a client wrote is never in the
list: when it alone exceeds the limit, eviction empties the list and
stops.
"""

from __future__ import annotations

from typing import Optional

from .executor import JoinEngine
from .mirror import MirroredRange


class EvictionManager:
    """Coldest-first range eviction over a :class:`JoinEngine`'s LRU."""

    def __init__(
        self, engine: JoinEngine, limit_bytes: Optional[int] = None
    ) -> None:
        self.engine = engine
        self.limit_bytes = limit_bytes
        self.evictions = 0

    def over_limit(self) -> bool:
        return (
            self.limit_bytes is not None
            and self.engine.memory_bytes() > self.limit_bytes
        )

    def maybe_evict(self) -> int:
        """Evict ranges until under the limit; returns count evicted."""
        count = 0
        while self.over_limit():
            if not self.evict_one():
                break
            count += 1
        return count

    def evict_one(self) -> bool:
        """Evict the coldest range; False when nothing is evictable."""
        entry = self.engine.lru.coldest()
        if entry is None:
            return False
        self.engine.lru.remove(entry)
        payload = entry.payload
        if isinstance(payload, MirroredRange):
            payload.evict(self.engine)
        else:
            tbl_name, sr = payload
            self.engine.retire_range(tbl_name, sr)
        self.evictions += 1
        self.engine.stats.add("evictions")
        return True
