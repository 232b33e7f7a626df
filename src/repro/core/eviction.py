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
all three kinds of data.
"""

from __future__ import annotations

from typing import Optional

from .executor import JoinEngine
from .mirror import MirroredRange

#: Eviction policies: plain LRU (the paper's prototype) and the
#: paper's suggested improvement — weigh reload cost against bytes.
POLICY_LRU = "lru"
POLICY_COST = "cost"


class EvictionManager:
    """Range eviction driving a :class:`JoinEngine`'s tracked ranges.

    ``policy="lru"`` evicts the coldest range (§2.5's prototype
    behaviour).  ``policy="cost"`` examines the ``window`` coldest
    candidates and evicts the one freeing the most bytes per unit of
    recorded recomputation cost — "considering the expected costs of
    reloading a range", the improvement §2.5 proposes.
    """

    def __init__(
        self,
        engine: JoinEngine,
        limit_bytes: Optional[int] = None,
        policy: str = POLICY_LRU,
        window: int = 8,
        spill: bool = False,
    ) -> None:
        if policy not in (POLICY_LRU, POLICY_COST):
            raise ValueError(f"unknown eviction policy {policy!r}")
        self.engine = engine
        self.limit_bytes = limit_bytes
        self.policy = policy
        self.window = window
        #: When the store is disk-backed, memory pressure first *spills*
        #: the coldest range's values to segment files (keys, status
        #: ranges, and validity stay intact — reads just fault values
        #: back in) and only falls back to true §2.5 eviction when
        #: spilling frees nothing.  Cold data stops costing RAM without
        #: paying recomputation on the next read.
        self.spill = spill and engine.store.supports_spill()
        if limit_bytes is not None:
            # The whole-table validity fast path skips the per-range
            # validation walk — including its LRU recency touches, which
            # this manager's coldest-first choice depends on.  A
            # memory-limited engine keeps the walk.
            engine.enable_whole_table_fastpath = False
        self.evictions = 0
        self.spills = 0

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
        """Relieve pressure once: spill a cold range if the store can
        (and the coldest candidate has unspilled values), else evict
        the range chosen by the configured policy."""
        if self.spill and self._spill_one():
            return True
        entry = self._choose()
        if entry is None:
            return self.spill and self.engine.store.spill_all() > 0
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

    def _spill_one(self) -> bool:
        """Spill the coldest not-yet-spilled status range; True if any
        bytes moved to disk."""
        for entry in self.engine.lru:
            if entry.pinned:
                continue
            payload = entry.payload
            if isinstance(payload, MirroredRange):
                continue
            _, sr = payload
            if sr.spilled:
                continue
            sr.spilled = True  # even if nothing moved: don't rescan it
            freed = self.engine.store.spill_range(sr.lo, sr.hi)
            if freed > 0:
                self.spills += 1
                self.engine.stats.add("spill_evictions")
                return True
        return False

    def _choose(self):
        if self.policy == POLICY_LRU:
            return self.engine.lru.coldest()
        best = None
        best_score = -1.0
        examined = 0
        for entry in self.engine.lru:
            if entry.pinned:
                continue
            examined += 1
            score = self._score(entry.payload)
            if score > best_score:
                best, best_score = entry, score
            if examined >= self.window:
                break
        return best

    def _score(self, payload) -> float:
        """Bytes freed per unit of recompute cost (higher = evict first)."""
        if isinstance(payload, MirroredRange):
            return 1.0  # remote/base ranges: reload cost is one fetch
        _, sr = payload
        freed = 0
        # Scoring is introspection, not a client scan: the non-counting
        # iteration keeps eviction from inflating read counters.
        for node in self.engine.store.iter_nodes(sr.lo, sr.hi):
            freed += len(node.key) + 64
        return freed / (1.0 + sr.compute_cost)
