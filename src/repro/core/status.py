"""Join status ranges (paper §3.2).

A *join status range* records whether a range of output keys is up to
date with respect to the cache joins whose outputs overlap it.  Status
ranges are attached to output ranges and form a disjoint cover of the
tracked key space: every tracked key belongs to exactly one range.

Each range carries:

* its validity state (``VALID`` / ``INVALID``) and, for snapshot
  joins, an expiry time;
* a *pending log* of partially-invalidating source modifications that
  will be applied lazily when the range is next read (§3.2's partial
  invalidation, after [29]).  The log is an insertion-ordered set of
  :class:`PendingEntry` tuples: a source key written N times between
  reads is logged once, at its first position;
* an LRU entry so eviction can drop cold computed ranges (§2.5);
* the builds it holds, which own the updaters installed on its
  behalf (:class:`Build`).

Ranges split when a query or invalidation touches part of them and
merge again on the next read that spans the pieces
(:meth:`StatusTable.merge_over`), so the cover's size follows the
outstanding partial work, not the history of reads; the paper's
"disjoint cover" is preserved by construction.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..store.lru import LRUEntry
    from .joins import CacheJoin
    from .operators import ChangeKind
    from .updaters import Updater


class RangeState(enum.Enum):
    VALID = "valid"
    INVALID = "invalid"


class PendingEntry(NamedTuple):
    """A logged source modification awaiting lazy application.

    Records enough to re-derive the affected output tuples: the join,
    which source changed, the source key, and the change kind.
    Application re-executes the join with ``key`` pinned against the
    *current* store state, so two equal entries repeat identical work
    and a pending log holds each at most once.
    """

    join: "CacheJoin"
    source_index: int
    key: str
    kind: "ChangeKind"


class Build:
    """One computation of a status range and the updaters installed on
    its behalf (§3.2), owned by every attached range holding it: a
    split hands it to both halves, a merge unites the halves' builds,
    and the last holder to leave the cover uninstalls the updaters.
    ``lo``/``hi`` span the updaters' output bounds."""

    __slots__ = ("lo", "hi", "holders", "updaters")

    def __init__(self, lo: str, hi: str) -> None:
        self.lo = lo
        self.hi = hi
        self.holders = 1
        self.updaters: List["Updater"] = []

    def adopt(self, updater: "Updater") -> None:
        updater.build = self
        self.updaters.append(updater)
        if updater.output_lo < self.lo:
            self.lo = updater.output_lo
        if self.hi < updater.output_hi:
            self.hi = updater.output_hi


class StatusRange:
    """One piece of the disjoint cover; see module docstring."""

    __slots__ = (
        "lo",
        "hi",
        "state",
        "expires_at",
        "pending",
        "lru_entry",
        "builds",
        "attached",
        "validated_at",
    )

    def __init__(self, lo: str, hi: str, state: RangeState = RangeState.VALID) -> None:
        if not lo < hi:
            raise ValueError(f"empty status range [{lo!r}, {hi!r})")
        self.lo = lo
        self.hi = hi
        self.state = state
        self.expires_at: Optional[float] = None
        #: The pending log: an insertion-ordered set (dict keys).
        self.pending: Dict[PendingEntry, None] = {}
        self.lru_entry: Optional["LRUEntry"] = None
        #: The builds this range holds; it owns their updaters.
        self.builds: Tuple[Build, ...] = ()
        #: Is this range currently part of a :class:`StatusTable`'s
        #: cover?  Maintained by the table on add/split/remove.  The
        #: engine's validation memo (§4.2's hint idea applied to
        #: validation) trusts a remembered range only while attached —
        #: eviction flips this off, so stale hints structurally miss
        #: instead of requiring eager memo invalidation.
        self.attached = False
        #: Engine-clock time this range last served a fully validated
        #: read (stamped on compute, recompute, pending application, and
        #: valid touch).  Degrade-mode admission control serves ranges
        #: younger than the staleness bound without re-validation; None
        #: (never validated) always re-validates.
        self.validated_at: Optional[float] = None

    def is_valid_at(self, now: float) -> bool:
        if self.state is not RangeState.VALID:
            return False
        return self.expires_at is None or now < self.expires_at

    def needs_work(self, now: float) -> bool:
        return not self.is_valid_at(now) or bool(self.pending)

    def log_pending(self, entry: PendingEntry) -> bool:
        """Add ``entry`` to the pending log; an equal entry already
        logged keeps its place, so a hot source key written N times
        between reads costs one re-execution.  Returns True when the
        log grew."""
        if entry in self.pending:
            return False
        self.pending[entry] = None
        return True

    def mergeable_with(self, right: "StatusRange") -> bool:
        """May ``right`` be folded into this range (its left neighbour)?

        Only across a shared boundary, and only when nothing a reader
        can observe distinguishes the two: both VALID, one expiry, and
        no updater gaining reach — a build only one of them holds must
        not span the other's keys (a piece rebuilt on its own would
        otherwise take on its sibling's old updaters over its keys and
        apply their changes twice).  Pending logs and builds are united
        (see :meth:`absorb`).
        """
        return (
            self.hi == right.lo
            and self.state is RangeState.VALID
            and right.state is RangeState.VALID
            and self.expires_at == right.expires_at
            and all(b.hi <= right.lo for b in self.builds if b not in right.builds)
            and all(self.hi <= b.lo for b in right.builds if b not in self.builds)
        )

    def absorb(self, right: "StatusRange") -> None:
        """Extend this range over ``right`` — the inverse of a split.

        The logs are united, each entry at its first position:
        application re-executes against the current store, so an entry
        one piece had already applied is harmless over the whole.  The
        merged range holds both halves' builds and is as old as its
        oldest part (``None`` = never validated wins).
        """
        self.hi = right.hi
        for b in right.builds:
            if b in self.builds:
                b.holders -= 1
            else:
                self.builds += (b,)
        right.builds = ()
        self.pending.update(right.pending)
        if self.validated_at is None or right.validated_at is None:
            self.validated_at = None
        elif right.validated_at < self.validated_at:
            self.validated_at = right.validated_at
        right.pending = {}

    def invalidate(self) -> None:
        """Complete invalidation: recompute from scratch on next read."""
        self.state = RangeState.INVALID
        self.pending.clear()
        self.expires_at = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = self.state.value
        if self.pending:
            tag += f"+{len(self.pending)}pending"
        return f"<StatusRange [{self.lo!r},{self.hi!r}) {tag}>"


class StatusTable:
    """The disjoint cover of one output table's tracked key space.

    Backed by parallel sorted arrays — range starts in ``_los``, the
    ranges themselves in ``_ranges`` — so the hot-path lookups
    (``find``, ``pieces``) are one ``bisect`` plus a
    contiguous array walk instead of a pointer-chasing tree descent.
    Gaps between ranges mean "never computed".  The table holds no
    validity state of its own: each range carries its state, pending
    log and builds, and every read validates the pieces it touches.
    """

    __slots__ = ("_los", "_ranges", "merges")

    def __init__(self) -> None:
        self._los: List[str] = []
        self._ranges: List[StatusRange] = []
        #: Ranges ever absorbed into a neighbour by :meth:`merge_over`.
        self.merges = 0

    def __len__(self) -> int:
        return len(self._ranges)

    def ranges(self) -> List[StatusRange]:
        return list(self._ranges)

    # ------------------------------------------------------------------
    def find(self, key: str) -> Optional[StatusRange]:
        """The status range containing ``key``, if any."""
        i = bisect_right(self._los, key) - 1
        if i < 0:
            return None
        sr = self._ranges[i]
        return sr if key < sr.hi else None

    def pieces(
        self, lo: str, hi: str
    ) -> List[Tuple[str, str, Optional[StatusRange]]]:
        """Decompose ``[lo, hi)`` into covered and uncovered pieces.

        Returns ``(piece_lo, piece_hi, status_or_None)`` triples in key
        order; None marks a gap (never-computed key space).
        """
        out: List[Tuple[str, str, Optional[StatusRange]]] = []
        if not lo < hi:
            return out
        los, ranges = self._los, self._ranges
        cursor = lo
        i = bisect_right(los, lo) - 1
        if i < 0 or ranges[i].hi <= lo:
            i += 1
        n = len(ranges)
        while cursor < hi and i < n:
            sr = ranges[i]
            if sr.lo >= hi:
                break
            if cursor < sr.lo:
                out.append((cursor, sr.lo, None))
                cursor = sr.lo
            piece_hi = sr.hi if sr.hi < hi else hi
            out.append((cursor, piece_hi, sr))
            cursor = piece_hi
            i += 1
        if cursor < hi:
            out.append((cursor, hi, None))
        return out

    def overlapping(self, lo: str, hi: str) -> List[StatusRange]:
        return [sr for _, _, sr in self.pieces(lo, hi) if sr is not None]

    # ------------------------------------------------------------------
    def all_valid_over(self, lo: str, hi: str) -> bool:
        """Is ``[lo, hi)`` fully covered by quiescent ranges (VALID, no
        pending log, no expiry, no gaps)?  An uncached walk over
        :meth:`pieces`; the engine does not call it — the ledger's
        tracer wraps it by name, so it stays as a cover predicate."""
        return all(
            sr is not None
            and sr.state is RangeState.VALID
            and not sr.pending
            and sr.expires_at is None
            for _, _, sr in self.pieces(lo, hi)
        )

    # ------------------------------------------------------------------
    def add(self, sr: StatusRange) -> StatusRange:
        """Insert a new range; it must not overlap existing ranges."""
        for piece_lo, piece_hi, existing in self.pieces(sr.lo, sr.hi):
            if existing is not None:
                raise ValueError(
                    f"status range [{sr.lo!r},{sr.hi!r}) overlaps "
                    f"[{existing.lo!r},{existing.hi!r})"
                )
        i = bisect_right(self._los, sr.lo)
        self._los.insert(i, sr.lo)
        self._ranges.insert(i, sr)
        sr.attached = True
        return sr

    def remove(self, sr: StatusRange) -> None:
        i = bisect_left(self._los, sr.lo)
        if i < len(self._ranges) and self._ranges[i] is sr:
            del self._los[i]
            del self._ranges[i]
            sr.attached = False

    def split(self, sr: StatusRange, at: str) -> StatusRange:
        """Split ``sr`` at ``at``; returns the new right-hand range.

        Both halves keep the state, expiry, and their own copy of the
        pending log (each half will apply or drop entries
        independently), and both hold its builds.
        """
        if not (sr.lo < at < sr.hi):
            raise ValueError(f"split point {at!r} outside ({sr.lo!r},{sr.hi!r})")
        right = StatusRange(at, sr.hi, sr.state)
        right.expires_at = sr.expires_at
        right.pending = dict(sr.pending)
        right.builds = sr.builds
        for b in sr.builds:
            b.holders += 1
        right.validated_at = sr.validated_at
        sr.hi = at
        i = bisect_right(self._los, right.lo)
        self._los.insert(i, right.lo)
        self._ranges.insert(i, right)
        right.attached = True
        return right

    def isolate(self, lo: str, hi: str) -> List[StatusRange]:
        """Split covering ranges so ``[lo, hi)`` is exactly tiled.

        After this call every status range overlapping ``[lo, hi)``
        lies fully inside it; the (possibly split) ranges are returned.
        """
        out: List[StatusRange] = []
        for sr in self.overlapping(lo, hi):
            if sr.lo < lo:
                sr = self.split(sr, lo)
            if hi < sr.hi:
                self.split(sr, hi)
            out.append(sr)
        return out

    def merge_over(self, lo: str, hi: str) -> List[Tuple[StatusRange, StatusRange]]:
        """Undo needless splits: fold every run of adjacent, compatible
        ranges overlapping ``[lo, hi)`` into the run's leftmost range.

        Compatibility is :meth:`StatusRange.mergeable_with`; a run's
        pending logs are united.  Returns ``(survivor, absorbed)`` pairs
        so the engine can retire what it keeps per range (the LRU
        entry).  Absorbed ranges end detached — a validation memo still
        pointing at one misses structurally, exactly as after
        eviction.
        """
        ranges = self._ranges
        start = bisect_right(self._los, lo) - 1
        if start < 0 or ranges[start].hi <= lo:
            start += 1
        stop = bisect_left(self._los, hi, start)
        if stop - start < 2:
            return []
        merged: List[Tuple[StatusRange, StatusRange]] = []
        kept = [ranges[start]]
        for sr in ranges[start + 1:stop]:
            survivor = kept[-1]
            if not survivor.mergeable_with(sr):
                kept.append(sr)
                continue
            survivor.absorb(sr)
            sr.attached = False
            merged.append((survivor, sr))
        if not merged:
            return merged
        ranges[start:stop] = kept
        self._los[start:stop] = [sr.lo for sr in kept]
        self.merges += len(merged)
        return merged

    def check_disjoint_cover(self) -> None:
        """Test hook: verify ranges are ordered and non-overlapping."""
        prev_hi: Optional[str] = None
        for key, sr in zip(self._los, self._ranges):
            assert key == sr.lo, "array key out of sync"
            assert sr.lo < sr.hi, "empty status range"
            if prev_hi is not None:
                assert prev_hi <= sr.lo, "overlapping status ranges"
            prev_hi = sr.hi
