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
  invalidation, after [29]);
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
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..store.lru import LRUEntry
    from .joins import CacheJoin
    from .operators import ChangeKind
    from .updaters import Updater


class RangeState(enum.Enum):
    VALID = "valid"
    INVALID = "invalid"


class PendingEntry:
    """A logged source modification awaiting lazy application.

    Records enough to re-derive the affected output tuples: the join,
    which source changed, the source key, and the change kind.
    """

    __slots__ = ("join", "source_index", "key", "old_value", "new_value", "kind")

    def __init__(
        self,
        join: "CacheJoin",
        source_index: int,
        key: str,
        old_value: Optional[str],
        new_value: Optional[str],
        kind: "ChangeKind",
    ) -> None:
        self.join = join
        self.source_index = source_index
        self.key = key
        self.old_value = old_value
        self.new_value = new_value
        self.kind = kind

    def identity(self) -> tuple:
        """The compaction key: entries sharing it repeat identical work.

        Application re-executes the join with ``key`` pinned against
        the *current* store state, so two entries for the same (join,
        source, key, kind) are interchangeable — the values logged at
        write time do not feed the re-execution (aggregates recompute
        wholesale instead).  This is what makes pending-log compaction
        safe.
        """
        return (id(self.join), self.source_index, self.key, self.kind)

    def same_as(self, other: "PendingEntry") -> bool:
        """True when applying both entries would repeat identical work."""
        return self.identity() == other.identity()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Pending {self.kind.value} {self.key!r}>"


def compact_pending(entries: List["PendingEntry"]) -> List["PendingEntry"]:
    """Drop superseded pending entries, keeping the latest of each kind.

    Entries that would re-derive the same output tuples (see
    :meth:`PendingEntry.same_as`) collapse to one, at the position of
    the first occurrence with the payload of the last — a hot source
    key written N times between reads costs one re-execution, not N.
    """
    out: List[PendingEntry] = []
    slots: dict = {}
    for entry in entries:
        slot = slots.get(entry.identity())
        if slot is None:
            slots[entry.identity()] = len(out)
            out.append(entry)
        else:
            out[slot] = entry
    return out


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
        "owner",
        "_pending_index",
    )

    def __init__(self, lo: str, hi: str, state: RangeState = RangeState.VALID) -> None:
        if not lo < hi:
            raise ValueError(f"empty status range [{lo!r}, {hi!r})")
        self.lo = lo
        self.hi = hi
        self.state = state
        self.expires_at: Optional[float] = None
        self.pending: List[PendingEntry] = []
        #: Identity -> position index over ``pending``, maintained by
        #: :meth:`log_pending` for O(1) supersede-in-place.  Rebuilt
        #: whenever its size disagrees with the log (every other
        #: mutation path — invalidate, split, apply — empties or
        #: replaces the list, so the sizes diverge).
        self._pending_index: dict = {}
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
        #: The :class:`StatusTable` this range is attached to, if any.
        #: Lets validity mutations (invalidate, pending-log growth)
        #: bump the table's whole-table stamp without the caller
        #: knowing which table the range lives in.
        self.owner: Optional["StatusTable"] = None

    def is_valid_at(self, now: float) -> bool:
        if self.state is not RangeState.VALID:
            return False
        return self.expires_at is None or now < self.expires_at

    def needs_work(self, now: float) -> bool:
        return not self.is_valid_at(now) or bool(self.pending)

    def log_pending(self, entry: PendingEntry) -> bool:
        """Append ``entry`` to the pending log, compacting on arrival.

        An equivalent entry already logged (same join, source, key, and
        kind — see :meth:`PendingEntry.same_as`) is superseded in place
        instead of duplicated, in O(1) via the identity index, so a hot
        source key written N times between reads holds one log slot.
        Returns True when the log grew.
        """
        index = self._pending_index
        if len(index) != len(self.pending):
            index = self._pending_index = {
                e.identity(): i for i, e in enumerate(self.pending)
            }
        slot = index.get(entry.identity())
        if slot is None:
            index[entry.identity()] = len(self.pending)
            self.pending.append(entry)
            if self.owner is not None:
                self.owner.note_mutation()
            return True
        self.pending[slot] = entry
        return False

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

        The logs are concatenated (the caller compacts once per run):
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
        if right.pending:
            self.pending.extend(right.pending)
            self._pending_index = {}
        if self.validated_at is None or right.validated_at is None:
            self.validated_at = None
        elif right.validated_at < self.validated_at:
            self.validated_at = right.validated_at
        right.pending = []

    def invalidate(self) -> None:
        """Complete invalidation: recompute from scratch on next read."""
        self.state = RangeState.INVALID
        self.pending.clear()
        self.expires_at = None
        if self.owner is not None:
            self.owner.note_mutation()

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
    Gaps between ranges mean "never computed".

    The table also keeps a *stamp*, bumped on every mutation
    that could change whole-table validity (add/remove/split/merge
    here, invalidation and pending-log growth via ``StatusRange.owner``,
    and engine-side recompute/expiry/drain via :meth:`note_mutation`).
    The stamp keys a cached whole-table summary behind
    :meth:`all_valid_over`: when the cover is quiescent — every range
    VALID, no pending work, no expiries, no gaps — cross-timeline scans
    and updater validity checks skip per-range validation entirely.
    """

    __slots__ = ("_los", "_ranges", "_stamp", "_summary", "merges")

    def __init__(self) -> None:
        self._los: List[str] = []
        self._ranges: List[StatusRange] = []
        self._stamp = 0
        #: Ranges ever absorbed into a neighbour by :meth:`merge_over`.
        self.merges = 0
        #: Cached (stamp, all_quiescent, cover_lo, cover_hi); rebuilt
        #: lazily whenever the stamp has moved past it.
        self._summary: Optional[Tuple[int, bool, str, str]] = None

    def __len__(self) -> int:
        return len(self._ranges)

    def ranges(self) -> List[StatusRange]:
        return list(self._ranges)

    def note_mutation(self) -> None:
        """Record a validity-affecting mutation (bumps the stamp)."""
        self._stamp += 1

    @property
    def stamp(self) -> int:
        return self._stamp

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
        """Whole-table fast path: is ``[lo, hi)`` covered by a fully
        quiescent cover (every range VALID, no pending logs, no
        expiries, no gaps)?

        The answer is derived from a summary cached against the
        stamp, so quiescent steady-state scans answer in
        O(1) without walking pieces.  Any invalidation, split,
        eviction, expiry, or pending-log growth bumps the stamp and
        forces a re-summary on the next call.
        """
        summary = self._summary
        if summary is None or summary[0] != self._stamp:
            summary = self._summary = self._compute_summary()
        _, quiescent, cover_lo, cover_hi = summary
        return quiescent and cover_lo <= lo and hi <= cover_hi

    def _compute_summary(self) -> Tuple[int, bool, str, str]:
        ranges = self._ranges
        if not ranges:
            return (self._stamp, False, "", "")
        prev_hi: Optional[str] = None
        for sr in ranges:
            if (
                sr.state is not RangeState.VALID
                or sr.pending
                or sr.expires_at is not None
                or (prev_hi is not None and prev_hi != sr.lo)
            ):
                return (self._stamp, False, "", "")
            prev_hi = sr.hi
        return (self._stamp, True, ranges[0].lo, prev_hi)

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
        sr.owner = self
        self._stamp += 1
        return sr

    def remove(self, sr: StatusRange) -> None:
        i = bisect_left(self._los, sr.lo)
        if i < len(self._ranges) and self._ranges[i] is sr:
            del self._los[i]
            del self._ranges[i]
            sr.attached = False
            sr.owner = None
            self._stamp += 1

    def split(self, sr: StatusRange, at: str) -> StatusRange:
        """Split ``sr`` at ``at``; returns the new right-hand range.

        Both halves keep the state, expiry, and a copy of the pending
        log (each half will apply or drop entries independently), and
        both hold its builds.
        """
        if not (sr.lo < at < sr.hi):
            raise ValueError(f"split point {at!r} outside ({sr.lo!r},{sr.hi!r})")
        right = StatusRange(at, sr.hi, sr.state)
        right.expires_at = sr.expires_at
        right.pending = list(sr.pending)
        right.builds = sr.builds
        for b in sr.builds:
            b.holders += 1
        right.validated_at = sr.validated_at
        sr.hi = at
        i = bisect_right(self._los, right.lo)
        self._los.insert(i, right.lo)
        self._ranges.insert(i, right)
        right.attached = True
        right.owner = self
        self._stamp += 1
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
        pending logs are united and compacted once.  Returns
        ``(survivor, absorbed)`` pairs so the engine can retire what it
        keeps per range (the LRU entry).  Absorbed ranges end detached
        — a validation memo still pointing at one misses structurally,
        exactly as after eviction — and the stamp is bumped so the
        whole-table summary is rebuilt.
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
        grown: List[StatusRange] = []  # survivors whose log was extended
        for sr in ranges[start + 1:stop]:
            survivor = kept[-1]
            if not survivor.mergeable_with(sr):
                kept.append(sr)
                continue
            if sr.pending and (not grown or grown[-1] is not survivor):
                grown.append(survivor)
            survivor.absorb(sr)
            sr.attached = False
            sr.owner = None
            merged.append((survivor, sr))
        if not merged:
            return merged
        for survivor in grown:
            survivor.pending = compact_pending(survivor.pending)
        ranges[start:stop] = kept
        self._los[start:stop] = [sr.lo for sr in kept]
        self.merges += len(merged)
        self._stamp += 1
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
