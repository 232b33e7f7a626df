"""The updater index: half-open key ranges filed by key prefix.

Pequod stores *updaters* — incremental-maintenance records attached to
source key ranges — so that every store modification can find the
updaters covering the modified key (paper §3.2: "Many updaters can
apply to a given key, so we store updaters in an interval tree").
``ChangeHub`` files its watch ranges in the same index.

A join's source ranges do not wander across the key space: a
containing range lies inside one ``table|user|`` prefix.  So instead of
a balanced tree, the index is a dict from a *group prefix* to that
group's entries, sorted by ``(lo, hi)``:

* an interval's group is the longest ``|``-terminated prefix ``q`` of
  ``lo`` whose whole key range ``[q, q[:-1] + "}")`` contains it.
  ``[p|ann|0100, p|ann})`` files under ``p|ann|`` — not under ``p|``,
  though ``p|ann`` is all its bounds have in common.  Intervals that
  fit no such prefix (whole-key-space watches) go to the residual
  group ``""``;
* a key lies only in intervals of the groups named by its own
  ``|``-terminated prefixes, so :meth:`RangeIndex.stab` of
  ``p|ann|0100`` probes ``""``, ``p|`` and ``p|ann|`` and scans each
  group's entries with ``lo <= key``.

Intervals are half-open ``[lo, hi)``.  Multiple payloads may share one
interval; they are kept in a list on a single entry, which is exactly
the paper's *updater combining* optimization (§3.2) — a new updater for
the same source range appends to the existing record instead of
growing the index.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Any, Dict, List, Optional, Tuple

from .keys import SEP, SEP_SUCCESSOR

#: Results across groups are merged into this order.
_ORDER = attrgetter("lo", "hi")


class IntervalEntry:
    """One interval and its payloads.

    ``lo``/``hi`` delimit the half-open range; ``payloads`` is the list
    of attached records (updaters, in Pequod's usage).
    """

    __slots__ = ("lo", "hi", "payloads", "payload_index")

    def __init__(self, lo: str, hi: str) -> None:
        self.lo = lo
        self.hi = hi
        self.payloads: List[Any] = []
        #: Identity-key → payload map for callers that dedup payloads
        #: and remove them by key (:meth:`RangeIndex.remove_payload`).
        self.payload_index: dict = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<IntervalEntry [{self.lo!r}, {self.hi!r}) x{len(self.payloads)}>"


def group_of(lo: str, hi: str) -> str:
    """The group ``[lo, hi)`` is filed under: the longest
    ``|``-terminated prefix ``q`` of ``lo`` with ``hi <= q[:-1] + "}"``,
    or ``""`` when there is none."""
    i = lo.rfind(SEP)
    while i >= 0:
        if hi <= lo[:i] + SEP_SUCCESSOR:
            return lo[: i + 1]
        i = lo.rfind(SEP, 0, i)
    return ""


class RangeIndex:
    """Half-open ranges ``[lo, hi)`` and their payloads, filed by
    prefix group (see the module docstring).

    Each group is a pair of aligned lists, ``(lo, hi)`` bounds and
    entries, sorted by bounds; emptied groups are pruned.
    """

    __slots__ = ("_groups",)

    def __init__(self) -> None:
        self._groups: Dict[str, Tuple[List[Tuple[str, str]], List[IntervalEntry]]] = {}

    def __len__(self) -> int:
        """Number of distinct intervals (not payloads)."""
        return sum(len(entries) for _, entries in self._groups.values())

    def __bool__(self) -> bool:
        return bool(self._groups)

    def payload_count(self) -> int:
        return sum(len(entry.payloads) for entry in self.entries())

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, lo: str, hi: str, payload: Any) -> IntervalEntry:
        """Attach ``payload`` to the interval ``[lo, hi)``.

        Raises ValueError on empty intervals.  If the interval is
        already present the payload is combined onto the existing entry.
        """
        entry, _ = self.entry(lo, hi)
        entry.payloads.append(payload)
        return entry

    def entry(self, lo: str, hi: str) -> Tuple[IntervalEntry, bool]:
        """The entry for ``[lo, hi)`` and whether this call created it.

        Raises ValueError on empty intervals.
        """
        if not lo < hi:
            raise ValueError(f"empty interval [{lo!r}, {hi!r})")
        group = group_of(lo, hi)
        found = self._groups.get(group)
        if found is None:
            found = self._groups[group] = ([], [])
        bounds, entries = found
        key = (lo, hi)
        i = bisect_left(bounds, key)
        if i < len(bounds) and bounds[i] == key:
            return entries[i], False
        entry = IntervalEntry(lo, hi)
        bounds.insert(i, key)
        entries.insert(i, entry)
        return entry, True

    def discard(self, lo: str, hi: str, payload: Any) -> bool:
        """Remove one occurrence of ``payload`` from ``[lo, hi)``.

        Returns True if found.  Empty entries are pruned.
        """
        entry = self.find_entry(lo, hi)
        if entry is None:
            return False
        try:
            entry.payloads.remove(payload)
        except ValueError:
            return False
        if not entry.payloads:
            self._prune(entry)
        return True

    def remove_payload(self, entry: IntervalEntry, key: Any) -> None:
        """Remove the payload filed under ``key`` in ``entry``'s
        ``payload_index``; the entry leaves the index only with its
        last payload."""
        entry.payloads.remove(entry.payload_index.pop(key))
        if not entry.payloads:
            self._prune(entry)

    def _prune(self, entry: IntervalEntry) -> None:
        group = group_of(entry.lo, entry.hi)
        bounds, entries = self._groups[group]
        i = bisect_left(bounds, (entry.lo, entry.hi))
        del bounds[i], entries[i]
        if not entries:
            del self._groups[group]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def find_entry(self, lo: str, hi: str) -> Optional[IntervalEntry]:
        found = self._groups.get(group_of(lo, hi))
        if found is None:
            return None
        bounds, entries = found
        i = bisect_left(bounds, (lo, hi))
        if i < len(bounds) and bounds[i] == (lo, hi):
            return entries[i]
        return None

    def stab(self, point: str) -> List[IntervalEntry]:
        """All entries whose interval contains ``point``, in
        ``(lo, hi)`` order: one probe for the residual group and one
        per ``|`` in ``point``."""
        groups = self._groups
        out: List[IntervalEntry] = []
        merge = False
        below = (point + "\0",)  # sorts after every (lo, hi) with lo <= point
        end = 0
        while True:
            found = groups.get(point[:end])
            if found is not None:
                bounds, entries = found
                hits = [
                    e for e in entries[: bisect_left(bounds, below)] if point < e.hi
                ]
                if hits:
                    merge = merge or bool(out)
                    out += hits
            end = point.find(SEP, end) + 1
            if not end:
                break
        if merge:
            out.sort(key=_ORDER)
        return out

    def overlapping(self, lo: str, hi: str) -> List[IntervalEntry]:
        """All entries overlapping the half-open range ``[lo, hi)``, in
        ``(lo, hi)`` order: those of the groups whose key range holds
        ``lo`` (as :meth:`stab` finds) and of every group whose prefix
        lies inside ``(lo, hi)``."""
        out: List[IntervalEntry] = []
        if not lo < hi:
            return out
        for q, (bounds, entries) in self._groups.items():
            if lo.startswith(q) or lo < q < hi:
                out += [e for e in entries[: bisect_left(bounds, (hi,))] if lo < e.hi]
        out.sort(key=_ORDER)
        return out

    def entries(self) -> List[IntervalEntry]:
        """All entries in ``(lo, hi)`` order."""
        return sorted(
            (e for _, entries in self._groups.values() for e in entries), key=_ORDER
        )

    def check_invariants(self) -> None:
        """Every group is non-empty, aligned, strictly ``(lo, hi)``
        sorted, and holds exactly the intervals filed under it."""
        for group, (bounds, entries) in self._groups.items():
            assert entries, f"empty group {group!r}"
            assert bounds == [_ORDER(e) for e in entries], f"misaligned group {group!r}"
            assert bounds == sorted(set(bounds)), f"group {group!r} out of order"
            for e in entries:
                assert group == group_of(e.lo, e.hi), f"misfiled {e!r}"
