"""Updaters: the write-side half of incremental maintenance (§3.2).

An updater links a range of *source* keys with a context — a cache
join, a slot set, and the output range it maintains.  Updaters live in
each table's updater index (``store.range_index``, the paper's
interval tree filed by key prefix); every store modification stabs the
index and runs the updaters covering the modified key.

Two flavours, as in the paper:

* **Eager** updaters (installed for value sources — ``copy`` and
  aggregates) apply the change to the output immediately: copy the new
  value to its output key, bump a count, and so on.
* **Lazy** updaters (installed for ``check`` sources) only mark output
  state: inserts become *partial invalidations* (a pending-log entry
  applied when the output is next read), removals become *complete
  invalidations* (recompute from scratch) because a removed check tuple
  also retires eager updaters derived from it.  This is the policy the
  paper describes: "our prototype uses lazy maintenance (invalidations)
  for check sources and eager maintenance for all other sources."

The paper's two big optimizations are implemented here and in the
updater index: *updater combining* (same-range updaters share one
interval entry; identical updaters are deduplicated) and *context
compression* (an updater stores only slot assignments that the source
key itself cannot supply).

Every fire, whatever its flavour, pins the changed key into the join's
compiled plan (``core.plan.FirePin``): the context fills the slot
vector, the key's slots join it, and the fire renders or walks on from
there.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .joins import CacheJoin
    from .status import StatusRange


class Updater:
    """Maintenance record attached to a source key range.

    ``names`` and ``values`` are the context: the slot assignments fixed
    at installation time — exactly those the source key cannot
    re-derive (context compression, §3.2) — as two aligned tuples in
    slot-vector order (``ComputePlan.index``).  ``names`` is shared by
    every updater one compiled level installs.  ``output_lo``/
    ``output_hi`` delimit the output keys this updater maintains.
    ``build`` is the computation of a status range it was installed for
    (``core.status.Build``): a fire applies only to the attached ranges
    holding that build, and the last one to let go of it uninstalls the
    updater (§3.2: complete invalidation removes installed updaters).
    ``size`` is its byte charge: a fixed 48, the context's names and
    values, and the four bounds.
    """

    __slots__ = (
        "join",
        "source_index",
        "names",
        "values",
        "output_lo",
        "output_hi",
        "lazy",
        "source_lo",
        "source_hi",
        "fire",
        "build",
        "entry",
        "key",
        "size",
    )

    def __init__(
        self,
        join: "CacheJoin",
        source_index: int,
        names: Tuple[str, ...],
        values: Tuple[str, ...],
        output_lo: str,
        output_hi: str,
        lazy: bool,
        source_lo: str,
        source_hi: str,
    ) -> None:
        self.join = join
        self.source_index = source_index
        self.names = names
        self.values = values
        self.output_lo = output_lo
        self.output_hi = output_hi
        self.lazy = lazy
        self.source_lo = source_lo
        self.source_hi = source_hi
        #: ``(pin, vec)``, set on first fire: the join's compiled
        #: ``core.plan.FirePin`` for this source and context, and a slot
        #: vector holding the context.  Not charged in ``size``: pins
        #: are shared, the vector is a cache.
        self.fire = None
        self.build = None
        #: Set by :func:`install_updater`: the interval entry holding
        #: this updater and its key in ``entry.payload_index`` — what an
        #: uninstall needs, without an index search.
        self.entry = None
        self.key = None
        self.size = (
            48
            + sum(map(len, names))
            + sum(map(len, values))
            + len(source_lo)
            + len(source_hi)
            + len(output_lo)
            + len(output_hi)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "lazy" if self.lazy else "eager"
        return (
            f"<Updater {kind} src={self.source_index} "
            f"[{self.source_lo!r},{self.source_hi!r}) "
            f"ctx={dict(zip(self.names, self.values))!r}>"
        )


def install_updater(table, updater: Updater, sr: "StatusRange") -> Updater:
    """Add ``updater`` to ``table``'s updater index for ``sr``'s build.

    Returns the updater actually stored.  Same-range updaters share one
    interval entry — the paper's combining optimization — and an
    equivalent one already installed is shared, moving to ``sr``'s
    build if need be: its output bounds lie inside ``sr`` and the cover
    is disjoint, so no other holder of its old build needs it.

    Two updaters are equivalent when they would perform identical
    maintenance: same join, source, flavour, output bounds and context.
    That tuple is the key of ``entry.payload_index``: one probe replaces
    an O(payloads) dedup scan when thousands of combined updaters share
    an interval entry (celebrity fan-out).  Every install site orders
    the context by slot-vector index, so one context has one key.
    """
    build = sr.builds[0]
    key = (
        id(updater.join),  # an int: the collector untracks the key
        updater.source_index,
        updater.lazy,
        updater.output_lo,
        updater.output_hi,
        updater.names,
        updater.values,
    )
    entry, _ = table.updaters.entry(updater.source_lo, updater.source_hi)
    existing = entry.payload_index.get(key)
    if existing is not None:
        if existing.build not in sr.builds:
            existing.build.updaters.remove(existing)
            build.adopt(existing)
        return existing
    # The entry's bound strings are equal: share them, not a copy each.
    updater.source_lo, updater.source_hi = entry.lo, entry.hi
    entry.payloads.append(updater)
    entry.payload_index[key] = updater
    updater.entry, updater.key = entry, key
    build.adopt(updater)
    return updater
