"""Updaters: the write-side half of incremental maintenance (§3.2).

An updater links a range of *source* keys with a context — a cache
join, a slot set, and the output range it maintains.  Updaters live in
each table's interval tree; every store modification stabs the tree and
runs the updaters covering the modified key.

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
interval tree: *updater combining* (same-range updaters share one
interval entry; identical updaters are deduplicated) and *context
compression* (an updater stores only slot assignments that the source
key itself cannot supply).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .joins import CacheJoin


class Updater:
    """Maintenance record attached to a source key range.

    ``context`` holds the slot assignments fixed at installation time —
    exactly those the source key cannot re-derive (context compression,
    §3.2).  ``output_lo``/``output_hi`` delimit the join status range
    this updater maintains; validity is re-checked at fire time so
    splits and invalidations of status ranges never dangle.
    """

    __slots__ = (
        "join",
        "source_index",
        "context",
        "output_lo",
        "output_hi",
        "lazy",
        "source_lo",
        "source_hi",
        "generation",
        "template",
    )

    def __init__(
        self,
        join: "CacheJoin",
        source_index: int,
        context: Dict[str, str],
        output_lo: str,
        output_hi: str,
        lazy: bool,
        source_lo: str,
        source_hi: str,
        generation: int = 0,
    ) -> None:
        self.join = join
        self.source_index = source_index
        self.context = context
        self.output_lo = output_lo
        self.output_hi = output_hi
        self.lazy = lazy
        self.source_lo = source_lo
        self.source_hi = source_hi
        #: Status-range generation this updater was installed under; an
        #: eager updater only applies to ranges still in this
        #: generation (see ``StatusRange.generation``).
        self.generation = generation
        #: Cached compiled fire template (``core.plan.FireTemplate``),
        #: bound lazily on first fire.  None = not yet bound; False =
        #: binding failed, use the interpreted path.
        self.template = None

    # Identity: two updaters are interchangeable when they would perform
    # identical maintenance.  Used to deduplicate on (re)installation.
    def same_as(self, other: "Updater") -> bool:
        return (
            self.join is other.join
            and self.source_index == other.source_index
            and self.lazy == other.lazy
            and self.output_lo == other.output_lo
            and self.output_hi == other.output_hi
            and self.context == other.context
        )

    def memory_size(self) -> int:
        """Approximate bytes for accounting/ablation purposes."""
        return (
            48
            + sum(len(k) + len(v) for k, v in self.context.items())
            + len(self.source_lo)
            + len(self.source_hi)
            + len(self.output_lo)
            + len(self.output_hi)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "lazy" if self.lazy else "eager"
        return (
            f"<Updater {kind} src={self.source_index} "
            f"[{self.source_lo!r},{self.source_hi!r}) ctx={self.context!r}>"
        )


def _identity_key(updater: Updater):
    """Hashable form of the ``same_as`` equivalence — one dict probe
    replaces the O(payloads) dedup scan when thousands of combined
    updaters share an interval entry (celebrity fan-out)."""
    return (
        id(updater.join),
        updater.source_index,
        updater.lazy,
        updater.output_lo,
        updater.output_hi,
        frozenset(updater.context.items()),
    )


def install_updater(table, updater: Updater) -> Optional[Updater]:
    """Add ``updater`` to ``table``'s interval tree with deduplication.

    Returns the updater actually stored (an existing equivalent one if
    present).  Same-range updaters share one interval entry — the
    paper's combining optimization.  Reinstallation takes over the
    surviving updater's generation instead of accumulating a
    duplicate: up after a recomputation, and back down to 0 when a
    range that had been recomputed is evicted and computed afresh.
    (Only the installing range overlaps the updater's output bounds —
    they lie inside it and the cover is disjoint — so no other live
    range can be relying on the old number.)

    Dedup is O(1) via an identity index kept on the interval entry and
    rebuilt lazily after removals (``IntervalEntry.payload_index``).
    """
    key = _identity_key(updater)
    entry, created = table.updaters.entry(updater.source_lo, updater.source_hi)
    if created:
        entry.payloads.append(updater)
        entry.payload_index = {key: updater}
        return updater
    index = entry.payload_index
    if index is None:
        index = entry.payload_index = {
            _identity_key(existing): existing
            for existing in entry.payloads
        }
    existing = index.get(key)
    if existing is not None:
        existing.generation = updater.generation
        return existing
    entry.payloads.append(updater)
    index[key] = updater
    return updater
