"""The ordered key-value store: Pequod's client-visible data plane.

``OrderedStore`` presents one lexicographically ordered key space with
``get`` / ``put`` / ``remove`` / ``scan`` (paper §2) while internally
routing keys to per-table trees and subtables (§4.1).  The join engine
in ``repro.core`` layers cache-join execution and incremental
maintenance on top of this store; baselines and the backing database
reuse it as well.

Values handed to clients are always plain strings; internally the store
may hold aggregate accumulators, which :func:`~repro.store.values.materialize`
renders.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from .batch import PUT, WriteBatch, as_ops
from .keys import SEP, SEP_SUCCESSOR, prefix_upper_bound, table_of
from .stats import StoreStats
from .table import Table
from .values import Value, materialize

#: A net store change: ``(key, old_value, new_value)``; a None old
#: value means the key was absent before, a None new value means it was
#: removed.  Kind classification is left to callers (the engine derives
#: insert/update/remove from the None-ness of the two values).
Change = Tuple[str, Optional[str], Optional[str]]


class OrderedStore:
    """A single ordered string key space backed by tables and subtables.

    ``subtable_config`` maps table names to subtable depths (§4.1); a
    table's depth is fixed when the table is first created.  All tables
    share one :class:`StoreStats`.
    """

    __slots__ = (
        "stats",
        "tables",
        "_subtable_config",
    )

    def __init__(
        self,
        subtable_config: Optional[Dict[str, int]] = None,
        stats: Optional[StoreStats] = None,
    ) -> None:
        self.stats = stats if stats is not None else StoreStats()
        self.tables: Dict[str, Table] = {}
        self._subtable_config: Dict[str, int] = dict(subtable_config or {})

    # ------------------------------------------------------------------
    # Table management
    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        """The table called ``name``, created on first use."""
        tbl = self.tables.get(name)
        if tbl is None:
            depth = self._subtable_config.get(name, 0)
            tbl = Table(name, subtable_depth=depth, stats=self.stats)
            self.tables[name] = tbl
        return tbl

    def table_for_key(self, key: str) -> Table:
        return self.table(table_of(key))

    def existing_table_for_key(self, key: str) -> Optional[Table]:
        return self.tables.get(table_of(key))

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def put(self, key: str, value: Value) -> Optional[Value]:
        """Insert or overwrite; returns the old value, or None."""
        if not key:
            raise ValueError("keys must be non-empty")
        return self.table_for_key(key).put(key, value)

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        """The client-visible value for ``key`` (a string), or ``default``."""
        tbl = self.existing_table_for_key(key)
        if tbl is None:
            return default
        value = tbl.get(key)
        if value is None:
            return default
        return materialize(value)

    def remove(self, key: str) -> bool:
        tbl = self.existing_table_for_key(key)
        if tbl is None:
            return False
        return tbl.remove(key) is not None

    def write_batch(self) -> WriteBatch:
        """A :class:`WriteBatch` bound to this store (raw application)."""
        return WriteBatch(sink=self)

    def apply_batch(self, batch) -> List[Change]:
        """Apply a coalesced batch of writes; returns the net changes.

        ``batch`` is a :class:`WriteBatch` or anything ``as_ops``
        accepts.  Operations apply in key order.  Removes of absent keys
        produce no change entry, matching :meth:`remove`'s behavior.
        """
        ops = as_ops(batch)
        if not ops:
            return []
        self.stats.add("batch_applies")
        self.stats.add("batched_ops", len(ops))
        changes: List[Change] = []
        for op in ops:
            if op.kind == PUT:
                value = op.value if op.value is not None else ""
                old = self.table_for_key(op.key).put(op.key, value)
                changes.append(
                    (op.key, materialize(old) if old is not None else None, value)
                )
            else:
                table = self.existing_table_for_key(op.key)
                old = table.remove(op.key) if table is not None else None
                if old is not None:
                    changes.append((op.key, materialize(old), None))
        return changes

    def _single_table_span(self, lo: str, hi: str) -> Optional[str]:
        """The one table name whose span contains ``[lo, hi)``, or None.

        ``[lo, hi)`` lies inside a single table exactly when it sits
        inside ``[name|, name})`` — tables sharing a character prefix
        (``tx`` vs ``t``) sort strictly outside that window, so common
        prefix scans and gets skip the all-tables sweep entirely.
        """
        name = table_of(lo)
        if lo >= name + SEP and hi <= name + SEP_SUCCESSOR:
            return name
        return None

    def tables_over(self, lo: str, hi: str) -> List[Table]:
        """Tables whose spans intersect ``[lo, hi)``, in name order."""
        name = self._single_table_span(lo, hi)
        if name is not None:
            tbl = self.tables.get(name)
            return [tbl] if tbl is not None else []
        return [
            self.tables[name]
            for name in sorted(self.tables)
            if name < hi and prefix_upper_bound(name) > lo
        ]

    def scan_nodes(self, lo: str, hi: str) -> List[Tuple[str, Value]]:
        """Stored ``(key, value)`` pairs with ``lo <= key < hi``, across
        table boundaries, as a fresh list.  The values are as stored:
        an aggregate's accumulator, not its string."""
        if not lo < hi:
            return []
        # Inlined single-table fast path (see _single_table_span): the
        # common prefix scan never sweeps the table dictionary.
        sep_at = lo.find(SEP)
        if sep_at >= 0:
            name = lo[:sep_at]
            if hi <= name + SEP_SUCCESSOR:
                tbl = self.tables.get(name)
                return tbl.scan(lo, hi) if tbl is not None else []
        relevant = self.tables_over(lo, hi)
        if len(relevant) == 1:
            return relevant[0].scan(lo, hi)
        return list(
            heapq.merge(*(tbl.scan(lo, hi) for tbl in relevant), key=itemgetter(0))
        )

    def scan(self, lo: str, hi: str) -> List[Tuple[str, str]]:
        """Client-visible ordered list of pairs with ``lo <= key < hi``."""
        pairs = self.scan_nodes(lo, hi)
        if not pairs:
            return pairs
        self.stats.counters["scanned_items"] += len(pairs)
        # The stored pairs are the answer unless an aggregate
        # accumulator is among them: materialize() renders those.
        for _, value in pairs:
            if type(value) is not str:
                return [(key, materialize(value)) for key, value in pairs]
        return pairs

    def count(self, lo: str, hi: str) -> int:
        """Size of ``[lo, hi)`` without the cost of scanning it.

        Counting charges no scan counters (the pre-overhaul version
        re-walked ``scan_nodes``, billing a second scan per ``count``)
        and uses positional arithmetic where the map supports it.
        """
        if not lo < hi:
            return 0
        return sum(
            tbl.count_range(lo, hi) for tbl in self.tables_over(lo, hi)
        )

    def remove_range(self, lo: str, hi: str) -> List[Tuple[str, Value]]:
        """Remove every key in ``[lo, hi)``, one run per table (see
        :meth:`Table.remove_range`); returns the removed ``(key,
        stored value)`` pairs in key order.

        The join engine's ``_clear_range`` calls it for every range
        dropped wholesale: an evicted computed range (§2.5), a range
        about to be recomputed, and the mirrored or cached base ranges
        the distributed and database deployments drop.
        """
        if not lo < hi:
            return []
        runs = [
            run for tbl in self.tables_over(lo, hi)
            if (run := tbl.remove_range(lo, hi))
        ]
        if len(runs) == 1:
            return runs[0]
        # Table name order is not key order ("tx|" sorts before "t|").
        return list(heapq.merge(*runs, key=lambda pair: pair[0]))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(tbl) for tbl in self.tables.values())

    def memory_bytes(self) -> int:
        return sum(tbl.memory_bytes for tbl in self.tables.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OrderedStore tables={len(self.tables)} keys={len(self)}>"
