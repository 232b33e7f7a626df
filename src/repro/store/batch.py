"""Write batches: grouped, coalesced store modifications.

High write rates are where incremental maintenance earns its keep, and
the per-write overheads — one updater-index stab, one status lookup per
updater, one eviction check — are exactly what a heavy write path must
amortize.  :class:`WriteBatch` buffers a group of puts and removes,
coalescing writes to the same key down to their net effect (last write
wins), so that application of the batch touches each key once and the
maintenance layer above (``repro.core.executor``) can resolve each
affected updater range once per batch instead of once per write.

Coalescing is safe because the engine's maintenance is driven by the
net ``(old_value, new_value)`` transition of each key, not by the
intermediate states: a put overwritten by a later put in the same batch
produces one notification carrying the pre-batch old value and the
final new value, which drives copy outputs, aggregates (via
``replace``), and invalidations to the same end state the write
sequence would have (see the batching notes in ``executor.py``).

A batch is just a buffer; it applies through whatever *sink* it is
bound to — a :class:`~repro.store.store.OrderedStore` (raw storage, no
maintenance), a :class:`~repro.core.server.PequodServer` (full
maintenance), a distributed node, or an RPC client.  Sinks expose
``apply_batch``; ``WriteBatch`` works as a context manager that applies
itself on clean exit::

    with server.write_batch() as batch:
        batch.put("p|bob|0100", "hello")
        batch.put("p|bob|0101", "again")
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

PUT = "put"
REMOVE = "remove"


class BatchOp:
    """One coalesced operation: a put (``value`` set) or a remove."""

    __slots__ = ("kind", "key", "value")

    def __init__(self, kind: str, key: str, value: Optional[str]) -> None:
        self.kind = kind
        self.key = key
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind == PUT:
            return f"<put {self.key!r}={self.value!r}>"
        return f"<remove {self.key!r}>"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BatchOp)
            and self.kind == other.kind
            and self.key == other.key
            and self.value == other.value
        )


class WriteBatch:
    """A buffered group of writes with per-key coalescing.

    ``put``/``remove`` record the *net* operation per key: a later
    write to the same key replaces the earlier one in place, and
    ``coalesced_ops`` counts how many buffered writes were absorbed
    this way.  ``ops()`` returns the surviving operations in key order
    (sorted application lets the wire encoding share key prefixes).
    """

    __slots__ = ("_ops", "_sink", "coalesced_ops")

    def __init__(self, sink: Optional[Any] = None) -> None:
        self._ops: Dict[str, BatchOp] = {}
        self._sink = sink
        self.coalesced_ops = 0

    # ------------------------------------------------------------------
    # Buffering
    # ------------------------------------------------------------------
    def put(self, key: str, value: str) -> "WriteBatch":
        if not key:
            raise ValueError("keys must be non-empty")
        if not isinstance(value, str):
            raise TypeError("Pequod values are strings")
        if key in self._ops:
            self.coalesced_ops += 1
        self._ops[key] = BatchOp(PUT, key, value)
        return self

    def remove(self, key: str) -> "WriteBatch":
        if not key:
            raise ValueError("keys must be non-empty")
        if key in self._ops:
            self.coalesced_ops += 1
        self._ops[key] = BatchOp(REMOVE, key, None)
        return self

    def update(self, pairs: Iterable[Tuple[str, str]]) -> "WriteBatch":
        for key, value in pairs:
            self.put(key, value)
        return self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ops)

    def __bool__(self) -> bool:
        return bool(self._ops)

    def ops(self) -> List[BatchOp]:
        """The coalesced operations in key order."""
        return [self._ops[key] for key in sorted(self._ops)]

    def clear(self) -> None:
        self._ops.clear()
        self.coalesced_ops = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WriteBatch ops={len(self._ops)} coalesced={self.coalesced_ops}>"

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply(self) -> int:
        """Apply through the bound sink; returns applied change count."""
        if self._sink is None:
            raise RuntimeError("WriteBatch has no sink; use sink.apply_batch()")
        return self._sink.apply_batch(self)

    def __enter__(self) -> "WriteBatch":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self._ops:
            self.apply()


def as_ops(batch: Any) -> List[BatchOp]:
    """Normalize a WriteBatch or an iterable of operations to BatchOps.

    Accepts a :class:`WriteBatch`, an iterable of :class:`BatchOp`, or
    an iterable of ``(key, value_or_None)`` pairs (None meaning
    remove).  Iterables are coalesced through a fresh batch so every
    application path shares one semantics.
    """
    if isinstance(batch, WriteBatch):
        return batch.ops()
    staged = WriteBatch()
    for item in batch:
        if isinstance(item, BatchOp):
            if item.kind == PUT:
                staged.put(item.key, item.value or "")
            else:
                staged.remove(item.key)
        else:
            key, value = item
            if value is None:
                staged.remove(key)
            else:
                staged.put(key, value)
    return staged.ops()
