"""The cache join: Pequod's central abstraction (paper §3).

A :class:`CacheJoin` declares how output key-value pairs are calculated
from source key-value pairs.  It has four parts (§3): an output
pattern, one or more source patterns with operators, performance
annotations (maintenance type and source order), and slot definitions
(our patterns carry slots inline).

Joins are validated at installation time ("add-join", §3): exactly one
source is a value source (``copy`` or an aggregate) and the rest are
``check``; every output slot must be recoverable from some source; and
a join's output table may not feed its own sources (no recursion).
Ambiguity — output keys that drop distinguishing slots — is permitted,
as the paper discusses: the application may know collisions cannot
happen, so Pequod leaves it responsible.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Tuple

from .operators import AGGREGATES, CHECK_OPERATORS, ECHECK, OPERATORS
from .pattern import Pattern, pattern_from


class JoinError(ValueError):
    """Raised when a cache join fails installation-time validation."""


class MaintenanceType(enum.Enum):
    """Paper §3.4 performance annotations."""

    PUSH = "push"  # eager incremental maintenance (default)
    PULL = "pull"  # recompute on every query; never cached
    SNAPSHOT = "snapshot"  # compute, cache unmaintained for T seconds


class Source:
    """One source pattern and its operator."""

    __slots__ = ("operator", "pattern")

    def __init__(self, operator: str, pattern: "Pattern | str") -> None:
        if operator not in OPERATORS:
            raise JoinError(f"unknown operator {operator!r}")
        self.operator = operator
        self.pattern = pattern_from(pattern)

    @property
    def is_check(self) -> bool:
        return self.operator in CHECK_OPERATORS

    @property
    def is_eager_check(self) -> bool:
        """The ``echeck`` extension: check semantics, eager inserts."""
        return self.operator == ECHECK

    @property
    def is_aggregate(self) -> bool:
        return self.operator in AGGREGATES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.operator} {self.pattern.text}"


class CacheJoin:
    """A declarative view definition over key ranges.

    ``CacheJoin("t|<user>|<time>|<poster>",
                [("check", "s|<user>|<poster>"),
                 ("copy", "p|<poster>|<time>")])``
    is the paper's Twip timeline join.  Source order is a performance
    annotation (§3.4): sources are scanned in the given order.
    """

    __slots__ = (
        "output",
        "sources",
        "maintenance",
        "snapshot_interval",
        "value_index",
        "text",
    )

    def __init__(
        self,
        output: "Pattern | str",
        sources: Sequence["Source | Tuple[str, str]"],
        maintenance: MaintenanceType = MaintenanceType.PUSH,
        snapshot_interval: Optional[float] = None,
    ) -> None:
        self.output = pattern_from(output)
        self.sources: List[Source] = [
            s if isinstance(s, Source) else Source(s[0], s[1]) for s in sources
        ]
        self.maintenance = maintenance
        self.snapshot_interval = snapshot_interval
        self.value_index = self._validate()
        ann = {
            MaintenanceType.PUSH: "",
            MaintenanceType.PULL: "pull ",
            MaintenanceType.SNAPSHOT: f"snapshot {snapshot_interval} ",
        }[maintenance]
        self.text = (
            f"{self.output.text} = {ann}"
            + " ".join(f"{s.operator} {s.pattern.text}" for s in self.sources)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheJoin({self.text!r})"

    # ------------------------------------------------------------------
    @property
    def value_source(self) -> Source:
        """The single non-check source, whose values feed the output."""
        return self.sources[self.value_index]

    @property
    def is_aggregate(self) -> bool:
        return self.value_source.is_aggregate

    @property
    def is_pull(self) -> bool:
        return self.maintenance is MaintenanceType.PULL

    @property
    def is_push(self) -> bool:
        return self.maintenance is MaintenanceType.PUSH

    @property
    def is_snapshot(self) -> bool:
        return self.maintenance is MaintenanceType.SNAPSHOT

    def source_tables(self) -> List[str]:
        return [s.pattern.table for s in self.sources]

    # ------------------------------------------------------------------
    def _validate(self) -> int:
        if not self.sources:
            raise JoinError("a cache join needs at least one source")
        value_indexes = [
            i for i, s in enumerate(self.sources) if not s.is_check
        ]
        if len(value_indexes) != 1:
            raise JoinError(
                f"a join with {len(self.sources)} sources must have exactly "
                f"{len(self.sources) - 1} check operators "
                f"(found {len(self.sources) - len(value_indexes)})"
            )
        source_slots = set()
        for src in self.sources:
            source_slots.update(src.pattern.slots)
        missing = [s for s in self.output.slots if s not in source_slots]
        if missing:
            raise JoinError(
                f"output slots {missing} do not appear in any source"
            )
        out_table = self.output.table
        for src in self.sources:
            if src.pattern.table == out_table:
                raise JoinError(
                    f"recursive join: source table {out_table!r} is the "
                    "join's own output table"
                )
        if self.maintenance is MaintenanceType.SNAPSHOT:
            if self.snapshot_interval is None or self.snapshot_interval <= 0:
                raise JoinError("snapshot joins need a positive interval")
        elif self.snapshot_interval is not None:
            raise JoinError("only snapshot joins take an interval")
        return value_indexes[0]
