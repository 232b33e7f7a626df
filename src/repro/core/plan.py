"""Compiled per-join execution plans: for the write path, and for
computing a range.

The *read* path's patterns compile into slicing plans.  This
module does the same for the *write* path's hot loop, eager updater
fires, which interpreted (``JoinEngine._fire_eager_group``) match the
source key into a dict, merge dicts and ``expand`` per follower.

An :class:`ExecPlan` compiles one (join, fired source) pair into flat
precomputed state:

* the **write-side slot plan** — ``Pattern.slot_tuple``'s absolute
  extraction offsets, shared across every updater of the pattern, with
  the last key's tuple kept, so a fanned-out post extracts its slots
  once per change, not once per follower;
* the **preresolved output table handle** — the join's output table is
  fixed, so the per-install ``table_for_key`` split+lookup goes away;
* the **fused operator step** — ``copy`` installs directly; the
  aggregate chain (``count``/``min``/``max``/``sum``) routes the
  precomputed output key into the accumulator adjustment;
* the **output-key expand template** — per updater, the output pattern
  with literals *and* that updater's context values inlined into one
  format string, leaving only positional fields indexed into the
  extracted slot tuple.  Repeated/conflicting slots compile to equality
  checks, mirroring ``SlotConstraints.child_with``.

Plans only compile for the shape eager maintenance makes hot — a push
join whose fired source is its value source *and* its last source (the
paper's common value-source-last join).  Everything else (check and
echeck sources, deep value sources, pull joins) stays interpreted.

A :class:`ComputePlan` does the same for the *read* side's expensive
step, first-touch compute and recompute of a materialized join's
output range (§3.1, Figure 5): every slot of the join gets a fixed
position in a slot vector, each source level compiles to offsets —
containing-range prefix, pinned-slot checks, frontier bounds, updater
context — and the output key is one numbered format template.  It
covers every join (copy and aggregate, value source anywhere): a pull
join runs it on every read without storing the result.  Pending-log
application, eager checks and fires outside ``ExecPlan``'s subset stay
on the interpreted walk.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..store.keys import SEP, SEP_SUCCESSOR, key_successor
from .operators import COPY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..store.store import OrderedStore
    from ..store.table import Table
    from .joins import CacheJoin


class FireTemplate:
    """One updater's bound output-key template.

    ``fmt`` is the output pattern with literals and the updater's
    context values inlined; ``indexes`` are positions into the fired
    source's slot tuple, in field order; ``checks`` are (tuple index,
    expected value) pairs for slots pinned by both the context and the
    source key — the compiled form of ``child_with``'s conflict test.
    ``injective`` records whether distinct source keys always produce
    distinct output keys (every free source slot appears in the
    output); a fan-out installed as one sorted run requires it, so
    reordering can never change which write wins an output key.
    """

    __slots__ = ("fmt", "indexes", "checks", "injective")

    def __init__(
        self,
        fmt: str,
        indexes: Tuple[int, ...],
        checks: Tuple[Tuple[int, str], ...],
        injective: bool,
    ) -> None:
        self.fmt = fmt
        self.indexes = indexes
        self.checks = checks
        self.injective = injective

    def out_key(self, values: Tuple[str, ...]) -> Optional[str]:
        """The output key for one extracted slot tuple, or None when a
        pinned-slot equality check rejects the key."""
        for idx, expected in self.checks:
            if values[idx] != expected:
                return None
        indexes = self.indexes
        if not indexes:
            return self.fmt
        return self.fmt.format(*[values[i] for i in indexes])


def _escape_literal(text: str) -> str:
    return text.replace("{", "{{").replace("}", "}}")


class ExecPlan:
    """Compiled execution state for one (join, fired source) pair.

    Shared by every updater installed for that pair; per-updater state
    (the bound :class:`FireTemplate`) is derived via :meth:`bind` and
    cached on the updater itself.
    """

    __slots__ = ("join", "source_index", "pattern", "operator", "table", "_last")

    def __init__(
        self,
        join: "CacheJoin",
        source_index: int,
        table: "Table",
    ) -> None:
        self.join = join
        self.source_index = source_index
        src = join.sources[source_index]
        self.pattern = src.pattern
        #: The fused operator step: ``copy`` means install-directly,
        #: anything else is the aggregate accumulator chain.
        self.operator = src.operator
        #: Preresolved output table handle — table objects are stable
        #: for the store's lifetime, so the per-install name split and
        #: dict lookup compile away.
        self.table = table
        self._last: tuple = (None, None)  # (key, its slot tuple)

    @property
    def is_copy(self) -> bool:
        return self.operator == COPY

    def extract(self, key: str) -> Optional[Tuple[str, ...]]:
        """The fired source's slot tuple for ``key`` (write-side slot
        plan), or None when the key doesn't fit the source pattern.
        The last key's tuple is kept: a fanned-out write extracts once
        for all its followers."""
        last_key, values = self._last
        if key is not last_key:
            values = self.pattern.slot_tuple(key)
            self._last = (key, values)
        return values

    def bind(self, context: Dict[str, str]) -> Optional[FireTemplate]:
        """Compile one updater's context into a :class:`FireTemplate`.

        Returns None when the context plus the source slots cannot
        produce the output key (the fire would fail slot resolution);
        the caller then falls back to the interpreted path.
        """
        slot_index = self.pattern.slot_index
        parts = []
        indexes = []
        for i, seg in enumerate(self.join.output.segments):
            if i:
                parts.append(SEP)
            if not seg.is_slot:
                parts.append(_escape_literal(seg.text))
                continue
            src_idx = slot_index.get(seg.slot)
            ctx_value = context.get(seg.slot)
            if src_idx is not None and ctx_value is None:
                parts.append("{}")
                indexes.append(src_idx)
            elif ctx_value is not None:
                parts.append(_escape_literal(ctx_value))
            else:
                return None  # slot unavailable: interpreted path decides
        checks = tuple(
            (idx, value)
            for name, idx in slot_index.items()
            if (value := context.get(name)) is not None
        )
        free = {
            idx
            for name, idx in slot_index.items()
            if context.get(name) is None
        }
        return FireTemplate(
            "".join(parts), tuple(indexes), checks, free <= set(indexes)
        )


class ComputeLevel:
    """One source level of a :class:`ComputePlan`, bound to one shape.

    Besides the source's ``pattern``, ``table`` and whether it is the
    value source, the fields are offsets into the execution's slot
    vector (``vec``) or the level's slot tuple (``Pattern.slot_tuple``
    of a source key):

    * ``prefix`` — the containing range's exact part (§3.1), a numbered
      format over the slot vector; ``closing`` says how the range
      ends: ``KEY`` (every segment bound: one key), ``BOUNDS`` (the
      first unbound slot is the output range's frontier slot: its
      bounds extend the prefix) or ``PREFIX`` (every key under it);
    * ``checks`` — (tuple index, vec index) equality tests for slots
      bound earlier.  A slot inside ``prefix`` needs none: every key of
      the range starts with it;
    * ``assigns`` — (tuple index, vec index) for slots this level binds;
    * ``frontier`` — tuple index of the frontier slot when this level
      binds it and the range does not already enforce its bounds
      (``child_with``'s test, including ``lo.startswith(value)``), or -1;
    * ``context`` — (name, vec index) of the updater context: the
      bound slots the source key cannot re-derive (context compression,
      §3.2).
    """

    __slots__ = (
        "pattern",
        "table",
        "is_value",
        "is_copy",
        "prefix",
        "closing",
        "checks",
        "assigns",
        "frontier",
        "context",
    )

    KEY, BOUNDS, PREFIX = 0, 1, 2

    def containing_range(
        self, vec: List[Optional[str]], flo: Optional[str], fhi: Optional[str]
    ) -> Tuple[str, str]:
        """This level's source range for the current slot vector — the
        compiled ``Pattern.containing_range``."""
        prefix = self.prefix.format(*vec)
        closing = self.closing
        if closing == ComputeLevel.KEY:
            return prefix, key_successor(prefix)
        hi = prefix[:-1] + SEP_SUCCESSOR  # prefix_upper_bound(prefix)
        if closing == ComputeLevel.PREFIX:
            return prefix, hi
        return (
            prefix + flo if flo else prefix,
            prefix + fhi if fhi else hi,
        )


class ComputePlan:
    """Compiled compute for one join (§3.1): a materialized join's
    first touch and recompute, or a pull join's every read.

    The interpreted walk carries a ``SlotConstraints`` dict per row,
    matches every source key into a dict, merges dicts in
    ``child_with`` and expands the output through ``format_map``.  The
    plan instead numbers every slot of the join once — a fixed slot
    vector — and renders the output key with one numbered format
    template over it.  What depends on the requested range (which
    output slots it pins, which slot it bounds) is resolved by
    :meth:`bind` into per-level :class:`ComputeLevel` offsets, once
    per shape and cached, so an execution does no per-row and no per-outer-row
    planning: each level's containing range, slot checks, frontier test
    and updater context are precomputed offsets.
    """

    __slots__ = ("join", "index", "out_fmt", "widths", "_shapes")

    def __init__(self, join: "CacheJoin") -> None:
        self.join = join
        names: Dict[str, int] = {}
        for pattern in [join.output] + [s.pattern for s in join.sources]:
            for name in pattern.slots:
                names.setdefault(name, len(names))
        #: Slot vector layout: name -> position.
        self.index = names
        self.out_fmt = _numbered(
            join.output.segments, names, len(join.output.segments)
        )
        # A declared output width needs a check per emitted row unless a
        # source declares the same width for that slot: then every
        # matched (and equality-checked) value already has it.
        guaranteed = {
            (seg.slot, seg.width)
            for src in join.sources
            for seg in src.pattern.segments
            if seg.is_slot and seg.width is not None
        }
        self.widths: Tuple[Tuple[int, int], ...] = tuple(
            (names[seg.slot], seg.width)
            for seg in join.output.segments
            if seg.is_slot
            and seg.width is not None
            and (seg.slot, seg.width) not in guaranteed
        )
        self._shapes: Dict[tuple, Tuple[ComputeLevel, ...]] = {}

    def vector(self, exact: Dict[str, str]) -> List[Optional[str]]:
        """A fresh slot vector holding the range's pinned slots."""
        vec: List[Optional[str]] = [None] * len(self.index)
        index = self.index
        for name, value in exact.items():
            vec[index[name]] = value
        return vec

    def slot_dict(self, vec: List[Optional[str]]) -> Dict[str, str]:
        """The output slot assignment in ``vec`` as ``Pattern.expand``
        takes it (used to raise expansion errors verbatim)."""
        return {name: vec[self.index[name]] for name in self.join.output.slots}

    def bind(
        self, exact: Dict[str, str], bounds: Dict[str, tuple]
    ) -> Tuple[ComputeLevel, ...]:
        """The source levels for constraints pinning ``exact`` and
        bounding ``bounds`` (a ``SlotConstraints``'s two maps; at most
        one slot is bounded), compiled on first use of that shape."""
        key = (tuple(exact), tuple(bounds))
        levels = self._shapes.get(key)
        if levels is None:
            levels = self._shapes[key] = self._compile(
                list(exact), next(iter(bounds), None)
            )
        return levels

    def _compile(
        self, pinned: List[str], frontier: Optional[str]
    ) -> Tuple[ComputeLevel, ...]:
        join, index = self.join, self.index
        bound = list(pinned)  # in SlotConstraints.exact order
        levels = []
        for idx, src in enumerate(join.sources):
            pattern = src.pattern
            own = pattern.slot_index
            segments = pattern.segments
            closing_at = next(
                (i for i, seg in enumerate(segments)
                 if seg.is_slot and seg.slot not in bound),
                len(segments),
            )
            level = ComputeLevel()
            level.pattern = pattern
            level.table = pattern.table
            level.is_value = idx == join.value_index
            level.is_copy = src.operator == COPY
            if closing_at == len(segments):
                level.closing = ComputeLevel.KEY
                level.prefix = _numbered(segments, index, closing_at)
            else:
                closing = segments[closing_at].slot
                level.closing = (
                    ComputeLevel.BOUNDS
                    if closing == frontier
                    else ComputeLevel.PREFIX
                )
                level.prefix = _numbered(segments, index, closing_at) + SEP
            in_prefix = {seg.slot for seg in segments[:closing_at] if seg.is_slot}
            level.checks = tuple(
                (i, index[name]) for name, i in own.items()
                if name in bound and name not in in_prefix
            )
            fresh = [name for name in own if name not in bound]
            level.assigns = tuple((own[name], index[name]) for name in fresh)
            level.frontier = (
                own[frontier]
                if frontier in fresh and level.closing != ComputeLevel.BOUNDS
                else -1
            )
            level.context = tuple(
                (name, index[name]) for name in bound if name not in own
            )
            bound.extend(fresh)
            levels.append(level)
        return tuple(levels)


def _numbered(segments, index: Dict[str, int], stop: int) -> str:
    """``segments[:stop]`` joined as a format string whose fields are
    slot-vector positions (``t|{0}|{2}``)."""
    return SEP.join(
        "{%d}" % index[seg.slot] if seg.is_slot else _escape_literal(seg.text)
        for seg in segments[:stop]
    )


def compile_exec_plan(
    join: "CacheJoin", source_index: int, store: "OrderedStore"
) -> Optional[ExecPlan]:
    """Compile the plan for one (join, source) pair, or None when the
    shape is outside the compiled subset (the interpreted walk remains
    the implementation for it)."""
    if not join.is_push:
        return None
    if source_index != join.value_index:
        return None  # check/echeck sources: lazy or invalidation paths
    if source_index != len(join.sources) - 1:
        # A deeper value source still scans trailing sources per fire;
        # the interpreted recursion handles that shape.
        return None
    return ExecPlan(join, source_index, store.table(join.output.table))
