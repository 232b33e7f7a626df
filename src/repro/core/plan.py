"""Compiled per-join plans: one slot vector and one output template
for every execution of a join's nested loop (§3.1–§3.2).

A :class:`ComputePlan` numbers every slot of a join once — a fixed slot
vector — and renders the output key with one numbered format template
over it.  Each source level compiles to offsets into that vector
(:class:`ComputeLevel`): containing-range prefix, pinned-slot checks,
frontier bounds, updater context.  The plan runs the loop in two ways:

* **computing an output range** — a materialized join's first touch and
  recompute (Figure 5), or a pull join's every read.  What the range
  pins and bounds is resolved by :meth:`ComputePlan.bind` into levels
  once per shape;
* **firing an updater** — the same loop with the changed source key
  already bound.  :meth:`ComputePlan.pin` compiles a :class:`FirePin`
  per (fired source, context slots): the checks and assigns that move
  the key's ``Pattern.slot_tuple`` into the slot vector, and the levels
  compiled with those slots bound.  A value-last fire renders its
  output key directly; a deeper value source or an eager check walks
  the remaining levels.

Only pending-log application still runs the interpreted walk
(``JoinEngine._exec_source``).
"""

from __future__ import annotations

from itertools import takewhile
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from ..store.keys import SEP, SEP_SUCCESSOR, key_successor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .joins import CacheJoin


def _escape_literal(text: str) -> str:
    return text.replace("{", "{{").replace("}", "}}")


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
    * ``context_names`` / ``context_slots`` — the updater context's
      slot names and their vec indexes, aligned, in vec order: the
      bound slots the source range's prefix does not fix (context
      compression, §3.2).  That includes the source's own bound slots
      after its first unbound segment: the range does not enforce
      them, so a fire's :class:`FirePin` checks them.  The names come
      from :meth:`ComputePlan.context`, so every updater the level
      installs shares one tuple.
    """

    __slots__ = (
        "pattern",
        "table",
        "is_value",
        "prefix",
        "closing",
        "checks",
        "assigns",
        "frontier",
        "context_names",
        "context_slots",
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


class FirePin:
    """One fired source of a :class:`ComputePlan`, its key pinned
    (§3.2): what an updater fire runs instead of matching the key into
    a dict and merging it with the updater's context.

    ``slots`` are the vec indexes of the context's names, in order;
    ``checks`` are (tuple index, vec index) equality tests for source
    slots the updater's context already binds — the compiled form of
    ``child_with``'s conflict test; ``assigns`` move the other source
    slots into the slot vector.  ``levels`` are the join's levels
    compiled with the context and every slot of the fired source bound,
    for fires that walk on (the fired level itself is never scanned).
    The last key's tuple is kept, so a fanned-out write extracts its
    slots once for all its followers.
    """

    __slots__ = ("plan", "pattern", "slots", "checks", "assigns", "levels", "_last")

    def __init__(
        self, plan: "ComputePlan", source: int, context: Sequence[str]
    ) -> None:
        self.plan = plan
        self.pattern = pattern = plan.join.sources[source].pattern
        index = plan.index
        own = pattern.slot_index
        self.slots = tuple(index[n] for n in context)
        self.checks = tuple((i, index[n]) for n, i in own.items() if n in context)
        self.assigns = tuple(
            (i, index[n]) for n, i in own.items() if n not in context
        )
        self.levels = plan._compile(
            list(context) + [n for n in own if n not in context], None
        )
        self._last: tuple = (None, None)  # (key, its slot tuple)

    def vector(self, values: Sequence[str]) -> List[Optional[str]]:
        """A fresh slot vector holding an updater's context values."""
        vec: List[Optional[str]] = [None] * len(self.plan.index)
        for vi, value in zip(self.slots, values):
            vec[vi] = value
        return vec

    def bind(self, key: str, vec: List[Optional[str]]) -> bool:
        """Pin ``key`` into ``vec`` (which holds the updater's context);
        False when the key does not fit the source pattern or conflicts
        with the context — the fire is not this updater's concern."""
        last_key, values = self._last
        if key is not last_key:
            values = self.pattern.slot_tuple(key)
            self._last = (key, values)
        if values is None:
            return False
        for ti, vi in self.checks:
            if values[ti] != vec[vi]:
                return False
        for ti, vi in self.assigns:
            vec[vi] = values[ti]
        return True


class ComputePlan:
    """The compiled nested loop of one join (§3.1–§3.2): a materialized
    join's first touch and recompute, a pull join's every read, and
    every updater fire.

    The interpreted walk carries a ``SlotConstraints`` dict per row,
    matches every source key into a dict, merges dicts in
    ``child_with`` and expands the output through ``format_map``.  The
    plan instead numbers every slot of the join once — a fixed slot
    vector — and renders the output key with one numbered format
    template over it.  What depends on the requested range (which
    output slots it pins, which slot it bounds) is resolved by
    :meth:`bind` into per-level :class:`ComputeLevel` offsets, once
    per shape and cached, so an execution does no per-row and no
    per-outer-row planning: each level's containing range, slot
    checks, frontier test and updater context are precomputed offsets.
    A fire's pinned source key is one more bound level (:meth:`pin`).
    """

    __slots__ = (
        "join", "index", "out_fmt", "widths", "pins", "_shapes", "_contexts",
    )

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
        #: Compiled fire pins per (source index, context slot names).
        self.pins: Dict[Tuple[int, Tuple[str, ...]], FirePin] = {}
        #: Updater context names per (source index, bound slot names).
        self._contexts: Dict[Tuple[int, Tuple[str, ...]], Tuple[str, ...]] = {}

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

    def pin(self, source: int, context: Tuple[str, ...]) -> FirePin:
        """The :class:`FirePin` for updaters of source ``source`` whose
        context binds the slots ``context`` (in vec order), compiled on
        first use."""
        pin = self.pins.get((source, context))
        if pin is None:
            pin = self.pins[source, context] = FirePin(self, source, context)
        return pin

    def context(self, source: int, bound: Iterable[str]) -> Tuple[str, ...]:
        """The updater context of source ``source`` when the slots
        ``bound`` are bound: those the source range's prefix does not
        fix (context compression, §3.2), in vec order.

        The one place that order is decided.  The compute walk and the
        pending log's replay both name their updaters' contexts through
        it, so one updater has one identity key whichever path installs
        it — two keys would fire it twice.  Cached per shape; equal
        contexts share one tuple.
        """
        key = (source, tuple(bound))
        names = self._contexts.get(key)
        if names is None:
            segments = self.join.sources[source].pattern.segments
            fixed = set(takewhile(
                key[1].__contains__, (seg.slot for seg in segments if seg.is_slot)
            ))
            names = tuple(sorted(
                (name for name in key[1] if name not in fixed),
                key=self.index.__getitem__,
            ))
            # A context fixes no prefix slot of its own (the source's
            # first slot is either fixed, so dropped, or unbound), so
            # ``names`` is its own entry: the shared tuple.
            names = self._contexts.setdefault((source, names), names)
            self._contexts[key] = names
        return names

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
            level.context_names = names = self.context(idx, bound)
            level.context_slots = tuple(index[name] for name in names)
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

