"""Key patterns: the schemas of cache-join inputs and outputs.

A pattern like ``t|<user>|<time>|<poster>`` describes a family of keys:
literal segments fix text, slot segments (in angle brackets) capture
values.  Patterns appear as the output and source specifications of
cache joins (paper §3, Figure 2) and drive three operations:

* **match** a concrete key, extracting slot values;
* **expand** a full slot assignment into a concrete key;
* **prefix expansion** of a partial assignment, which underlies
  *containing range* computation (§3.1) — the minimal source range
  worth scanning given what is already known.

The paper writes slots bare (``t|user|time|poster``); real Pequod used
separate slot declarations.  Our textual form marks slots explicitly
with ``<...>`` to keep the grammar unambiguous, and the parser accepts
the paper's bare style through a compatibility rewrite (see
``repro.core.grammar``).

Compilation
-----------

Matching and expansion sit on every hot path: each source key examined
during join execution and each updater fired by a write runs ``match``,
and every installed output runs ``expand``.  Patterns therefore
*compile* at construction time:

* **Fixed-width patterns** (every slot carries a declared width, §3's
  "fixed numbers of bytes") precompute absolute character offsets, so
  ``match`` is a length check plus pure string slicing — no regex, no
  split.
* **Variable-width patterns** compile to one anchored regular
  expression with a named group per slot (repeats become
  backreferences), so ``match`` is a single C-level ``fullmatch``.
* ``expand`` precompiles a ``str.format`` template.

``expand_prefix`` and containing-range computation (§3.1) walk the
segments on every call: their inputs are whole constraint sets, which
almost never repeat, so a memo over them does not pay.  The compiled
compute path (``repro.core.plan``) compiles each source's containing
range once per join shape instead.  The segment-walking specifications the compiled
``match``, ``slot_tuple`` and ``expand`` are property-tested against
live with the tests, in ``tests/pattern_oracle.py``.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from ..store.keys import SEP, key_successor, prefix_upper_bound

_SLOT_RE = re.compile(r"^<([A-Za-z_][A-Za-z0-9_]*)(?::(\d+))?>$")


class Segment:
    """One ``|``-separated piece of a pattern: literal text or a slot.

    Slots may carry a fixed width (``<time:10>``), the paper's §3 slot
    definition "taking fixed numbers of bytes": matching then requires
    exactly that many characters, which makes slot values prefix-free
    and containing ranges exactly minimal.
    """

    __slots__ = ("text", "slot", "width")

    def __init__(self, text: str, slot: Optional[str], width: Optional[int] = None) -> None:
        self.text = text
        self.slot = slot
        self.width = width

    @property
    def is_slot(self) -> bool:
        return self.slot is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.is_slot:
            return self.text
        if self.width is not None:
            return f"<{self.slot}:{self.width}>"
        return f"<{self.slot}>"


class PatternError(ValueError):
    """Raised for malformed patterns or invalid expansions."""


class Pattern:
    """A parsed key pattern.

    ``Pattern("t|<user>|<time>|<poster>")`` has the literal table tag
    ``t`` and three slots.  Patterns compare equal by their source text.
    """

    __slots__ = (
        "text",
        "segments",
        "slots",
        "table",
        "_regex",
        "_fixed",
        "_fmt",
        "_width_checks",
        "_tuple_spans",
        "_dup_checks",
        "slot_index",
    )

    def __init__(self, text: str) -> None:
        if not text:
            raise PatternError("empty pattern")
        self.text = text
        self.segments: List[Segment] = []
        seen: Dict[str, int] = {}
        widths: Dict[str, Optional[int]] = {}
        for raw in text.split(SEP):
            m = _SLOT_RE.match(raw)
            if m:
                name = m.group(1)
                width = int(m.group(2)) if m.group(2) else None
                if width == 0:
                    raise PatternError(f"zero-width slot in {text!r}")
                if name in widths and widths[name] != width:
                    raise PatternError(
                        f"slot {name!r} declared with conflicting widths in "
                        f"{text!r}"
                    )
                widths[name] = width
                seen[name] = seen.get(name, 0) + 1
                self.segments.append(Segment(raw, name, width))
            else:
                if "<" in raw or ">" in raw:
                    raise PatternError(f"malformed segment {raw!r} in {text!r}")
                self.segments.append(Segment(raw, None))
        #: Slot names in order of first appearance.
        self.slots: Tuple[str, ...] = tuple(seen)
        first = self.segments[0]
        if first.is_slot:
            raise PatternError(
                f"pattern {text!r} must start with a literal table tag"
            )
        self.table = first.text
        self._compile()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _compile(self) -> None:
        """Precompute the match/expand plans; see the module docstring."""
        # Anchored regex: one named group per slot, backreferences for
        # repeats (which also enforces repeated-slot agreement in C).
        pieces: List[str] = []
        named: set = set()
        for seg in self.segments:
            if not seg.is_slot:
                pieces.append(re.escape(seg.text))
            elif seg.slot in named:
                pieces.append(f"(?P={seg.slot})")
            else:
                named.add(seg.slot)
                body = f"[^{re.escape(SEP)}]"
                body += f"{{{seg.width}}}" if seg.width is not None else "*"
                pieces.append(f"(?P<{seg.slot}>{body})")
        self._regex = re.compile(re.escape(SEP).join(pieces))

        # Fixed-width slicing plan, when every slot declares a width:
        # literal runs (literals plus separators, merged) are verified
        # with offset startswith, slots extracted by slicing.
        self._fixed = None
        if all(seg.width is not None for seg in self.segments if seg.is_slot):
            runs: List[Tuple[int, str]] = []
            slot_spans: List[Tuple[int, int, str]] = []
            run_start, run_text = 0, []
            pos = 0
            for idx, seg in enumerate(self.segments):
                if idx:
                    if not run_text:
                        run_start = pos
                    run_text.append(SEP)
                    pos += 1
                if seg.is_slot:
                    if run_text:
                        runs.append((run_start, "".join(run_text)))
                        run_text = []
                    slot_spans.append((pos, pos + seg.width, seg.slot))
                    pos += seg.width
                else:
                    if not run_text:
                        run_start = pos
                    run_text.append(seg.text)
                    pos += len(seg.text)
            if run_text:
                runs.append((run_start, "".join(run_text)))
            has_dup = len(self.slots) < sum(
                1 for seg in self.segments if seg.is_slot
            )
            self._fixed = (pos, tuple(runs), tuple(slot_spans), has_dup)

        # Expansion template: literal braces escaped, slots as fields.
        fmt: List[str] = []
        for idx, seg in enumerate(self.segments):
            if idx:
                fmt.append(SEP)
            if seg.is_slot:
                fmt.append("{" + seg.slot + "}")
            else:
                fmt.append(seg.text.replace("{", "{{").replace("}", "}}"))
        self._fmt = "".join(fmt)
        self._width_checks = tuple(
            (name, width) for name, width in (
                (seg.slot, seg.width) for seg in self.segments if seg.is_slot
            ) if width is not None
        )

        # Write-side slot plan (the updater-fire analogue of the fixed
        # slicing plan): for fixed-width patterns, the absolute
        # extraction slice of each slot's *first* occurrence, in
        # ``self.slots`` order, plus equality checks for repeats.
        # ``slot_tuple`` uses it to extract slot values as a tuple —
        # no regex, no dict — which is what compiled execution plans
        # (``repro.core.plan``) consume on every eager updater fire.
        self.slot_index: Dict[str, int] = {
            name: i for i, name in enumerate(self.slots)
        }
        self._tuple_spans: Optional[Tuple[Tuple[int, int], ...]] = None
        self._dup_checks: Tuple[Tuple[int, int, int], ...] = ()
        if self._fixed is not None:
            _, _, slot_spans, _ = self._fixed
            firsts: Dict[str, Tuple[int, int]] = {}
            dups: List[Tuple[int, int, int]] = []
            for start, end, name in slot_spans:
                if name in firsts:
                    dups.append((start, end, self.slot_index[name]))
                else:
                    firsts[name] = (start, end)
            self._tuple_spans = tuple(firsts[name] for name in self.slots)
            self._dup_checks = tuple(dups)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Pattern({self.text!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Pattern) and self.text == other.text

    def __hash__(self) -> int:
        return hash(self.text)

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match(self, key: str) -> Optional[Dict[str, str]]:
        """Slot values if ``key`` fits this pattern, else None.

        A key fits when it has exactly the pattern's segment count,
        every literal matches, and repeated slots agree.  Pequod is
        schema-free, so ranges may contain keys that don't match their
        source patterns; those are skipped during join execution (§3.1).
        """
        fixed = self._fixed
        if fixed is not None:
            total, runs, slot_spans, has_dup = fixed
            if len(key) != total:
                return None
            for start, text in runs:
                if not key.startswith(text, start):
                    return None
            out: Dict[str, str] = {}
            if has_dup:
                for start, end, name in slot_spans:
                    value = key[start:end]
                    if SEP in value:
                        return None
                    prior = out.get(name)
                    if prior is None:
                        out[name] = value
                    elif prior != value:
                        return None
            else:
                for start, end, name in slot_spans:
                    value = key[start:end]
                    if SEP in value:
                        return None
                    out[name] = value
            return out
        m = self._regex.fullmatch(key)
        return m.groupdict() if m is not None else None

    def matches(self, key: str) -> bool:
        return self.match(key) is not None

    def slot_tuple(self, key: str) -> Optional[Tuple[str, ...]]:
        """Slot values of ``key`` as a tuple in ``self.slots`` order.

        The write-side slot plan: semantically ``match`` without the
        dict — fixed-width patterns extract by absolute slices, variable
        ones by one anchored ``fullmatch`` whose group order *is* the
        first-appearance order of ``self.slots``.  Compiled execution
        plans index the result by precomputed slot offsets, so an eager
        updater fire allocates no dictionaries at all.
        """
        fixed = self._fixed
        if fixed is not None:
            total, runs, _, _ = fixed
            if len(key) != total:
                return None
            for start, text in runs:
                if not key.startswith(text, start):
                    return None
            values = tuple(key[s:e] for s, e in self._tuple_spans)
            for value in values:
                if SEP in value:
                    return None
            for start, end, slot_idx in self._dup_checks:
                if key[start:end] != values[slot_idx]:
                    return None
            return values
        m = self._regex.fullmatch(key)
        return m.groups() if m is not None else None

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def expand(self, slots: Dict[str, str]) -> str:
        """The concrete key for a full slot assignment."""
        try:
            key = self._fmt.format_map(slots)
        except KeyError as exc:
            raise PatternError(
                f"missing slot {exc.args[0]!r} expanding {self.text!r}"
            ) from None
        for name, width in self._width_checks:
            if len(slots[name]) != width:
                raise PatternError(
                    f"slot {name!r} value {slots[name]!r} does not have "
                    f"declared width {width} in {self.text!r}"
                )
        return key

    def expand_prefix(self, slots: Dict[str, str]) -> Tuple[str, bool]:
        """Expand as far as consecutive known segments allow.

        Returns ``(prefix, complete)``.  When ``complete`` is False the
        prefix ends just before the first unknown slot and includes the
        trailing separator, ready to serve as a scan bound.
        """
        parts: List[str] = []
        for seg in self.segments:
            if seg.is_slot and seg.slot not in slots:
                return SEP.join(parts) + SEP if parts else "", False
            parts.append(slots[seg.slot] if seg.is_slot else seg.text)
        return SEP.join(parts), True

    # ------------------------------------------------------------------
    # Containing ranges (§3.1)
    # ------------------------------------------------------------------
    def containing_range(
        self,
        exact: Dict[str, str],
        bounds: Optional[Dict[str, Tuple[Optional[str], Optional[str]]]] = None,
    ) -> Tuple[str, str]:
        """The minimal source key range consistent with the constraints.

        ``exact`` maps slot names to pinned values; ``bounds`` maps the
        frontier slot to ``(lo, hi)`` string bounds (either may be
        None).  This is the engine of
        :meth:`repro.core.ranges.SlotConstraints.containing_range`.

        The walk extends an exact prefix while segments are literals or
        exactly-assigned slots; the first non-exact segment closes the
        range using the slot's bounds (if any).
        """
        bounds = bounds or {}
        parts: List[str] = []
        for seg in self.segments:
            if not seg.is_slot:
                parts.append(seg.text)
                continue
            value = exact.get(seg.slot)
            if value is not None:
                parts.append(value)
                continue
            prefix = SEP.join(parts) + SEP if parts else ""
            lo_bound, hi_bound = bounds.get(seg.slot, (None, None))
            lo = prefix + lo_bound if lo_bound else prefix
            if hi_bound:
                hi = prefix + hi_bound
            elif prefix:
                hi = prefix_upper_bound(prefix)
            else:  # pattern begins with an unbound slot (not allowed today)
                raise ValueError(f"unbounded containing range for {self!r}")
            return lo, hi
        key = SEP.join(parts)
        return key, key_successor(key)


def pattern_from(obj: "Pattern | str") -> Pattern:
    """Coerce a string or Pattern into a Pattern."""
    return obj if isinstance(obj, Pattern) else Pattern(obj)
