"""Segment-walking specifications of the compiled ``Pattern`` paths.

``Pattern`` compiles ``match`` into slicing plans or one anchored
regex, ``slot_tuple`` into absolute extraction offsets and ``expand``
into a format template (see ``repro.core.pattern``).  The functions
here are what those compile: plain walks over ``pattern.segments``.
Each takes the pattern first, so it can also stand in for the method
of the same name (``conftest.reference_patterns`` patches them in).
"""

from typing import Dict, List, Optional, Tuple

from repro.core.pattern import Pattern, PatternError
from repro.store.keys import SEP


def match_reference(pattern: Pattern, key: str) -> Optional[Dict[str, str]]:
    """Slot values if ``key`` fits ``pattern``, else None."""
    parts = key.split(SEP)
    if len(parts) != len(pattern.segments):
        return None
    out: Dict[str, str] = {}
    for part, seg in zip(parts, pattern.segments):
        if seg.is_slot:
            if seg.width is not None and len(part) != seg.width:
                return None
            prior = out.get(seg.slot)
            if prior is None:
                out[seg.slot] = part
            elif prior != part:
                return None
        elif part != seg.text:
            return None
    return out


def slot_tuple_reference(pattern: Pattern, key: str) -> Optional[Tuple[str, ...]]:
    """``match`` as a tuple in ``pattern.slots`` order."""
    match = match_reference(pattern, key)
    if match is None:
        return None
    return tuple(match[name] for name in pattern.slots)


def expand_reference(pattern: Pattern, slots: Dict[str, str]) -> str:
    """The concrete key for a full slot assignment."""
    parts: List[str] = []
    for seg in pattern.segments:
        if seg.is_slot:
            try:
                value = slots[seg.slot]
            except KeyError:
                raise PatternError(
                    f"missing slot {seg.slot!r} expanding {pattern.text!r}"
                ) from None
            if seg.width is not None and len(value) != seg.width:
                raise PatternError(
                    f"slot {seg.slot!r} value {value!r} does not have "
                    f"declared width {seg.width} in {pattern.text!r}"
                )
            parts.append(value)
        else:
            parts.append(seg.text)
    return SEP.join(parts)
