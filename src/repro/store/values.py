"""Stored values and what a table charges for them.

Pequod's ``copy`` operator often installs the same value under many
output keys — a popular user's tweet is copied into every follower's
timeline.  Paper §4.3 describes *value sharing*: output ranges share one
underlying value buffer instead of each holding its own.

In Python every string is a reference already: a copy output stores
the source row's ``str`` object itself, so the buffer is shared for
free.  What remains is *accounting*, and the table decides it, not the
value:

* a string in a table that is the output of an installed copy join is
  charged one pointer (:data:`POINTER_SIZE`) — the payload lives with
  its source row;
* every other string is charged its length;
* an aggregate accumulator is charged its ``memory_size()``.

A source with n copies therefore costs its payload + 8n bytes, on top
of each row's key and :data:`NODE_OVERHEAD`.  A table's flag is set
when a copy join writing into it is installed (``JoinEngine.add_join``); rows
it already held are recharged then, so a row is released for exactly
what it was acquired for.

When a source row is removed while a copy survives — say in a range
whose pending log has not been applied yet, or one invalidated but not
yet recomputed — the payload's charge leaves with the source, and the
copy keeps its pointer charge until maintenance removes it.
"""

from __future__ import annotations

from typing import Union

#: Bytes charged per stored key-value node (tree node, pointers, color).
NODE_OVERHEAD = 64
#: Bytes charged for a copy output's reference to its source's value.
POINTER_SIZE = 8


#: A stored value: a plain string, or any object exposing ``payload``
#: (client-visible string) and ``memory_size()`` — aggregate
#: accumulators in ``repro.core.operators`` use the latter form.
Value = Union[str, object]


def materialize(value: Value) -> str:
    """The client-visible string for a stored value."""
    if isinstance(value, str):
        return value
    return value.payload  # type: ignore[union-attr]


def value_bytes(value: Value, copy_output: bool = False) -> int:
    """Bytes charged for storing ``value`` in a table; ``copy_output``
    is the table's flag (a copy join's output pays a pointer)."""
    if isinstance(value, str):
        return POINTER_SIZE if copy_output else len(value)
    return value.memory_size()  # type: ignore[union-attr]
