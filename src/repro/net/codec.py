"""Binary wire codec for Pequod RPC.

A compact, self-describing, from-scratch serialization for the value
shapes RPC needs: ``None``, booleans, integers, floats, strings, bytes,
lists, and string-keyed dictionaries.  Integers use unsigned LEB128
varints with zigzag signing, so the small ids and lengths that dominate
cache traffic stay at one byte.

Wire grammar (one tag byte, then payload)::

    N                       -> None
    T / F                   -> True / False
    i <zigzag varint>       -> int
    d <8-byte IEEE754 BE>   -> float
    s <varint len> <utf8>   -> str
    b <varint len> <raw>    -> bytes
    l <varint count> items  -> list
    m <varint count> pairs  -> dict (string keys)
    P <varint count> keys   -> prefix-compressed string list
    R <varint n> rows       -> list of n (key, value) string pairs

The ``P`` form carries each string as ``<varint shared> <varint len>
<utf8 suffix>`` where ``shared`` bytes are reused from the previous
string.  Batched writes ship sorted key runs (``p|bob|0001``,
``p|bob|0002``, …) whose long common prefixes make this the dominant
wire saving for write-heavy traffic; encoders opt in by wrapping a
string list in :class:`KeyList`, decoders return a plain list.

The ``R`` form is a scan reply — the bulk of read traffic — as two
columns instead of ``n`` tagged pairs::

    R <varint n> <n x u32 key lengths> <n x u32 value lengths>
      <varint bytes> <utf8 of "".join(keys)>
      <varint bytes> <utf8 of "".join(values)>

Lengths are big-endian and count code points, so each column is
decoded once and sliced: encode and decode are a fixed handful of
C-level calls whatever ``n`` is, with no per-row tag dispatch.
Encoders opt in by wrapping the rows in :class:`RowBlock`, decoders
return a plain list of ``(key, value)`` tuples.

The codec is strict: unknown tags, trailing bytes, truncated input,
invalid UTF-8, and length tables that disagree with their data raise
:class:`CodecError` rather than guessing.
"""

from __future__ import annotations

import struct
from itertools import accumulate
from typing import Any, List, Sequence, Tuple


class CodecError(ValueError):
    """Raised on malformed wire data or unencodable values."""


class KeyList(list):
    """A list of strings encoded with shared-prefix compression.

    Behaves exactly like a list; the type only tells :func:`encode` to
    use the ``P`` wire form.  Decoding yields a plain list (the
    compression is a transport detail, not a value shape).
    """


class RowBlock(list):
    """A list of ``(key, value)`` string pairs encoded as one block.

    Like :class:`KeyList`, the type only selects the wire form (``R``);
    decoding yields a plain list of tuples.
    """


_NONE, _TRUE, _FALSE = ord("N"), ord("T"), ord("F")
_INT, _FLOAT, _STR, _BYTES = ord("i"), ord("d"), ord("s"), ord("b")
_LIST, _MAP, _KEYS, _ROWS = ord("l"), ord("m"), ord("P"), ord("R")


# ----------------------------------------------------------------------
# Varints
# ----------------------------------------------------------------------
def encode_varint(value: int) -> bytes:
    """Unsigned LEB128."""
    if value < 0:
        raise CodecError("varints are unsigned")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int) -> Tuple[int, int]:
    """Returns ``(value, next_offset)``."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CodecError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 1024:  # Python ints are unbounded; cap for sanity
            raise CodecError("varint too long")


def zigzag(value: int) -> int:
    """Map signed to unsigned: 0,-1,1,-2 -> 0,1,2,3 (unbounded ints)."""
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


# ----------------------------------------------------------------------
# Values
# ----------------------------------------------------------------------
def encode(value: Any) -> bytes:
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def _append_varint(out: bytearray, value: int) -> None:
    if value < 128:
        out.append(value)
    else:
        out.extend(encode_varint(value))


def _encode_into(value: Any, out: bytearray) -> None:
    if isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_STR)
        _append_varint(out, len(raw))
        out.extend(raw)
    elif value is None:
        out.append(_NONE)
    elif value is True:
        out.append(_TRUE)
    elif value is False:
        out.append(_FALSE)
    elif isinstance(value, int):
        out.append(_INT)
        _append_varint(out, zigzag(value))
    elif isinstance(value, float):
        out.append(_FLOAT)
        out.extend(struct.pack(">d", value))
    elif isinstance(value, (bytes, bytearray)):
        out.append(_BYTES)
        _append_varint(out, len(value))
        out.extend(value)
    elif isinstance(value, RowBlock):
        _encode_rows(value, out)
    elif isinstance(value, KeyList):
        out.append(_KEYS)
        _append_varint(out, len(value))
        prev = b""
        for item in value:
            if not isinstance(item, str):
                raise CodecError("KeyList items must be strings")
            raw = item.encode("utf-8")
            shared = 0
            limit = min(len(prev), len(raw))
            while shared < limit and prev[shared] == raw[shared]:
                shared += 1
            suffix = raw[shared:]
            _append_varint(out, shared)
            _append_varint(out, len(suffix))
            out.extend(suffix)
            prev = raw
    elif isinstance(value, (list, tuple)):
        out.append(_LIST)
        _append_varint(out, len(value))
        for item in value:
            _encode_into(item, out)
    elif isinstance(value, dict):
        out.append(_MAP)
        _append_varint(out, len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(f"dict keys must be strings, got {key!r}")
            _encode_into(key, out)
            _encode_into(item, out)
    else:
        raise CodecError(f"cannot encode {type(value).__name__}")


def _encode_rows(rows: Sequence[Sequence[str]], out: bytearray) -> None:
    """The ``R`` form (module docstring): columns, not tagged pairs."""
    n = len(rows)
    try:
        if not set(map(type, rows)) <= {tuple, list}:
            raise TypeError("rows must be tuples or lists")
        # strict: rows of unequal width must not be silently truncated.
        keys, values = zip(*rows, strict=True) if n else ((), ())
        # join() rejects non-strings, encode() lone surrogates.
        key_blob = "".join(keys).encode("utf-8")
        value_blob = "".join(values).encode("utf-8")
        lengths = struct.pack(f">{2 * n}I", *map(len, keys), *map(len, values))
    except (TypeError, ValueError, struct.error) as exc:
        raise CodecError(f"RowBlock rows must be (str, str): {exc}") from exc
    out.append(_ROWS)
    _append_varint(out, n)
    out.extend(lengths)
    _append_varint(out, len(key_blob))
    out.extend(key_blob)
    _append_varint(out, len(value_blob))
    out.extend(value_blob)


def decode(data: bytes) -> Any:
    """Decode exactly one value; trailing bytes are an error."""
    value, offset = decode_prefix(data, 0)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes")
    return value


def decode_prefix(data: bytes, offset: int) -> Tuple[Any, int]:
    size = len(data)
    if offset >= size:
        raise CodecError("truncated value")
    tag = data[offset]
    offset += 1
    # Hottest tags first.  Their varints are nearly always one byte, a
    # case read inline: calling decode_varint costs as much as the rest.
    if tag == _STR:
        if offset < size and data[offset] < 128:
            length = data[offset]
            offset += 1
        else:
            length, offset = decode_varint(data, offset)
        end = offset + length
        if end > size:
            raise CodecError("truncated string")
        return _decode_text(data[offset:end]), end
    if tag == _INT:
        if offset < size and data[offset] < 128:
            raw = data[offset]
            offset += 1
        else:
            raw, offset = decode_varint(data, offset)
        return (raw >> 1) ^ -(raw & 1), offset
    if tag == _LIST:
        if offset < size and data[offset] < 128:
            count = data[offset]
            offset += 1
        else:
            count, offset = decode_varint(data, offset)
        items = []
        for _ in range(count):
            item, offset = decode_prefix(data, offset)
            items.append(item)
        return items, offset
    if tag == _NONE:
        return None, offset
    if tag == _TRUE:
        return True, offset
    if tag == _FALSE:
        return False, offset
    if tag == _ROWS:
        n, offset = decode_varint(data, offset)
        table_end = offset + 8 * n
        if table_end > size:
            # Checked before unpacking, so a huge n allocates nothing.
            raise CodecError("truncated row-block length table")
        lengths = struct.unpack_from(f">{2 * n}I", data, offset)
        keys, key_cuts, offset = _decode_column(data, table_end, lengths[:n])
        values, value_cuts, offset = _decode_column(data, offset, lengths[n:])
        rows = [
            (keys[a:b], values[c:d])
            for a, b, c, d in zip(
                key_cuts, key_cuts[1:], value_cuts, value_cuts[1:]
            )
        ]
        return rows, offset
    if tag == _FLOAT:
        if offset + 8 > size:
            raise CodecError("truncated float")
        return struct.unpack_from(">d", data, offset)[0], offset + 8
    if tag == _BYTES:
        length, offset = decode_varint(data, offset)
        if offset + length > size:
            raise CodecError("truncated bytes")
        return bytes(data[offset : offset + length]), offset + length
    if tag == _KEYS:
        count, offset = decode_varint(data, offset)
        strings = []
        prev = b""
        for _ in range(count):
            shared, offset = decode_varint(data, offset)
            if shared > len(prev):
                raise CodecError(f"bad shared prefix {shared} > {len(prev)}")
            length, offset = decode_varint(data, offset)
            if offset + length > size:
                raise CodecError("truncated key suffix")
            raw = prev[:shared] + data[offset : offset + length]
            offset += length
            strings.append(_decode_text(raw))
            prev = raw
        return strings, offset
    if tag == _MAP:
        count, offset = decode_varint(data, offset)
        out = {}
        for _ in range(count):
            key, offset = decode_prefix(data, offset)
            if not isinstance(key, str):
                raise CodecError("dict keys must be strings")
            value, offset = decode_prefix(data, offset)
            out[key] = value
        return out, offset
    raise CodecError(f"unknown tag {tag:#x}")


def _decode_text(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid utf-8: {exc}") from exc


def _decode_column(
    data: bytes, offset: int, lengths: Sequence[int]
) -> Tuple[str, List[int], int]:
    """One ``R`` column: ``<varint bytes> <utf8>``.  Returns its text,
    the ``len(lengths) + 1`` code-point offsets that cut it into
    strings, and the next offset in ``data``."""
    nbytes, offset = decode_varint(data, offset)
    end = offset + nbytes
    if end > len(data):
        raise CodecError("truncated row-block column")
    text = _decode_text(data[offset:end])
    cuts = list(accumulate(lengths, initial=0))
    if cuts[-1] != len(text):
        raise CodecError("row-block lengths do not add up to the column")
    return text, cuts, end
