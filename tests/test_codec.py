"""Tests for the binary wire codec."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.codec import (
    CodecError,
    KeyList,
    RowBlock,
    decode,
    decode_varint,
    encode,
    encode_varint,
    unzigzag,
    zigzag,
)


class TestVarints:
    def test_small_values_one_byte(self):
        assert encode_varint(0) == b"\x00"
        assert encode_varint(127) == b"\x7f"

    def test_multibyte(self):
        assert encode_varint(128) == b"\x80\x01"
        assert encode_varint(300) == b"\xac\x02"

    def test_roundtrip(self):
        for value in [0, 1, 127, 128, 255, 2**14, 2**35, 2**64]:
            data = encode_varint(value)
            got, offset = decode_varint(data, 0)
            assert got == value
            assert offset == len(data)

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            encode_varint(-1)

    def test_truncated(self):
        with pytest.raises(CodecError):
            decode_varint(b"\x80", 0)

    def test_zigzag_roundtrip(self):
        for value in [0, -1, 1, -2, 2, 2**40, -(2**40), 2**70, -(2**70)]:
            assert unzigzag(zigzag(value)) == value


class TestScalars:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, 1, -1, 2**62, -(2**62), 3.14, -0.0, "hello",
         "", "ünïcødé |}", b"", b"\x00\xff", [], {}],
    )
    def test_roundtrip(self, value):
        assert decode(encode(value)) == value

    def test_float_nan(self):
        assert math.isnan(decode(encode(float("nan"))))

    def test_large_int(self):
        big = 12345678901234567890123456789
        assert decode(encode(big)) == big


class TestContainers:
    def test_nested_structures(self):
        value = {
            "rows": [["t|ann|0100|bob", "hello"], ["t|ann|0120|liz", "hi"]],
            "count": 2,
            "meta": {"server": "pequod", "ok": True, "ratio": 0.5},
            "none": None,
        }
        assert decode(encode(value)) == value

    def test_tuple_encodes_as_list(self):
        assert decode(encode((1, 2))) == [1, 2]

    def test_deeply_nested(self):
        value = [[[[["deep"]]]]]
        assert decode(encode(value)) == value

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(CodecError):
            encode({1: "x"})

    def test_unencodable_type_rejected(self):
        with pytest.raises(CodecError):
            encode(object())


class TestMalformedInput:
    def test_trailing_bytes(self):
        with pytest.raises(CodecError):
            decode(encode(1) + b"x")

    def test_empty_input(self):
        with pytest.raises(CodecError):
            decode(b"")

    def test_unknown_tag(self):
        with pytest.raises(CodecError):
            decode(b"Z")

    def test_truncated_string(self):
        data = encode("hello")[:-2]
        with pytest.raises(CodecError):
            decode(data)

    def test_truncated_float(self):
        with pytest.raises(CodecError):
            decode(b"d\x00\x00")

    def test_truncated_list(self):
        data = encode([1, 2, 3])[:-1]
        with pytest.raises(CodecError):
            decode(data)


class TestCompactness:
    def test_small_ints_are_compact(self):
        assert len(encode(5)) == 2  # tag + one varint byte

    def test_string_overhead_is_small(self):
        assert len(encode("abc")) == 5  # tag + len + 3 bytes


# ----------------------------------------------------------------------
# The encoder's fast paths change no byte
# ----------------------------------------------------------------------
def _reference_encode(value, out):
    """The encoder as it stood before the hot-path rewrite (``ord()``
    per call, no single-byte varint shortcut), kept as the oracle."""
    if value is None:
        out.append(ord("N"))
    elif value is True:
        out.append(ord("T"))
    elif value is False:
        out.append(ord("F"))
    elif isinstance(value, int):
        out.append(ord("i"))
        out.extend(encode_varint(zigzag(value)))
    elif isinstance(value, float):
        out.append(ord("d"))
        out.extend(struct.pack(">d", value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(ord("s"))
        out.extend(encode_varint(len(raw)))
        out.extend(raw)
    elif isinstance(value, (bytes, bytearray)):
        out.append(ord("b"))
        out.extend(encode_varint(len(value)))
        out.extend(value)
    elif isinstance(value, KeyList):
        out.append(ord("P"))
        out.extend(encode_varint(len(value)))
        prev = b""
        for item in value:
            raw = item.encode("utf-8")
            shared = 0
            limit = min(len(prev), len(raw))
            while shared < limit and prev[shared] == raw[shared]:
                shared += 1
            out.extend(encode_varint(shared))
            out.extend(encode_varint(len(raw) - shared))
            out.extend(raw[shared:])
            prev = raw
    elif isinstance(value, (list, tuple)):
        out.append(ord("l"))
        out.extend(encode_varint(len(value)))
        for item in value:
            _reference_encode(item, out)
    elif isinstance(value, dict):
        out.append(ord("m"))
        out.extend(encode_varint(len(value)))
        for key, item in value.items():
            _reference_encode(key, out)
            _reference_encode(item, out)
    else:
        raise AssertionError(f"not in the corpus: {value!r}")


class _Text(str):
    """A str subclass: encodes like the text it holds."""


CORPUS = [
    None, True, False, 0, 1, -1, 63, 64, -64, -65, 127, 128, 2**62, -(2**62),
    12345678901234567890123456789, 3.14, -0.0, float("inf"),
    "", "hello", "ünïcødé |}", "x" * 127, "x" * 128, "é" * 64, _Text("sub"),
    b"", b"\x00\xff", bytearray(b"abc"), b"y" * 200,
    [], {}, (1, 2), [[[[["deep"]]]]], list(range(130)),
    KeyList(), KeyList(["p|bob|0001", "p|bob|0002", "p|liz|0001", "ü", "üb"]),
    KeyList("k|%04d" % i for i in range(200)),
    {
        "rows": [["t|ann|0100|bob", "hello"], ["t|ann|0120|liz", "hi"]],
        "count": 2,
        "meta": {"server": "pequod", "ok": True, "ratio": 0.5},
        "none": None,
    },
    [7, "scan", "t|ann|0000000000", "t|ann}"],
    [7, "ok", None],
    [-1, "push", [[5, "p|a|1", None, "x", "insert"]]],
    [3, "batch", KeyList(["p|a|1", "p|a|2"]), ["v", None]],
]


class TestHotPathIsByteIdentical:
    @pytest.mark.parametrize("value", CORPUS, ids=lambda v: repr(v)[:40])
    def test_same_bytes_as_the_reference_encoder(self, value):
        expected = bytearray()
        _reference_encode(value, expected)
        assert encode(value) == bytes(expected)

    @pytest.mark.parametrize("value", CORPUS, ids=lambda v: repr(v)[:40])
    def test_decodes_to_the_same_value(self, value):
        decoded = decode(encode(value))
        if isinstance(value, (tuple, bytearray)):
            value = type(decoded)(value)
        assert decoded == value and type(decoded) is not KeyList


# ----------------------------------------------------------------------
# Row blocks: the scan-reply wire form
# ----------------------------------------------------------------------
pairs = st.lists(st.tuples(st.text(), st.text()), max_size=40)


def _block(n, key_lengths, value_lengths, keys, values):
    """An ``R`` encoding assembled by hand, so tests can lie in it."""
    return (
        b"R" + encode_varint(n)
        + struct.pack(f">{len(key_lengths)}I", *key_lengths)
        + struct.pack(f">{len(value_lengths)}I", *value_lengths)
        + encode_varint(len(keys)) + keys
        + encode_varint(len(values)) + values
    )


class TestRowBlock:
    @given(pairs, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_roundtrip(self, rows, as_lists):
        sent = [list(row) for row in rows] if as_lists else rows
        decoded = decode(encode(RowBlock(sent)))
        assert decoded == rows
        assert type(decoded) is list
        assert all(type(row) is tuple for row in decoded)
        assert all(type(s) is str for row in decoded for s in row)

    def test_shapes(self):
        for rows in (
            [],
            [("", "")],
            [("k", "")],
            [("", "v")],
            [("t|ann|0100|bob", "héllo"), ("t|ann|0120|liz", "日本語 🐳")],
            [("k%03d" % i, "v" * i) for i in range(300)],
        ):
            assert decode(encode(RowBlock(rows))) == rows

    def test_wire_form(self):
        data = encode(RowBlock([("ab", "x"), ("é", "")]))
        assert data == _block(2, [2, 1], [1, 0], "abé".encode(), b"x")
        # Lengths count code points, blob sizes count bytes.
        assert decode(data) == [("ab", "x"), ("é", "")]

    def test_nests_inside_a_response(self):
        rows = [("a", "1"), ("b", "2")]
        assert decode(encode([7, "ok", RowBlock(rows)])) == [7, "ok", rows]

    @given(pairs)
    @settings(max_examples=100, deadline=None)
    def test_every_strict_prefix_is_rejected(self, rows):
        data = encode(RowBlock(rows))
        for cut in range(len(data)):
            with pytest.raises(CodecError):
                decode(data[:cut])

    @given(pairs, st.data())
    @settings(max_examples=300, deadline=None)
    def test_byte_flips_decode_or_raise_codec_error(self, rows, data):
        wire = bytearray(encode(RowBlock(rows)))
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(wire) - 1))
            wire[at] ^= data.draw(st.integers(1, 255))
        try:
            decode(bytes(wire))
        except CodecError:
            pass  # anything else (IndexError, struct.error, ...) fails

    def test_row_count_far_beyond_the_payload(self):
        for n in (2**20, 2**31, 2**62, 2**200):
            with pytest.raises(CodecError):
                decode(b"R" + encode_varint(n) + b"\x00" * 64)

    def test_blob_size_past_the_end(self):
        good = _block(1, [1], [1], b"k", b"v")
        assert decode(good) == [("k", "v")]
        for bad in (
            b"R\x01" + struct.pack(">2I", 1, 1) + encode_varint(2**40) + b"kv",
            b"R\x01" + struct.pack(">2I", 1, 1) + b"\x01k" + b"\x09v",
        ):
            with pytest.raises(CodecError):
                decode(bad)

    def test_mismatched_length_tables(self):
        for bad in (
            _block(2, [1, 1], [1, 1], b"abc", b"vw"),  # keys too long
            _block(2, [2, 2], [1, 1], b"abc", b"vw"),  # keys too short
            _block(2, [1, 1], [1, 0], b"ab", b"vw"),  # values too long
            _block(2, [1, 1], [1, 2], b"ab", b"vw"),  # values too short
            _block(1, [2], [0], "é".encode(), b""),  # bytes, not code points
            _block(0, [], [], b"k", b""),  # text but no rows
        ):
            with pytest.raises(CodecError):
                decode(bad)

    def test_invalid_utf8(self):
        for bad in (
            _block(1, [1], [1], b"\xff", b"v"),
            _block(1, [1], [1], b"k", b"\xc3"),
        ):
            with pytest.raises(CodecError):
                decode(bad)
        # ... and in the forms that predate the block.
        with pytest.raises(CodecError):
            decode(b"s\x01\xff")
        with pytest.raises(CodecError):
            decode(b"P\x01\x00\x01\xff")

    @pytest.mark.parametrize(
        "rows",
        [
            [("k", 1)],
            [(None, "v")],
            [("k", b"v")],
            [("k", "v"), ("k2",)],
            [("k", "v", "extra")],
            [("k", "v"), ("k2", "v2", "extra")],
            ["kv"],
            [{"k": "v", "k2": "v2"}],
            [("k", "\ud800")],
            [("\udfff", "v")],
        ],
        ids=repr,
    )
    def test_unencodable_rows(self, rows):
        with pytest.raises(CodecError):
            encode(RowBlock(rows))
