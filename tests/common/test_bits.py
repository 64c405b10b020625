"""Unit and property tests for bit-field helpers and bitstream I/O."""

import pytest
from hypothesis import given, strategies as st

from repro.common.bits import (
    BitReader,
    BitWriter,
    bit_length_of_count,
    extract_bits,
    insert_bits,
    mask,
)


def test_mask():
    assert mask(0) == 0
    assert mask(1) == 1
    assert mask(8) == 0xFF
    assert mask(40) == (1 << 40) - 1


def test_mask_rejects_negative():
    with pytest.raises(ValueError):
        mask(-1)


def test_extract_bits():
    value = 0b1011_0110
    assert extract_bits(value, 0, 4) == 0b0110
    assert extract_bits(value, 4, 4) == 0b1011
    assert extract_bits(value, 1, 3) == 0b011


def test_insert_bits():
    assert insert_bits(0, 4, 4, 0xA) == 0xA0
    assert insert_bits(0xFF, 0, 4, 0) == 0xF0
    with pytest.raises(ValueError):
        insert_bits(0, 0, 4, 16)


def test_bit_length_of_count():
    assert bit_length_of_count(1) == 1
    assert bit_length_of_count(2) == 1
    assert bit_length_of_count(3) == 2
    assert bit_length_of_count(256) == 8
    with pytest.raises(ValueError):
        bit_length_of_count(0)


def test_writer_reader_roundtrip_simple():
    writer = BitWriter()
    writer.write(0b101, 3)
    writer.write(0xAB, 8)
    writer.write(1, 1)
    assert writer.bit_length == 12
    reader = BitReader(writer.getvalue())
    assert reader.read(3) == 0b101
    assert reader.read(8) == 0xAB
    assert reader.read(1) == 1


def test_writer_rejects_overflow_value():
    writer = BitWriter()
    with pytest.raises(ValueError):
        writer.write(4, 2)
    with pytest.raises(ValueError):
        writer.write(-1, 4)


def test_reader_eof():
    reader = BitReader(b"\xff")
    reader.read(8)
    with pytest.raises(EOFError):
        reader.read(1)


def test_reader_peek_does_not_consume():
    writer = BitWriter()
    writer.write(0b1100, 4)
    reader = BitReader(writer.getvalue())
    assert reader.peek(4) == 0b1100
    assert reader.position == 0
    assert reader.read(4) == 0b1100


def test_reader_peek_pads_past_end_with_zeros():
    reader = BitReader(b"\xf0")
    reader.skip(4)
    assert reader.peek(8) == 0b0000_0000
    reader = BitReader(b"\xff")
    reader.skip(4)
    assert reader.peek(8) == 0b1111_0000


def test_reader_skip_and_remaining():
    reader = BitReader(b"\x00\x00")
    assert reader.bits_remaining == 16
    reader.skip(5)
    assert reader.bits_remaining == 11
    with pytest.raises(EOFError):
        reader.skip(12)


def test_write_bytes():
    writer = BitWriter()
    writer.write(1, 1)
    writer.write_bytes(b"\xde\xad")
    reader = BitReader(writer.getvalue())
    assert reader.read(1) == 1
    assert reader.read(8) == 0xDE
    assert reader.read(8) == 0xAD


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=33), st.integers(min_value=0)),
                min_size=1, max_size=64))
def test_writer_reader_roundtrip_property(fields):
    """Whatever sequence of (width, value) we write, we read it back."""
    writer = BitWriter()
    normalized = []
    for width, raw in fields:
        value = raw & mask(width)
        normalized.append((width, value))
        writer.write(value, width)
    reader = BitReader(writer.getvalue())
    for width, value in normalized:
        assert reader.read(width) == value


@given(st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.integers(min_value=0, max_value=56),
       st.integers(min_value=1, max_value=8))
def test_extract_insert_inverse_property(value, low, width):
    field = extract_bits(value, low, width)
    assert insert_bits(value, low, width, field) == value


def _reference_stream(fields):
    """Bit-by-bit MSB-first packing: the spec :class:`BitWriter` meets."""
    bits = []
    for value, width in fields:
        bits.extend((value >> (width - 1 - i)) & 1 for i in range(width))
    padded = bits + [0] * (-len(bits) % 8)
    out = bytearray()
    for start in range(0, len(padded), 8):
        byte = 0
        for bit in padded[start:start + 8]:
            byte = (byte << 1) | bit
        out.append(byte)
    return bytes(out), len(bits)


#: Widths on both sides of the writer's whole-byte flush threshold.
_WIDTHS = st.one_of(st.just(0), st.integers(min_value=1, max_value=63),
                    st.just(64), st.integers(min_value=65, max_value=200))


@given(st.lists(_WIDTHS.flatmap(lambda width: st.tuples(
    st.integers(min_value=0, max_value=(1 << width) - 1), st.just(width))),
    max_size=48))
def test_writer_matches_bitwise_reference(fields):
    writer = BitWriter()
    for count, (value, width) in enumerate(fields, 1):
        writer.write(value, width)
        assert writer.bit_length == _reference_stream(fields[:count])[1]
    assert writer.getvalue() == _reference_stream(fields)[0]


@pytest.mark.parametrize("width", [0, 1, 63, 64, 65, 130])
def test_writer_rejects_values_wider_than_width(width):
    writer = BitWriter()
    writer.write((1 << width) - 1, width)
    with pytest.raises(ValueError):
        writer.write(1 << width, width)
    with pytest.raises(ValueError):
        writer.write(-1, width)
    with pytest.raises(ValueError):
        writer.write(0, -1)
