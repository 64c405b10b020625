"""Bit-field helpers and bitstream I/O.

Two consumers drive the design here:

- the hardware structures (PTEs, CTEs, compressed PTB encodings) extract and
  insert fixed-width fields out of integers, and
- the compression codecs (LZ, Huffman, Deflate, BDI, C-Pack, BPC) serialize
  variable-width codes into byte buffers and read them back bit-exactly.

:class:`BitWriter` and :class:`BitReader` write most-significant-bit first
within each byte, which keeps dumps easy to eyeball and matches how the
paper's HDL shifts codes out of its encoder.
"""

from __future__ import annotations


def mask(width: int) -> int:
    """Return an integer with the low ``width`` bits set."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def extract_bits(value: int, low: int, width: int) -> int:
    """Extract ``width`` bits of ``value`` starting at bit ``low``."""
    return (value >> low) & mask(width)


def insert_bits(value: int, low: int, width: int, field: int) -> int:
    """Return ``value`` with bits ``[low, low+width)`` replaced by ``field``."""
    if field >> width:
        raise ValueError(f"field {field:#x} does not fit in {width} bits")
    cleared = value & ~(mask(width) << low)
    return cleared | (field << low)


def bit_length_of_count(count: int) -> int:
    """Bits needed to represent ``count`` distinct values (at least 1)."""
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    return max(1, (count - 1).bit_length())


class BitWriter:
    """Accumulates variable-width codes into a byte buffer, MSB-first."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._accumulator = 0
        self._pending_bits = 0

    def write(self, value: int, width: int) -> None:
        """Append the low ``width`` bits of ``value`` to the stream."""
        if width < 0:
            raise ValueError(f"width must be non-negative, got {width}")
        if value < 0 or value >> width:
            raise ValueError(f"value {value:#x} does not fit in {width} bits")
        accumulator = (self._accumulator << width) | value
        pending = self._pending_bits + width
        if pending >= 64:
            # Flush every whole byte at once; at most 7 bits stay pending.
            keep = pending & 7
            self._buffer += (accumulator >> keep).to_bytes(pending >> 3, "big")
            accumulator &= (1 << keep) - 1
            pending = keep
        self._accumulator = accumulator
        self._pending_bits = pending

    def write_bytes(self, data: bytes) -> None:
        """Append whole bytes (each written as an 8-bit code)."""
        self.write(int.from_bytes(data, "big"), 8 * len(data))

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""
        return len(self._buffer) * 8 + self._pending_bits

    def getvalue(self) -> bytes:
        """Return the stream padded with zero bits to a whole byte."""
        pending = self._pending_bits
        tail_bytes = (pending + 7) >> 3
        tail = self._accumulator << (8 * tail_bytes - pending)
        return bytes(self._buffer) + tail.to_bytes(tail_bytes, "big")


class BitReader:
    """Reads variable-width codes back out of a :class:`BitWriter` buffer."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._position = 0  # bit offset from the start of the buffer

    def read(self, width: int) -> int:
        """Consume and return the next ``width`` bits as an integer."""
        if width < 0:
            raise ValueError(f"width must be non-negative, got {width}")
        if self._position + width > len(self._data) * 8:
            raise EOFError(
                f"bitstream exhausted: need {width} bits at offset "
                f"{self._position} of {len(self._data) * 8}"
            )
        value = 0
        remaining = width
        while remaining:
            byte_index, bit_index = divmod(self._position, 8)
            available = 8 - bit_index
            take = min(available, remaining)
            chunk = (self._data[byte_index] >> (available - take)) & mask(take)
            value = (value << take) | chunk
            self._position += take
            remaining -= take
        return value

    def peek(self, width: int) -> int:
        """Return the next ``width`` bits without consuming them.

        Bits past the end of the buffer read as zero, which lets Huffman
        decoders peek a full code width near the end of a stream.
        """
        saved = self._position
        total_bits = len(self._data) * 8
        readable = min(width, max(0, total_bits - saved))
        value = self.read(readable) if readable else 0
        self._position = saved
        return value << (width - readable)

    def skip(self, width: int) -> None:
        """Advance the read position by ``width`` bits."""
        if self._position + width > len(self._data) * 8:
            raise EOFError("cannot skip past end of bitstream")
        self._position += width

    @property
    def position(self) -> int:
        """Current bit offset."""
        return self._position

    @property
    def bits_remaining(self) -> int:
        """Number of unread bits left in the buffer."""
        return len(self._data) * 8 - self._position
