"""Block-level (64 B) compression algorithms.

The paper's Compresso baseline compresses each cache-line-sized memory block
with the smallest output among BDI, BPC, C-Pack, and Zero-Block (Section
V-B5 / Figure 15).  Each algorithm here is a faithful functional
implementation: ``compress`` produces a bitstream whose length is what the
hardware would store, and ``decompress`` restores the exact original bytes.

All algorithms operate on blocks of exactly :data:`~repro.common.units.BLOCK_SIZE`
bytes; the selector handles arbitrary block sequences (pages).
:func:`selected_size_bits` gives the selector's storage cost of every block
of a buffer at once, without building any bitstream.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.common.bits import BitReader, BitWriter
from repro.common.units import BLOCK_SIZE


@dataclass(frozen=True)
class CompressedBlock:
    """The result of compressing one 64 B block.

    ``size_bits`` is the hardware storage cost (header + payload); ``payload``
    carries everything needed to reconstruct the block, and ``algorithm``
    names the encoder that produced it so the selector can dispatch
    decompression.
    """

    algorithm: str
    size_bits: int
    payload: bytes

    @property
    def size_bytes(self) -> int:
        """Storage cost rounded up to whole bytes."""
        return (self.size_bits + 7) // 8


class BlockCompressor:
    """Interface shared by all 64 B block compressors."""

    #: Short name used in compressed-block headers and reports.
    name = "abstract"

    def compress(self, block: bytes) -> Optional[CompressedBlock]:
        """Compress ``block``; return ``None`` when this encoder cannot win.

        Returning ``None`` (rather than an expansion) mirrors hardware,
        where each engine raises a "no fit" signal and the selector falls
        back to storing the block raw.
        """
        raise NotImplementedError

    def decompress(self, compressed: CompressedBlock) -> bytes:
        """Restore the original 64 bytes."""
        raise NotImplementedError

    @staticmethod
    def _check_block(block: bytes) -> None:
        if len(block) != BLOCK_SIZE:
            raise ValueError(
                f"block compressors take {BLOCK_SIZE} B blocks, got {len(block)} B"
            )


class ZeroBlockCompressor(BlockCompressor):
    """Detects all-zero blocks; they compress to a 1-bit flag."""

    name = "zero"

    def compress(self, block: bytes) -> Optional[CompressedBlock]:
        self._check_block(block)
        if any(block):
            return None
        return CompressedBlock(self.name, size_bits=1, payload=b"")

    def decompress(self, compressed: CompressedBlock) -> bytes:
        return bytes(BLOCK_SIZE)


#: ``struct`` formats viewing a block as little-endian values per width.
_LITTLE_ENDIAN = {size: f"<{BLOCK_SIZE // size}{code}"
                  for size, code in ((2, "H"), (4, "I"), (8, "Q"))}
#: ``struct`` format viewing a block as big-endian 32-bit words.
_BIG_ENDIAN_WORDS = f">{BLOCK_SIZE // 4}I"


def _bdi_bits(base_size: int, delta_size: int) -> int:
    """Encoded BDI size: layout id, base, base mask and the deltas."""
    count = BLOCK_SIZE // base_size
    return 3 + base_size * 8 + count + count * delta_size * 8


class BDICompressor(BlockCompressor):
    """Base-Delta-Immediate compression (Pekhimenko et al., PACT'12).

    Tries each (base size, delta size) pair from the original paper; the
    block is viewed as an array of ``base_size``-byte values, each encoded
    as a signed delta from the first value (the base) or from an implicit
    zero base (the "immediate" part, which captures small values mixed with
    pointers).  The smallest successful layout wins.
    """

    name = "bdi"

    #: (base_bytes, delta_bytes) candidate layouts, per the BDI paper.
    LAYOUTS: Sequence[Tuple[int, int]] = (
        (8, 1), (8, 2), (8, 4),
        (4, 1), (4, 2),
        (2, 1),
    )

    #: Layout indices, cheapest encoding first.  A layout's size does not
    #: depend on the data, so the first layout that fits is the smallest
    #: (ties keep ``LAYOUTS`` order).
    ORDER: Tuple[int, ...] = tuple(sorted(
        range(len(LAYOUTS)),
        key=lambda index, layouts=LAYOUTS: _bdi_bits(*layouts[index])))

    def compress(self, block: bytes) -> Optional[CompressedBlock]:
        self._check_block(block)
        for layout_index in self.ORDER:
            encoded = self._try_layout(block, layout_index)
            if encoded is not None:
                return encoded
        return None

    def _try_layout(self, block: bytes,
                    layout_index: int) -> Optional[CompressedBlock]:
        base_size, delta_size = self.LAYOUTS[layout_index]
        size_bits = _bdi_bits(base_size, delta_size)
        if size_bits >= BLOCK_SIZE * 8:
            return None
        values = struct.unpack(_LITTLE_ENDIAN[base_size], block)
        base = values[0]
        delta_bits = delta_size * 8
        half = 1 << (delta_bits - 1)
        delta_mask = (1 << delta_bits) - 1
        deltas = 0  # every delta, packed in order
        base_mask_bits = 0  # bit per value: 1 = delta from base, 0 = from zero
        for value in values:
            from_base = value - base
            if -half <= from_base < half:
                base_mask_bits = (base_mask_bits << 1) | 1
                deltas = (deltas << delta_bits) | (from_base & delta_mask)
            elif value < half:
                base_mask_bits <<= 1
                deltas = (deltas << delta_bits) | value
            else:
                return None
        writer = BitWriter()
        writer.write(layout_index, 3)
        writer.write(base, base_size * 8)
        writer.write(base_mask_bits, len(values))
        writer.write(deltas, len(values) * delta_bits)
        return CompressedBlock(self.name, size_bits, writer.getvalue())

    def decompress(self, compressed: CompressedBlock) -> bytes:
        reader = BitReader(compressed.payload)
        layout_index = reader.read(3)
        base_size, delta_size = self.LAYOUTS[layout_index]
        count = BLOCK_SIZE // base_size
        base = reader.read(base_size * 8)
        base_mask = reader.read(count)
        half = 1 << (delta_size * 8 - 1)
        full = 1 << (delta_size * 8)
        out = bytearray()
        for i in range(count):
            raw = reader.read(delta_size * 8)
            delta = raw - full if raw >= half else raw
            uses_base = (base_mask >> (count - 1 - i)) & 1
            value = (base + delta) if uses_base else delta
            out += (value & ((1 << (base_size * 8)) - 1)).to_bytes(base_size, "little")
        return bytes(out)


class CPackCompressor(BlockCompressor):
    """C-Pack (Chen et al., TVLSI'10): dictionary + pattern coding.

    Processes the block as sixteen 32-bit words against a 16-entry FIFO
    dictionary.  Patterns (code, payload) follow the original paper:

    ==========  =========================================  ============
    pattern     meaning                                    encoded bits
    ==========  =========================================  ============
    ``00``      all-zero word                              2
    ``01``      full dictionary match                      2 + 4
    ``10``      uncompressed word                          2 + 32
    ``1100``    match on upper 3 bytes, low byte literal   4 + 4 + 8
    ``1101``    zero-extended byte (000X)                  4 + 8
    ``1110``    match on upper 2 bytes, 2 low literal      4 + 4 + 16
    ==========  =========================================  ============
    """

    name = "cpack"
    WORD_SIZE = 4
    DICT_ENTRIES = 16

    def compress(self, block: bytes) -> Optional[CompressedBlock]:
        self._check_block(block)
        # The FIFO dictionary, plus each entry's upper 3 and 2 bytes.
        dictionary: List[int] = []
        upper3: List[int] = []
        upper2: List[int] = []
        stream = 0
        size_bits = 0
        for word in struct.unpack(_BIG_ENDIAN_WORDS, block):
            if word == 0:
                stream <<= 2
                size_bits += 2
                continue
            if word in dictionary:
                stream = (stream << 6) | (0b01 << 4) | dictionary.index(word)
                size_bits += 6
                continue
            if word <= 0xFF:
                stream = (stream << 12) | (0b1101 << 8) | word
                size_bits += 12
            elif word >> 8 in upper3:
                index = upper3.index(word >> 8)
                stream = (stream << 16) | (0b1100 << 12) | (index << 8) | (word & 0xFF)
                size_bits += 16
            elif word >> 16 in upper2:
                index = upper2.index(word >> 16)
                stream = ((stream << 24) | (0b1110 << 20) | (index << 16)
                          | (word & 0xFFFF))
                size_bits += 24
            else:
                stream = (stream << 34) | (0b10 << 32) | word
                size_bits += 34
            dictionary.append(word)
            upper3.append(word >> 8)
            upper2.append(word >> 16)
            if len(dictionary) > self.DICT_ENTRIES:
                del dictionary[0], upper3[0], upper2[0]
        if size_bits >= BLOCK_SIZE * 8:
            return None
        writer = BitWriter()
        writer.write(stream, size_bits)
        return CompressedBlock(self.name, size_bits, writer.getvalue())

    def _push(self, dictionary: List[int], word: int) -> None:
        dictionary.append(word)
        if len(dictionary) > self.DICT_ENTRIES:
            dictionary.pop(0)

    def decompress(self, compressed: CompressedBlock) -> bytes:
        reader = BitReader(compressed.payload)
        dictionary: List[int] = []
        words: List[int] = []
        while len(words) < BLOCK_SIZE // self.WORD_SIZE:
            words.append(self._decode_word(reader, dictionary))
        out = bytearray()
        for word in words:
            out += word.to_bytes(self.WORD_SIZE, "big")
        return bytes(out)

    def _decode_word(self, reader: BitReader, dictionary: List[int]) -> int:
        prefix = reader.read(2)
        if prefix == 0b00:
            return 0
        if prefix == 0b01:
            return dictionary[reader.read(4)]
        if prefix == 0b10:
            word = reader.read(32)
            self._push(dictionary, word)
            return word
        # prefix 0b11: read two more bits to pick the subpattern.
        sub = reader.read(2)
        if sub == 0b00:  # 1100: upper-3-byte match
            entry = dictionary[reader.read(4)]
            word = (entry & ~0xFF) | reader.read(8)
        elif sub == 0b01:  # 1101: zero-extended byte
            word = reader.read(8)
        elif sub == 0b10:  # 1110: upper-2-byte match
            entry = dictionary[reader.read(4)]
            word = (entry & ~0xFFFF) | reader.read(16)
        else:
            raise ValueError(f"invalid C-Pack pattern 11{sub:02b}")
        self._push(dictionary, word)
        return word


def _bpc_plane_codes(width: int) -> dict:
    """BPC's short plane codes: all zeros ``00``, all ones ``01``, a
    single one ``10`` + its 4-bit position from the LSB.  Every other
    plane is ``11`` + the plane itself."""
    codes = {"0" * width: "00", "1" * width: "01"}
    for position in range(width):
        plane = "0" * (width - 1 - position) + "1" + "0" * position
        codes[plane] = f"10{position:04b}"
    return codes


class BPCCompressor(BlockCompressor):
    """Bit-Plane Compression (Kim et al., ISCA'16), simplified.

    The block is treated as 16 32-bit words.  BPC delta-transforms
    consecutive words, transposes the 15 deltas into 33 bit-planes (32 data
    planes plus the sign plane), then run-length/pattern-codes each plane.
    This implementation keeps the delta + bit-plane transform and encodes
    each plane with the original paper's zero/ones/single-one patterns; the
    richer DBX patterns are approximated, which costs a little ratio but
    preserves ordering against BDI/C-Pack.
    """

    name = "bpc"
    WORD_SIZE = 4
    WORDS = BLOCK_SIZE // WORD_SIZE  # 16
    PLANES = WORD_SIZE * 8 + 1  # 32 data planes + sign plane
    DELTA_COUNT = WORDS - 1  # 15 deltas
    PLANE_CODES = _bpc_plane_codes(DELTA_COUNT)

    def compress(self, block: bytes) -> Optional[CompressedBlock]:
        self._check_block(block)
        words = struct.unpack(_BIG_ENDIAN_WORDS, block)
        special = self.PLANE_CODES
        stream = format(words[0], "032b") + "".join([  # base word stored raw
            special.get(plane) or "11" + plane
            for plane in self._to_planes(words)
        ])
        if len(stream) >= BLOCK_SIZE * 8:
            return None
        writer = BitWriter()
        writer.write(int(stream, 2), len(stream))
        return CompressedBlock(self.name, len(stream), writer.getvalue())

    def _to_planes(self, words: Sequence[int]) -> List[str]:
        """Delta-transform then transpose into bit-planes.

        Deltas are 33-bit signed values stored sign+magnitude-free as
        two's complement in 33 bits; plane ``p`` collects bit ``p`` of each
        of the 15 deltas (delta 0 in the MSB of the plane).  Planes come
        back as 15-character '0'/'1' strings, transposed in bulk: column
        ``k`` of the deltas' binary strings is plane ``32 - k``.
        """
        rows = [format((later - earlier) & ((1 << 33) - 1), "033b")
                for earlier, later in zip(words, words[1:])]
        planes = list(map("".join, zip(*rows)))
        planes.reverse()
        return planes

    def _from_planes(self, base: int, planes: List[int]) -> List[int]:
        deltas = [0] * self.DELTA_COUNT
        for plane_index, plane in enumerate(planes):
            for i in range(self.DELTA_COUNT):
                bit = (plane >> (self.DELTA_COUNT - 1 - i)) & 1
                deltas[i] |= bit << plane_index
        words = [base]
        for delta in deltas:
            if delta >= 1 << 32:
                delta -= 1 << 33
            words.append((words[-1] + delta) & 0xFFFF_FFFF)
        return words

    def _decode_plane(self, reader: BitReader) -> int:
        pattern = reader.read(2)
        if pattern == 0b00:
            return 0
        if pattern == 0b01:
            return (1 << self.DELTA_COUNT) - 1
        if pattern == 0b10:
            return 1 << reader.read(4)
        return reader.read(self.DELTA_COUNT)

    def decompress(self, compressed: CompressedBlock) -> bytes:
        reader = BitReader(compressed.payload)
        base = reader.read(32)
        planes = [self._decode_plane(reader) for _ in range(33)]
        words = self._from_planes(base, planes)
        out = bytearray()
        for word in words:
            out += word.to_bytes(self.WORD_SIZE, "big")
        return bytes(out)


class SelectiveBlockCompressor:
    """Picks the smallest output among all block algorithms per block.

    This is the paper's "block-level compression: smallest of BDI, BPC,
    CPACK, and Zero Block" (Figure 15) and the compressor we give the
    Compresso baseline.  A 3-bit header selects the algorithm (or raw).
    """

    HEADER_BITS = 3

    def __init__(self) -> None:
        self._compressors: List[BlockCompressor] = [
            ZeroBlockCompressor(),
            BDICompressor(),
            BPCCompressor(),
            CPackCompressor(),
        ]
        self._by_name = {c.name: c for c in self._compressors}

    def compress(self, block: bytes) -> CompressedBlock:
        """Compress one block; falls back to raw storage when nothing fits."""
        best: Optional[CompressedBlock] = None
        for compressor in self._compressors:
            candidate = compressor.compress(block)
            if candidate is not None and (best is None or candidate.size_bits < best.size_bits):
                best = candidate
        if best is None:
            return CompressedBlock(
                "raw", self.HEADER_BITS + BLOCK_SIZE * 8, bytes(block)
            )
        return CompressedBlock(
            best.algorithm, best.size_bits + self.HEADER_BITS, best.payload
        )

    def decompress(self, compressed: CompressedBlock) -> bytes:
        if compressed.algorithm == "raw":
            return compressed.payload
        inner = CompressedBlock(
            compressed.algorithm,
            compressed.size_bits - self.HEADER_BITS,
            compressed.payload,
        )
        return self._by_name[compressed.algorithm].decompress(inner)

    def compress_page(self, page: bytes) -> List[CompressedBlock]:
        """Compress a page block by block (Compresso's unit of work)."""
        _check_multiple(page)
        return [
            self.compress(page[i : i + BLOCK_SIZE])
            for i in range(0, len(page), BLOCK_SIZE)
        ]

    def compressed_page_size(self, page: bytes) -> int:
        """Total compressed bytes of a page under block-level compression."""
        return int(((selected_size_bits(page) + 7) // 8).sum())

    def page_ratio(self, page: bytes) -> float:
        """Compression ratio (original / compressed) for one page."""
        return len(page) / max(1, self.compressed_page_size(page))


def _check_multiple(data: bytes) -> None:
    if len(data) % BLOCK_SIZE:
        raise ValueError(f"page size {len(data)} is not a multiple of {BLOCK_SIZE}")


#: Encoder outputs this long or longer are "no fit" (the raw block's size).
_NO_FIT = BLOCK_SIZE * 8
#: XOR distance that matches no part of a C-Pack word.
_NO_WORD = np.uint32(0xFFFF_FFFF)


def selected_size_bits(data: bytes) -> np.ndarray:
    """``SelectiveBlockCompressor().compress(block).size_bits`` of every
    64 B block of ``data``, computed for all blocks at once.

    An encoder's size depends only on which of its fixed cases each value
    falls in, so no bitstream is built:

    - zero block: 1 bit;
    - BDI: a layout fits when every value is within ``[-half, half)`` of
      the block's first value or below ``half``; its size is fixed;
    - BPC: 32 bits of base word plus, per bit-plane of the 15 deltas, 2
      bits (all zeros or all ones), 6 (a single one) or 17;
    - C-Pack: sixteen words never overflow the 16-entry dictionary, so a
      word is in it when it equals an earlier non-zero word, and its
      partial matches compare upper bytes with earlier non-zero words.

    The smallest size under 512 bits wins and the header adds 3 bits; a
    block no encoder fits is stored raw (515 bits).
    """
    _check_multiple(data)
    raw = np.frombuffer(data, dtype=np.uint8).reshape(-1, BLOCK_SIZE)
    best = np.minimum(np.minimum(_bdi_size_bits(raw), _bpc_size_bits(raw)),
                      _cpack_size_bits(raw))
    best[~raw.any(axis=1)] = 1
    header = SelectiveBlockCompressor.HEADER_BITS
    return np.where(best < _NO_FIT, best, _NO_FIT) + header


def _bdi_size_bits(raw: np.ndarray) -> np.ndarray:
    """Smallest fitting BDI layout's size per block (``_NO_FIT`` if none)."""
    sizes = np.full(len(raw), _NO_FIT, dtype=np.int64)
    for base_size, layouts in groupby(BDICompressor.LAYOUTS, key=itemgetter(0)):
        unsigned = np.dtype(f"u{base_size}")
        values = raw.view(unsigned.newbyteorder("<")).astype(unsigned,
                                                             copy=False)
        base = values[:, :1]
        # A delta in [-half, half) reaches up to half - 1 above the base
        # and half below it, so a value below the base counts one closer.
        # Unsigned, as the encoder's Python ints never wrap around.
        distance = np.where(values >= base, values - base,
                            base - values - unsigned.type(1))
        # The smallest half every value fits: from the base or from zero.
        need = np.minimum(distance, values).max(axis=1)
        for _, delta_size in layouts:
            fits = need < unsigned.type(1 << (delta_size * 8 - 1))
            sizes[fits] = np.minimum(sizes[fits],
                                     _bdi_bits(base_size, delta_size))
    return sizes


def _bpc_size_bits(raw: np.ndarray) -> np.ndarray:
    """BPC's encoded size per block: the base word plus each plane's code."""
    planes = (1 << BPCCompressor.PLANES) - 1
    words = raw.view(">u4").astype(np.int64)
    deltas = (words[:, 1:] - words[:, :-1]) & planes
    # Bit-sliced counts over the 15 deltas: a plane's bit is set in
    # ``seen`` when a delta has a one there, in ``twice`` when two do and
    # in ``every`` when all do.
    seen = np.zeros(len(raw), dtype=np.int64)
    twice = np.zeros(len(raw), dtype=np.int64)
    every = np.full(len(raw), planes, dtype=np.int64)
    for delta in deltas.T:
        twice |= seen & delta
        seen |= delta
        every &= delta
    single = _popcount(seen & ~twice)
    uniform = BPCCompressor.PLANES - _popcount(seen) + _popcount(every)
    other = BPCCompressor.PLANES - uniform - single
    return 32 + 2 * uniform + 6 * single + (2 + BPCCompressor.DELTA_COUNT) * other


def _popcount(values: np.ndarray) -> np.ndarray:
    """Set bits of each int64 value."""
    bits = np.unpackbits(values.view(np.uint8).reshape(len(values), 8), axis=1)
    return bits.sum(axis=1, dtype=np.int64)


def _cpack_size_bits(raw: np.ndarray) -> np.ndarray:
    """C-Pack's encoded size per block: each word's pattern cost."""
    words = raw.view(">u4").astype(np.uint32)
    nonzero = words != 0
    # XOR with the closest earlier non-zero word: 0 is a full match, under
    # 2**8 an upper-3-byte match and under 2**16 an upper-2-byte match.
    closest = np.full(words.shape, _NO_WORD)
    for earlier in range(words.shape[1] - 1):
        xor = words[:, earlier:earlier + 1] ^ words[:, earlier + 1:]
        xor[~nonzero[:, earlier]] = _NO_WORD
        np.minimum(closest[:, earlier + 1:], xor, out=closest[:, earlier + 1:])
    costs = np.select(
        [~nonzero, closest == 0, words <= 0xFF, closest < 1 << 8,
         closest < 1 << 16],
        [2, 6, 12, 16, 24], default=34)
    return costs.sum(axis=1)
