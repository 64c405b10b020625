"""Huffman stage of the memory-specialized Deflate.

Section V-B1 of the paper replaces RFC 1951's canonical trees with a
*reduced* tree: 15 hottest byte values plus one escape code; bytes outside
the tree are emitted as ``escape code + raw 8 bits``; and the tree itself is
stored **uncompressed** so the decompressor can load it in 16 cycles instead
of the >500 ns canonical-tree reconstruction of IBM's design.

:class:`ReducedHuffmanCodec` implements exactly that.  :class:`FullHuffmanCodec`
implements a conventional 256-symbol canonical Huffman coder with the
128-byte length table RFC 1951-style designs pay for -- it exists so the
ablation benches can show why the reduced tree wins on 4 KB pages.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.common.bits import BitReader, BitWriter

#: Sentinel symbol value for the escape code (real bytes are 0-255).
ESCAPE = 256


@dataclass(frozen=True)
class ReducedTreeConfig:
    """Knobs of the reduced tree, mirroring the HDL parameters.

    ``tree_size`` counts total leaves including the escape (the paper's
    design point is 16: 15 characters + escape).  ``depth_threshold`` is the
    maximum code length; Build Reduced Tree discards the less-frequent
    sibling of any pair that would exceed it.

    ``frequency_sample_fraction`` enables IBM's "1.1 Pass" approximate
    frequency counting (Section V-B3): the hottest characters are selected
    by analyzing only a leading fraction of the input instead of all of
    it, letting Huffman start earlier at the cost of compression ratio.
    The released HDL keeps it as a tunable but disables it by default
    because a 4 KB page's prefix represents the page poorly; 1.0 means
    exact counting.
    """

    tree_size: int = 16
    depth_threshold: int = 8
    frequency_sample_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not 2 <= self.tree_size <= 256:
            raise ValueError(f"tree_size must be in [2, 256], got {self.tree_size}")
        if self.depth_threshold < 1 or self.depth_threshold > 15:
            raise ValueError(
                f"depth_threshold must be in [1, 15], got {self.depth_threshold}"
            )
        if self.tree_size > (1 << self.depth_threshold):
            raise ValueError(
                f"{self.tree_size} leaves cannot fit in depth {self.depth_threshold}"
            )
        if not 0.0 < self.frequency_sample_fraction <= 1.0:
            raise ValueError(
                "frequency_sample_fraction must be in (0, 1], got "
                f"{self.frequency_sample_fraction}"
            )


def _huffman_code_lengths(frequencies: Dict[int, int]) -> Dict[int, int]:
    """Standard Huffman construction; returns symbol -> code length.

    Ties break on symbol value so results are deterministic.
    """
    if not frequencies:
        return {}
    if len(frequencies) == 1:
        return {next(iter(frequencies)): 1}
    heap: List[Tuple[int, int, List[int]]] = [
        (freq, symbol, [symbol]) for symbol, freq in frequencies.items()
    ]
    heapq.heapify(heap)
    lengths = {symbol: 0 for symbol in frequencies}
    while len(heap) > 1:
        freq_a, tie_a, symbols_a = heapq.heappop(heap)
        freq_b, tie_b, symbols_b = heapq.heappop(heap)
        for symbol in symbols_a + symbols_b:
            lengths[symbol] += 1
        heapq.heappush(
            heap, (freq_a + freq_b, min(tie_a, tie_b), symbols_a + symbols_b)
        )
    return lengths


def _canonical_codes(lengths: Dict[int, int]) -> Dict[int, Tuple[int, int]]:
    """Assign canonical codes: symbol -> (code value, length).

    Symbols are ordered by (length, symbol); the escape sentinel sorts last
    among equal lengths because its value is 256.
    """
    ordered = sorted(lengths.items(), key=lambda item: (item[1], item[0]))
    codes: Dict[int, Tuple[int, int]] = {}
    code = 0
    previous_length = 0
    for symbol, length in ordered:
        code <<= length - previous_length
        codes[symbol] = (code, length)
        code += 1
        previous_length = length
    return codes


def _payload_bits(data: bytes, codes: Dict[int, Tuple[int, int]]) -> str:
    """The reduced tree's payload for ``data`` as a '0'/'1' string.

    A 256-entry table maps each byte to its code, or to the escape code
    followed by the raw byte when the byte has no leaf.
    """
    escape_code, escape_length = codes[ESCAPE]
    width = escape_length + 8
    table = [format((escape_code << 8) | byte, f"0{width}b") for byte in range(256)]
    for symbol, (code, length) in codes.items():
        if symbol != ESCAPE:
            table[symbol] = format(code, f"0{length}b")
    return "".join(map(table.__getitem__, data))


class ReducedHuffmanCodec:
    """The paper's 16-leaf Huffman with escape coding and a plain-text tree.

    Blob layout (bit-exact, MSB-first):

    ======  ==========================================================
    bits    field
    ======  ==========================================================
    16      number of source bytes encoded
    8       number of real (non-escape) leaves, ``N`` (0 .. tree_size-1)
    4       escape code length (0 when input is empty)
    N x 12  per leaf: 8-bit symbol + 4-bit code length
    ...     payload codes
    ======  ==========================================================
    """

    def __init__(self, config: ReducedTreeConfig = ReducedTreeConfig()) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # Tree construction
    # ------------------------------------------------------------------

    def build_lengths(self, data: bytes) -> Dict[int, int]:
        """Select the hottest characters and return code lengths.

        Implements Build Reduced Tree: the ``tree_size - 1`` most frequent
        bytes get leaves, everything else is charged to the escape leaf.
        When the resulting tree exceeds ``depth_threshold``, the
        least-frequent non-escape leaf is discarded (its bytes go through
        the escape path) and the tree is rebuilt -- the software equivalent
        of "discard the less-frequent sibling and promote the other", and
        like the hardware it never discards the escape code.
        """
        if not data:
            return {}
        counts = Counter(data)
        # 1.1 Pass: select the hottest characters from a leading sample
        # only (code lengths still come from true counts so the encode
        # remains optimal *given* the possibly-poor leaf selection).
        sample_length = max(1, int(len(data) * self.config.frequency_sample_fraction))
        selection_counts = (
            counts if sample_length >= len(data) else Counter(data[:sample_length])
        )
        hottest = [
            symbol
            for symbol, _ in sorted(
                selection_counts.items(), key=lambda item: (-item[1], item[0])
            )[: self.config.tree_size - 1]
        ]
        while True:
            in_tree = set(hottest)
            escaped = sum(count for symbol, count in counts.items() if symbol not in in_tree)
            frequencies: Dict[int, int] = {symbol: counts[symbol] for symbol in hottest}
            frequencies[ESCAPE] = max(1, escaped)
            lengths = _huffman_code_lengths(frequencies)
            if max(lengths.values()) <= self.config.depth_threshold:
                return lengths
            victim = min(
                (symbol for symbol in hottest),
                key=lambda symbol: (counts[symbol], -symbol),
            )
            hottest.remove(victim)

    # ------------------------------------------------------------------
    # Encode / decode
    # ------------------------------------------------------------------

    def encode(self, data: bytes) -> bytes:
        if len(data) >= 1 << 16:
            raise ValueError("reduced Huffman encodes at most 64 KiB - 1 per blob")
        writer = BitWriter()
        writer.write(len(data), 16)
        lengths = self.build_lengths(data)
        if not lengths:
            writer.write(0, 8)
            writer.write(0, 4)
            return writer.getvalue()
        codes = _canonical_codes(lengths)
        real_leaves = sorted(s for s in lengths if s != ESCAPE)
        writer.write(len(real_leaves), 8)
        writer.write(lengths[ESCAPE], 4)
        for symbol in real_leaves:
            writer.write(symbol, 8)
            writer.write(lengths[symbol], 4)
        payload = _payload_bits(data, codes)
        writer.write(int(payload, 2), len(payload))
        return writer.getvalue()

    def decode(self, blob: bytes) -> bytes:
        reader = BitReader(blob)
        count = reader.read(16)
        leaf_count = reader.read(8)
        escape_length = reader.read(4)
        if count == 0:
            return b""
        lengths: Dict[int, int] = {}
        for _ in range(leaf_count):
            symbol = reader.read(8)
            lengths[symbol] = reader.read(4)
        if escape_length:
            lengths[ESCAPE] = escape_length
        codes = _canonical_codes(lengths)
        by_code: Dict[Tuple[int, int], int] = {
            (length, code): symbol for symbol, (code, length) in codes.items()
        }
        max_length = max(length for _, length in codes.values())
        out = bytearray()
        while len(out) < count:
            value = 0
            length = 0
            while True:
                value = (value << 1) | reader.read(1)
                length += 1
                symbol = by_code.get((length, value))
                if symbol is not None:
                    break
                if length > max_length:
                    raise ValueError("corrupt reduced-Huffman stream")
            if symbol == ESCAPE:
                out.append(reader.read(8))
            else:
                out.append(symbol)
        return bytes(out)

    def encoded_size_bits(self, data: bytes) -> int:
        """Size of :meth:`encode` output in bits (without byte padding)."""
        if not data:
            return 28
        lengths = self.build_lengths(data)
        header = 16 + 12 + 12 * (len(lengths) - 1)
        return header + len(_payload_bits(data, _canonical_codes(lengths)))


class FullHuffmanCodec:
    """Conventional canonical Huffman over the full 256-symbol alphabet.

    Stores the RFC 1951-style cost: a 4-bit code length for all 256
    symbols (128 bytes of tree) ahead of the payload.  Used by ablations to
    quantify the reduced tree's latency/size advantage on 4 KB inputs.
    """

    MAX_DEPTH = 15

    def encode(self, data: bytes) -> bytes:
        if len(data) >= 1 << 16:
            raise ValueError("full Huffman encodes at most 64 KiB - 1 per blob")
        writer = BitWriter()
        writer.write(len(data), 16)
        if not data:
            return writer.getvalue()
        lengths = self._limited_lengths(Counter(data))
        for symbol in range(256):
            writer.write(lengths.get(symbol, 0), 4)
        codes = _canonical_codes(lengths)
        for byte in data:
            code, length = codes[byte]
            writer.write(code, length)
        return writer.getvalue()

    def _limited_lengths(self, counts: Counter) -> Dict[int, int]:
        frequencies = dict(counts)
        while True:
            lengths = _huffman_code_lengths(frequencies)
            if max(lengths.values()) <= self.MAX_DEPTH:
                return lengths
            # Flatten the distribution until the tree fits (heuristic
            # stand-in for package-merge; identical output length class).
            frequencies = {
                symbol: (freq + 1) // 2 for symbol, freq in frequencies.items()
            }

    def decode(self, blob: bytes) -> bytes:
        reader = BitReader(blob)
        count = reader.read(16)
        if count == 0:
            return b""
        lengths = {}
        for symbol in range(256):
            length = reader.read(4)
            if length:
                lengths[symbol] = length
        codes = _canonical_codes(lengths)
        by_code = {(length, code): symbol for symbol, (code, length) in codes.items()}
        max_length = max(length for _, length in codes.values())
        out = bytearray()
        while len(out) < count:
            value = 0
            length = 0
            while True:
                value = (value << 1) | reader.read(1)
                length += 1
                symbol = by_code.get((length, value))
                if symbol is not None:
                    break
                if length > max_length:
                    raise ValueError("corrupt full-Huffman stream")
            out.append(symbol)
        return bytes(out)

    def tree_bits(self) -> int:
        """Bits spent on the serialized tree (constant for this codec)."""
        return 256 * 4
