"""LZ77 stage of the memory-specialized Deflate.

The paper's ASIC front-end is a sliding-window matcher ("1KB CAM") with a
greedy match-selection policy (Section V-B4) and -- unlike RFC 1951 -- a
space-efficient 256-symbol output alphabet, "like how LZ is used today when
it is standalone".  We therefore encode LZ output in an LZ4-style byte
format:

    [token byte][literals...][offset lo][offset hi][len ext...] ...

- token high nibble: literal-run length (15 = extended by 255-run bytes),
- token low nibble: match length - MIN_MATCH (15 = extended),
- offset: 16-bit little-endian distance (1 .. window size),
- a block may end with a literal-only sequence (no offset follows when the
  output is already complete).

Every output symbol is a plain byte, so the Huffman stage downstream can
frequency-count and code them directly.

The matcher is a hash-chain over 4-byte prefixes restricted to the
configured window -- functionally what a hardware CAM of that size finds.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.common.units import KIB

#: Shortest match worth encoding: a match costs >= 2 offset bytes, so
#: 4 input bytes is the break-even point (same choice LZ4 makes).
MIN_MATCH = 4

#: Longest match encodable without pathological extension chains.
MAX_MATCH = 4096

#: Bytes compared per slice while extending a match, before the
#: byte-by-byte tail.
_COMPARE_CHUNK = 16


def _chain_links(data: bytes) -> np.ndarray:
    """For each position with a full 4-byte prefix, the latest earlier
    position with the same prefix, or -1: the hash chain's links."""
    count = len(data) - MIN_MATCH + 1
    if count <= 0:
        return np.zeros(0, dtype=np.int64)
    raw = np.frombuffer(data, dtype=np.uint8).astype(np.uint32)
    keys = (raw[:count] | raw[1:count + 1] << 8 | raw[2:count + 2] << 16
            | raw[3:count + 3] << 24)
    order = np.argsort(keys, kind="stable")
    same = keys[order[1:]] == keys[order[:-1]]
    links = np.full(count, -1, dtype=np.int64)
    links[order[1:][same]] = order[:-1][same]
    return links


@dataclass(frozen=True)
class LZConfig:
    """Tunable parameters mirroring the HDL's knobs.

    ``window_size`` is the CAM size the paper sweeps (256 B - 32 KB;
    1 KB is the chosen design point).  ``max_chain`` bounds match-search
    effort; hardware compares against the whole CAM each cycle, so a large
    default keeps parity with the ASIC's match quality.
    """

    window_size: int = 1 * KIB
    max_chain: int = 64

    def __post_init__(self) -> None:
        if self.window_size <= 0 or self.window_size > 64 * KIB:
            raise ValueError(
                f"window_size must be in (0, 64 KiB], got {self.window_size}"
            )
        if self.max_chain <= 0:
            raise ValueError(f"max_chain must be positive, got {self.max_chain}")


@dataclass(frozen=True)
class LZToken:
    """One LZ sequence: a run of literals optionally followed by a match."""

    literals: bytes
    match_length: int = 0  # 0 means "no match" (only legal for the last token)
    match_offset: int = 0

    def __post_init__(self) -> None:
        if self.match_length and not (MIN_MATCH <= self.match_length <= MAX_MATCH):
            raise ValueError(f"match length {self.match_length} out of range")
        if self.match_length and self.match_offset <= 0:
            raise ValueError("matches require a positive offset")


@dataclass
class LZStats:
    """Aggregate statistics of one compression, for the timing model."""

    input_bytes: int = 0
    output_bytes: int = 0
    literal_bytes: int = 0
    match_count: int = 0
    matched_bytes: int = 0
    token_count: int = 0
    match_lengths: List[int] = field(default_factory=list)

    @classmethod
    def from_tokens(cls, input_bytes: int, output_bytes: int,
                    tokens: List[LZToken]) -> "LZStats":
        """Statistics of ``tokens``, which encode ``input_bytes`` of input
        as an ``output_bytes``-long stream."""
        match_lengths = [token.match_length for token in tokens
                         if token.match_length]
        return cls(
            input_bytes=input_bytes,
            output_bytes=output_bytes,
            literal_bytes=sum(len(token.literals) for token in tokens),
            match_count=len(match_lengths),
            matched_bytes=sum(match_lengths),
            token_count=len(tokens),
            match_lengths=match_lengths,
        )


class LZCompressor:
    """Sliding-window LZ with greedy match selection."""

    def __init__(self, config: LZConfig = LZConfig()) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # Tokenization (the matcher proper)
    # ------------------------------------------------------------------

    def tokenize(self, data: bytes) -> List[LZToken]:
        """Split ``data`` into LZ sequences using greedy matching.

        Chains are keyed by the 4-byte prefix itself, so every candidate
        matches at least :data:`MIN_MATCH` bytes and the output cannot
        depend on the process's hash seed.  A position's chain link does
        not depend on the matches found (:func:`_chain_links`), so the
        matcher jumps straight to the next position with a candidate in
        the window.  A candidate whose byte at ``best_length`` differs
        from the current position's cannot give a strictly longer match
        and is skipped without being measured; it still counts against
        ``max_chain``.
        """
        window = self.config.window_size
        max_chain = self.config.max_chain
        tokens: List[LZToken] = []
        length = len(data)
        links = _chain_links(data)
        prev = links.tolist()
        starts = np.flatnonzero(
            (links >= 0) & (np.arange(len(links)) - links <= window)).tolist()
        literal_start = 0
        index = 0
        while index < len(starts):
            position = starts[index]
            candidate = prev[position]
            # The first candidate matches at least MIN_MATCH bytes.
            limit = min(length - position, MAX_MATCH)
            best_length = 0
            best_offset = 0
            chain = 0
            while candidate >= 0 and chain < max_chain:
                offset = position - candidate
                if offset > window:
                    break
                if data[candidate + best_length] == data[position + best_length]:
                    match_length = MIN_MATCH
                    while (match_length + _COMPARE_CHUNK <= limit
                           and data[candidate + match_length :
                                    candidate + match_length + _COMPARE_CHUNK]
                           == data[position + match_length :
                                   position + match_length + _COMPARE_CHUNK]):
                        match_length += _COMPARE_CHUNK
                    while (match_length < limit
                           and data[candidate + match_length]
                           == data[position + match_length]):
                        match_length += 1
                    if match_length > best_length:
                        best_length = match_length
                        best_offset = offset
                        if match_length == limit:
                            break
                candidate = prev[candidate]
                chain += 1
            tokens.append(
                LZToken(
                    literals=data[literal_start:position],
                    match_length=best_length,
                    match_offset=best_offset,
                )
            )
            literal_start = position + best_length
            index = bisect_left(starts, literal_start, index + 1)
        if literal_start < length or not tokens:
            tokens.append(LZToken(literals=data[literal_start:]))
        return tokens

    # ------------------------------------------------------------------
    # Byte-stream serialization (the 256-symbol alphabet)
    # ------------------------------------------------------------------

    def compress(self, data: bytes) -> bytes:
        """Compress ``data`` to the LZ4-style byte stream."""
        return self.serialize(self.tokenize(data))

    def serialize(self, tokens: List[LZToken]) -> bytes:
        out = bytearray()
        for token in tokens:
            literal_length = len(token.literals)
            match_code = (token.match_length - MIN_MATCH) if token.match_length else 0
            token_byte = (min(literal_length, 15) << 4) | min(match_code, 15)
            out.append(token_byte)
            remaining = literal_length - 15
            while remaining >= 0:
                out.append(min(remaining, 255))
                remaining -= 255
            out += token.literals
            if token.match_length:
                out.append(token.match_offset & 0xFF)
                out.append((token.match_offset >> 8) & 0xFF)
                remaining = match_code - 15
                while remaining >= 0:
                    out.append(min(remaining, 255))
                    remaining -= 255
        return bytes(out)

    def decompress(self, stream: bytes, original_size: int) -> bytes:
        """Inverse of :meth:`compress`."""

        def take(count: int) -> bytes:
            nonlocal position
            if position + count > len(stream):
                raise ValueError("LZ stream truncated")
            chunk = stream[position : position + count]
            position += count
            return chunk

        out = bytearray()
        position = 0
        while len(out) < original_size:
            token_byte = take(1)[0]
            literal_length = token_byte >> 4
            match_code = token_byte & 0x0F
            if literal_length == 15:
                while True:
                    extra = take(1)[0]
                    literal_length += extra
                    if extra != 255:
                        break
            out += take(literal_length)
            if len(out) >= original_size:
                break
            offset_bytes = take(2)
            offset = offset_bytes[0] | (offset_bytes[1] << 8)
            match_length = match_code + MIN_MATCH
            if match_code == 15:
                while True:
                    extra = take(1)[0]
                    match_length += extra
                    if extra != 255:
                        break
            if offset <= 0 or offset > len(out):
                raise ValueError(f"invalid LZ offset {offset} at output {len(out)}")
            start = len(out) - offset
            for i in range(match_length):  # byte-wise: matches may overlap
                out.append(out[start + i])
        if len(out) != original_size:
            raise ValueError(
                f"LZ decompression produced {len(out)} bytes, expected {original_size}"
            )
        return bytes(out)

    # ------------------------------------------------------------------
    # Statistics for the pipeline timing model
    # ------------------------------------------------------------------

    def stats(self, data: bytes) -> LZStats:
        """Compress and report the counts the cycle model consumes."""
        tokens = self.tokenize(data)
        return LZStats.from_tokens(len(data), len(self.serialize(tokens)), tokens)
