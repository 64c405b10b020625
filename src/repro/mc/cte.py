"""Compression Translation Entry (CTE) layouts.

TMCC migrates at page granularity, so one CTE is 8 B like a PTE
(Figure 13): the page's DRAM address, an isIncompressible bit, a location
bit (ML1 vs ML2), the compressed size class, and the 32-bit vector marking
which *pairs* of adjacent blocks use the compressed-PTB encoding
(Section V-A4).

Compresso translates at block granularity: each 4 KB physical page needs a
64 B metadata block recording where every 64 B block landed after
repacking.  That 8x size difference is the whole translation-reach story
of Sections III/IV.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import List, Optional, Sequence

from repro.common.bits import extract_bits, insert_bits
from repro.common.units import BLOCKS_PER_PAGE

#: Bytes per TMCC (page-level) CTE.
CTE_SIZE_PAGE = 8
#: Bytes per Compresso (block-level) CTE.
CTE_SIZE_BLOCKLEVEL = 64


@dataclass(slots=True)
class PageCTE:
    """TMCC's 8 B page-level CTE (Figure 13)."""

    #: DRAM frame (or sub-chunk base >> 12-equivalent handle) of the page.
    dram_page: int = 0
    #: Byte offset within the frame for ML2 sub-chunk placement.
    dram_offset: int = 0
    in_ml2: bool = False
    is_incompressible: bool = False
    #: Compressed size in bytes (meaningful only in ML2).
    compressed_size: int = 0
    #: Bit i set => blocks (2i, 2i+1) of the page use compressed-PTB encoding.
    ptb_pair_vector: int = 0

    MAX_DRAM_PAGE_BITS = 28  # 1 TB per MC / 4 KB

    def pack(self) -> int:
        """Serialize to the 64-bit hardware layout (for fidelity tests).

        Bits [0..27]: DRAM page; [28]: in_ml2; [29]: isIncompressible;
        [32..63]: a union -- the 32-bit compressed-PTB pair vector for ML1
        pages (only ML1 blocks can hold compressed PTBs) or the compressed
        byte size for ML2 pages (needed to locate/free the sub-chunk).
        """
        value = 0
        value = insert_bits(value, 0, self.MAX_DRAM_PAGE_BITS, self.dram_page)
        value = insert_bits(value, 28, 1, int(self.in_ml2))
        value = insert_bits(value, 29, 1, int(self.is_incompressible))
        if self.in_ml2:
            value = insert_bits(value, 32, 32, self.compressed_size)
        else:
            value = insert_bits(value, 32, 32, self.ptb_pair_vector)
        return value

    @classmethod
    def unpack(cls, value: int) -> "PageCTE":
        in_ml2 = bool(extract_bits(value, 28, 1))
        union = extract_bits(value, 32, 32)
        return cls(
            dram_page=extract_bits(value, 0, cls.MAX_DRAM_PAGE_BITS),
            in_ml2=in_ml2,
            is_incompressible=bool(extract_bits(value, 29, 1)),
            compressed_size=union if in_ml2 else 0,
            ptb_pair_vector=0 if in_ml2 else union,
        )

    # -- compressed-PTB pair vector helpers (Section V-A4) --------------

    def block_is_ptb_compressed(self, block_index: int) -> bool:
        if not 0 <= block_index < BLOCKS_PER_PAGE:
            raise ValueError(f"block index {block_index} out of page")
        return bool((self.ptb_pair_vector >> (block_index // 2)) & 1)

    def set_block_pair_compressed(self, block_index: int, compressed: bool) -> None:
        """Set the encoding of the *pair* containing ``block_index``.

        Hardware enacts the same encoding change for both blocks of a pair
        when either one changes, which is why one bit suffices for two.
        """
        if not 0 <= block_index < BLOCKS_PER_PAGE:
            raise ValueError(f"block index {block_index} out of page")
        bit = 1 << (block_index // 2)
        if compressed:
            self.ptb_pair_vector |= bit
        else:
            self.ptb_pair_vector &= ~bit


@dataclass(slots=True)
class CompressoCTE:
    """Compresso's 64 B per-page metadata block.

    Tracks, for each of the 64 blocks of a 4 KB physical page, the
    compressed size class and the block's location: which 512 B chunk it
    lives in and the byte offset inside it.  We keep the fields as plain
    sequences -- the simulator cares about the *reach* (one page per 64 B
    of metadata), not the exact bit packing.
    """

    #: Chunk ids allocated to this page (up to 8 x 512 B).
    chunks: List[int] = field(default_factory=list)
    #: Per-block compressed size in bytes.  Placement shares one tuple
    #: among the pages of a ``PageRecord``; the first write gives the
    #: page its own list (see ``CompressoController.serve_writeback``).
    block_sizes: Sequence[int] = field(
        default_factory=lambda: [64] * BLOCKS_PER_PAGE)
    is_incompressible: bool = False

    def compressed_page_bytes(self) -> int:
        return sum(self.block_sizes)

    def chunks_needed(self, chunk_size: int = 512) -> int:
        """Chunks required to hold the page at current block sizes."""
        return -(-self.compressed_page_bytes() // chunk_size)

    def block_location(self, block_index: int, chunk_size: int = 512) -> Optional[tuple]:
        """(chunk id, offset) of a block under sequential repacking."""
        if not 0 <= block_index < BLOCKS_PER_PAGE:
            raise ValueError(f"block index {block_index} out of page")
        if not self.chunks:
            return None
        # Integer prefix sum without a list-slice copy; this runs once per
        # Compresso LLC miss.
        offset = sum(islice(self.block_sizes, block_index))
        chunk_index = offset // chunk_size
        if chunk_index >= len(self.chunks):
            return None
        return self.chunks[chunk_index], offset % chunk_size
