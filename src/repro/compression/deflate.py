"""Memory-specialized ASIC Deflate (Section V-B).

Three cooperating pieces:

- :class:`DeflateCodec` -- the functional compressor/decompressor:
  LZ (1 KB CAM) followed by the reduced 16-code Huffman, with the paper's
  *dynamic Huffman skip* (store the LZ stream raw whenever Huffman would
  expand it).  Round-trips bit-exactly, which is the property the paper's
  RTL functional verification checks on 50M pages.
- :class:`DeflateTimingModel` -- a per-page cycle model of the pipeline in
  Figure 14 (LZ stages, Frequency Count, Select 15, Accumulate/Replay,
  Build/Write/Read Reduced Tree, Huffman encode/decode, LZ decode).  Rates
  come from the paper's stated per-cycle widths; stall factors are
  calibrated so a typical 3.4x-compressible page reproduces Table II.
- :class:`IBMDeflateModel` -- the analytic model of IBM's general-purpose
  ASIC (setup time T0 + streaming rate) that the paper compares against,
  and :class:`AsicAreaModel` -- Table I's area/power, with the CAM-size
  scaling measured in Section V-B2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.units import KIB, PAGE_SIZE
from repro.compression.huffman import ReducedHuffmanCodec, ReducedTreeConfig
from repro.compression.lz import LZCompressor, LZConfig, LZStats


@dataclass(frozen=True)
class DeflateConfig:
    """End-to-end configuration of the memory-specialized Deflate."""

    lz: LZConfig = field(default_factory=LZConfig)
    huffman: ReducedTreeConfig = field(default_factory=ReducedTreeConfig)
    #: Dynamic Huffman skip (Section V-B1): store the LZ stream unencoded
    #: when the reduced Huffman would expand it.  On by default; the paper
    #: measures +5% geomean ratio from it.
    dynamic_huffman_skip: bool = True


#: Compressed-page storage modes (the 2-bit header a real design would keep
#: in the CTE; we spend a byte for clarity).
MODE_RAW = 0
MODE_LZ_ONLY = 1
MODE_LZ_HUFFMAN = 2


@dataclass(frozen=True)
class CompressedPage:
    """One compressed 4 KB page plus the stats the timing model needs."""

    mode: int
    original_size: int
    payload: bytes
    lz_stats: LZStats

    @property
    def size_bytes(self) -> int:
        """Storage cost: 3-byte header (mode + 16-bit size) + payload."""
        return 3 + len(self.payload)

    @property
    def ratio(self) -> float:
        return self.original_size / self.size_bytes


class DeflateCodec:
    """Functional LZ + reduced-Huffman page compressor."""

    def __init__(self, config: DeflateConfig = DeflateConfig()) -> None:
        self.config = config
        self._lz = LZCompressor(config.lz)
        self._huffman = ReducedHuffmanCodec(config.huffman)

    def compress(self, page: bytes) -> CompressedPage:
        if not page:
            raise ValueError("cannot compress an empty page")
        if len(page) >= 1 << 16:
            raise ValueError("deflate pages are at most 64 KiB - 1")
        tokens = self._lz.tokenize(page)
        lz_stream = self._lz.serialize(tokens)
        lz_stats = LZStats.from_tokens(len(page), len(lz_stream), tokens)
        huffman_blob = self._huffman.encode(lz_stream)
        use_huffman = not (
            self.config.dynamic_huffman_skip and len(huffman_blob) >= len(lz_stream)
        )
        if use_huffman and len(huffman_blob) < len(page):
            return CompressedPage(MODE_LZ_HUFFMAN, len(page), huffman_blob, lz_stats)
        if len(lz_stream) < len(page):
            return CompressedPage(MODE_LZ_ONLY, len(page), lz_stream, lz_stats)
        return CompressedPage(MODE_RAW, len(page), bytes(page), lz_stats)

    def decompress(self, compressed: CompressedPage) -> bytes:
        if compressed.mode == MODE_RAW:
            return compressed.payload
        if compressed.mode == MODE_LZ_ONLY:
            return self._lz.decompress(compressed.payload, compressed.original_size)
        if compressed.mode == MODE_LZ_HUFFMAN:
            lz_stream = self._huffman.decode(compressed.payload)
            return self._lz.decompress(lz_stream, compressed.original_size)
        raise ValueError(f"unknown compressed-page mode {compressed.mode}")

    def compressed_size(self, page: bytes) -> int:
        """Storage cost in bytes of compressing ``page``."""
        return self.compress(page).size_bytes

    def ratio(self, page: bytes) -> float:
        """Compression ratio (original / compressed) of one page."""
        return self.compress(page).ratio


@dataclass(frozen=True)
class DeflateTimingModel:
    """Cycle model of the Figure 14 pipeline.

    Width parameters quote the paper directly (8 chars/cycle into LZ,
    <=32 bits/cycle out of Huffman Encode, 16-cycle tree read/write,
    up-to-32-cycle tree build, 8 B/cycle LZ Decompress).  The two stall
    factors absorb pipeline hazards the paper describes qualitatively; the
    defaults are calibrated so a typical 3.4x page lands on Table II.
    """

    clock_ghz: float = 2.5
    lz_chars_per_cycle: int = 8
    lz_compress_stall: float = 1.16
    replay_bytes_per_cycle: int = 8
    build_tree_cycles: int = 32
    write_tree_cycles: int = 16
    read_tree_cycles: int = 16
    huffman_encode_bits_per_cycle: float = 16.0
    huffman_decode_codes_per_cycle: int = 8
    huffman_decode_bits_per_cycle: int = 32
    lz_decode_bytes_per_cycle: int = 8
    lz_decode_stall: float = 1.30
    pipeline_fill_cycles: int = 12

    # ------------------------------------------------------------------
    # Per-page latencies
    # ------------------------------------------------------------------

    def _cycles_to_ns(self, cycles: float) -> float:
        return cycles / self.clock_ghz

    def compress_cycles(self, page: CompressedPage) -> float:
        """Cycles from first input byte to last output bit of one page."""
        stats = page.lz_stats
        lz_phase = (
            math.ceil(stats.input_bytes / self.lz_chars_per_cycle)
            * self.lz_compress_stall
        )
        if page.mode == MODE_RAW:
            return lz_phase + self.pipeline_fill_cycles
        replay = math.ceil(stats.output_bytes / self.replay_bytes_per_cycle)
        if page.mode == MODE_LZ_ONLY:
            # Huffman skipped: LZ output replays straight to the output port.
            return lz_phase + replay + self.pipeline_fill_cycles
        payload_bits = len(page.payload) * 8
        huffman_phase = (
            replay
            + self.build_tree_cycles
            + self.write_tree_cycles
            + payload_bits / self.huffman_encode_bits_per_cycle
        )
        return lz_phase + huffman_phase + self.pipeline_fill_cycles

    def compress_latency_ns(self, page: CompressedPage) -> float:
        return self._cycles_to_ns(self.compress_cycles(page))

    def decompress_cycles(self, page: CompressedPage, bytes_needed: Optional[int] = None) -> float:
        """Cycles until ``bytes_needed`` of plaintext are available.

        ``bytes_needed`` defaults to the full page; Table II's "half-page
        latency" (the average cost of reaching the block an L3 miss wants)
        is this model at ``original_size / 2``.
        """
        if bytes_needed is None:
            bytes_needed = page.original_size
        bytes_needed = min(bytes_needed, page.original_size)
        fraction = bytes_needed / page.original_size
        if page.mode == MODE_RAW:
            return self.pipeline_fill_cycles + math.ceil(
                bytes_needed / self.lz_decode_bytes_per_cycle
            )
        stats = page.lz_stats
        lz_decode = (
            math.ceil(bytes_needed / self.lz_decode_bytes_per_cycle)
            * self.lz_decode_stall
        )
        if page.mode == MODE_LZ_ONLY:
            return self.pipeline_fill_cycles + lz_decode
        # Huffman decode runs pipelined ahead of LZ Decompress; the slower
        # of the two governs progress toward the needed byte.
        codes = stats.output_bytes * fraction
        bits = len(page.payload) * 8 * fraction
        huffman_decode = max(
            codes / self.huffman_decode_codes_per_cycle,
            bits / self.huffman_decode_bits_per_cycle,
        )
        return (
            self.read_tree_cycles
            + self.pipeline_fill_cycles
            + max(lz_decode, huffman_decode)
        )

    def decompress_latency_ns(
        self, page: CompressedPage, bytes_needed: Optional[int] = None
    ) -> float:
        return self._cycles_to_ns(self.decompress_cycles(page, bytes_needed))

    # ------------------------------------------------------------------
    # Throughput (pages pipelined back to back, Section V-B3)
    # ------------------------------------------------------------------

    def compress_throughput_gbps(self, page: CompressedPage) -> float:
        """Steady-state GB/s with LZ and Huffman on independent pages.

        The bottleneck stage is whichever phase is longer, because LZ works
        on page N+1 while the Huffman modules drain page N.
        """
        stats = page.lz_stats
        lz_phase = (
            math.ceil(stats.input_bytes / self.lz_chars_per_cycle)
            * self.lz_compress_stall
        )
        if page.mode == MODE_LZ_HUFFMAN:
            replay = math.ceil(stats.output_bytes / self.replay_bytes_per_cycle)
            huffman_phase = (
                replay
                + self.build_tree_cycles
                + self.write_tree_cycles
                + len(page.payload) * 8 / self.huffman_encode_bits_per_cycle
            )
        else:
            huffman_phase = math.ceil(stats.output_bytes / self.replay_bytes_per_cycle)
        bottleneck = max(lz_phase, huffman_phase)
        return stats.input_bytes / self._cycles_to_ns(bottleneck)

    def decompress_throughput_gbps(self, page: CompressedPage) -> float:
        cycles = self.decompress_cycles(page) - self.read_tree_cycles
        return page.original_size / self._cycles_to_ns(max(1.0, cycles))


@dataclass(frozen=True)
class IBMDeflateModel:
    """Analytic model of IBM's Power9/z15 ASIC Deflate ([11], Table II).

    Per-request time is ``T0 + size / stream_rate``; T0 (650-780 ns) is the
    canonical-Huffman-tree setup the paper identifies as the killer for
    4 KB pages.  Parameters reproduce Table II's IBM rows exactly.
    """

    decompress_setup_ns: float = 655.0
    decompress_stream_gbps: float = 9.2
    compress_setup_ns: float = 650.0
    compress_stream_gbps: float = 10.2

    def decompress_latency_ns(self, size_bytes: int = PAGE_SIZE,
                              bytes_needed: Optional[int] = None) -> float:
        needed = size_bytes if bytes_needed is None else min(bytes_needed, size_bytes)
        return self.decompress_setup_ns + needed / self.decompress_stream_gbps

    def compress_latency_ns(self, size_bytes: int = PAGE_SIZE) -> float:
        return self.compress_setup_ns + size_bytes / self.compress_stream_gbps

    def decompress_throughput_gbps(self, size_bytes: int = PAGE_SIZE) -> float:
        return size_bytes / self.decompress_latency_ns(size_bytes)

    def compress_throughput_gbps(self, size_bytes: int = PAGE_SIZE) -> float:
        return size_bytes / self.compress_latency_ns(size_bytes)


@dataclass(frozen=True)
class AsicAreaModel:
    """Area/power model anchored to Table I (7 nm ASAP, 0.7 V, 2.5 GHz).

    LZ area is CAM-dominated and scales linearly with CAM size (the paper
    measures 0.24 mm^2 at 4 KB vs 0.060 mm^2 at 1 KB for the compressor).
    Huffman area scales with tree size relative to the 16-leaf design point.
    """

    lz_compressor_mm2_per_kib: float = 0.060
    lz_decompressor_mm2_per_kib: float = 0.022
    huffman_compressor_mm2: float = 0.034
    huffman_decompressor_mm2: float = 0.014
    lz_compressor_mw_per_kib: float = 160.0
    lz_decompressor_mw_per_kib: float = 100.0
    huffman_compressor_mw: float = 160.0
    huffman_decompressor_mw: float = 27.0

    def module_areas_mm2(self, cam_size: int = KIB, tree_size: int = 16) -> Dict[str, float]:
        cam_kib = cam_size / KIB
        tree_scale = tree_size / 16
        return {
            "lz_decompressor": self.lz_decompressor_mm2_per_kib * cam_kib,
            "lz_compressor": self.lz_compressor_mm2_per_kib * cam_kib,
            "huffman_decompressor": self.huffman_decompressor_mm2 * tree_scale,
            "huffman_compressor": self.huffman_compressor_mm2 * tree_scale,
        }

    def module_powers_mw(self, cam_size: int = KIB, tree_size: int = 16) -> Dict[str, float]:
        cam_kib = cam_size / KIB
        tree_scale = tree_size / 16
        return {
            "lz_decompressor": self.lz_decompressor_mw_per_kib * cam_kib,
            "lz_compressor": self.lz_compressor_mw_per_kib * cam_kib,
            "huffman_decompressor": self.huffman_decompressor_mw * tree_scale,
            "huffman_compressor": self.huffman_compressor_mw * tree_scale,
        }

    def total_area_mm2(self, cam_size: int = KIB, tree_size: int = 16) -> float:
        return sum(self.module_areas_mm2(cam_size, tree_size).values())

    def total_power_mw(self, cam_size: int = KIB, tree_size: int = 16) -> float:
        return sum(self.module_powers_mw(cam_size, tree_size).values())


def corpus_ratio(codec: DeflateCodec, pages: List[bytes]) -> float:
    """Whole-corpus compression ratio (total original / total compressed).

    This mirrors how the paper computes per-dump compression ratios after
    discarding all-zero pages (the caller is responsible for the discard).
    """
    original = sum(len(p) for p in pages)
    compressed = sum(codec.compressed_size(p) for p in pages)
    return original / max(1, compressed)
