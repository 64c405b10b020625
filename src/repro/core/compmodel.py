"""Per-page compression oracles.

Running the bit-exact Deflate over every page a simulation migrates would
dominate runtime (Python pays about 2 ms per 4 KB page for Deflate), so
each workload gets an oracle: a *sample* of its pages is pushed through
the real codecs (page-level Deflate with the pipeline timing model, and
the block-level best-of selector's sizes from
:func:`~repro.compression.block.selected_size_bits`, about 0.1 ms per
page with all sampled pages in one call, against 3 ms for the per-block
encoders), and every simulated page deterministically maps to one
of the measured records.  The simulator therefore sees genuine compressed
sizes and latencies -- including their variance -- at trace-replay speed,
and the Figure 15 benches still run the codecs on full corpora.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, List, Tuple

from repro.common.units import PAGE_SIZE
from repro.compression.block import selected_size_bits
from repro.compression.deflate import (
    DeflateCodec,
    DeflateConfig,
    DeflateTimingModel,
    IBMDeflateModel,
)

if TYPE_CHECKING:
    from repro.core.config import SystemConfig

#: Knuth's multiplicative hash: page -> record index.
_KNUTH = 2_654_435_761


@dataclass(frozen=True)
class PageRecord:
    """Measured compression outcome of one sampled page."""

    #: Page-level Deflate (TMCC ML2) storage cost in bytes.
    deflate_bytes: int
    #: Our ASIC's latency to reach the block an L3 miss wants (ns).
    decompress_half_ns: float
    #: Our ASIC's full-page decompression latency (ns).
    decompress_full_ns: float
    #: Our ASIC's compression latency (ns).
    compress_ns: float
    #: IBM-ASIC latencies for the same page (the OS-inspired baseline).
    ibm_decompress_half_ns: float
    ibm_decompress_full_ns: float
    ibm_compress_ns: float
    #: Block-level (Compresso) compressed size in bytes.
    block_bytes: int
    #: Per-64B-block compressed sizes (bytes), as Compresso's metadata
    #: block records them; sums to ``block_bytes``.
    block_sizes: tuple = ()

    @property
    def deflate_incompressible(self) -> bool:
        """ML1 keeps pages whose Deflate output isn't smaller than 4 KB."""
        return self.deflate_bytes >= PAGE_SIZE


class PageCompressionModel:
    """vpn -> :class:`PageRecord`, backed by real codec measurements."""

    def __init__(
        self,
        content: Callable[[int], bytes],
        sample_pages: int = 24,
        deflate_config: DeflateConfig = DeflateConfig(),
        timing: DeflateTimingModel = DeflateTimingModel(),
        ibm: IBMDeflateModel = IBMDeflateModel(),
        seed: int = 0,
    ) -> None:
        if sample_pages <= 0:
            raise ValueError("need at least one sample page")
        codec = DeflateCodec(deflate_config)
        pages = [content(seed * 100_000 + index) for index in range(sample_pages)]
        block_bytes = ((selected_size_bits(b"".join(pages)) + 7) // 8).reshape(
            sample_pages, -1).tolist()
        self._records: List[PageRecord] = []
        for page, block_sizes in zip(pages, block_bytes):
            compressed = codec.compress(page)
            self._records.append(
                PageRecord(
                    deflate_bytes=compressed.size_bytes,
                    decompress_half_ns=timing.decompress_latency_ns(
                        compressed, PAGE_SIZE // 2
                    ),
                    decompress_full_ns=timing.decompress_latency_ns(compressed),
                    compress_ns=timing.compress_latency_ns(compressed),
                    ibm_decompress_half_ns=ibm.decompress_latency_ns(
                        PAGE_SIZE, PAGE_SIZE // 2
                    ),
                    ibm_decompress_full_ns=ibm.decompress_latency_ns(PAGE_SIZE),
                    ibm_compress_ns=ibm.compress_latency_ns(PAGE_SIZE),
                    block_bytes=sum(block_sizes),
                    block_sizes=tuple(block_sizes),
                )
            )

    @classmethod
    def for_system(cls, content: Callable[[int], bytes],
                   system: "SystemConfig", seed: int = 0) -> "PageCompressionModel":
        """The model a simulation of ``system`` uses: its sample count,
        Deflate configuration and both timing models."""
        return cls(
            content,
            sample_pages=system.compression_samples,
            deflate_config=system.deflate,
            timing=system.deflate_timing,
            ibm=system.ibm_timing,
            seed=seed,
        )

    def record_for(self, vpn: int) -> PageRecord:
        """Deterministic page -> record assignment (Knuth hash)."""
        return self._records[(vpn * _KNUTH) % len(self._records)]

    @property
    def records(self) -> Tuple[PageRecord, ...]:
        """The measured records, in sample order."""
        return tuple(self._records)

    def record_indices(self, vpns: Iterable[int]) -> List[int]:
        """Index into :attr:`records` of each page's :meth:`record_for`,
        so a caller can derive per-record values once and look them up
        per page."""
        count = len(self._records)
        return [(vpn * _KNUTH) % count for vpn in vpns]

    # ------------------------------------------------------------------
    # Aggregates used for capacity planning (Table IV)
    # ------------------------------------------------------------------

    def mean_deflate_bytes(self) -> float:
        return sum(r.deflate_bytes for r in self._records) / len(self._records)

    def mean_block_bytes(self) -> float:
        return sum(r.block_bytes for r in self._records) / len(self._records)

    def deflate_corpus_ratio(self) -> float:
        return PAGE_SIZE / self.mean_deflate_bytes()

    def block_corpus_ratio(self) -> float:
        return PAGE_SIZE / self.mean_block_bytes()
