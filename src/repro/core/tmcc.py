"""TMCC: Translation-optimized Memory Compression for Capacity (Section V).

On top of the two-level engine, TMCC adds its two contributions:

1. **Embedded CTEs in compressed PTBs** (Section V-A).  Every page-walker
   PTB fetch is reported via :meth:`note_ptb_fetch`; the controller keeps
   a shadow of each PTB's hardware-compressed encoding and a 64-entry CTE
   Buffer mapping PPN -> (embedded CTE snapshot, owning PTB).  When an LLC
   miss later misses the CTE cache, the buffered snapshot lets the MC
   fetch the data *speculatively in parallel* with the verifying CTE read
   (Figure 11).  A stale snapshot (the page migrated since the PTB last
   embedded it) is detected by the parallel verify, costs one re-access,
   and is repaired lazily (Figure 8c).

2. **Memory-specialized Deflate for ML2** (Section V-B): ML2 hits pay the
   fast ASIC's half-page latency (~140 ns) instead of IBM's (~878 ns);
   these latencies come from the page's own measured
   :class:`~repro.core.compmodel.PageRecord`.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, Optional, Tuple

from repro.core.base import (
    PATH_ML2,
    PATH_PARALLEL_MISMATCH,
    PATH_PARALLEL_OK,
    PTEs,
    register_controller,
)
from repro.core.config import SystemConfig
from repro.core.pipeline import (
    STAGE_CTE_FETCH,
    STAGE_DATA_FETCH,
    STAGE_SPEC_DATA_FETCH,
)
from repro.core.twolevel import TwoLevelController
from repro.dram.system import DRAMSystem
from repro.mc.cte import PageCTE
from repro.vm.pte import pte_ppn, pte_present
from repro.vm.ptbcodec import PTBCodec

#: CTE Buffer capacity (Section V-A6: 64 entries, ~1 KB).
CTE_BUFFER_ENTRIES = 64


@register_controller
class TMCCController(TwoLevelController):
    """The paper's design."""

    name = "tmcc"

    def __init__(self, config: SystemConfig, dram: DRAMSystem,
                 seed: int = 0) -> None:
        super().__init__(config, dram)
        self.ptb_codec = PTBCodec()
        #: PTB physical address -> compressed shadow (None: incompressible).
        self._ptb_shadow: Dict[int, Optional[object]] = {}
        #: PTB physical address -> (shadow, ((ppn, cte slot index), ...))
        #: for its present PTEs.  Valid because the page table is static
        #: while a simulation runs and a PTB's shadow object, truncated
        #: PPNs, and capacity never change after ``_shadow_for`` -- only
        #: ``cte_slots`` mutate, and those are re-read on every harvest.
        self._ptb_harvest: Dict[int, tuple] = {}
        #: PPN -> (snapshot, owning PTB address); bounded FIFO (Figure 10).
        #: Plain dict: insertion order is recency order (delete + reinsert
        #: on every touch), the oldest key evicts first.
        self._cte_buffer: Dict[int, Tuple[Optional[tuple], int]] = {}

    # ------------------------------------------------------------------
    # Page-walk side: harvesting embedded CTEs
    # ------------------------------------------------------------------

    def note_ptb_fetch(self, level: int, ptb_address: int, ptes: PTEs,
                       huge_leaf: bool) -> None:
        """The walker fetched a PTB; buffer its embedded CTEs.

        A reader in ``ptes`` is called only on the PTB's first harvest;
        later ones reuse the memo.  ``huge_leaf`` marks an L2 PTB whose
        entries map 2 MiB pages: its PTEs cover 4K base pages each, far
        too many CTEs to embed (Section VIII), so TMCC learns nothing
        from it.
        """
        if ptes is None or huge_leaf:
            return
        harvest = self._ptb_harvest.get(ptb_address)
        if harvest is None:
            if callable(ptes):
                ptes = ptes(ptb_address)
                if ptes is None:
                    return
            shadow = self._shadow_for(ptb_address, ptes)
            ppn_bits = self.ptb_codec.ppn_bits
            pairs = []
            for pte in ptes:
                if not pte_present(pte):
                    continue
                ppn = pte_ppn(pte)
                slot = None
                if shadow is not None:
                    slot = shadow.cte_slot_index(ppn, ppn_bits)
                pairs.append((ppn, slot))
            harvest = self._ptb_harvest[ptb_address] = (shadow, tuple(pairs))
        shadow, pairs = harvest
        slots = shadow.cte_slots if shadow is not None else None
        buffer = self._cte_buffer
        # Bounded FIFO: re-inserting moves a PPN to the MRU end; once the
        # note's inserts are in, the oldest entries past capacity evict
        # (the same entries, in the same order, as evicting per insert).
        for ppn, slot in pairs:
            if ppn in buffer:
                del buffer[ppn]
            buffer[ppn] = (slots[slot] if slot is not None else None,
                           ptb_address)
        excess = len(buffer) - CTE_BUFFER_ENTRIES
        if excess > 0:
            for ppn in list(islice(buffer, excess)):
                del buffer[ppn]

    def _shadow_for(self, ptb_address: int, ptes: List[int]):
        if ptb_address in self._ptb_shadow:
            return self._ptb_shadow[ptb_address]
        compressed = self.ptb_codec.compress(ptes)
        if compressed is not None:
            # Freshly compressed PTB: embed the CTEs we currently hold
            # (the L2-compresses-on-walker-fill path of Section V-A4).
            for pte in ptes:
                if not pte_present(pte):
                    continue
                ppn = pte_ppn(pte)
                compressed.set_cte_for_ppn(
                    ppn, self.ptb_codec.ppn_bits, self._snapshot(ppn)
                )
            self.stats.counter("ptbs_compressed").increment()
            table_ppn = ptb_address >> 12
            table_cte = self._cte.get(table_ppn)
            if table_cte is not None:
                block_index = (ptb_address >> 6) & 63
                table_cte.set_block_pair_compressed(block_index, True)
        else:
            self.stats.counter("ptbs_incompressible").increment()
        self._ptb_shadow[ptb_address] = compressed
        return compressed

    def _snapshot(self, ppn: int) -> Optional[tuple]:
        """Current truncated-CTE content for a page, or None if unknown."""
        cte = self._cte.get(ppn)
        if cte is None:
            return None
        return (cte.dram_page, cte.in_ml2, cte.dram_offset)

    # ------------------------------------------------------------------
    # Miss side: parallel speculative access (Figures 8b/8c, 11)
    # ------------------------------------------------------------------

    def _translate(self, ppn: int, cte: PageCTE, block_index: int,
                   now_ns: float):
        """CTE-cache miss; returns ``(spans, total_ns, path)``.

        With a buffered embedded CTE the data access is issued
        speculatively alongside the verifying CTE read.  Parallel
        branches start together; the first maximal branch wins (ties go
        to the CTE fetch), the loser is non-critical, and its last span
        carries the time it finished early as slack.
        """
        entry = self._cte_buffer.get(ppn)
        if entry is None or entry[0] is None:
            # Uncommon: no embedded CTE available -> serial, like prior work.
            return super()._translate(ppn, cte, block_index, now_ns)

        snapshot, ptb_address = entry
        in_ml2 = cte.in_ml2
        if snapshot == self._snapshot(ppn):
            # Common case (Figure 8b): the speculative data access races
            # the verifying CTE read; the miss pays only the longer leg.
            cte_lat = self._fetch_cte(ppn, now_ns)
            if in_ml2:
                data_spans, data_dur = self._ml2(ppn, cte, now_ns)
                path = PATH_ML2
            else:
                data_dur = self._dram_read(
                    self._data_address(ppn, block_index), now_ns)
                data_spans = ((STAGE_DATA_FETCH, now_ns, data_dur, True,
                               False, 0.0),)
                path = PATH_PARALLEL_OK
            if cte_lat >= data_dur:
                slack = cte_lat - data_dur
                spans = [(STAGE_CTE_FETCH, now_ns, cte_lat, True, False, 0.0)]
                last = len(data_spans) - 1
                for index, (name, start, lat, _critical, wasted,
                            span_slack) in enumerate(data_spans):
                    if index == last and slack > 0.0:
                        span_slack += slack
                    spans.append((name, start, lat, False, wasted, span_slack))
                return spans, cte_lat, path
            slack = data_dur - cte_lat
            spans = [(STAGE_CTE_FETCH, now_ns, cte_lat, False, False,
                      slack if slack > 0.0 else 0.0)]
            spans.extend(data_spans)
            return spans, data_dur, path

        # Mismatch (Figure 8c): the speculative DRAM access is wasted
        # work; the verify detects it, the block is re-fetched from the
        # page's true location, and the PTB's embedded copy is repaired
        # lazily off the critical path.
        cte_lat = self._fetch_cte(ppn, now_ns)
        spec_lat = self._dram_read(snapshot[0] * 4096 + block_index * 64,
                                   now_ns)
        if cte_lat >= spec_lat:
            head_dur = cte_lat
            slack = head_dur - spec_lat
            spans = [(STAGE_CTE_FETCH, now_ns, cte_lat, True, False, 0.0),
                     (STAGE_SPEC_DATA_FETCH, now_ns, spec_lat, False, True,
                      slack if slack > 0.0 else 0.0)]
        else:
            head_dur = spec_lat
            slack = head_dur - cte_lat
            spans = [(STAGE_CTE_FETCH, now_ns, cte_lat, False, False,
                      slack if slack > 0.0 else 0.0),
                     (STAGE_SPEC_DATA_FETCH, now_ns, spec_lat, True, True,
                      0.0)]
        data_ns = now_ns + head_dur
        if in_ml2:
            data_spans, data_dur = self._ml2(ppn, cte, data_ns)
            path = PATH_ML2
        else:
            data_dur = self._dram_read(self._data_address(ppn, block_index),
                                       data_ns)
            data_spans = ((STAGE_DATA_FETCH, data_ns, data_dur, True, False,
                           0.0),)
            path = PATH_PARALLEL_MISMATCH
        spans.extend(data_spans)
        self._repair_embedded(ppn, ptb_address)
        self.stats.counter("embedded_mismatches").value += 1
        return spans, head_dur + data_dur, path

    def _repair_embedded(self, ppn: int, ptb_address: int) -> None:
        """Piggybacked-response repair (Section V-A3, last paragraph)."""
        shadow = self._ptb_shadow.get(ptb_address)
        fresh = self._snapshot(ppn)
        if shadow is not None:
            shadow.set_cte_for_ppn(ppn, self.ptb_codec.ppn_bits, fresh)
        if ppn in self._cte_buffer:
            self._cte_buffer[ppn] = (fresh, ptb_address)
        self.stats.counter("embedded_repairs").increment()
        self.resilience.count("cte_repairs")

    # ------------------------------------------------------------------
    # Fault intake (repro.sim.faults)
    # ------------------------------------------------------------------

    def inject_stale_cte(self, rng) -> Optional[int]:
        """Corrupt one buffered embedded-CTE snapshot (fault injection).

        Models a PTB whose embedded CTE went stale without the usual
        migration bookkeeping (e.g. lost repair).  Picks a currently-
        consistent buffered snapshot, flips its dram_page, and drops the
        page's CTE-cache block so the next LLC miss takes the speculative
        path -- forcing the verify-mismatch replay + lazy repair
        machinery.  Returns the chosen ppn, or None if nothing was
        eligible.
        """
        candidates = [
            ppn for ppn, (snapshot, _) in self._cte_buffer.items()
            if snapshot is not None and snapshot == self._snapshot(ppn)
        ]
        if not candidates:
            return None
        ppn = rng.choice(candidates)
        snapshot, ptb_address = self._cte_buffer[ppn]
        stale = (snapshot[0] ^ 0x1,) + snapshot[1:]
        self._cte_buffer[ppn] = (stale, ptb_address)
        self.cte_cache.invalidate_page(ppn)
        return ppn

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        summary = super().describe()
        summary.update({
            "cte_buffer_entries": CTE_BUFFER_ENTRIES,
            "cte_buffer_occupancy": len(self._cte_buffer),
            "ptb_shadows": len(self._ptb_shadow),
            "embedded_coverage": self.embedded_coverage,
        })
        return summary

    @property
    def embedded_coverage(self) -> float:
        """Fraction of CTE-cache misses served via embedded CTEs."""
        ok = self.stats.count_of("path_parallel_ok")
        bad = self.stats.count_of("path_parallel_mismatch")
        serial = self.stats.count_of("path_serial_no_cte")
        total = ok + bad + serial
        return (ok + bad) / total if total else 0.0
