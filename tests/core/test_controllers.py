"""Unit tests for the compression controllers (driven directly)."""

import pytest

from repro.common.units import PAGE_SIZE
from repro.core.base import (
    PATH_CTE_HIT,
    PATH_PARALLEL_MISMATCH,
    PATH_PARALLEL_OK,
    PATH_SERIAL_NO_CTE,
)
from repro.core.compresso import CompressoController
from repro.core.osinspired import OSInspiredController
from repro.core.tmcc import TMCCController
from repro.core.twolevel import TwoLevelController
from repro.core.uncompressed import UncompressedController
from repro.vm.pte import STATUS_DEFAULT_DATA, make_pte

from tests.core.conftest import make_pages
from tests.oracles.observed import serve_l3_miss


# ----------------------------------------------------------------------
# Uncompressed
# ----------------------------------------------------------------------

def test_uncompressed_miss_latency_near_53ns(system, dram, graph_model):
    controller = UncompressedController(system, dram)
    ppns, hotness = make_pages(16)
    controller.initialize(ppns, hotness, [], graph_model)
    result = serve_l3_miss(controller, ppns[0], 0, now_ns=0.0)
    # NoC (18) + closed-row DRAM (~30): Figure 18's ~53 ns regime.
    assert 40 <= result.latency_ns <= 70
    assert result.path == PATH_CTE_HIT
    assert controller.dram_used_bytes() == 16 * PAGE_SIZE


# ----------------------------------------------------------------------
# Compresso
# ----------------------------------------------------------------------

def test_compresso_serial_cte_penalty(system, dram, graph_model):
    controller = CompressoController(system, dram)
    ppns, hotness = make_pages(64)
    controller.initialize(ppns, hotness, [], graph_model)
    cold = serve_l3_miss(controller, ppns[0], 0, now_ns=0.0)
    assert cold.path == PATH_SERIAL_NO_CTE
    warm = serve_l3_miss(controller, ppns[0], 1, now_ns=1000.0)
    assert warm.path == PATH_CTE_HIT
    assert cold.latency_ns > warm.latency_ns + 20  # serial CTE fetch cost


def test_compresso_saves_memory_on_compressible_data(system, dram, graph_model):
    controller = CompressoController(system, dram)
    ppns, hotness = make_pages(256)
    controller.initialize(ppns, hotness, [], graph_model)
    assert controller.dram_used_bytes() < 256 * PAGE_SIZE


def test_compresso_metadata_overhead_is_64b_per_page(system, dram, graph_model):
    controller = CompressoController(system, dram)
    ppns, hotness = make_pages(100)
    controller.initialize(ppns, hotness, [], graph_model)
    chunked = controller.dram_used_bytes() - 100 * 64
    assert chunked % 512 == 0


def test_compresso_writeback_repacks_occasionally(system, dram, graph_model):
    controller = CompressoController(system, dram, seed=3)
    ppns, hotness = make_pages(8)
    controller.initialize(ppns, hotness, [], graph_model)
    for i in range(500):
        controller.serve_writeback(ppns[i % 8], i % 64, now_ns=float(i))
    assert controller.stats.counter("repacks").value > 0


# ----------------------------------------------------------------------
# Two-level placement
# ----------------------------------------------------------------------

def init_twolevel(system, dram, model, pages=256, budget_pages=200,
                  cls=TwoLevelController):
    controller = cls(system, dram)
    ppns, hotness = make_pages(pages)
    controller.initialize(ppns, hotness, [], model,
                          dram_budget_bytes=budget_pages * PAGE_SIZE)
    return controller, ppns


def test_twolevel_unbudgeted_keeps_everything_ml1(system, dram, graph_model):
    controller = TwoLevelController(system, dram)
    ppns, hotness = make_pages(64)
    controller.initialize(ppns, hotness, [], graph_model)
    assert controller.ml2_page_count == 0
    assert controller.ml1_page_count == 64


def test_twolevel_budget_pushes_cold_pages_to_ml2(system, dram, graph_model):
    controller, ppns = init_twolevel(system, dram, graph_model)
    assert controller.ml2_page_count > 0
    assert controller.ml1_page_count + controller.ml2_page_count == 256
    # The hottest page is in ML1; the coldest is in ML2.
    assert not controller._cte[ppns[0]].in_ml2
    assert controller._cte[ppns[-1]].in_ml2


def test_twolevel_respects_budget(system, dram, graph_model):
    budget = 200 * PAGE_SIZE
    controller, _ = init_twolevel(system, dram, graph_model, budget_pages=200)
    assert controller.dram_used_bytes() <= budget


def test_twolevel_tighter_budget_means_more_ml2(system, dram, graph_model):
    loose, _ = init_twolevel(system, dram, graph_model, budget_pages=220)
    from repro.dram.system import DRAMSystem
    tight, _ = init_twolevel(system, DRAMSystem(), graph_model, budget_pages=150)
    assert tight.ml2_page_count > loose.ml2_page_count


def test_twolevel_budget_too_small_raises(system, dram, graph_model):
    controller = TwoLevelController(system, dram)
    ppns, hotness = make_pages(256)
    with pytest.raises(ValueError):
        controller.initialize(ppns, hotness, [], graph_model,
                              dram_budget_bytes=10 * PAGE_SIZE)


def test_twolevel_ml2_access_migrates_to_ml1(system, dram, graph_model):
    controller, ppns = init_twolevel(system, dram, graph_model)
    cold = ppns[-1]
    assert controller._cte[cold].in_ml2
    result = serve_l3_miss(controller, cold, 0, now_ns=0.0)
    assert result.in_ml2
    assert result.latency_ns > 100  # decompression dominates
    assert not controller._cte[cold].in_ml2  # migrated to ML1
    assert controller.stats.counter("ml2_to_ml1_migrations").value == 1


def test_twolevel_ml1_access_is_fast(system, dram, graph_model):
    controller, ppns = init_twolevel(system, dram, graph_model)
    hot = ppns[0]
    result = serve_l3_miss(controller, hot, 0, now_ns=0.0)
    assert not result.in_ml2
    assert result.latency_ns < 120


def test_twolevel_migration_pressure_triggers_eviction(system, dram, graph_model):
    controller, ppns = init_twolevel(system, dram, graph_model,
                                     budget_pages=180)
    before_free = controller.ml1_free.count
    # Touch many cold ML2 pages to force migrations and the eviction pump.
    cold_pages = [p for p in ppns if controller._cte[p].in_ml2][:40]
    now = 0.0
    for ppn in cold_pages:
        serve_l3_miss(controller, ppn, 0, now_ns=now)
        now += 10_000.0
    assert controller.stats.counter("ml1_to_ml2_evictions").value > 0
    assert controller.ml1_free.count >= min(
        before_free, system.ml1_critical_watermark
    )


def test_twolevel_serial_translation_on_cte_miss(system, dram, graph_model):
    controller, ppns = init_twolevel(system, dram, graph_model)
    controller.cte_cache.flush()
    result = serve_l3_miss(controller, ppns[0], 0, now_ns=0.0)
    assert result.path == PATH_SERIAL_NO_CTE
    assert controller.stats.counter("cte_dram_fetches").value == 1


# ----------------------------------------------------------------------
# OS-inspired vs TMCC ML2 engines
# ----------------------------------------------------------------------

def test_osinspired_ml2_latency_is_ibm_slow(system, graph_model):
    from repro.dram.system import DRAMSystem

    slow, ppns_a = init_twolevel(system, DRAMSystem(), graph_model,
                                 cls=OSInspiredController)
    fast, ppns_b = init_twolevel(system, DRAMSystem(), graph_model,
                                 cls=TMCCController)
    cold_a = next(p for p in ppns_a if slow._cte[p].in_ml2)
    cold_b = next(p for p in ppns_b if fast._cte[p].in_ml2)
    lat_slow = serve_l3_miss(slow, cold_a, 0, 0.0).latency_ns
    lat_fast = serve_l3_miss(fast, cold_b, 0, 0.0).latency_ns
    assert lat_slow > lat_fast + 400  # ~878 ns vs ~140 ns half-page


# ----------------------------------------------------------------------
# TMCC embedded CTEs
# ----------------------------------------------------------------------

def uniform_ptb_for(ppns):
    return [make_pte(p, STATUS_DEFAULT_DATA) for p in ppns]


def test_tmcc_parallel_path_after_ptb_fetch(system, dram, graph_model):
    controller, ppns = init_twolevel(system, dram, graph_model,
                                     cls=TMCCController)
    hot = ppns[:8]
    controller.note_ptb_fetch(1, 0x1000, uniform_ptb_for(hot), huge_leaf=False)
    controller.cte_cache.flush()
    result = serve_l3_miss(controller, hot[0], 0, now_ns=0.0)
    assert result.path == PATH_PARALLEL_OK
    # Parallel: latency ~ one DRAM access, not two.
    assert result.latency_ns < 90


def test_tmcc_serial_without_walk(system, dram, graph_model):
    controller, ppns = init_twolevel(system, dram, graph_model,
                                     cls=TMCCController)
    controller.cte_cache.flush()
    result = serve_l3_miss(controller, ppns[0], 0, now_ns=0.0)
    assert result.path == PATH_SERIAL_NO_CTE


def test_tmcc_mismatch_detected_and_repaired(system, dram, graph_model):
    controller, ppns = init_twolevel(system, dram, graph_model,
                                     cls=TMCCController)
    hot = ppns[:8]
    controller.note_ptb_fetch(1, 0x1000, uniform_ptb_for(hot), huge_leaf=False)
    # Migrate hot[0] behind the PTB's back: change its CTE.
    controller._cte[hot[0]].dram_page += 1
    controller.cte_cache.flush()
    result = serve_l3_miss(controller, hot[0], 0, now_ns=0.0)
    assert result.path == PATH_PARALLEL_MISMATCH
    assert controller.stats.counter("embedded_repairs").value == 1
    # After the lazy repair, the next CTE-cache miss verifies clean.
    controller.cte_cache.flush()
    result = serve_l3_miss(controller, hot[0], 0, now_ns=1000.0)
    assert result.path == PATH_PARALLEL_OK


def test_tmcc_huge_leaf_ptbs_are_not_harvested(system, dram, graph_model):
    controller, ppns = init_twolevel(system, dram, graph_model,
                                     cls=TMCCController)
    controller.note_ptb_fetch(2, 0x2000, uniform_ptb_for(ppns[:8]),
                              huge_leaf=True)
    controller.cte_cache.flush()
    result = serve_l3_miss(controller, ppns[0], 0, now_ns=0.0)
    assert result.path == PATH_SERIAL_NO_CTE


def test_tmcc_incompressible_ptb_gives_no_embedding(system, dram, graph_model):
    controller, ppns = init_twolevel(system, dram, graph_model,
                                     cls=TMCCController)
    ptes = uniform_ptb_for(ppns[:8])
    ptes[0] |= 1 << 6  # divergent dirty bit: PTB not compressible
    controller.note_ptb_fetch(1, 0x3000, ptes, huge_leaf=False)
    assert controller.stats.counter("ptbs_incompressible").value == 1
    controller.cte_cache.flush()
    result = serve_l3_miss(controller, ppns[1], 0, now_ns=0.0)
    assert result.path == PATH_SERIAL_NO_CTE


def test_tmcc_cte_buffer_capacity_is_64(system, dram, graph_model):
    from repro.core.tmcc import CTE_BUFFER_ENTRIES

    controller, ppns = init_twolevel(system, dram, graph_model,
                                     cls=TMCCController)
    for start in range(0, 128, 8):
        group = ppns[start:start + 8]
        if len(group) == 8:
            controller.note_ptb_fetch(1, 0x4000 + start * 8,
                                      uniform_ptb_for(group), huge_leaf=False)
    assert len(controller._cte_buffer) <= CTE_BUFFER_ENTRIES


def test_tmcc_embedded_coverage_metric(system, dram, graph_model):
    controller, ppns = init_twolevel(system, dram, graph_model,
                                     cls=TMCCController)
    controller.note_ptb_fetch(1, 0x1000, uniform_ptb_for(ppns[:8]),
                              huge_leaf=False)
    controller.cte_cache.flush()
    serve_l3_miss(controller, ppns[0], 0, 0.0)   # parallel
    controller.cte_cache.flush()
    # A ML1 page the walker never covered: serial path.
    unwalked = next(p for p in ppns[8:] if not controller._cte[p].in_ml2)
    serve_l3_miss(controller, unwalked, 0, 0.0)
    assert controller.embedded_coverage == pytest.approx(0.5)


@pytest.mark.xfail(strict=True, reason=(
    "known bug: TMCCController.__init__ does not pass its seed on, so "
    "recency sampling uses DeterministicRNG(0 ^ 0xEC) for every seed; "
    "fixing it re-pins the TMCC fingerprints in perfbench/expected.json"))
def test_tmcc_recency_sampling_follows_the_seed(system):
    from repro.dram.system import DRAMSystem

    draws = []
    for seed in (1, 2):
        controller = TMCCController(system, DRAMSystem(), seed=seed)
        rng = controller.recency._rng
        draws.append([rng.random() for _ in range(8)])
    assert draws[0] != draws[1]


def test_fastml2_is_serial_but_fast(system, graph_model):
    """The Figure 20 ablation point: OS-inspired translation (serial CTE
    fetch, no embedded CTEs) but the memory-specialized Deflate for ML2."""
    from repro.core.osinspired import OSInspiredFastDeflateController
    from repro.dram.system import DRAMSystem

    controller, ppns = init_twolevel(system, DRAMSystem(), graph_model,
                                     cls=OSInspiredFastDeflateController)
    # Serial translation: no parallel path even after a PTB fetch.
    controller.note_ptb_fetch(1, 0x1000, uniform_ptb_for(ppns[:8]),
                              huge_leaf=False)
    controller.cte_cache.flush()
    result = serve_l3_miss(controller, ppns[0], 0, 0.0)
    assert result.path == PATH_SERIAL_NO_CTE
    # Fast ML2: a cold page decompresses in the memory-specialized range.
    cold = next(p for p in ppns if controller._cte[p].in_ml2)
    ml2 = serve_l3_miss(controller, cold, 0, 1000.0)
    assert ml2.latency_ns < 600  # IBM-speed would exceed ~900 ns


def test_three_controllers_form_a_latency_ladder(system, graph_model):
    """ML2 access cost: OS-inspired (IBM) > fast-ML2 > never for ML1."""
    from repro.core.osinspired import (
        OSInspiredController,
        OSInspiredFastDeflateController,
    )
    from repro.dram.system import DRAMSystem

    latencies = {}
    for cls in (OSInspiredController, OSInspiredFastDeflateController):
        controller, ppns = init_twolevel(system, DRAMSystem(), graph_model,
                                         cls=cls)
        cold = next(p for p in ppns if controller._cte[p].in_ml2)
        latencies[cls.__name__] = serve_l3_miss(controller, cold, 0, 0.0).latency_ns
    assert latencies["OSInspiredController"] > \
        latencies["OSInspiredFastDeflateController"] + 300


def test_priority_flip_under_critical_pressure(system, graph_model):
    """Section VI: once the free list drops below the critical watermark,
    eviction work runs ahead of demand ML2 accesses and slows them."""
    import dataclasses

    from repro.dram.system import DRAMSystem

    pressured = dataclasses.replace(system, ml1_critical_watermark=10**9)
    relaxed = dataclasses.replace(system, ml1_critical_watermark=0)

    def ml2_latency(config):
        controller, ppns = init_twolevel(config, DRAMSystem(), graph_model,
                                         budget_pages=180)
        # Monkey-patch config via the controller's config reference.
        cold = [p for p in ppns if controller._cte[p].in_ml2][:20]
        total = 0.0
        now = 0.0
        for ppn in cold:
            total += serve_l3_miss(controller, ppn, 0, now).latency_ns
            now += 50_000.0
        return total, controller

    slow_total, slow_ctl = ml2_latency(pressured)
    fast_total, fast_ctl = ml2_latency(relaxed)
    assert slow_ctl.stats.counter("priority_flips").value > 0
    assert fast_ctl.stats.counter("priority_flips").value == 0
    assert slow_total > fast_total
