"""Tests for the rejected CTEs-in-LLC victim scheme (Section III)."""

from repro.core.compresso import CompressoController, CompressoLLCVictimController
from repro.dram.system import DRAMSystem

from tests.core.conftest import make_pages
from tests.oracles.observed import serve_l3_miss


def make_controller(system, model, victim, pages=4096):
    cls = CompressoLLCVictimController if victim else CompressoController
    controller = cls(system, DRAMSystem())
    ppns, hotness = make_pages(pages)
    controller.initialize(ppns, hotness, [], model)
    return controller, ppns


def thrash(controller, ppns, rounds=3):
    """Sweep far more pages than the CTE cache reaches, repeatedly."""
    now = 0.0
    for _ in range(rounds):
        for ppn in ppns:
            serve_l3_miss(controller, ppn, 0, now)
            now += 200.0
    return controller.average_miss_latency_ns


def test_llc_victim_catches_some_cte_misses(system, graph_model):
    controller, ppns = make_controller(system, graph_model, victim=True)
    thrash(controller, ppns)
    assert controller.stats.counter("cte_llc_hits").value > 0
    assert 0.0 < controller.cte_llc_hit_rate < 1.0


def test_llc_victim_hits_are_cheaper_than_dram_but_not_free(system, graph_model):
    controller, ppns = make_controller(system, graph_model, victim=True,
                                       pages=3000)
    thrash(controller, ppns)
    # An LLC victim hit costs the fixed ~20 ns LLC access.
    assert CompressoController.LLC_ACCESS_NS == 20.0


def test_llc_victim_scheme_is_not_clearly_better(system, graph_model):
    """The paper's finding: caching CTEs in the LLC is a wash or slightly
    worse, because misses are discovered ~20 ns late."""
    plain, ppns = make_controller(system, graph_model, victim=False)
    plain_latency = thrash(plain, ppns)
    victim, ppns_v = make_controller(system, graph_model, victim=True)
    victim_latency = thrash(victim, ppns_v)
    # Within a small band either way; certainly no big win.
    assert victim_latency > plain_latency * 0.9


def test_victim_capacity_is_bounded(system, graph_model):
    controller, ppns = make_controller(system, graph_model, victim=True,
                                       pages=8192)
    thrash(controller, ppns, rounds=1)
    assert len(controller._llc_victims) <= controller._llc_victim_capacity


def test_default_compresso_keeps_ctes_out_of_llc(system, graph_model):
    controller, ppns = make_controller(system, graph_model, victim=False)
    thrash(controller, ppns, rounds=1)
    assert controller.stats.counter("cte_llc_hits").value == 0
    assert not controller._llc_victims
