"""Tests for the base controller plumbing shared by all designs."""

from repro.core.base import (
    MemoryController,
    PATH_CTE_HIT,
    PATH_ML2,
    PATH_PARALLEL_MISMATCH,
    PATH_PARALLEL_OK,
    PATH_SERIAL_NO_CTE,
)
from repro.dram.system import DRAMSystem

from tests.core.conftest import make_pages
from tests.oracles.observed import serve_l3_miss
import pytest


def build(system, model, pages=8):
    controller = MemoryController(system, DRAMSystem())
    ppns, hotness = make_pages(pages)
    controller.initialize(ppns, hotness, [900, 901], model)
    return controller, ppns


def test_table_pages_precede_data_pages(system, graph_model):
    controller, ppns = build(system, graph_model)
    # Table pages got the lowest DRAM frames.
    assert controller._dram_page[900] == 0
    assert controller._dram_page[901] == 1
    assert controller._dram_page[ppns[0]] == 2


def test_data_addresses_are_page_disjoint(system, graph_model):
    controller, ppns = build(system, graph_model)
    addresses = {controller._data_address(ppn, 0) for ppn in ppns}
    assert len(addresses) == len(ppns)
    for ppn in ppns:
        assert controller._data_address(ppn, 1) == \
            controller._data_address(ppn, 0) + 64


def test_cte_table_lives_above_data(system, graph_model):
    controller, ppns = build(system, graph_model)
    top_data = max(controller._data_address(p, 63) for p in ppns)
    assert controller._cte_address(ppns[0], 8) > top_data


def test_path_fractions_sum_to_one(system, graph_model):
    controller, ppns = build(system, graph_model)
    for path in (PATH_CTE_HIT, PATH_CTE_HIT, PATH_PARALLEL_OK,
                 PATH_PARALLEL_MISMATCH, PATH_SERIAL_NO_CTE, PATH_ML2):
        controller._count(f"path_{path}")
    fractions = controller.path_fractions()
    assert sum(fractions.values()) == pytest.approx(1.0)
    assert fractions[PATH_CTE_HIT] == pytest.approx(2 / 6)


def test_path_fractions_empty_is_zero(system, graph_model):
    controller, _ = build(system, graph_model)
    fractions = controller.path_fractions()
    assert all(v == 0.0 for v in fractions.values())


def test_writebacks_count_and_post(system, graph_model):
    controller, ppns = build(system, graph_model)
    controller.serve_writeback(ppns[0], 5, now_ns=0.0)
    assert controller.stats.counter("writebacks").value == 1
    assert controller.dram.stats.counter("writes").value == 1


def test_average_miss_latency_tracks_histogram(system, graph_model):
    controller, ppns = build(system, graph_model)
    serve_l3_miss(controller, ppns[0], 0, 0.0)
    serve_l3_miss(controller, ppns[1], 0, 1000.0)
    assert controller.average_miss_latency_ns > 0
    assert controller.stats.histogram("miss_latency_ns").count == 2
