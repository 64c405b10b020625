"""Controllers' miss timelines against the latency-algebra spec.

Each controller serves a miss with flat code that places its stages by
hand.  Here every service path is driven once and its timeline compared,
span by span, with the oracle algebra's evaluation of the Figure 8 tree
that path implements, fed the stage latencies the controller measured.
The comparison is exact: start times, critical flags, slack and waste
attribution, and the total must all match the spec.
"""

import pytest

from repro.core import SystemConfig, create_controller
from repro.core.base import (
    PATH_CTE_HIT,
    PATH_ML2,
    PATH_PARALLEL_MISMATCH,
    PATH_PARALLEL_OK,
    PATH_SERIAL_NO_CTE,
)
from repro.core.pipeline import (
    STAGE_CTE_FETCH,
    STAGE_DATA_FETCH,
    STAGE_DECOMPRESS,
    STAGE_EMERGENCY_EVICT,
    STAGE_EVICT,
    STAGE_MIGRATION_STALL,
    STAGE_ML2_READ,
    STAGE_SPEC_DATA_FETCH,
)
from repro.dram.system import DRAMSystem
from repro.mc.cte import CTE_SIZE_PAGE
from tests.oracles.observed import serve_l3_miss
from tests.oracles.pipeline import Stage, evaluate, parallel, serial

ML2_CHAIN = (STAGE_ML2_READ, STAGE_DECOMPRESS, STAGE_MIGRATION_STALL,
             STAGE_EVICT)


def build(name, model, budget_fraction=0.8, resilience=False):
    controller = create_controller(name, SystemConfig(), DRAMSystem(), seed=5)
    controller.resilience.enabled = resilience
    ppns = list(range(100, 160))
    budget = int(len(ppns) * 4096 * budget_fraction)
    if name in ("uncompressed", "compresso"):
        controller.initialize(ppns, {p: i for i, p in enumerate(ppns)},
                              [50, 51], model)
    else:
        controller.initialize(ppns, {p: i for i, p in enumerate(ppns)},
                              [50, 51], model, budget)
    return controller, ppns


def stage(miss, name, wasted=False):
    """The oracle stage for ``name``, with the latency the miss paid."""
    return Stage(name, miss.timeline.span(name).latency_ns, wasted=wasted)


def ml2_chain(miss, names=ML2_CHAIN):
    return serial(*(stage(miss, name) for name in names))


def assert_matches_spec(miss, node, now_ns):
    expected = evaluate(node, now_ns)
    assert miss.timeline.start_ns == now_ns
    assert [span.as_dict() for span in miss.timeline.spans] == \
        [span.as_dict() for span in expected.spans]
    assert miss.latency_ns == expected.total_ns == miss.timeline.total_ns


def page_in(controller, ppns, in_ml2):
    return next(p for p in ppns if controller._cte[p].in_ml2 == in_ml2)


def busy_cte_bank(controller, ppn, now_ns, reads=4):
    """Queue reads at ``ppn``'s CTE so the verifying fetch loses no race."""
    for _ in range(reads):
        controller.dram.read_ns(controller._cte_address(ppn, CTE_SIZE_PAGE),
                                now_ns)


def test_uncompressed_is_one_data_fetch(graph_model):
    controller, ppns = build("uncompressed", graph_model)
    miss = serve_l3_miss(controller, ppns[3], 7, 40.0)
    assert miss.path == PATH_CTE_HIT
    assert_matches_spec(miss, stage(miss, STAGE_DATA_FETCH), 40.0)


def test_compresso_serializes_cte_then_data(graph_model):
    controller, ppns = build("compresso", graph_model)
    cold = serve_l3_miss(controller, ppns[0], 1, 10.0)
    assert cold.path == PATH_SERIAL_NO_CTE
    assert_matches_spec(cold, serial(stage(cold, STAGE_CTE_FETCH),
                                     stage(cold, STAGE_DATA_FETCH)), 10.0)
    warm = serve_l3_miss(controller, ppns[0], 2, 200.0)
    assert warm.path == PATH_CTE_HIT
    assert_matches_spec(warm, stage(warm, STAGE_DATA_FETCH), 200.0)


@pytest.mark.parametrize("name", ["osinspired", "tmcc"])
def test_serial_translation_paths(name, graph_model):
    controller, ppns = build(name, graph_model)
    ml1 = page_in(controller, ppns, in_ml2=False)
    miss = serve_l3_miss(controller, ml1, 3, 100.0)
    assert miss.path == PATH_SERIAL_NO_CTE
    assert_matches_spec(miss, serial(stage(miss, STAGE_CTE_FETCH),
                                     stage(miss, STAGE_DATA_FETCH)), 100.0)

    ml2 = page_in(controller, ppns, in_ml2=True)
    controller.cte_cache.flush()
    miss = serve_l3_miss(controller, ml2, 0, 300.0)
    assert miss.path == PATH_ML2
    assert_matches_spec(miss, serial(stage(miss, STAGE_CTE_FETCH),
                                     ml2_chain(miss)), 300.0)


def test_cte_cache_hit_on_ml2_page_decompresses(graph_model):
    controller, ppns = build("tmcc", graph_model)
    ml2 = page_in(controller, ppns, in_ml2=True)
    controller.cte_cache.fill(ml2)
    miss = serve_l3_miss(controller, ml2, 0, 50.0)
    assert miss.path == PATH_ML2 and miss.in_ml2
    assert_matches_spec(miss, ml2_chain(miss), 50.0)


@pytest.mark.parametrize("cte_wins", [False, True])
def test_tmcc_speculation_races_the_verify(cte_wins, graph_model):
    controller, ppns = build("tmcc", graph_model)
    ppn = page_in(controller, ppns, in_ml2=False)
    controller._cte_buffer[ppn] = (controller._snapshot(ppn), 0xBEEF)
    if cte_wins:
        busy_cte_bank(controller, ppn, 300.0)
    miss = serve_l3_miss(controller, ppn, 5, 300.0)
    assert miss.path == PATH_PARALLEL_OK
    assert miss.timeline.span(STAGE_CTE_FETCH).critical == cte_wins
    assert_matches_spec(miss, parallel(stage(miss, STAGE_CTE_FETCH),
                                       stage(miss, STAGE_DATA_FETCH)), 300.0)


def test_tmcc_speculation_on_ml2_page(graph_model):
    controller, ppns = build("tmcc", graph_model)
    ppn = page_in(controller, ppns, in_ml2=True)
    controller._cte_buffer[ppn] = (controller._snapshot(ppn), 0xBEEF)
    miss = serve_l3_miss(controller, ppn, 0, 700.0)
    assert miss.path == PATH_ML2
    assert_matches_spec(miss, parallel(stage(miss, STAGE_CTE_FETCH),
                                       ml2_chain(miss)), 700.0)


@pytest.mark.parametrize("cte_wins", [False, True])
@pytest.mark.parametrize("in_ml2", [False, True])
def test_tmcc_stale_embedded_cte_replays(cte_wins, in_ml2, graph_model):
    controller, ppns = build("tmcc", graph_model)
    ppn = page_in(controller, ppns, in_ml2=in_ml2)
    snapshot = controller._snapshot(ppn)
    controller._cte_buffer[ppn] = ((snapshot[0] + 1,) + snapshot[1:], 0xBEEF)
    if cte_wins:
        busy_cte_bank(controller, ppn, 100.0)
    miss = serve_l3_miss(controller, ppn, 3, 100.0)
    assert miss.path == (PATH_ML2 if in_ml2 else PATH_PARALLEL_MISMATCH)
    assert miss.timeline.span(STAGE_CTE_FETCH).critical == cte_wins
    data = ml2_chain(miss) if in_ml2 else stage(miss, STAGE_DATA_FETCH)
    head = parallel(stage(miss, STAGE_CTE_FETCH),
                    stage(miss, STAGE_SPEC_DATA_FETCH, wasted=True))
    assert_matches_spec(miss, serial(head, data), 100.0)
    # The stale copy was repaired: the next speculation verifies.
    assert controller._cte_buffer[ppn][0] == controller._snapshot(ppn)


def test_resilience_adds_the_emergency_eviction_stage(graph_model):
    controller, ppns = build("tmcc", graph_model, resilience=True)
    ml2 = page_in(controller, ppns, in_ml2=True)
    controller.cte_cache.fill(ml2)
    miss = serve_l3_miss(controller, ml2, 0, 50.0)
    assert miss.timeline.stage_names()[-1] == STAGE_EMERGENCY_EVICT
    assert_matches_spec(
        miss, ml2_chain(miss, ML2_CHAIN + (STAGE_EMERGENCY_EVICT,)), 50.0)
