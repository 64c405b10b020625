"""Property tests: two-level controller invariants under random traffic.

Whatever sequence of misses and writebacks arrives, the controller must
preserve:

1. every data page is in exactly one level (its CTE says ML1 xor ML2);
2. no two ML1 pages share a DRAM chunk;
3. total chunks are conserved (free + ML1 pages + ML2 super-chunks);
4. correctness: a served miss always reflects the page's *current*
   location, even right after migrations (TMCC's verify guarantees this).
"""

from hypothesis import given, settings, strategies as st

from repro.core.compmodel import PageCompressionModel
from repro.core.config import SystemConfig
from repro.core.tmcc import TMCCController
from repro.core.twolevel import TwoLevelController
from repro.dram.system import DRAMSystem
from repro.vm.pte import STATUS_DEFAULT_DATA, make_pte
from repro.workloads.content import ContentSynthesizer

from tests.oracles.observed import serve_l3_miss

PAGES = 160
BUDGET_PAGES = 120

_MODEL = PageCompressionModel(ContentSynthesizer("graph", seed=11).page,
                              sample_pages=6, seed=11)


def build(controller_cls=TwoLevelController):
    controller = controller_cls(SystemConfig(), DRAMSystem())
    ppns = list(range(100, 100 + PAGES))
    hotness = {ppn: rank for rank, ppn in enumerate(ppns)}
    controller.initialize(ppns, hotness, [], _MODEL,
                          dram_budget_bytes=BUDGET_PAGES * 4096)
    return controller, ppns


def check_invariants(controller, ppns):
    # 1. exactly one level per page.
    ml1 = [p for p in ppns if not controller._cte[p].in_ml2]
    ml2 = [p for p in ppns if controller._cte[p].in_ml2]
    assert len(ml1) + len(ml2) == PAGES
    # ML2 pages have a sub-chunk; ML1 pages do not.
    for ppn in ml2:
        assert ppn in controller._subchunk
    for ppn in ml1:
        assert ppn not in controller._subchunk
    # 2. ML1 chunk uniqueness.
    chunks = [controller._dram_page[p] for p in ml1]
    assert len(chunks) == len(set(chunks))
    # 3. chunk conservation.
    superchunks = {id(s.superchunk): s.superchunk
                   for s in controller._subchunk.values()}
    for stacks in controller.ml2_free._lists.values():
        for sc in stacks:
            superchunks[id(sc)] = sc
    ml2_chunks = sum(len(sc.chunk_ids) for sc in superchunks.values())
    total = controller.ml1_free.count + len(ml1) + ml2_chunks
    assert total == controller._budget_chunks


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=PAGES - 1),
                          st.booleans()),
                min_size=1, max_size=150))
def test_invariants_hold_under_random_misses(operations):
    controller, ppns = build()
    now = 0.0
    for index, write in operations:
        serve_l3_miss(controller, ppns[index], index % 64, now, is_write=write)
        now += 500.0
    check_invariants(controller, ppns)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=PAGES - 1),
                min_size=1, max_size=100))
def test_tmcc_invariants_with_walk_interleaving(indices):
    """TMCC with PTB harvesting interleaved among misses."""
    controller, ppns = build(TMCCController)
    now = 0.0
    for step, index in enumerate(indices):
        if step % 7 == 0:
            group = ppns[(index // 8) * 8:(index // 8) * 8 + 8]
            if len(group) == 8:
                ptes = [make_pte(p, STATUS_DEFAULT_DATA) for p in group]
                controller.note_ptb_fetch(1, 0x10_000 + (index // 8) * 64,
                                          ptes, huge_leaf=False)
        serve_l3_miss(controller, ppns[index], index % 64, now)
        now += 800.0
    check_invariants(controller, ppns)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=PAGES - 1),
                min_size=30, max_size=120))
def test_served_location_is_always_current(indices):
    """After any history, serving a miss reflects the page's CTE *now*:
    an ML2 page migrates on access, and the immediately following access
    is an ML1 access."""
    controller, ppns = build(TMCCController)
    now = 0.0
    for index in indices:
        ppn = ppns[index]
        was_ml2 = controller._cte[ppn].in_ml2
        result = serve_l3_miss(controller, ppn, 0, now)
        assert result.in_ml2 == was_ml2
        if was_ml2 and not controller.stats.counter(
                "migration_failed").value:
            follow_up = serve_l3_miss(controller, ppn, 1, now + 1.0)
            assert not follow_up.in_ml2
        now += 1500.0


def test_writebacks_never_corrupt_state():
    controller, ppns = build()
    now = 0.0
    for i in range(2000):
        ppn = ppns[i % PAGES]
        controller.serve_writeback(ppn, i % 64, now)
        if i % 13 == 0:
            serve_l3_miss(controller, ppn, 0, now)
        now += 100.0
    check_invariants(controller, ppns)
