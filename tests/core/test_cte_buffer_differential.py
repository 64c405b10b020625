"""Differential test: TMCC's CTE Buffer vs the per-insert FIFO reference.

``TMCCController.note_ptb_fetch`` evicts the entries past capacity once,
after a PTB's inserts; ``ReferenceCTEBuffer`` (``tests/oracles/
ctebuffer.py``) evicts after every insert.  Hypothesis drives the
controller through random PTB notes (0-8 present PTEs, re-notes, huge
leaves, PTE lists and lazy readers, addresses holding no PTB), misses
that take the mismatch path and repair lazily, and injected stale CTEs,
mirrors each step on the reference, and demands the same buffer items in
the same order after every step.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.common.units import PAGE_SIZE
from repro.core.tmcc import TMCCController
from repro.dram.system import DRAMSystem
from repro.vm.pte import STATUS_DEFAULT_DATA, make_pte

from tests.core.conftest import make_pages
from tests.oracles.ctebuffer import ReferenceCTEBuffer
from tests.oracles.observed import serve_l3_miss

PAGES = 256
#: PTB slots; index ``PTBS`` names an address that holds no PTB.
PTBS = 24
PTB_BASE = 0x10_000

# A PTB: eight PTEs, each not present (None) or the page at that offset
# from the PTB's own eight (offsets 8-15 overlap the next PTB's pages).
# Only a fully present PTB compresses (its PTEs share one status), so
# those are drawn as often as the rest.
offset = st.integers(0, 15)
ptb = st.one_of(st.lists(offset, min_size=8, max_size=8),
                st.lists(st.one_of(st.none(), offset), min_size=8,
                         max_size=8))

# A note is drawn four times as often as each other op, and one note in
# eight is a huge leaf, so the buffer overflows in most sequences.
note = st.tuples(st.just("note"), st.integers(0, PTBS),
                 st.sampled_from([False] * 7 + [True]), st.booleans())
# A miss on the buffered PPN at this position (any page while the buffer
# is empty), optionally after moving the page.
serve = st.tuples(st.just("serve"), st.integers(0, PAGES - 1), st.booleans())
inject = st.tuples(st.just("inject"), st.integers(0, 2 ** 16))
operation = st.sampled_from([note] * 4 + [serve, inject]).flatmap(
    lambda kind: kind)


def build(system, model):
    controller = TMCCController(system, DRAMSystem())
    ppns, hotness = make_pages(PAGES)
    controller.initialize(ppns, hotness, [], model,
                          dram_budget_bytes=200 * PAGE_SIZE)
    return controller, ppns


@settings(max_examples=60, deadline=None)
@given(table=st.lists(ptb, min_size=PTBS, max_size=PTBS),
       ops=st.lists(operation, min_size=40, max_size=150))
def test_cte_buffer_matches_reference(system, graph_model, table, ops):
    controller, ppns = build(system, graph_model)
    reference = ReferenceCTEBuffer()
    ptes_at = {PTB_BASE + index * 64: [
        0 if entry is None else make_pte(ppns[index * 8 + entry],
                                         STATUS_DEFAULT_DATA)
        for entry in entries] for index, entries in enumerate(table)}
    repair = controller._repair_embedded

    def mirrored_repair(ppn, ptb_address):
        reference.replace(ppn, controller._snapshot(ppn), ptb_address)
        repair(ppn, ptb_address)

    controller._repair_embedded = mirrored_repair
    now = 0.0
    for op in ops:
        if op[0] == "note":
            _, index, huge_leaf, lazy = op
            address = PTB_BASE + index * 64
            ptes = ptes_at.get(address)
            controller.note_ptb_fetch(
                1, address, ptes_at.get if lazy else ptes, huge_leaf)
            if ptes is not None and not huge_leaf:
                reference.note(address, controller._ptb_harvest[address])
        elif op[0] == "serve":
            _, index, migrate = op
            buffered = list(controller._cte_buffer)
            ppn = buffered[index % len(buffered)] if buffered else ppns[index]
            cte = controller._cte[ppn]
            # Move an ML1 page behind its PTBs' back for the one miss.
            migrate = migrate and not cte.in_ml2
            if migrate:
                cte.dram_page += 1
            controller.cte_cache.flush()
            serve_l3_miss(controller, ppn, 0, now)
            if migrate:
                cte.dram_page -= 1
            now += 1000.0
        else:
            ppn = controller.inject_stale_cte(random.Random(op[1]))
            if ppn is not None:
                snapshot, ptb_address = reference.entries[ppn]
                reference.replace(ppn, (snapshot[0] ^ 0x1,) + snapshot[1:],
                                  ptb_address)
        assert list(controller._cte_buffer.items()) == \
            list(reference.entries.items()), op
