"""The shared address space: built once per workload shape, never written.

Every simulator on a workload takes its page table, translation and warm
placement from one :class:`~repro.sim.space.AddressSpace`.  These tests
pin the sharing, and hash the space before and after runs of every
controller -- TMCC harvesting embedded CTEs, two-level migration under a
half-footprint budget, resilience mode, huge pages, virtualized runs --
to show that nothing a simulator does reaches the shared state.  The
runs also share one compression model, as every controller on a
workload does in the benchmarks: its records (Compresso's placement
shares their block-size tuples) are hashed too.
"""

import dataclasses
import hashlib

import pytest

from repro.core import available_controllers
from repro.sim.multicore import MultiCoreSimulator
from repro.sim.simulator import Simulator

from tests.sim.test_frozen_goldens import GOLDEN_DIR, _budget, _emit_json, _small

#: shape -> (simulator options, two-level budget as a fraction of the
#: footprint, a golden of that shape and its controller).  The host's
#: pinned table pages leave a virtualized run no room at half.
SHAPES = {
    "4k": ({}, 0.5, "tmcc.json", "tmcc"),
    "huge_pages": ({"huge_pages": True}, 0.5, "compresso_huge_pages.json",
                   "compresso"),
    "virtualized": ({"virtualized": True}, 0.6, "tmcc_virtualized.json",
                    "tmcc"),
}


def _hash_table(digest, table) -> None:
    for page in table.table_pages():
        digest.update(repr((page.level, page.ppn, page.entries)).encode())
    digest.update(repr(list(table.huge_mappings.items())).encode())


def space_digest(space) -> str:
    """Every table page's entries (the host table's too), the
    translation, the data pages, the hotness ranking and the table
    pages."""
    digest = hashlib.sha256()
    _hash_table(digest, space.table)
    if space.host_table is not None:
        _hash_table(digest, space.host_table)
    for part in (list(space.translation.items()), space.data_ppns,
                 list(space.hotness.items()), space.table_ppns):
        digest.update(repr(part).encode())
    return digest.hexdigest()


def records_digest(model) -> str:
    """Every field of every record of a compression model."""
    return hashlib.sha256(repr([dataclasses.astuple(record)
                                for record in model.records]).encode()
                          ).hexdigest()


def test_multicore_shares_the_drift_free_address_space():
    shared = _small()
    single = Simulator(shared, controller="tmcc", seed=3, placement_drift=0.0)
    multi = MultiCoreSimulator(shared, num_cores=2, controller="tmcc", seed=3)
    assert multi.space is single.space
    assert multi.table is single.table


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_shared_address_space_is_never_written(shape):
    kwargs, fraction, golden, golden_controller = SHAPES[shape]
    shared = _small()
    first = Simulator(shared, controller="uncompressed", seed=3, **kwargs)
    space, model = first.space, first.model
    before = space_digest(space)
    records = records_digest(model)
    budget = _budget(shared, fraction)
    runs = [(controller, {}) for controller in available_controllers()]
    runs += [("tmcc", {"dram_budget_bytes": budget}),
             ("osinspired", {"dram_budget_bytes": budget}),
             ("tmcc", {"resilience": True})]
    for controller, options in runs:
        sim = Simulator(shared, controller=controller, seed=3, model=model,
                        **kwargs, **options)
        assert sim.space is space
        sim.run()
        if controller == "tmcc" and not kwargs.get("huge_pages"):
            # PTB harvesting ran (huge-page leaves embed no CTEs).
            assert sim.controller._ptb_shadow
        if "dram_budget_bytes" in options:
            assert sim.controller.ml2_page_count > 0
    assert space_digest(space) == before
    assert records_digest(model) == records
    fresh = Simulator(_small(), controller="uncompressed", seed=3, **kwargs)
    assert space_digest(fresh.space) == before
    # The shared space, after all those runs, still gives the golden.
    document = _emit_json(shared, golden_controller, **kwargs)
    assert shared._space is space
    assert document == (GOLDEN_DIR / golden).read_bytes()
