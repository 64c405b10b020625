"""The back-end pass reads a PTB's PTEs only when a controller needs them.

The replay loop hands ``note_ptb_fetch`` the page table's reader instead
of the PTEs.  TMCC memoizes each PTB's harvest, so a run reads every
harvested PTB from the page table (``PageTable.ptb_at``) exactly once;
controllers that harvest nothing are never called and read none.
Counted by monkeypatching, like
``test_fast_loop_constructs_no_per_access_records``.
"""

import pytest

from repro.sim.simulator import Simulator
from repro.vm.pagetable import PageTable
from repro.workloads.suite import workload_by_name


@pytest.fixture
def ptb_reads(monkeypatch):
    """Addresses passed to ``PageTable.ptb_at``, in call order."""
    reads = []
    ptb_at = PageTable.ptb_at

    def counting_ptb_at(self, ptb_address):
        reads.append(ptb_address)
        return ptb_at(self, ptb_address)

    monkeypatch.setattr(PageTable, "ptb_at", counting_ptb_at)
    return reads


@pytest.mark.parametrize("options", [{}, {"huge_pages": True},
                                     {"virtualized": True}],
                         ids=["native", "huge", "virtualized"])
def test_tmcc_reads_each_harvested_ptb_once(ptb_reads, options):
    workload = workload_by_name("omnetpp", max_accesses=2_000, scale=0.05)
    sim = Simulator(workload, controller="tmcc", seed=3, **options)
    del ptb_reads[:]  # construction is not the back end's work
    sim.run()
    assert ptb_reads
    assert sorted(ptb_reads) == sorted(sim.controller._ptb_harvest)


@pytest.mark.parametrize("controller", ["uncompressed", "compresso"])
def test_non_harvesting_controllers_read_no_ptb(ptb_reads, controller):
    workload = workload_by_name("omnetpp", max_accesses=2_000, scale=0.05)
    Simulator(workload, controller=controller, seed=3).run()
    assert ptb_reads == []
