"""Compresso's block sizes: shared at placement, copied on first write.

``CompressoController.initialize`` gives every page of a ``PageRecord``
that record's block-size tuple; ``serve_writeback`` is the only writer
and gives a page its own list the first time it resamples a block.
Writebacks must change the written pages and leave the shared model --
which every controller on a workload reads -- and the other pages
untouched.
"""

from repro.core.compresso import CompressoController
from repro.core.config import SystemConfig
from repro.dram.system import DRAMSystem

from tests.core.conftest import make_pages


def test_writebacks_copy_the_shared_block_sizes(graph_model):
    controller = CompressoController(SystemConfig(), DRAMSystem(), seed=1)
    ppns, hotness = make_pages(400)
    controller.initialize(ppns, hotness, [], graph_model)
    records = graph_model.records
    before = [(record, record.block_sizes, list(record.block_sizes))
              for record in records]
    ctes = controller._cte
    for ppn in ppns:
        assert ctes[ppn].block_sizes is graph_model.record_for(ppn).block_sizes

    written, untouched = ppns[:20], ppns[20:]
    for step in range(20_000):
        ppn = written[step % len(written)]
        controller.serve_writeback(ppn, (step * 7) % 64, float(step))

    assert graph_model.records == records
    for record, sizes, values in before:
        assert record.block_sizes is sizes
        assert list(sizes) == values
    for ppn in written:
        sizes = ctes[ppn].block_sizes
        assert isinstance(sizes, list)
        assert sizes != list(graph_model.record_for(ppn).block_sizes)
    for ppn in untouched:
        assert ctes[ppn].block_sizes is graph_model.record_for(ppn).block_sizes
    assert controller.stats.count_of("repacks") + controller.stats.count_of(
        "chunk_overflows") > 0
