"""Tests for workload trace generators."""

import tracemalloc

import numpy as np
import pytest

from repro.workloads.generators import (
    BANDWIDTH_KERNELS,
    SMALL_KERNELS,
    bandwidth_workload,
    canneal_workload,
    mcf_workload,
    omnetpp_workload,
    small_workload,
)
from repro.workloads.graphs import (
    GRAPH_KERNELS,
    CSRGraph,
    _TraceBuilder,
    graph_workload,
)
from repro.workloads.suite import (
    PAPER_WORKLOAD_NAMES,
    paper_workloads,
    workload_by_name,
)


def write_fraction(workload):
    """Share of the workload's accesses that write."""
    writes = workload.trace.writes
    return sum(writes) / len(writes) if writes else 0.0


# ----------------------------------------------------------------------
# CSR graph
# ----------------------------------------------------------------------

def all_targets(graph):
    return np.fromiter(graph.targets(0, graph.num_edges), dtype=np.int64,
                       count=graph.num_edges)


def test_power_law_graph_shape():
    graph = CSRGraph.power_law(num_vertices=5000, avg_degree=8, seed=1)
    assert graph.num_vertices == 5000
    assert graph.num_edges > 5000
    assert (graph.offsets[1:] >= graph.offsets[:-1]).all()
    targets = all_targets(graph)
    assert targets.max() < 5000
    assert targets.min() >= 0


def test_power_law_graph_is_skewed():
    graph = CSRGraph.power_law(num_vertices=5000, avg_degree=8, seed=2)
    degrees = graph.offsets[1:] - graph.offsets[:-1]
    assert degrees.max() > 10 * degrees.mean()


def test_graph_determinism():
    a = CSRGraph.power_law(1000, 8, seed=3)
    b = CSRGraph.power_law(1000, 8, seed=3)
    assert (a.offsets == b.offsets).all()
    assert (all_targets(a) == all_targets(b)).all()


def test_graph_workload_allocates_no_edge_column():
    """A full-size graph workload draws the targets it reads: its whole
    build stays below the 19 MB an int32 column of the graph's 5.02M
    edge targets would take alone.  connComp keeps one label per
    vertex, so that column must be compact too."""
    for kernel in ("pageRank", "connComp"):
        tracemalloc.start()
        try:
            graph_workload(kernel, max_accesses=60_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20, kernel


def test_power_law_computes_degrees_in_place():
    """A full-size graph's degrees are capped, scaled and summed in
    place: besides the 3.2 MB of offsets kept, the build holds only the
    3.2 MB of degree draws and a chunk of scratch.  Separate
    temporaries for each step took 12.2 MiB."""
    tracemalloc.start()
    try:
        CSRGraph.power_law(400_000, 12, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_power_law_rejects_vertex_ids_past_int32():
    with pytest.raises(ValueError, match="int32"):
        CSRGraph.power_law(2**31, 12, seed=1)


def test_neighbors_view():
    graph = CSRGraph.power_law(100, 4, seed=4)
    neighbours = list(graph.neighbors(0))
    assert len(neighbours) == graph.offsets[1] - graph.offsets[0]


@pytest.mark.parametrize("budget", [3, 7, 8, 20, 36, 50])
def test_edge_range_records_what_edge_by_edge_records(budget):
    """``_TraceBuilder.edges`` records the same accesses as one ``edge``
    call per edge, and stops at the same point of the budget."""
    graph = CSRGraph.power_law(100, 4, seed=4)
    traces = []
    for record_range in (True, False):
        builder = _TraceBuilder(graph, budget)
        builder.aux(1)
        try:
            for start, stop in ((0, 3), (5, 5), (9, 13), (2, 30)):
                if record_range:
                    builder.edges(start, stop)
                else:
                    for e in range(start, stop):
                        builder.edge(e)
            finished = True
        except _TraceBuilder._Done:
            finished = False
        traces.append((builder.trace, finished))
    assert traces[0] == traces[1]
    assert len(traces[0][0]) == min(budget, 1 + 3 + 4 + 28)


# ----------------------------------------------------------------------
# Graph kernels
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kernel", sorted(GRAPH_KERNELS))
def test_each_graph_kernel_produces_a_trace(kernel):
    workload = graph_workload(kernel, num_vertices=3000, max_accesses=4000, seed=1)
    assert workload.name == kernel
    assert workload.access_count == 4000
    assert workload.footprint_pages > 10
    # Addresses stay inside the declared footprint.
    base = workload.base_vpn << 12
    end = base + workload.footprint_pages * 4096
    assert all(base <= addr < end for addr, _ in workload.trace)


def test_unknown_kernel_rejected():
    with pytest.raises(ValueError):
        graph_workload("sssp9000")


def test_graph_trace_determinism():
    a = graph_workload("bfs", num_vertices=2000, max_accesses=2000, seed=7)
    b = graph_workload("bfs", num_vertices=2000, max_accesses=2000, seed=7)
    assert a.trace == b.trace


def test_kernels_have_distinct_locality():
    """degCentr streams; shortestPath is irregular.  Measure distinct
    pages per access as a locality proxy."""
    streaming = graph_workload("degCentr", num_vertices=3000, max_accesses=6000)
    irregular = graph_workload("shortestPath", num_vertices=3000, max_accesses=6000)
    def pages_per_access(w):
        return len({a >> 12 for a, _ in w.trace}) / w.access_count
    assert pages_per_access(irregular) > pages_per_access(streaming)


def test_writes_present_in_kernels():
    workload = graph_workload("pageRank", num_vertices=2000, max_accesses=5000)
    assert 0.0 < write_fraction(workload) < 0.5


# ----------------------------------------------------------------------
# Non-graph generators
# ----------------------------------------------------------------------

def test_mcf_is_irregular_and_large():
    workload = mcf_workload(footprint_pages=4000, max_accesses=10_000)
    pages = {a >> 12 for a, _ in workload.trace}
    assert len(pages) > 800  # pointer chasing touches many pages


def test_omnetpp_has_hot_heap():
    workload = omnetpp_workload(footprint_pages=2000, max_accesses=10_000)
    counts = {}
    for address, _ in workload.trace:
        page = address >> 12
        counts[page] = counts.get(page, 0) + 1
    hottest = max(counts.values())
    assert hottest > 50  # heap pages are revisited constantly


def test_canneal_is_the_most_irregular():
    canneal = canneal_workload(footprint_pages=4000, max_accesses=10_000)
    omnetpp = omnetpp_workload(footprint_pages=4000, max_accesses=10_000)
    def distinct_pages(w):
        return len({a >> 12 for a, _ in w.trace})
    assert distinct_pages(canneal) > distinct_pages(omnetpp)
    assert canneal.compute_cycles_per_access < omnetpp.compute_cycles_per_access


@pytest.mark.parametrize("kernel", SMALL_KERNELS)
def test_small_workloads(kernel):
    workload = small_workload(kernel, footprint_pages=500, max_accesses=5000)
    assert workload.access_count == 5000
    assert workload.footprint_pages == 500
    # Small workloads fit their working set in few pages.
    assert len({a >> 12 for a, _ in workload.trace}) <= 500


@pytest.mark.parametrize("kernel", BANDWIDTH_KERNELS)
def test_bandwidth_workloads(kernel):
    workload = bandwidth_workload(kernel, footprint_pages=1000, max_accesses=5000)
    assert workload.access_count == 5000
    assert workload.compute_cycles_per_access <= 2.0  # bandwidth bound


def test_generators_reject_unknown_kernels():
    with pytest.raises(ValueError):
        small_workload("nope")
    with pytest.raises(ValueError):
        bandwidth_workload("nope")


# ----------------------------------------------------------------------
# Suite assembly
# ----------------------------------------------------------------------

def test_suite_names_match_paper():
    assert len(PAPER_WORKLOAD_NAMES) == 12
    assert set(GRAPH_KERNELS) < set(PAPER_WORKLOAD_NAMES)
    assert {"mcf", "omnetpp", "canneal"} < set(PAPER_WORKLOAD_NAMES)


def test_workload_by_name_scaling():
    small = workload_by_name("canneal", max_accesses=10_000, scale=0.1)
    assert small.access_count == 10_000 * 0.1
    with pytest.raises(ValueError):
        workload_by_name("doom")


def test_paper_workloads_subset():
    suite = paper_workloads(names=["kcore", "mcf"], max_accesses=3000, scale=0.05)
    assert set(suite) == {"kcore", "mcf"}
    for workload in suite.values():
        assert workload.access_count >= 1000


# ----------------------------------------------------------------------
# Workload record helpers
# ----------------------------------------------------------------------

def test_write_fraction_empty_trace():
    from repro.workloads.trace import Trace, Workload

    workload = Workload(name="empty", trace=Trace(), footprint_pages=1,
                        content=lambda vpn: bytes(4096))
    assert write_fraction(workload) == 0.0
    assert workload.access_count == 0


def test_suite_determinism_across_builds():
    a = workload_by_name("bfs", max_accesses=3000, scale=0.05)
    b = workload_by_name("bfs", max_accesses=3000, scale=0.05)
    assert a.trace == b.trace
    assert a.footprint_pages == b.footprint_pages
    assert a.content(5) == b.content(5)


def test_different_seeds_give_different_traces():
    a = workload_by_name("bfs", max_accesses=3000, scale=0.05, seed=1)
    b = workload_by_name("bfs", max_accesses=3000, scale=0.05, seed=2)
    assert a.trace != b.trace
