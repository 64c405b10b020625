"""GraphBIG-like graph analytics workloads.

The paper runs IBM GraphBIG kernels over a Facebook-like LDBC social graph.
We synthesize a power-law (Zipf out-degree) graph in CSR form and run real
implementations of the nine kernels, recording every load/store each kernel
performs on the graph's arrays.  The traces therefore carry each kernel's
*native* locality: degree centrality streams, triangle counting re-reads
adjacency lists (temporal locality), shortest path bounces through a
priority queue (maximal irregularity), and so on -- which is what makes
Figure 1/2's per-kernel CTE/TLB miss spread come out of the simulator
instead of being baked in.

Memory layout (byte addresses, one contiguous virtual region):

    offsets:   (V + 1) x 8 B
    edges:     E x 8 B       (the simulated layout; the host keeps the
                              targets as int32, see CSRGraph)
    prop A/B:  V x 64 B each     (vertex property structs: ranks, labels,
                                  distances, degrees... GraphBIG keeps
                                  cache-block-sized records per vertex)
    aux:       V x 64 B          (visited/color/heap records)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.common.rng import DeterministicRNG
from repro.common.units import PAGE_SIZE
from repro.workloads.trace import Trace, Workload

#: Base virtual address of graph data (arbitrary, page aligned).
GRAPH_BASE = 1 << 32

#: Edge targets drawn per step of :meth:`CSRGraph.power_law`: set-up
#: holds one chunk of float64 scratch (512 KB), not edge-length
#: temporaries.
_EDGE_CHUNK = 1 << 16


@dataclass
class CSRGraph:
    """Compressed-sparse-row graph with Zipf-skewed degrees.

    Edge targets are vertex ids, so the host stores them as int32 (half
    the bytes of int64); ``num_vertices`` must fit int32.
    """

    offsets: np.ndarray  # int64[V + 1]
    edges: np.ndarray    # int32[E]

    @property
    def num_vertices(self) -> int:
        return len(self.offsets) - 1

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, vertex: int) -> np.ndarray:
        return self.edges[self.offsets[vertex]:self.offsets[vertex + 1]]

    @classmethod
    def power_law(cls, num_vertices: int, avg_degree: int, seed: int) -> "CSRGraph":
        """Build a graph with Zipf-like degree distribution.

        Targets are also Zipf-skewed (hubs attract edges), matching social
        graphs like the paper's datagen-8_5-fb dataset.
        """
        if num_vertices > np.iinfo(np.int32).max:
            raise ValueError(f"num_vertices {num_vertices} does not fit "
                             f"the int32 edge column")
        rng = np.random.default_rng(seed)
        raw = rng.zipf(1.6, size=num_vertices)
        degrees = np.minimum(raw * avg_degree // 2, num_vertices // 2)
        scale = (num_vertices * avg_degree) / max(1, degrees.sum())
        degrees = np.maximum(1, (degrees * scale).astype(np.int64))
        offsets = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        num_edges = int(offsets[-1])
        # Hub-skewed targets: square a uniform to bias toward low ids.
        # Drawn a chunk at a time into one scratch buffer: the chunks
        # read the same random stream as one full draw, and assigning
        # float64 into the int32 column truncates like astype.
        edges = np.empty(num_edges, dtype=np.int32)
        scratch = np.empty(min(num_edges, _EDGE_CHUNK))
        for start in range(0, num_edges, _EDGE_CHUNK):
            chunk = scratch[:min(_EDGE_CHUNK, num_edges - start)]
            rng.random(out=chunk)
            np.square(chunk, out=chunk)
            np.multiply(chunk, num_vertices, out=chunk)
            edges[start:start + len(chunk)] = chunk
        return cls(offsets=offsets, edges=edges)


class _TraceBuilder:
    """Records array accesses; raises _Done when the budget is spent."""

    class _Done(Exception):
        pass

    def __init__(self, graph: CSRGraph, max_accesses: int) -> None:
        self.graph = graph
        self.max_accesses = max_accesses
        self.trace = Trace()
        self._add_address = self.trace.addresses.append
        self._add_write = self.trace.writes.append
        v = graph.num_vertices
        #: Bytes per vertex-property record (one cache block, like
        #: GraphBIG's property structs).
        self.prop_stride = 64
        self._offsets_base = GRAPH_BASE
        self._edges_base = self._offsets_base + 8 * (v + 1)
        self._prop_a_base = self._edges_base + 8 * graph.num_edges
        self._prop_b_base = self._prop_a_base + self.prop_stride * v
        self._aux_base = self._prop_b_base + self.prop_stride * v
        self.end = self._aux_base + self.prop_stride * v

    # -- address helpers -------------------------------------------------

    def _record(self, address: int, write: bool) -> None:
        self._add_address(address)
        self._add_write(write)
        if len(self.trace.addresses) >= self.max_accesses:
            raise _TraceBuilder._Done

    def offsets(self, i: int, write: bool = False) -> None:
        self._record(self._offsets_base + 8 * i, write)

    def edge(self, i: int, write: bool = False) -> None:
        self._record(self._edges_base + 8 * i, write)

    def prop_a(self, v: int, write: bool = False) -> None:
        self._record(self._prop_a_base + self.prop_stride * v, write)

    def prop_b(self, v: int, write: bool = False) -> None:
        self._record(self._prop_b_base + self.prop_stride * v, write)

    def aux(self, v: int, write: bool = False) -> None:
        self._record(self._aux_base + self.prop_stride * v, write)

    @property
    def footprint_pages(self) -> int:
        return -(-(self.end - GRAPH_BASE) // PAGE_SIZE)


# ----------------------------------------------------------------------
# Kernels.  Each takes (graph, builder, rng) and runs until the trace
# budget is exhausted (builder raises _Done) or the algorithm finishes.
# ----------------------------------------------------------------------

def _sweep_order(v: int, rng: DeterministicRNG):
    """Full vertex sweep starting at a random offset (models a thread's
    partition in the multi-threaded runs the paper uses)."""
    from itertools import chain

    start = rng.randint(0, v - 1)
    return chain(range(start, v), range(start))


def _pagerank(g: CSRGraph, t: _TraceBuilder, rng: DeterministicRNG) -> None:
    v = g.num_vertices
    while True:
        for vertex in _sweep_order(v, rng):
            t.offsets(vertex)
            t.offsets(vertex + 1)
            total = 0.0
            for e in range(int(g.offsets[vertex]), int(g.offsets[vertex + 1])):
                t.edge(e)
                neighbour = int(g.edges[e])
                t.prop_a(neighbour)  # irregular rank read
                total += 1.0
            t.prop_b(vertex, write=True)


def _bfs(g: CSRGraph, t: _TraceBuilder, rng: DeterministicRNG) -> None:
    v = g.num_vertices
    visited = bytearray(v)
    frontier = [rng.randint(0, v - 1)]
    while True:
        if not frontier:
            seed = rng.randint(0, v - 1)
            visited = bytearray(v)
            frontier = [seed]
        next_frontier: List[int] = []
        for vertex in frontier:
            t.offsets(vertex)
            t.offsets(vertex + 1)
            for e in range(int(g.offsets[vertex]), int(g.offsets[vertex + 1])):
                t.edge(e)
                neighbour = int(g.edges[e])
                t.aux(neighbour)  # visited check
                if not visited[neighbour]:
                    visited[neighbour] = 1
                    t.aux(neighbour, write=True)
                    next_frontier.append(neighbour)
        frontier = next_frontier


def _dfs(g: CSRGraph, t: _TraceBuilder, rng: DeterministicRNG) -> None:
    v = g.num_vertices
    visited = bytearray(v)
    stack = [rng.randint(0, v - 1)]
    while True:
        if not stack:
            visited = bytearray(v)
            stack = [rng.randint(0, v - 1)]
        vertex = stack.pop()
        t.aux(vertex)
        if visited[vertex]:
            continue
        visited[vertex] = 1
        t.aux(vertex, write=True)
        t.offsets(vertex)
        t.offsets(vertex + 1)
        for e in range(int(g.offsets[vertex]), int(g.offsets[vertex + 1])):
            t.edge(e)
            stack.append(int(g.edges[e]))


def _connected_components(g: CSRGraph, t: _TraceBuilder,
                          rng: DeterministicRNG) -> None:
    v = g.num_vertices
    labels = list(range(v))
    while True:
        for vertex in _sweep_order(v, rng):
            t.prop_a(vertex)
            t.offsets(vertex)
            t.offsets(vertex + 1)
            best = labels[vertex]
            for e in range(int(g.offsets[vertex]), int(g.offsets[vertex + 1])):
                t.edge(e)
                neighbour = int(g.edges[e])
                t.prop_a(neighbour)
                if labels[neighbour] < best:
                    best = labels[neighbour]
            if best != labels[vertex]:
                labels[vertex] = best
                t.prop_a(vertex, write=True)


def _graph_coloring(g: CSRGraph, t: _TraceBuilder, rng: DeterministicRNG) -> None:
    v = g.num_vertices
    colors = [-1] * v
    while True:
        for vertex in _sweep_order(v, rng):
            t.offsets(vertex)
            t.offsets(vertex + 1)
            taken = set()
            for e in range(int(g.offsets[vertex]), int(g.offsets[vertex + 1])):
                t.edge(e)
                neighbour = int(g.edges[e])
                t.prop_b(neighbour)
                if colors[neighbour] >= 0:
                    taken.add(colors[neighbour])
            color = 0
            while color in taken:
                color += 1
            colors[vertex] = color
            t.prop_b(vertex, write=True)


def _degree_centrality(g: CSRGraph, t: _TraceBuilder,
                       rng: DeterministicRNG) -> None:
    v = g.num_vertices
    while True:
        # Streaming pass over offsets; writes per-vertex degree.  Then an
        # in-degree pass streams the edge array -- mostly sequential.
        for vertex in range(v):
            t.offsets(vertex)
            t.offsets(vertex + 1)
            t.prop_a(vertex, write=True)
        for e in range(g.num_edges):
            t.edge(e)
            target = int(g.edges[e])
            t.prop_b(target, write=True)


def _shortest_path(g: CSRGraph, t: _TraceBuilder, rng: DeterministicRNG) -> None:
    import heapq

    v = g.num_vertices
    while True:
        dist = {rng.randint(0, v - 1): 0}
        heap = [(0, next(iter(dist)))]
        while heap:
            d, vertex = heapq.heappop(heap)
            t.aux(vertex)  # heap slot
            t.prop_a(vertex)  # distance read
            if d > dist.get(vertex, 1 << 60):
                continue
            t.offsets(vertex)
            t.offsets(vertex + 1)
            for e in range(int(g.offsets[vertex]), int(g.offsets[vertex + 1])):
                t.edge(e)
                neighbour = int(g.edges[e])
                weight = 1 + (neighbour & 7)
                t.prop_a(neighbour)  # dist[neighbour] read
                if d + weight < dist.get(neighbour, 1 << 60):
                    dist[neighbour] = d + weight
                    t.prop_a(neighbour, write=True)
                    t.aux(neighbour, write=True)  # heap push
                    heapq.heappush(heap, (d + weight, neighbour))


def _kcore(g: CSRGraph, t: _TraceBuilder, rng: DeterministicRNG) -> None:
    v = g.num_vertices
    degrees = np.diff(g.offsets).tolist()
    k = 2
    while True:
        removed_any = False
        # Sequential peel pass: reads the degree array in order.
        for vertex in _sweep_order(v, rng):
            t.prop_a(vertex)
            if 0 < degrees[vertex] < k:
                degrees[vertex] = 0
                t.prop_a(vertex, write=True)
                t.offsets(vertex)
                t.offsets(vertex + 1)
                for e in range(int(g.offsets[vertex]), int(g.offsets[vertex + 1])):
                    t.edge(e)
                    neighbour = int(g.edges[e])
                    if degrees[neighbour] > 0:
                        degrees[neighbour] -= 1
                        t.prop_a(neighbour, write=True)
                removed_any = True
        if not removed_any:
            k += 1


def _triangle_count(g: CSRGraph, t: _TraceBuilder, rng: DeterministicRNG) -> None:
    v = g.num_vertices
    while True:
        for vertex in _sweep_order(v, rng):
            t.offsets(vertex)
            t.offsets(vertex + 1)
            start, end = int(g.offsets[vertex]), int(g.offsets[vertex + 1])
            neighbour_list = []
            for e in range(start, min(end, start + 32)):
                t.edge(e)
                neighbour_list.append(int(g.edges[e]))
            # Intersect each neighbour's list with ours: re-reads the same
            # adjacency lists repeatedly -> strong temporal locality.
            for neighbour in neighbour_list[:8]:
                t.offsets(neighbour)
                t.offsets(neighbour + 1)
                ns, ne = int(g.offsets[neighbour]), int(g.offsets[neighbour + 1])
                for e in range(ns, min(ne, ns + 16)):
                    t.edge(e)


#: Kernel registry with per-kernel memory intensity (compute cycles per
#: access, the Figure 16 knob: lower = more memory bound).
GRAPH_KERNELS: Dict[str, tuple] = {
    "pageRank": (_pagerank, 3.0),
    "graphCol": (_graph_coloring, 3.5),
    "connComp": (_connected_components, 3.0),
    "degCentr": (_degree_centrality, 4.0),
    "shortestPath": (_shortest_path, 2.0),
    "bfs": (_bfs, 3.0),
    "dfs": (_dfs, 3.5),
    "kcore": (_kcore, 6.0),
    "triCount": (_triangle_count, 6.0),
}


def graph_workload(
    kernel: str,
    num_vertices: int = 400_000,
    avg_degree: int = 12,
    max_accesses: int = 120_000,
    seed: int = 1,
) -> Workload:
    """Build one GraphBIG-like workload trace."""
    if kernel not in GRAPH_KERNELS:
        raise ValueError(f"unknown graph kernel {kernel!r}; "
                         f"choose from {sorted(GRAPH_KERNELS)}")
    function, intensity = GRAPH_KERNELS[kernel]
    graph = CSRGraph.power_law(num_vertices, avg_degree, seed)
    builder = _TraceBuilder(graph, max_accesses)
    rng = DeterministicRNG(seed * 7919 + 13)
    try:
        function(graph, builder, rng)
    except _TraceBuilder._Done:
        pass
    from repro.workloads.content import ContentSynthesizer

    content = ContentSynthesizer("graph", seed=seed)
    return Workload(
        name=kernel,
        trace=builder.trace,
        footprint_pages=builder.footprint_pages,
        content=content.page,
        compute_cycles_per_access=intensity,
        description=f"GraphBIG-like {kernel} on a {num_vertices}-vertex "
                    f"power-law graph",
        base_vpn=GRAPH_BASE >> 12,
    )
