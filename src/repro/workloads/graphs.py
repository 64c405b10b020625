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
    edges:     E x 8 B       (the simulated layout; the host stores no
                              targets but draws them on demand, see
                              CSRGraph)
    prop A/B:  V x 64 B each     (vertex property structs: ranks, labels,
                                  distances, degrees... GraphBIG keeps
                                  cache-block-sized records per vertex)
    aux:       V x 64 B          (visited/color/heap records)
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List

import numpy as np

from repro.common.rng import DeterministicRNG
from repro.common.units import PAGE_SIZE
from repro.workloads.trace import Trace, Workload

#: Base virtual address of graph data (arbitrary, page aligned).
GRAPH_BASE = 1 << 32

#: Most edge targets one draw makes, into 8 KB of float64 scratch.  A
#: longer range, such as a hub's adjacency (up to V/2 edges), is drawn
#: a span at a time as it is read.  A request that starts in the last
#: span drawn, or at most a span past its end, draws a full span: a
#: sweep over consecutive vertices then reads the next adjacencies from
#: it instead of drawing each.
_SPAN = 1 << 10

#: Spans up to this long are drawn with float arithmetic on a list,
#: which is cheaper than numpy's per-call cost for so few targets.
_SHORT = 8

#: Vertices whose degrees are scaled at once, in 512 KB of float64
#: scratch (:meth:`CSRGraph.power_law`).
_DEGREE_CHUNK = 1 << 16


class CSRGraph:
    """Compressed-sparse-row graph with Zipf-skewed degrees.

    Only the offsets are stored.  Edge ``e``'s target is
    ``floor(u * u * V)`` for the ``e``-th double of the PCG64 stream the
    degree draws left behind; each double takes exactly one 64-bit word
    of the stream, so ``PCG64.advance`` jumps to any edge and
    :meth:`targets` draws a span on demand.  The last span drawn is kept
    as an int32 ``array``.  Targets are vertex ids, so ``num_vertices``
    must fit int32.
    """

    def __init__(self, offsets: np.ndarray,
                 edge_stream: np.random.Generator) -> None:
        self.offsets = offsets  # int64[V + 1]
        #: The offsets again, without a copy: indexing a memoryview
        #: gives a Python int for half the cost of a numpy scalar read.
        self.bounds = memoryview(offsets)
        self.num_vertices = len(offsets) - 1
        self.num_edges = int(offsets[-1])
        #: Bit-generator state at edge 0 (just after the degree draws).
        self.edge_state = edge_stream.bit_generator.state
        self._stream = edge_stream
        self._position = 0  # the edge whose word the stream gives next
        self._span = array("i")
        self._span_start = 0

    def targets(self, start: int, stop: int) -> Iterable[int]:
        """Targets of edges ``start`` to ``stop`` (exclusive), in order.

        Longer ranges than ``_SPAN`` come back as an iterator that draws
        a span at a time, so a consumer that stops early draws no more.
        """
        offset = start - self._span_start
        span = self._span
        if offset >= 0 and offset + stop - start <= len(span):
            return span[offset:offset + stop - start]
        if stop - start > _SPAN:
            return self._spans(start, stop)
        count = stop - start
        if 0 <= offset <= len(span) + _SPAN:
            count = min(_SPAN, self.num_edges - start)
        self._span = span = self._draw(start, count)
        self._span_start = start
        return span if count == stop - start else span[:stop - start]

    def neighbors(self, vertex: int) -> Iterable[int]:
        return self.targets(self.bounds[vertex], self.bounds[vertex + 1])

    def _spans(self, start: int, stop: int) -> Iterator[int]:
        for low in range(start, stop, _SPAN):
            yield from self.targets(low, min(stop, low + _SPAN))

    def _draw(self, start: int, count: int) -> array:
        """Targets of edges ``start`` to ``start + count``."""
        stream = self._stream
        if start != self._position:
            stream.bit_generator.advance(int(start - self._position))
        self._position = start + count
        size = self.num_vertices
        if count <= _SHORT:
            # Python floats are the same IEEE doubles, squared and
            # scaled in the same order; int() truncates like astype.
            return array("i", [int(u * u * size)
                               for u in stream.random(count).tolist()])
        draw = stream.random(count)
        np.square(draw, out=draw)
        np.multiply(draw, size, out=draw)
        return array("i", draw.astype(np.int32).tobytes())

    @classmethod
    def power_law(cls, num_vertices: int, avg_degree: int, seed: int) -> "CSRGraph":
        """Build a graph with Zipf-like degree distribution.

        Targets are also Zipf-skewed (hubs attract edges), matching social
        graphs like the paper's datagen-8_5-fb dataset; they are drawn on
        demand from the stream the degree draws leave behind.
        """
        if num_vertices > np.iinfo(np.int32).max:
            raise ValueError(f"num_vertices {num_vertices} does not fit "
                             f"int32 edge targets")
        rng = np.random.default_rng(seed)
        # In place: the raw draws become the capped degrees, and their
        # scaled values go straight into ``offsets``, a chunk of float
        # scratch at a time, so no other full-length column exists.
        degrees = rng.zipf(1.6, size=num_vertices)
        degrees *= avg_degree
        degrees //= 2
        np.minimum(degrees, num_vertices // 2, out=degrees)
        scale = (num_vertices * avg_degree) / max(1, degrees.sum())
        offsets = np.empty(num_vertices + 1, dtype=np.int64)
        offsets[0] = 0
        scaled = offsets[1:]
        for low in range(0, num_vertices, _DEGREE_CHUNK):
            high = low + _DEGREE_CHUNK
            # int64 * float is float64, truncated to int64 as astype does.
            scaled[low:high] = degrees[low:high] * scale
        np.maximum(scaled, 1, out=scaled)
        np.cumsum(scaled, out=scaled)
        return cls(offsets, rng)


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

    def edges(self, start: int, stop: int) -> None:
        """Record reads of edges ``start`` to ``stop`` (exclusive): the
        accesses ``edge`` would record one by one, up to the budget."""
        addresses = self.trace.addresses
        stop = min(stop, start + self.max_accesses - len(addresses))
        if start >= stop:
            return
        addresses.extend(range(self._edges_base + 8 * start,
                               self._edges_base + 8 * stop, 8))
        self.trace.writes.extend(bytes(stop - start))
        if len(addresses) >= self.max_accesses:
            raise _TraceBuilder._Done

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
    bounds = g.bounds
    while True:
        for vertex in _sweep_order(v, rng):
            t.offsets(vertex)
            t.offsets(vertex + 1)
            total = 0.0
            start = bounds[vertex]
            for e, neighbour in enumerate(
                    g.targets(start, bounds[vertex + 1]), start):
                t.edge(e)
                t.prop_a(neighbour)  # irregular rank read
                total += 1.0
            t.prop_b(vertex, write=True)


def _bfs(g: CSRGraph, t: _TraceBuilder, rng: DeterministicRNG) -> None:
    v = g.num_vertices
    bounds = g.bounds
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
            start = bounds[vertex]
            for e, neighbour in enumerate(
                    g.targets(start, bounds[vertex + 1]), start):
                t.edge(e)
                t.aux(neighbour)  # visited check
                if not visited[neighbour]:
                    visited[neighbour] = 1
                    t.aux(neighbour, write=True)
                    next_frontier.append(neighbour)
        frontier = next_frontier


def _dfs(g: CSRGraph, t: _TraceBuilder, rng: DeterministicRNG) -> None:
    v = g.num_vertices
    bounds = g.bounds
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
        start, stop = bounds[vertex], bounds[vertex + 1]
        t.edges(start, stop)
        # Pushed after the reads: the trace is the same, and a vertex the
        # budget cuts short draws none of its targets.
        stack.extend(g.targets(start, stop))


def _connected_components(g: CSRGraph, t: _TraceBuilder,
                          rng: DeterministicRNG) -> None:
    v = g.num_vertices
    bounds = g.bounds
    labels = array("i", range(v))
    while True:
        for vertex in _sweep_order(v, rng):
            t.prop_a(vertex)
            t.offsets(vertex)
            t.offsets(vertex + 1)
            best = labels[vertex]
            start = bounds[vertex]
            for e, neighbour in enumerate(
                    g.targets(start, bounds[vertex + 1]), start):
                t.edge(e)
                t.prop_a(neighbour)
                if labels[neighbour] < best:
                    best = labels[neighbour]
            if best != labels[vertex]:
                labels[vertex] = best
                t.prop_a(vertex, write=True)


def _graph_coloring(g: CSRGraph, t: _TraceBuilder, rng: DeterministicRNG) -> None:
    v = g.num_vertices
    bounds = g.bounds
    colors = [-1] * v
    while True:
        for vertex in _sweep_order(v, rng):
            t.offsets(vertex)
            t.offsets(vertex + 1)
            taken = set()
            start = bounds[vertex]
            for e, neighbour in enumerate(
                    g.targets(start, bounds[vertex + 1]), start):
                t.edge(e)
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
        for e, target in enumerate(g.targets(0, g.num_edges)):
            t.edge(e)
            t.prop_b(target, write=True)


def _shortest_path(g: CSRGraph, t: _TraceBuilder, rng: DeterministicRNG) -> None:
    import heapq

    v = g.num_vertices
    bounds = g.bounds
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
            start = bounds[vertex]
            for e, neighbour in enumerate(
                    g.targets(start, bounds[vertex + 1]), start):
                t.edge(e)
                weight = 1 + (neighbour & 7)
                t.prop_a(neighbour)  # dist[neighbour] read
                if d + weight < dist.get(neighbour, 1 << 60):
                    dist[neighbour] = d + weight
                    t.prop_a(neighbour, write=True)
                    t.aux(neighbour, write=True)  # heap push
                    heapq.heappush(heap, (d + weight, neighbour))


def _kcore(g: CSRGraph, t: _TraceBuilder, rng: DeterministicRNG) -> None:
    v = g.num_vertices
    bounds = g.bounds
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
                start = bounds[vertex]
                for e, neighbour in enumerate(
                        g.targets(start, bounds[vertex + 1]), start):
                    t.edge(e)
                    if degrees[neighbour] > 0:
                        degrees[neighbour] -= 1
                        t.prop_a(neighbour, write=True)
                removed_any = True
        if not removed_any:
            k += 1


def _triangle_count(g: CSRGraph, t: _TraceBuilder, rng: DeterministicRNG) -> None:
    v = g.num_vertices
    bounds = g.bounds
    while True:
        for vertex in _sweep_order(v, rng):
            t.offsets(vertex)
            t.offsets(vertex + 1)
            start, end = bounds[vertex], bounds[vertex + 1]
            neighbour_list = []
            for e, neighbour in enumerate(
                    g.targets(start, min(end, start + 32)), start):
                t.edge(e)
                neighbour_list.append(neighbour)
            # Intersect each neighbour's list with ours: re-reads the same
            # adjacency lists repeatedly -> strong temporal locality.
            for neighbour in neighbour_list[:8]:
                t.offsets(neighbour)
                t.offsets(neighbour + 1)
                ns, ne = bounds[neighbour], bounds[neighbour + 1]
                t.edges(ns, min(ne, ns + 16))


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
