"""Reference power-law CSR graph: every edge target drawn up front.

The readable spec of :meth:`repro.workloads.graphs.CSRGraph.power_law`.
It draws all E targets into one int32 column, 65,536 at a time from one
float64 scratch buffer, the way the graph was built before it drew
targets on demand.  ``tests/workloads/test_graph_differential.py``
compares the on-demand targets with this column.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

#: Edge targets drawn per step: one chunk of float64 scratch (512 KB).
EDGE_CHUNK = 1 << 16


class ReferenceGraph(NamedTuple):
    offsets: np.ndarray  # int64[V + 1]
    edges: np.ndarray    # int32[E]
    #: Bit-generator state after the degree draws, before any target.
    edge_state: dict


def power_law(num_vertices: int, avg_degree: int, seed: int) -> ReferenceGraph:
    """Zipf(1.6) degrees scaled to ``avg_degree``; target
    ``floor(u**2 * V)`` for a uniform ``u``, one per edge, in edge order."""
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
    edge_state = rng.bit_generator.state
    num_edges = int(offsets[-1])
    # Consecutive chunks read the same words as one full draw, and
    # assigning float64 into the int32 column truncates like astype.
    edges = np.empty(num_edges, dtype=np.int32)
    scratch = np.empty(min(num_edges, EDGE_CHUNK))
    for start in range(0, num_edges, EDGE_CHUNK):
        chunk = scratch[:min(EDGE_CHUNK, num_edges - start)]
        rng.random(out=chunk)
        np.square(chunk, out=chunk)
        np.multiply(chunk, num_vertices, out=chunk)
        edges[start:start + len(chunk)] = chunk
    return ReferenceGraph(offsets, edges, edge_state)
