"""Workload substrate.

The paper evaluates GraphBIG kernels on a Facebook-like social graph plus
mcf, omnetpp, and canneal (Figure 16 characterizes them; Figures 1/2/17-21
and Table IV report on them).  We cannot ship those binaries or the 106 GB
dataset, so this package synthesizes each workload's *memory behaviour*:

- :mod:`repro.workloads.graphs` -- a CSR power-law graph and real graph
  algorithm implementations (pageRank, BFS, DFS, connected components,
  graph coloring, degree centrality, shortest path, k-core, triangle
  counting) that emit their actual address streams.
- :mod:`repro.workloads.generators` -- the non-graph workloads (mcf-like
  pointer chasing, omnetpp-like event queue, canneal-like random swaps,
  the small PARSEC-like kernels, a RocksDB-like key-value trace, and the
  bandwidth-intensive kernels of Figure 22).
- :mod:`repro.workloads.content` -- page-content synthesizers that give
  every virtual page realistic bytes, calibrated per workload family so
  compression ratios land in the paper's ranges (Table IV, Figure 15).
- :mod:`repro.workloads.dumps` -- the memory-dump corpus behind Figure 15.
"""

from repro.workloads.trace import Access, Trace, Workload
from repro.workloads.graphs import CSRGraph, graph_workload, GRAPH_KERNELS
from repro.workloads.generators import (
    mcf_workload,
    omnetpp_workload,
    canneal_workload,
    small_workload,
    bandwidth_workload,
    SMALL_KERNELS,
    BANDWIDTH_KERNELS,
)
from repro.workloads.suite import (
    PAPER_WORKLOAD_NAMES,
    cached_workload,
    clear_workload_cache,
    paper_workloads,
    workload_by_name,
)
from repro.workloads.content import ContentSynthesizer, CONTENT_PROFILES
from repro.workloads.dumps import dump_corpus, DUMP_BENCHMARKS
from repro.workloads.traceio import (
    load_trace,
    load_trace_text,
    save_trace,
    save_trace_text,
    workload_from_trace,
)

__all__ = [
    "Access",
    "Trace",
    "Workload",
    "CSRGraph",
    "graph_workload",
    "GRAPH_KERNELS",
    "mcf_workload",
    "omnetpp_workload",
    "canneal_workload",
    "small_workload",
    "bandwidth_workload",
    "SMALL_KERNELS",
    "BANDWIDTH_KERNELS",
    "paper_workloads",
    "workload_by_name",
    "cached_workload",
    "clear_workload_cache",
    "PAPER_WORKLOAD_NAMES",
    "ContentSynthesizer",
    "CONTENT_PROFILES",
    "dump_corpus",
    "DUMP_BENCHMARKS",
    "load_trace",
    "load_trace_text",
    "save_trace",
    "save_trace_text",
    "workload_from_trace",
]
