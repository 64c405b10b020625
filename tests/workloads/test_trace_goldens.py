"""Frozen workload traces: every access of the paper suite, pinned.

The simulator's results are only as stable as the traces it replays.
``goldens/traces.json`` holds, for each of the twelve paper workloads at
full size, 60k accesses and seed 1, the sha256 of its address column
and of its write column plus its ``footprint_pages``; and, for two
power-law graphs, the sha256 of the CSR offsets and of the edge targets
(as one int64 column, however the graph produces them).  The
400k-vertex graph is the one every graph workload builds; the
100-vertex one is the smallest the tests use.  It also pins the four
small and four bandwidth kernels (Section VII, Figure 22) at their
generators' default footprint and seed, 60k accesses, and checks that
they do not depend on the interpreter's string-hash seed.

A faster or leaner workload builder must reproduce all of them byte for
byte.  Regenerate (only for a deliberate, documented change to a
workload) with::

    PYTHONPATH=src python -m tests.workloads.test_trace_goldens --regenerate
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.workloads.generators import (
    BANDWIDTH_KERNELS,
    SMALL_KERNELS,
    bandwidth_workload,
    small_workload,
)
from repro.workloads.graphs import CSRGraph
from repro.workloads.suite import PAPER_WORKLOAD_NAMES, workload_by_name

ROOT = Path(__file__).resolve().parents[2]
GOLDEN_FILE = Path(__file__).parent / "goldens" / "traces.json"

ACCESSES = 60_000
SEED = 1
#: (num_vertices, avg_degree, seed) of the pinned power-law graphs.
GRAPHS = ((400_000, 12, 1), (100, 4, 4))
#: Edge targets hashed per step of :func:`graph_entry`.
_EDGE_SPAN = 1 << 16


def _sha256(column: np.ndarray) -> str:
    """Digest of ``column`` as little-endian bytes (host-independent)."""
    return hashlib.sha256(
        column.astype(column.dtype.newbyteorder("<")).tobytes()).hexdigest()


def workload_entry(workload):
    trace = workload.trace
    return {
        "addresses": _sha256(np.frombuffer(trace.addresses, dtype=np.uint64)),
        "writes": _sha256(np.frombuffer(trace.writes, dtype=np.uint8)),
        "footprint_pages": workload.footprint_pages,
    }


def trace_entry(name: str):
    return workload_entry(workload_by_name(name, max_accesses=ACCESSES,
                                           seed=SEED))


def kernel_entry(kernel: str):
    """A small or bandwidth kernel at its generator's defaults."""
    build = small_workload if kernel in SMALL_KERNELS else bandwidth_workload
    return workload_entry(build(kernel, max_accesses=ACCESSES))


def kernel_entries():
    return {kernel: kernel_entry(kernel)
            for kernel in SMALL_KERNELS + BANDWIDTH_KERNELS}


def graph_entry(num_vertices: int, avg_degree: int, seed: int):
    graph = CSRGraph.power_law(num_vertices, avg_degree, seed)
    # The edge digest is over all targets as one int64 column, fed to
    # the hash a span at a time.
    edges = hashlib.sha256()
    for start in range(0, graph.num_edges, _EDGE_SPAN):
        stop = min(start + _EDGE_SPAN, graph.num_edges)
        edges.update(np.fromiter(graph.targets(start, stop), dtype="<i8",
                                 count=stop - start).tobytes())
    return {
        "offsets": _sha256(graph.offsets.astype(np.int64)),
        "edges": edges.hexdigest(),
    }


def graph_key(num_vertices: int, avg_degree: int, seed: int) -> str:
    return f"{num_vertices}/{avg_degree}/{seed}"


def build_goldens():
    return {
        "traces": {name: trace_entry(name) for name in PAPER_WORKLOAD_NAMES},
        "small_and_bandwidth": kernel_entries(),
        "graphs": {graph_key(*shape): graph_entry(*shape)
                   for shape in GRAPHS},
    }


@pytest.fixture(scope="module")
def frozen():
    return json.loads(GOLDEN_FILE.read_text())


def test_golden_covers_the_paper_suite(frozen):
    assert sorted(frozen["traces"]) == sorted(PAPER_WORKLOAD_NAMES)
    assert sorted(frozen["graphs"]) == sorted(graph_key(*shape)
                                              for shape in GRAPHS)


@pytest.mark.parametrize("name", PAPER_WORKLOAD_NAMES)
def test_trace_matches_frozen_golden(name, frozen):
    assert trace_entry(name) == frozen["traces"][name], (
        f"{name}'s trace drifted from the frozen golden; workload builders "
        f"must be bit-identical")


@pytest.mark.parametrize("shape", GRAPHS, ids=lambda shape: graph_key(*shape))
def test_power_law_graph_matches_frozen_golden(shape, frozen):
    assert graph_entry(*shape) == frozen["graphs"][graph_key(*shape)]


@pytest.mark.parametrize("kernel", SMALL_KERNELS + BANDWIDTH_KERNELS)
def test_small_and_bandwidth_traces_match_frozen_golden(kernel, frozen):
    assert kernel_entry(kernel) == frozen["small_and_bandwidth"][kernel]


def test_small_and_bandwidth_traces_ignore_the_hash_seed():
    """Two interpreters with different string-hash seeds build the same
    eight traces."""
    script = ("import json; from tests.workloads.test_trace_goldens import "
              "kernel_entries; print(json.dumps(kernel_entries()))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              check=True)
        outputs.append(json.loads(done.stdout))
    assert outputs[0] == outputs[1]


def main(argv) -> int:
    if argv != ["--regenerate"]:
        print(__doc__)
        return 2
    GOLDEN_FILE.parent.mkdir(exist_ok=True)
    GOLDEN_FILE.write_text(json.dumps(build_goldens(), indent=2,
                                      sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
