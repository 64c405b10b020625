"""Allocation discipline of the per-access hot path.

Three properties keep the replay loops cheap:

1. the per-access record types carry ``__slots__`` (no ``__dict__``),
   so their instances stay small -- pinned here with a tracemalloc
   footprint measurement;
2. both replay loops elide the per-miss object graph: only a traced
   run builds a miss's timeline -- pinned by counting calls of the
   entry points that build records during a run;
3. a replay's memory grows with the footprint it touches, not with the
   trace: no full-length column, no histogram sample -- pinned with
   tracemalloc at two trace lengths.
"""

import tracemalloc

import pytest

from repro.cache.sa_cache import CacheLine
from repro.core.pipeline import ServiceTimeline
from repro.dram.system import DRAMSystem, ReadResult
from repro.sim import fastpath
from repro.sim.simulator import Simulator
from repro.sim.tracing import SpanTracer
from repro.workloads.generators import canneal_workload
from repro.workloads.suite import workload_by_name

HOT_INSTANCES = [
    CacheLine(block=1),
    ReadResult(latency_ns=1.0, queue_ns=0.0, bank_ns=1.0, row_hit=True,
               mc=0, channel=0),
]


@pytest.mark.parametrize("instance", HOT_INSTANCES,
                         ids=lambda i: type(i).__name__)
def test_hot_per_access_classes_have_no_dict(instance):
    assert not hasattr(instance, "__dict__")
    assert hasattr(type(instance), "__slots__")


def test_cacheline_allocation_footprint():
    """tracemalloc: a slotted CacheLine stays well under the ~160+
    bytes a ``__dict__``-bearing instance would cost."""
    count = 10_000
    tracemalloc.start()
    lines = [CacheLine(block) for block in range(count)]
    size, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    per_instance = size / len(lines)
    assert per_instance < 120, f"{per_instance:.0f} bytes per CacheLine"


def test_fast_loop_constructs_no_per_access_records(monkeypatch):
    """Neither an untraced single-core run nor a 4-core run reaches the
    allocating entry points (``ServiceTimeline.from_spans``,
    ``DRAMSystem.read`` -> ReadResult); a traced single-core run, which
    promotes sampled misses to timelines, is the positive control."""
    calls = {"timeline": 0, "read": 0}
    from_spans = ServiceTimeline.from_spans
    read = DRAMSystem.read

    def counting_from_spans(cls, *args, **kwargs):
        calls["timeline"] += 1
        return from_spans(*args, **kwargs)

    def counting_read(self, *args, **kwargs):
        calls["read"] += 1
        return read(self, *args, **kwargs)

    monkeypatch.setattr(ServiceTimeline, "from_spans",
                        classmethod(counting_from_spans))
    monkeypatch.setattr(DRAMSystem, "read", counting_read)

    workload = workload_by_name("omnetpp", max_accesses=2_000, scale=0.05)
    Simulator(workload, controller="tmcc", seed=3).run()
    Simulator(workload, controller="tmcc", seed=3, cores=4).run()
    assert calls == {"timeline": 0, "read": 0}

    traced = Simulator(workload, controller="tmcc", seed=3)
    traced.attach_tracer(SpanTracer(sample_every=1))
    traced.run()
    assert calls["timeline"] > 0
    assert calls["read"] == 0


def _replay_peak(accesses: int) -> int:
    """tracemalloc's peak over ``run()`` of canneal x tmcc on 64 pages."""
    workload = canneal_workload(footprint_pages=64, max_accesses=accesses)
    sim = Simulator(workload, controller="tmcc", seed=1)
    tracemalloc.start()
    try:
        sim.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_replay_memory_grows_with_the_footprint_not_the_trace():
    """On a footprint the caches hold, the warm caches and the walk memo
    stop growing early, so what still grows with the trace is the
    recording: one code byte per access plus the ops of the rare misses.
    From 40k to 80k accesses the peak grows by under 10 B per access;
    full-length vpn and block columns alone took 16 B, and histograms
    kept 32 B per sample."""
    short, long = _replay_peak(40_000), _replay_peak(80_000)
    assert long <= 1.75 * 2**20
    assert (long - short) / 40_000 < 10


def test_walk_memo_shares_one_path_per_leaf_ptb():
    """The walk memo interns each walk path: vpns that walk the same
    PTBs (the same ``vpn >> 3`` without huge pages) share one object."""
    workload = canneal_workload(footprint_pages=2_000, max_accesses=20_000)
    sim = Simulator(workload, controller="tmcc", seed=1)
    columns = fastpath._columns(sim)
    fastpath._front_end_pass(sim, columns, 0, len(workload.trace), -1)
    paths = [path for path in columns.walk_cache.values() if path is not None]
    assert all(path is columns.walk_paths[path] for path in paths)
    by_leaf = {}
    for vpn, path in columns.walk_cache.items():
        if path is not None:
            assert by_leaf.setdefault(vpn >> 3, path) is path
    assert len(columns.walk_paths) == len(by_leaf) < len(paths) / 2
