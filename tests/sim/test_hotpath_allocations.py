"""Allocation discipline of the per-access hot path.

Two properties keep the replay loop cheap:

1. the per-access record types carry ``__slots__`` (no ``__dict__``),
   so the instances the multi-core engine creates per access stay
   small -- pinned here with a tracemalloc footprint measurement;
2. the single-core replay loop elides that object graph entirely,
   observed or not -- pinned by counting constructions of the record
   objects during a run.
"""

import tracemalloc

import pytest

from repro.cache.hierarchy import AccessResult, CacheHierarchy
from repro.cache.sa_cache import CacheLine
from repro.core.base import MissResult
from repro.core.twolevel import TwoLevelController
from repro.dram.system import ReadResult
from repro.sim.multicore import MultiCoreSimulator
from repro.sim.simulator import Simulator
from repro.sim.tracing import SpanTracer
from repro.workloads.suite import workload_by_name

HOT_INSTANCES = [
    CacheLine(block=1),
    AccessResult(hit_level="l1", latency_cycles=3, l3_miss=False),
    MissResult(latency_ns=1.0, path="cte_hit"),
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
    """The replay loop must never reach the allocating entry points
    (``CacheHierarchy.access`` -> AccessResult, ``serve_l3_miss`` ->
    MissResult/ServiceTimeline), with or without a tracer; the
    multi-core engine, which still calls them, is the positive
    control."""
    calls = {"access": 0, "miss": 0}
    slow_access = CacheHierarchy.access
    slow_miss = TwoLevelController.serve_l3_miss

    def counting_access(self, *args, **kwargs):
        calls["access"] += 1
        return slow_access(self, *args, **kwargs)

    def counting_miss(self, *args, **kwargs):
        calls["miss"] += 1
        return slow_miss(self, *args, **kwargs)

    monkeypatch.setattr(CacheHierarchy, "access", counting_access)
    monkeypatch.setattr(TwoLevelController, "serve_l3_miss", counting_miss)

    workload = workload_by_name("omnetpp", max_accesses=2_000, scale=0.05)
    Simulator(workload, controller="tmcc", seed=3).run()
    traced = Simulator(workload, controller="tmcc", seed=3)
    traced.attach_tracer(SpanTracer(sample_every=1))
    traced.run()
    assert calls == {"access": 0, "miss": 0}

    MultiCoreSimulator(workload, num_cores=2, controller="tmcc",
                       seed=3).run()
    assert calls["access"] > 0
    assert calls["miss"] > 0
