"""Determinism regression: same workload/seed => identical metric dumps.

The SimContext refactor centralised every RNG stream; this test pins the
guarantee that re-running a simulation (and running the multi-core
engine) with the same seed is bit-identical, metric for metric.
"""

import pytest

from repro.sim.simulator import Simulator
from repro.workloads.suite import workload_by_name


@pytest.fixture(scope="module")
def tiny_omnetpp():
    return workload_by_name("omnetpp", max_accesses=8_000, scale=0.05)


def test_simulator_metric_dump_reproducible(tiny_omnetpp):
    first = Simulator(tiny_omnetpp, controller="tmcc", seed=9).run()
    second = Simulator(tiny_omnetpp, controller="tmcc", seed=9).run()
    assert first.metrics, "expected a populated metric dump"
    assert first.metrics == second.metrics
    assert first.as_dict() == second.as_dict()


def test_multicore_metric_dump_reproducible(tiny_omnetpp):
    first = Simulator(tiny_omnetpp, controller="tmcc", seed=9,
                      cores=2).run()
    second = Simulator(tiny_omnetpp, controller="tmcc", seed=9,
                       cores=2).run()
    assert first.metrics
    assert first.metrics == second.metrics
    # Per-core namespaces exist alongside the shared controller's.
    assert any(key.startswith("core0.tlb.") for key in first.metrics)
    assert any(key.startswith("core1.cache.l1.") for key in first.metrics)
    assert any(key.startswith("controller.") for key in first.metrics)


def test_different_seeds_actually_differ(tiny_omnetpp):
    a = Simulator(tiny_omnetpp, controller="tmcc", seed=1).run()
    b = Simulator(tiny_omnetpp, controller="tmcc", seed=2).run()
    assert a.metrics != b.metrics
