"""Observers never change results: one replay loop, hooks on or off.

``repro.sim.fastpath.run_fast`` is the only single-core replay loop.  An
unobserved run takes it as one segment with every hook switched off; a
run with every observer attached (span tracer, bus subscriber,
time-series recorder, watchdog) runs a segment per access with every
hook on.  The two must render the same ``--emit-json`` bytes -- result
dict, namespaced metric tree and run config, exactly as the CLI
serializes them -- for every registered controller.
"""

import json

import pytest

from repro.core import available_controllers
from repro.sim.context import SimContext
from repro.sim.experiments import run_workload
from repro.sim.faults import FaultPlan
from repro.sim.instrument import nest_metrics
from repro.sim.simulator import Simulator
from repro.sim.supervisor import RunSupervisor
from repro.sim.timeseries import TimeSeriesRecorder
from repro.sim.tracing import SpanTracer
from repro.workloads.suite import workload_by_name


def _small():
    return workload_by_name("omnetpp", max_accesses=3_000, scale=0.05)


@pytest.fixture(scope="module")
def small_workload():
    return _small()


def emit_json_bytes(controller: str, observed: bool, budget=None,
                    **kwargs) -> bytes:
    """The exact bytes ``repro run --emit-json`` would print for a run on
    a workload of its own, with every observer attached if ``observed``."""
    sim = Simulator(_small(), controller=controller, seed=3,
                    dram_budget_bytes=budget, **kwargs)
    if observed:
        sim.attach_tracer(SpanTracer(sample_every=5))
        sim.context.bus.subscribe_all(lambda event: None)
        sim.attach_timeseries(TimeSeriesRecorder(sim.context.metrics, 500.0))
        result = RunSupervisor(wall_clock_limit_s=1e9).run(sim)
        assert sim.tracer.spans() and sim.timeseries.rows
    else:
        assert sim.fast_path_eligible()
        result = sim.run()
    record = result.as_dict()
    record["metrics_tree"] = nest_metrics(result.metrics)
    record["run_config"] = sim.describe_run()
    return json.dumps(record, indent=2, sort_keys=True).encode()


@pytest.mark.parametrize("controller", available_controllers())
def test_emit_json_byte_identical_fast_vs_slow(controller):
    fast = emit_json_bytes(controller, observed=False)
    slow = emit_json_bytes(controller, observed=True)
    assert fast == slow


def test_budgeted_tmcc_exercises_ml2_and_stays_identical(small_workload):
    """A DRAM budget forces pages into ML2; observing the run must not
    change the decompress path, migrations, or ML2 stats."""
    compresso = run_workload(small_workload, "compresso", seed=3)
    budget = compresso.dram_used_bytes
    fast = emit_json_bytes("tmcc", observed=False, budget=budget)
    slow = emit_json_bytes("tmcc", observed=True, budget=budget)
    assert fast == slow
    record = json.loads(fast)
    assert record["metrics"]["controller.ml2_accesses"] > 0


def test_resilience_mode_takes_the_fast_loop(small_workload):
    """Retries and emergency evictions live in the shared miss service,
    so resilience alone is no observer."""
    sim = Simulator(small_workload, controller="tmcc", seed=3,
                    resilience=True)
    assert sim.fast_path_eligible()
    budget = run_workload(small_workload, "compresso", seed=3).dram_used_bytes
    runs = [emit_json_bytes("tmcc", observed=observed, budget=budget,
                            resilience=True)
            for observed in (False, True)]
    assert runs[0] == runs[1]
    record = json.loads(runs[0])
    assert record["metrics"]["controller.stage.emergency_evict.ns.count"] > 0


def _observed(workload, observer: str) -> Simulator:
    context = SimContext(seed=3)
    if observer == "profiler":
        context.enable_profiling()
    sim = Simulator(workload, controller="uncompressed", seed=3,
                    context=context,
                    fault_plan=(FaultPlan.parse("stale_cte:0.01")
                                if observer == "faults" else None))
    if observer == "tracer":
        sim.attach_tracer(SpanTracer(sample_every=1))
    elif observer == "timeseries":
        sim.attach_timeseries(TimeSeriesRecorder(sim.context.metrics, 1.0))
    elif observer == "subscriber":
        sim.context.bus.subscribe_all(lambda event: None)
    return sim


def test_fast_path_on_rejects_observers(small_workload):
    """``fast_path_eligible`` (the benchmark's zero-observer check)
    answers False as soon as any observer hook would run."""
    for observer in ("tracer", "timeseries", "profiler", "faults",
                     "subscriber"):
        assert not _observed(small_workload, observer).fast_path_eligible(), (
            observer)
    virtualized = Simulator(small_workload, controller="uncompressed",
                            seed=3, virtualized=True)
    assert virtualized.fast_path_eligible()  # a front end, not an observer


def test_fast_path_auto_falls_back_with_observers(small_workload):
    sim = Simulator(small_workload, controller="uncompressed")
    sim.attach_tracer(SpanTracer(sample_every=64))
    assert not sim.fast_path_eligible()
    result = sim.run()
    assert result.accesses > 0
    assert sim.tracer.spans(), "the tracer's hooks never ran"


#: The loop-selection keyword that existed while there were two loops.
RETIRED_KNOB = {"fast_path": "on"}


def test_fast_path_on_rejects_multicore(small_workload):
    """The retired loop-selection knob fails loudly, not silently."""
    with pytest.raises(TypeError):
        run_workload(small_workload, "uncompressed", cores=2, **RETIRED_KNOB)


def test_invalid_fast_path_value(small_workload):
    """The retired loop-selection knob fails loudly, not silently."""
    with pytest.raises(TypeError):
        Simulator(small_workload, **RETIRED_KNOB)
