"""The fast-path contract: fast and slow loops are indistinguishable.

``repro.sim.fastpath`` promises byte-identical results -- same stat
mutations, same RNG draws, same float accumulation -- whenever it is
eligible.  These goldens pin that promise by rendering the full
``--emit-json`` document (result dict + namespaced metric tree + run
config, exactly as the CLI serializes it) for a fast and a slow run of
every registered controller and comparing the bytes.
"""

import json

import pytest

from repro.common.errors import ConfigError
from repro.core import available_controllers
from repro.sim.experiments import run_workload
from repro.sim.instrument import nest_metrics
from repro.sim.simulator import Simulator
from repro.sim.tracing import SpanTracer
from repro.workloads.suite import workload_by_name


@pytest.fixture(scope="module")
def small_workload():
    return workload_by_name("omnetpp", max_accesses=3_000, scale=0.05)


def emit_json_bytes(workload, controller: str, fast_path: str,
                    budget=None) -> bytes:
    """The exact bytes ``repro run --emit-json`` would print."""
    sim = Simulator(workload, controller=controller, seed=3,
                    dram_budget_bytes=budget, fast_path=fast_path)
    result = sim.run()
    record = result.as_dict()
    record["metrics_tree"] = nest_metrics(result.metrics)
    record["run_config"] = sim.describe_run()
    return json.dumps(record, indent=2, sort_keys=True).encode()


@pytest.mark.parametrize("controller", available_controllers())
def test_emit_json_byte_identical_fast_vs_slow(small_workload, controller):
    fast = emit_json_bytes(small_workload, controller, "on")
    slow = emit_json_bytes(small_workload, controller, "off")
    assert fast == slow


def test_budgeted_tmcc_exercises_ml2_and_stays_identical(small_workload):
    """A DRAM budget forces pages into ML2; the fast loop must replay
    the decompress path, migrations, and ML2 stats bit for bit."""
    compresso = run_workload(small_workload, "compresso", seed=3)
    budget = compresso.dram_used_bytes
    fast = emit_json_bytes(small_workload, "tmcc", "on", budget=budget)
    slow = emit_json_bytes(small_workload, "tmcc", "off", budget=budget)
    assert fast == slow
    record = json.loads(fast)
    assert record["metrics"]["controller.ml2_accesses"] > 0


def test_resilience_mode_takes_the_fast_loop(small_workload):
    """Retries and emergency evictions live in the shared miss service,
    so resilience alone does not force the observed loop."""
    sim = Simulator(small_workload, controller="tmcc", seed=3,
                    resilience=True)
    assert sim.fast_path_eligible()
    budget = run_workload(small_workload, "compresso", seed=3).dram_used_bytes
    runs = [Simulator(small_workload, controller="tmcc", seed=3,
                      dram_budget_bytes=budget, resilience=True,
                      fast_path=mode).run().as_dict()
            for mode in ("on", "off")]
    assert runs[0] == runs[1]
    assert runs[0]["metrics"]["controller.stage.emergency_evict.ns.count"] > 0


def test_fast_path_on_rejects_observers(small_workload):
    sim = Simulator(small_workload, controller="uncompressed",
                    fast_path="on")
    sim.attach_tracer(SpanTracer(sample_every=1))
    with pytest.raises(ConfigError):
        sim.run()


def test_fast_path_auto_falls_back_with_observers(small_workload):
    sim = Simulator(small_workload, controller="uncompressed",
                    fast_path="auto")
    sim.attach_tracer(SpanTracer(sample_every=64))
    assert not sim.fast_path_eligible()
    result = sim.run()
    assert result.accesses > 0
    assert sim.tracer.spans(), "tracer saw no spans: fast loop ran anyway"


def test_fast_path_on_rejects_multicore(small_workload):
    with pytest.raises(ValueError):
        run_workload(small_workload, "uncompressed", cores=2,
                     fast_path="on")


def test_invalid_fast_path_value(small_workload):
    with pytest.raises(ValueError):
        Simulator(small_workload, fast_path="yes")
