"""Frozen golden documents: the simulator's observable output, pinned.

Each golden is the exact bytes of one run's ``--emit-json`` document
(result dict + namespaced metric tree + run config) or of one traced
run's span export, committed under ``tests/sim/goldens/``.  Unlike a
fast-vs-slow comparison, which only proves two implementations agree,
these files pin the output itself: a refactor of the replay loop, the
miss path, the cache fill cascade, or the DRAM model must reproduce
them byte for byte.

Regenerate (only for a deliberate, documented behaviour change) with::

    PYTHONPATH=src python -m tests.sim.test_frozen_goldens --regenerate
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.core import available_controllers
from repro.sim.experiments import run_workload
from repro.sim.faults import FaultPlan
from repro.sim.instrument import nest_metrics
from repro.sim.simulator import Simulator
from repro.sim.supervisor import RunSupervisor
from repro.sim.timeseries import TimeSeriesRecorder, write_rows_jsonl
from repro.sim.tracing import SpanTracer, TraceEventWriter, write_spans_jsonl
from repro.workloads.suite import workload_by_name

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: Mixed-stress plan for the resilience golden: stale embedded CTEs,
#: DRAM read retries and ML1 exhaustion (emergency evictions).
FAULT_PLAN = "stale_cte:0.03,dram_read_error:0.02:2,ml2_exhaustion:0.05"


def _small():
    return workload_by_name("omnetpp", max_accesses=3_000, scale=0.05)


def _mcf():
    return workload_by_name("mcf", max_accesses=6_000, scale=0.12)


def _document(sim, result) -> bytes:
    record = result.as_dict()
    record["metrics_tree"] = nest_metrics(result.metrics)
    if sim is not None:
        record["run_config"] = sim.describe_run()
    return json.dumps(record, indent=2, sort_keys=True).encode()


def _emit_json(workload, controller, **kwargs) -> bytes:
    sim = Simulator(workload, controller=controller, seed=3, **kwargs)
    return _document(sim, sim.run())


def _budget(workload, fraction: float) -> int:
    return int(workload.footprint_pages * 4096 * fraction)


def _tmcc_iso_budget(workload) -> int:
    """Compresso's measured DRAM use: the Figure-18 iso-capacity point."""
    return run_workload(workload, "compresso", seed=3).dram_used_bytes


def _traced_misses(workload, controller, budget, fault_plan=None) -> bytes:
    """The sampled LLC-miss timelines (``miss`` spans and their
    ``stage`` children) of one traced run, as span JSONL."""
    sim = Simulator(workload, controller=controller, seed=3,
                    dram_budget_bytes=budget, fault_plan=fault_plan)
    sim.attach_tracer(SpanTracer(sample_every=3, buffer_spans=1200))
    sim.run()
    handle = io.StringIO()
    write_spans_jsonl([span for span in sim.tracer.spans()
                       if span.category in ("miss", "stage")], handle)
    return handle.getvalue().encode()


def _spans(workload, controller, budget=None, **kwargs) -> bytes:
    """Every retained span of one traced run (accesses, walks, misses,
    stages and bus instants), as span JSONL."""
    sim = Simulator(workload, controller=controller, seed=3,
                    dram_budget_bytes=budget, **kwargs)
    sim.attach_tracer(SpanTracer(sample_every=3, buffer_spans=1200))
    sim.run()
    handle = io.StringIO()
    write_spans_jsonl(sim.tracer.spans(), handle)
    return handle.getvalue().encode()


def _events(workload, controller, budget, **kwargs) -> bytes:
    """The ``--trace-events`` stream of one run, as JSONL."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "events.jsonl"
        sim = Simulator(workload, controller=controller, seed=3,
                        dram_budget_bytes=budget, **kwargs)
        with TraceEventWriter(path).attach(sim.context.bus):
            sim.run()
        return path.read_bytes()


def _timeseries(workload, controller, budget, interval_ns: float) -> bytes:
    """The ``--interval-ns`` rows of one run, as JSONL."""
    sim = Simulator(workload, controller=controller, seed=3,
                    dram_budget_bytes=budget)
    recorder = sim.attach_timeseries(
        TimeSeriesRecorder(sim.context.metrics, interval_ns))
    sim.run()
    handle = io.StringIO()
    write_rows_jsonl(recorder.rows, handle)
    return handle.getvalue().encode()


class _SteppingClock:
    """A wall clock that advances 1 s per reading: the watchdog, which
    reads it every 64 accesses, then stops a run at a fixed index."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def _truncated(workload, controller, budget, limit_s: float) -> bytes:
    """The ``--emit-json`` document of a watchdog-truncated run."""
    sim = Simulator(workload, controller=controller, seed=3,
                    dram_budget_bytes=budget)
    supervisor = RunSupervisor(wall_clock_limit_s=limit_s,
                               clock=_SteppingClock())
    return _document(sim, supervisor.run(sim))


def _multicore(workload, controller: str = "tmcc", cores: int = 2) -> bytes:
    return _document(None, run_workload(workload, controller, seed=3,
                                        cores=cores))


def _multicore_events(workload, controller, cores: int) -> bytes:
    """The event stream of one multi-core run, as JSONL: each
    ``sim.tlb_miss`` (with its ``core``) comes before the
    ``access_path`` and ``stage`` events of its walk's PTB misses."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "events.jsonl"
        sim = Simulator(workload, controller=controller, seed=3,
                        cores=cores)
        with TraceEventWriter(path).attach(sim.context.bus):
            sim.run()
        return path.read_bytes()


def golden_builders():
    """golden file name -> zero-argument builder of its bytes."""
    builders = {
        f"{controller}.json": (
            lambda controller=controller: _emit_json(_small(), controller))
        for controller in available_controllers()
    }
    builders["tmcc_iso_budget.json"] = lambda: _emit_json(
        _small(), "tmcc", dram_budget_bytes=_tmcc_iso_budget(_small()))
    builders["tmcc_mcf_budget.json"] = lambda: _emit_json(
        _mcf(), "tmcc", dram_budget_bytes=_budget(_mcf(), 0.6))
    builders["osinspired_mcf_budget.json"] = lambda: _emit_json(
        _mcf(), "osinspired", dram_budget_bytes=_budget(_mcf(), 0.6))
    builders["tmcc_mcf_faults.json"] = lambda: _emit_json(
        _mcf(), "tmcc", dram_budget_bytes=_budget(_mcf(), 0.6),
        fault_plan=FaultPlan.parse(FAULT_PLAN))
    builders["tmcc_mcf_faults_trace.jsonl"] = lambda: _traced_misses(
        _mcf(), "tmcc", _budget(_mcf(), 0.6), FaultPlan.parse(FAULT_PLAN))
    builders["compresso_llc_victim_trace.jsonl"] = lambda: _traced_misses(
        _small(), "compresso_llc_victim", None)
    builders["tmcc_multicore.json"] = lambda: _multicore(_small())
    for controller in available_controllers():
        builders[f"{controller}_4core.json"] = (
            lambda controller=controller: _multicore(_small(), controller, 4))
    builders["tmcc_4core_events.jsonl"] = lambda: _multicore_events(
        _small(), "tmcc", 4)
    builders["tmcc_iso_budget_events.jsonl"] = lambda: _events(
        _small(), "tmcc", _tmcc_iso_budget(_small()))
    builders["tmcc_virtualized.json"] = lambda: _emit_json(
        _small(), "tmcc", virtualized=True)
    builders["compresso_huge_pages.json"] = lambda: _emit_json(
        _small(), "compresso", huge_pages=True)
    builders["tmcc_mcf_faults_spans.jsonl"] = lambda: _spans(
        _mcf(), "tmcc", _budget(_mcf(), 0.6),
        fault_plan=FaultPlan.parse(FAULT_PLAN))
    builders["tmcc_virtualized_spans.jsonl"] = lambda: _spans(
        _mcf(), "tmcc", virtualized=True)
    builders["tmcc_virtualized_events.jsonl"] = lambda: _events(
        _small(), "tmcc", None, virtualized=True)
    # 1.5 us windows: the warm-up boundary (near 4 us) falls inside one.
    builders["tmcc_mcf_budget_timeseries.jsonl"] = lambda: _timeseries(
        _mcf(), "tmcc", _budget(_mcf(), 0.6), 1500.0)
    # A 9 s limit on a 1 s-per-reading clock stops the 1000-access run
    # at access 512 (its 9th watchdog stride), past the warm-up boundary.
    builders["tmcc_mcf_truncated.json"] = lambda: _truncated(
        _mcf(), "tmcc", _budget(_mcf(), 0.6), 9.0)
    return builders


@pytest.mark.parametrize("name", sorted(golden_builders()))
def test_output_matches_frozen_golden(name):
    expected = (GOLDEN_DIR / name).read_bytes()
    actual = golden_builders()[name]()
    assert actual == expected, (
        f"{name} drifted from its frozen golden; if the change is "
        f"deliberate, regenerate and document the per-metric deltas")


@pytest.mark.parametrize("controller", ["tmcc", "compresso", "uncompressed"])
def test_slow_loop_matches_frozen_golden(controller):
    """A run with every observer hook on -- the slowest way through the
    replay loop, one segment per access -- reproduces the same bytes."""
    expected = (GOLDEN_DIR / f"{controller}.json").read_bytes()
    sim = Simulator(_small(), controller=controller, seed=3)
    sim.attach_tracer(SpanTracer(sample_every=2))
    sim.context.bus.subscribe_all(lambda event: None)
    sim.attach_timeseries(TimeSeriesRecorder(sim.context.metrics, 700.0))
    supervisor = RunSupervisor(wall_clock_limit_s=1e9,
                               heartbeat=lambda: None)
    assert _document(sim, supervisor.run(sim)) == expected


def main(argv) -> int:
    if argv != ["--regenerate"]:
        print(__doc__)
        return 2
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, build in sorted(golden_builders().items()):
        (GOLDEN_DIR / name).write_bytes(build())
        print(f"wrote {GOLDEN_DIR / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
