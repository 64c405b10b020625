"""Trace-driven memory-subsystem simulator.

- :mod:`repro.sim.context` -- :class:`SimContext`: shared construction
  context (seeded RNG streams, clock, event bus, metrics registry,
  component tree) every engine builds itself from.
- :mod:`repro.sim.instrument` -- the structured instrumentation layer:
  :class:`EventBus`, :class:`MetricsRegistry`, :class:`Probe`.
- :mod:`repro.sim.simulator` -- the engine: replays a workload trace
  through TLB, page walker, cache hierarchy, compression controller, and
  DRAM, accounting latency per access, on one core or on Table III's
  several (``Simulator(cores=4)``).
- :mod:`repro.sim.results` -- the result record every figure reads from.
- :mod:`repro.sim.experiments` -- orchestration for the paper's headline
  comparisons (iso-capacity performance, iso-performance capacity,
  Figure 20 splits, huge pages, interleaving).

Controllers are discovered through :data:`repro.core.CONTROLLER_REGISTRY`
(see :func:`repro.core.available_controllers`), not a hardcoded table.
"""

from repro.sim.context import SimClock, SimContext
from repro.sim.instrument import (
    Event,
    EventBus,
    MetricsRegistry,
    Probe,
    nest_metrics,
)
from repro.sim.simulator import Simulator
from repro.sim.results import SimResult
from repro.sim.experiments import (
    run_workload,
    iso_capacity_comparison,
    iso_performance_capacity,
    osinspired_split,
)

__all__ = [
    "SimClock",
    "SimContext",
    "Event",
    "EventBus",
    "MetricsRegistry",
    "Probe",
    "nest_metrics",
    "Simulator",
    "SimResult",
    "run_workload",
    "iso_capacity_comparison",
    "iso_performance_capacity",
    "osinspired_split",
]
