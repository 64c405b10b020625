"""The shared simulation context: config, RNG streams, clock, components.

A :class:`SimContext` owns everything the hand-threaded constructor wiring
in the single- and multi-core simulators used to pass around piecemeal:

- the :class:`~repro.core.config.SystemConfig`,
- deterministic, **named** RNG streams (see :meth:`SimContext.rng`),
- the simulation clock,
- a component tree with dot-separated paths (``"core0.tlb"``,
  ``"controller.cte_cache"``), and
- the instrumentation surface (:class:`~repro.sim.instrument.EventBus` +
  :class:`~repro.sim.instrument.MetricsRegistry`).

Registering a component wires its statistics into the metrics registry
automatically, so every simulator front-end (single-core, multi-core,
CLI, benchmarks) reads the same namespaced keys.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.common.rng import DeterministicRNG
from repro.common.stats import Counter, Histogram, RatioStat, StatGroup
from repro.core.config import SystemConfig
from repro.sim.instrument import EventBus, MetricsRegistry, Probe, StatSource

#: Named RNG stream derivations.  The constants are load-bearing: they
#: reproduce the exact per-purpose seeds of the original constructor
#: wiring, so a given user seed produces bit-identical simulations across
#: the refactor.  New streams must pick fresh constants.
_RNG_STREAMS: Dict[str, Callable[[int], int]] = {
    "frames": lambda seed: seed,              # guest frame allocator
    "populate": lambda seed: seed + 1,        # guest page-table populator
    "host_frames": lambda seed: seed + 7,     # host frame allocator (virt)
    "host_populate": lambda seed: seed + 8,   # host populator (virt)
    "placement": lambda seed: seed ^ 0xD81F7,  # warm-up placement drift
    "compression": lambda seed: seed,         # page compression sampling
    "controller": lambda seed: seed,          # controller-internal forks
    "faults": lambda seed: seed ^ 0xFA17_5EED,  # fault-injection sampling
}


class SimClock:
    """The simulation wall clock, in nanoseconds."""

    def __init__(self) -> None:
        self.now_ns = 0.0

    def advance(self, delta_ns: float) -> float:
        self.now_ns += delta_ns
        return self.now_ns

    def reset(self) -> None:
        self.now_ns = 0.0


class SimContext:
    """Owns config, RNG, clock, instrumentation, and the component tree."""

    def __init__(self, system: Optional[SystemConfig] = None,
                 seed: int = 1) -> None:
        self.system = system or SystemConfig()
        self.seed = seed
        self.clock = SimClock()
        self.bus = EventBus()
        self.metrics = MetricsRegistry()
        self._components: Dict[str, object] = {}
        #: Host-side wall-clock profiler; None (the default) keeps every
        #: profiling guard a single attribute check.
        self.profiler = None
        #: Closable resources (trace writers) whose lifetime is tied to
        #: the simulation: the simulator's teardown closes them even
        #: when a run dies early.  See :meth:`own` / :meth:`close_owned`.
        self._owned: List[object] = []

    # ------------------------------------------------------------------
    # RNG streams
    # ------------------------------------------------------------------

    def rng(self, stream: str) -> DeterministicRNG:
        """A fresh deterministic generator for a named purpose.

        Streams are independent: each is seeded from the context seed via
        a stream-specific derivation, so components cannot perturb each
        other's randomness.  Calling twice with the same stream returns
        generators producing identical sequences -- construct once and
        keep the handle.
        """
        try:
            derive = _RNG_STREAMS[stream]
        except KeyError:
            raise ValueError(
                f"unknown RNG stream {stream!r}; "
                f"choose from {sorted(_RNG_STREAMS)}"
            ) from None
        return DeterministicRNG(derive(self.seed))

    # ------------------------------------------------------------------
    # Component tree
    # ------------------------------------------------------------------

    def register(self, path: str, component: object,
                 stats: Optional[StatSource] = None) -> object:
        """Add a component at a dot-separated tree path.

        Wires the component's statistics into :attr:`metrics` under the
        same path: an explicit ``stats`` source wins, otherwise a ``stats``
        attribute holding one of the :mod:`repro.common.stats` containers
        is attached automatically.  Returns the component for chaining::

            self.tlb = context.register("tlb", TLB(...))
        """
        if not path:
            raise ValueError("component path must be non-empty")
        if path in self._components:
            raise ValueError(f"component path {path!r} already registered")
        self._components[path] = component
        source = stats if stats is not None else getattr(component, "stats", None)
        if source is not None and (
            isinstance(source, (StatGroup, RatioStat, Counter, Histogram))
            or callable(source)
        ):
            self.metrics.attach(path, source)
        return component

    def component(self, path: str) -> object:
        try:
            return self._components[path]
        except KeyError:
            raise ValueError(
                f"unknown component {path!r}; "
                f"registered: {sorted(self._components)}"
            ) from None

    def components(self) -> List[Tuple[str, object]]:
        return sorted(self._components.items())

    def component_tree(self) -> Dict[str, object]:
        """The registered paths as nested dicts of component type names."""
        root: Dict[str, object] = {}
        for path, component in sorted(self._components.items()):
            node = root
            parts = path.split(".")
            for part in parts[:-1]:
                child = node.setdefault(part, {})
                if not isinstance(child, dict):
                    child = node[part] = {"": child}
                node = child
            leaf = parts[-1]
            label = type(component).__name__
            existing = node.get(leaf)
            if isinstance(existing, dict):
                existing[""] = label
            else:
                node[leaf] = label
        return root

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------

    def probe(self, namespace: str,
              stats: Optional[StatGroup] = None) -> Probe:
        """A :class:`Probe` bound to this context's bus."""
        return Probe(namespace, bus=self.bus, stats=stats)

    def enable_profiling(self) -> "object":
        """Arm host-side wall-clock profiling (``profile.*`` metrics).

        Idempotent; returns the profiler.  Only opt-in callers reach
        this -- attaching the ``profile`` namespace changes metric dumps,
        which is exactly why no-flag runs never do.
        """
        if self.profiler is None:
            from repro.sim.profile import HostProfiler

            self.profiler = HostProfiler()
            self.metrics.attach("profile", self.profiler)
        return self.profiler

    def reset_metrics(self) -> None:
        """Warm-up boundary: zero statistics, keep all simulation state."""
        self.metrics.reset()

    # ------------------------------------------------------------------
    # Owned resources (simulator-teardown lifetime)
    # ------------------------------------------------------------------

    def own(self, resource: object) -> object:
        """Tie a closable resource's lifetime to the simulation.

        ``close_owned`` runs in the simulator's ``run()`` teardown (and
        again from CLI cleanup -- closing must be idempotent), so event
        writers are flushed and closed even when a run exits early via
        the watchdog or a fault-path failure.
        """
        self._owned.append(resource)
        return resource

    def close_owned(self) -> None:
        while self._owned:
            resource = self._owned.pop()
            close = getattr(resource, "close", None)
            if close is not None:
                close()

    def detach_owned(self) -> List[object]:
        """Remove (and return) owned resources around a checkpoint dump.

        Open file handles cannot pickle; the run supervisor detaches
        them like bus subscribers and restores with
        :meth:`restore_owned`.
        """
        saved = self._owned
        self._owned = []
        return saved

    def restore_owned(self, saved: List[object]) -> None:
        self._owned = saved
