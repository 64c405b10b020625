"""Deterministic fault injection for resilience testing.

The paper's correctness story rests on surviving bad states: stale
embedded CTEs are caught by the parallel verify fetch and repaired
lazily, incompressible pages overflow to uncompressed storage, and
capacity pressure forces emergency migration (PAPER.md Sections V-VI).
This module drives those paths on purpose, deterministically:

- A :class:`FaultPlan` is a declarative list of :class:`FaultSpec`
  entries -- *which* fault, at *what* per-access rate, inside *which*
  access-index window, with *how big* a burst.
- A :class:`FaultInjector` samples the plan once per trace access from
  the ``"faults"`` RNG stream of the run's
  :class:`~repro.sim.context.SimContext`, so a given (seed, plan) pair
  replays the exact same fault sequence -- and checkpoints capture the
  injector mid-sequence.

Injection works through small controller-side hooks (the
:class:`~repro.core.resilience.ResilienceState` intake fields and
TMCC's ``inject_stale_cte``); fault kinds a controller does not model
(e.g. ``stale_cte`` on Compresso) are counted as skipped, never raised.

Plan strings (CLI ``repro run --faults``)::

    kind[:rate[:burst]][@start-end]  [, more specs]

    stale_cte:0.02
    ml2_exhaustion:0.001@2000-8000
    dram_read_error:0.005:2,cte_cache_invalidate:0.001
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRNG

FAULT_STALE_CTE = "stale_cte"
FAULT_CTE_CACHE_INVALIDATE = "cte_cache_invalidate"
FAULT_INCOMPRESSIBLE_BURST = "incompressible_burst"
FAULT_ML2_EXHAUSTION = "ml2_exhaustion"
FAULT_MIGRATION_SATURATION = "migration_saturation"
FAULT_DRAM_READ_ERROR = "dram_read_error"

#: Every supported fault kind, in documentation order.
FAULT_KINDS = (
    FAULT_STALE_CTE,
    FAULT_CTE_CACHE_INVALIDATE,
    FAULT_INCOMPRESSIBLE_BURST,
    FAULT_ML2_EXHAUSTION,
    FAULT_MIGRATION_SATURATION,
    FAULT_DRAM_READ_ERROR,
)

#: How long an injected migration-buffer squatter holds its entry, per
#: unit of ``burst`` (ns).  Long enough that demand ML2 accesses stall.
_SATURATION_HOLD_NS = 500.0


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault source."""

    kind: str
    #: Per-access injection probability inside the window.
    rate: float = 0.01
    #: Payload size for burst-style kinds (pages for
    #: ``incompressible_burst``, errors for ``dram_read_error``, held
    #: entries for ``migration_saturation``).
    burst: int = 8
    #: Access-index window [start, end); ``end=None`` means open-ended.
    start: int = 0
    end: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; "
                f"choose from {list(FAULT_KINDS)}"
            )
        if not 0.0 < self.rate <= 1.0:
            raise ConfigError(
                f"fault rate must be in (0, 1], got {self.rate}"
            )
        if self.burst <= 0:
            raise ConfigError(f"fault burst must be > 0, got {self.burst}")
        if self.start < 0 or (self.end is not None and self.end <= self.start):
            raise ConfigError(
                f"fault window [{self.start}, {self.end}) is empty"
            )

    def active(self, access_index: int) -> bool:
        if access_index < self.start:
            return False
        return self.end is None or access_index < self.end


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of fault specs."""

    specs: Tuple[FaultSpec, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.specs)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the CLI plan syntax (see the module docstring)."""
        specs = []
        for raw in text.split(","):
            item = raw.strip()
            if not item:
                continue
            window, start, end = item, 0, None
            if "@" in item:
                item, _, window = item.partition("@")
                lo, sep, hi = window.partition("-")
                if not sep:
                    raise ConfigError(
                        f"fault window must be start-end, got {window!r}"
                    )
                try:
                    start = int(lo)
                    end = int(hi) if hi else None
                except ValueError:
                    raise ConfigError(
                        f"fault window bounds must be integers, got {window!r}"
                    ) from None
            parts = item.split(":")
            if len(parts) > 3:
                raise ConfigError(
                    f"fault spec has too many fields: {raw.strip()!r}"
                )
            kind = parts[0]
            try:
                rate = float(parts[1]) if len(parts) > 1 else 0.01
                burst = int(parts[2]) if len(parts) > 2 else 8
            except ValueError:
                raise ConfigError(
                    f"fault rate/burst must be numeric in {raw.strip()!r}"
                ) from None
            specs.append(FaultSpec(kind=kind, rate=rate, burst=burst,
                                   start=start, end=end))
        if not specs:
            raise ConfigError(f"fault plan {text!r} contains no specs")
        return cls(tuple(specs))

    def describe(self) -> str:
        out = []
        for spec in self.specs:
            item = f"{spec.kind}:{spec.rate}:{spec.burst}"
            if spec.start or spec.end is not None:
                item += f"@{spec.start}-{'' if spec.end is None else spec.end}"
            out.append(item)
        return ",".join(out)


class FaultInjector:
    """Applies a :class:`FaultPlan` to one controller, deterministically.

    Constructed by the simulator when a plan is supplied; enabling it
    flips the controller's :class:`~repro.core.resilience.ResilienceState`
    on, which arms the graceful-degradation paths the faults exercise.
    ``tick`` runs once per trace access *before* the access is served.
    """

    def __init__(self, plan: FaultPlan, rng: DeterministicRNG,
                 controller, bus=None) -> None:
        self.plan = plan
        self.rng = rng
        self.controller = controller
        #: Optional event bus: landed faults publish ``faults.injected``
        #: events, which the span tracer promotes into instant markers.
        self.bus = bus
        controller.resilience.enabled = True
        self._handlers: Dict[str, Callable[[FaultSpec, float], bool]] = {
            FAULT_STALE_CTE: self._stale_cte,
            FAULT_CTE_CACHE_INVALIDATE: self._cte_cache_invalidate,
            FAULT_INCOMPRESSIBLE_BURST: self._incompressible_burst,
            FAULT_ML2_EXHAUSTION: self._ml2_exhaustion,
            FAULT_MIGRATION_SATURATION: self._migration_saturation,
            FAULT_DRAM_READ_ERROR: self._dram_read_error,
        }

    def tick(self, access_index: int, now_ns: float) -> None:
        """Sample every active spec once; apply the faults that fire.

        One ``random()`` draw per active spec per access keeps the
        sequence a pure function of (seed, plan) -- independent of
        whether earlier faults found an eligible target.
        """
        resilience = self.controller.resilience
        for spec in self.plan.specs:
            if not spec.active(access_index):
                continue
            if not self.rng.chance(spec.rate):
                continue
            if self._handlers[spec.kind](spec, now_ns):
                resilience.count_fault(spec.kind)
                if self.bus is not None and self.bus.active:
                    self.bus.publish("faults.injected", now_ns,
                                     fault=spec.kind,
                                     access_index=access_index)
            else:
                resilience.count("faults_skipped")

    # ------------------------------------------------------------------
    # Handlers: return True when the fault actually landed
    # ------------------------------------------------------------------

    def _stale_cte(self, spec: FaultSpec, now_ns: float) -> bool:
        inject = getattr(self.controller, "inject_stale_cte", None)
        if inject is None:
            return False
        return inject(self.rng) is not None

    def _cte_cache_invalidate(self, spec: FaultSpec, now_ns: float) -> bool:
        cache = getattr(self.controller, "cte_cache", None)
        if cache is None or cache.occupancy_blocks == 0:
            return False
        cache.flush()
        return True

    def _incompressible_burst(self, spec: FaultSpec, now_ns: float) -> bool:
        resilience = self.controller.resilience
        resilience.incompressible_burst += spec.burst
        return True

    def _ml2_exhaustion(self, spec: FaultSpec, now_ns: float) -> bool:
        """Steal every free ML1 chunk, modeling external free-space
        pressure (another tenant's burst); the chunks never come back,
        so the emergency-eviction watchdog has to make room."""
        free_list = getattr(self.controller, "ml1_free", None)
        if free_list is None or free_list.count == 0:
            return False
        stolen = free_list.count
        free_list.pop_many(stolen)
        self.controller.resilience.count("chunks_stolen", stolen)
        return True

    def _migration_saturation(self, spec: FaultSpec, now_ns: float) -> bool:
        migration = getattr(self.controller, "migration", None)
        if migration is None:
            return False
        hold_ns = spec.burst * _SATURATION_HOLD_NS
        filled = False
        while migration.occupancy(now_ns) < migration.entries:
            migration.reserve(now_ns, hold_ns)
            filled = True
        return filled

    def _dram_read_error(self, spec: FaultSpec, now_ns: float) -> bool:
        self.controller.resilience.pending_dram_errors += spec.burst
        return True


def plans_for_smoke(rate: float = 0.01) -> Sequence[FaultPlan]:
    """One single-spec plan per fault kind (the per-kind smoke test)."""
    return [FaultPlan((FaultSpec(kind=kind, rate=rate),)) for kind in FAULT_KINDS]
