"""Controller interface and shared DRAM-layout bookkeeping.

A memory-compression controller owns everything below the LLC: the CTE
table in DRAM, the CTE cache, data placement, and migrations.  Both
replay loops (:mod:`repro.sim.fastpath`) call it for every LLC miss
(``serve_l3_miss_fast``) and dirty writeback, and (for TMCC) notify it
of page-walker PTB fetches so it can harvest embedded CTEs.
"""

from __future__ import annotations

from itertools import chain, count
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.common.registry import Registry
from repro.common.stats import Histogram, StatGroup
from repro.common.units import BLOCK_SIZE, PAGE_SIZE
from repro.core.compmodel import PageCompressionModel
from repro.core.config import SystemConfig
from repro.core.pipeline import STAGE_DATA_FETCH, StageAccounting
from repro.core.resilience import ResilienceState
from repro.dram.system import DRAMSystem

#: Access-path labels (Figure 8 timelines / Figure 19 breakdown).
PATH_CTE_HIT = "cte_hit"
PATH_PARALLEL_OK = "parallel_ok"
PATH_PARALLEL_MISMATCH = "parallel_mismatch"
PATH_SERIAL_NO_CTE = "serial_no_cte"
PATH_ML2 = "ml2"

#: All access-path labels, in Figure 19's reporting order.
ACCESS_PATHS = (PATH_CTE_HIT, PATH_PARALLEL_OK, PATH_PARALLEL_MISMATCH,
                PATH_SERIAL_NO_CTE, PATH_ML2)

#: What a PTB note carries (:meth:`MemoryController.note_ptb_fetch`):
#: the PTB's PTEs, None, or a reader of them by PTB address.
PTEs = Union[None, List[int], Callable[[int], Optional[List[int]]]]

#: Pre-interned stat keys: the miss service must not rebuild
#: ``path_<p>`` strings per miss.
_PATH_COUNTER_KEY = {path: f"path_{path}" for path in ACCESS_PATHS}

#: The memory-controller registry.  Controller classes self-register with
#: ``@CONTROLLER_REGISTRY.register`` (the key is the class's ``name``);
#: simulators, benchmarks, and the CLI instantiate by name.
CONTROLLER_REGISTRY: Registry = Registry("controller")

register_controller = CONTROLLER_REGISTRY.register


def available_controllers() -> list:
    """Registered controller names, importing the built-ins first."""
    from repro import core  # noqa: F401  (imports register the built-ins)

    return CONTROLLER_REGISTRY.names()


def create_controller(name: str, config: SystemConfig, dram: DRAMSystem,
                      seed: int = 0) -> "MemoryController":
    """Instantiate a registered controller by name."""
    from repro import core  # noqa: F401  (imports register the built-ins)

    return CONTROLLER_REGISTRY.create(name, config, dram, seed=seed)


class MemoryController:
    """Base class: identity placement, no compression, no translation."""

    name = "base"

    def __init__(self, config: SystemConfig, dram: DRAMSystem,
                 seed: int = 0) -> None:
        self.config = config
        self.dram = dram
        self.seed = seed
        self.stats = StatGroup(self.name)
        #: Per-stage latency statistics (``controller.stage.<name>.ns``
        #: histograms), fed by every served miss.
        self.stage_stats = StatGroup(f"{self.name}.stage")
        #: Per-path aggregation of stage timings for ``--breakdown`` and
        #: the ``controller.breakdown.*`` metric namespace; it also feeds
        #: the stage histograms.
        self.stage_accounting = StageAccounting(self.stage_stats)
        #: Instrumentation handle; harmless no-op bus until a context
        #: attaches its own via :meth:`attach_instrumentation`.
        self._probe = None
        #: Pressure-resilience switches and ``resilience.*`` counters.
        #: Disabled by default: no-fault runs stay bit-identical to a
        #: build without the resilience layer.
        self.resilience = ResilienceState()
        #: ppn -> nominal DRAM page for address formation.
        self._dram_page: Dict[int, int] = {}
        self._cte_table_base = 0  # set at initialize()
        #: Stat sinks of the miss service.  ``l3_misses`` exists from
        #: the start (every miss counts it first); the others are bound
        #: on first use (see _finish).
        self._l3_counter = self.stats.counter("l3_misses")
        self._counters: Dict[str, object] = {}
        self._miss_latencies: Optional[Histogram] = None

    def attach_instrumentation(self, probe) -> None:
        """Adopt a context-provided :class:`~repro.sim.instrument.Probe`.

        The probe shares this controller's :class:`StatGroup`, so counters
        recorded either way agree; the bus gains the controller's trace
        events (access paths, migrations).
        """
        self._probe = probe

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def initialize(
        self,
        data_ppns: Sequence[int],
        hotness_rank: Dict[int, int],
        table_ppns: Sequence[int],
        model: PageCompressionModel,
        dram_budget_bytes: Optional[int] = None,
    ) -> None:
        """Place all pages.  ``hotness_rank[ppn]`` is 0 for the hottest.

        The base class maps every page 1:1 into DRAM (no compression),
        table pages first.
        """
        self._dram_page.update(zip(chain(table_ppns, data_ppns), count()))
        self._cte_table_base = len(self._dram_page) * PAGE_SIZE

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------

    def _data_address(self, ppn: int, block_index: int) -> int:
        dram_page = self._dram_page.get(ppn, ppn)
        return dram_page * PAGE_SIZE + block_index * BLOCK_SIZE

    def _cte_address(self, ppn: int, cte_size: int) -> int:
        return self._cte_table_base + ppn * cte_size

    def _dram_read(self, address: int, now_ns: float,
                   include_noc: bool = True) -> float:
        """One 64 B DRAM read; CTE reads skip the LLC<->MC NoC leg."""
        latency = self.dram.read_ns(address, now_ns)
        if self.resilience.pending_dram_errors:
            latency = self._retry_dram_read(address, now_ns, latency)
        if include_noc:
            return latency
        return latency - self.dram.config.timing.noc_ns

    def _retry_dram_read(self, address: int, now_ns: float,
                         latency: float) -> float:
        """Re-issue a read that hit an injected transient DRAM error.

        With resilience enabled (:mod:`repro.sim.faults`), the read is
        re-issued with bounded retries -- each retry is a real DRAM
        access whose latency the miss pays -- instead of silently
        returning corrupt data.
        """
        resilience = self.resilience
        if not resilience.enabled:
            return latency
        retries = 0
        while (resilience.pending_dram_errors
               and retries < resilience.max_dram_retries):
            resilience.pending_dram_errors -= 1
            retries += 1
            latency += self.dram.read_ns(address, now_ns + latency)
        resilience.count("dram_read_errors", retries)
        resilience.count("dram_retries", retries)
        if resilience.pending_dram_errors:
            # Retry budget exhausted: model the ECC-correction
            # fallback instead of looping forever.
            resilience.pending_dram_errors = 0
            resilience.count("dram_retry_exhausted")
        return latency

    # ------------------------------------------------------------------
    # Runtime interface
    # ------------------------------------------------------------------
    #
    # ``serve_l3_miss_fast`` is the one definition of a controller's miss
    # service: DRAM traffic, stat mutations, stage accounting, and (with
    # an event subscriber) the ``access_path``/``stage`` events.  It
    # returns the span tuples of ``repro.core.pipeline`` instead of
    # objects; an observer that wants the timeline builds it with
    # ``ServiceTimeline.from_spans``.

    def serve_l3_miss_fast(self, ppn: int, block_index: int, now_ns: float,
                           is_write: bool = False):
        """Serve an LLC miss; returns ``(latency_ns, path, spans)``.

        The base controller reads the block in one DRAM access and, having
        no translation, counts no access path.
        """
        latency = self._dram_read(self._data_address(ppn, block_index),
                                  now_ns)
        self._l3_counter.value += 1
        spans = ((STAGE_DATA_FETCH, now_ns, latency, True, False, 0.0),)
        self._finish(PATH_CTE_HIT, spans, latency, ppn, False)
        return latency, PATH_CTE_HIT, spans

    def serve_writeback(self, ppn: int, block_index: int, now_ns: float) -> None:
        """Absorb a dirty LLC writeback (posted; no read-path latency)."""
        self.dram.write(self._data_address(ppn, block_index), now_ns)
        self.stats.counter("writebacks").increment()

    def note_ptb_fetch(self, level: int, ptb_address: int, ptes: PTEs,
                       huge_leaf: bool) -> None:
        """Page-walker fetched a PTB; TMCC overrides this to harvest CTEs.

        ``ptes`` is the PTB's eight PTEs, None when ``ptb_address`` holds
        no PTB, or a reader that returns either given ``ptb_address``
        (``PageTable.ptb_at``), to be called only when the PTEs are
        needed.
        """

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """The controller's configuration, for run reports.

        Flat, JSON-friendly, and deterministic: ``repro report`` renders
        it as the configuration section, and ``--emit-json`` documents
        carry it under ``run_config.controller``.  Subclasses extend the
        base dict with their own structures (CTE caches, ML1/ML2 split,
        CTE buffer).
        """
        return {
            "name": self.name,
            "pages": len(self._dram_page),
        }

    def dram_used_bytes(self) -> int:
        """DRAM consumed by data + translation metadata."""
        return len(self._dram_page) * PAGE_SIZE

    @property
    def average_miss_latency_ns(self) -> float:
        return self.stats.histogram("miss_latency_ns").mean

    def path_fractions(self) -> Dict[str, float]:
        """Figure 19: how ML1 reads were served, as fractions."""
        counts = {p: self.stats.count_of(f"path_{p}") for p in ACCESS_PATHS}
        total = sum(counts.values())
        if not total:
            return {p: 0.0 for p in ACCESS_PATHS}
        return {p: c / total for p, c in counts.items()}

    # ------------------------------------------------------------------
    # Miss bookkeeping shared by every controller's service
    # ------------------------------------------------------------------
    #
    # Stat sinks are bound lazily on first use, so stat keys are created
    # in the order the service first touches them (creation order is
    # observable in ``as_dict``).  Path counters are bound under their
    # path label, other counters under their stat name.  Counters and
    # histograms reset in place (identity survives ``_reset_stats``), so
    # the bound objects stay valid across the warm-up boundary.

    def _count(self, name: str) -> None:
        """Increment the controller counter ``name`` via a bound sink."""
        counters = self._counters
        counter = counters.get(name)
        if counter is None:
            counter = counters[name] = self.stats.counter(name)
        counter.value += 1

    def _finish(self, path: str, spans, total_ns: float, ppn: int,
                count_path: bool = True) -> None:
        """Record one served miss: its path counter (``count_path``),
        stage accounting and histograms, its latency, and -- with an
        event subscriber -- its ``access_path`` and ``stage`` events.

        ``spans`` are the miss's span tuples in issue order.
        """
        if count_path:
            counters = self._counters
            counter = counters.get(path)
            if counter is None:
                counter = counters[path] = self.stats.counter(
                    _PATH_COUNTER_KEY[path])
            counter.value += 1
        self.stage_accounting.record(path, spans, total_ns)
        latencies = self._miss_latencies
        if latencies is None:
            latencies = self._miss_latencies = self.stats.histogram(
                "miss_latency_ns")
        latencies.count += 1
        latencies.total += total_ns
        probe = self._probe
        if probe is not None and probe.bus.active:
            self._emit_miss(probe, path, spans, total_ns, ppn, count_path)

    @staticmethod
    def _emit_miss(probe, path: str, spans, total_ns: float, ppn: int,
                   count_path: bool) -> None:
        if count_path:
            # The first stage starts at the miss's arrival.
            probe.emit("access_path", spans[0][1], path=path,
                       latency_ns=total_ns, ppn=ppn)
        for name, start, latency_ns, critical, wasted, _slack in spans:
            probe.emit("stage", start, stage=name, path=path,
                       latency_ns=latency_ns, end_ns=start + latency_ns,
                       critical=critical, wasted=wasted, ppn=ppn)
