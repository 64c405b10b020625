"""The paper's contribution and its baselines.

- :mod:`repro.core.config` -- simulated-system configuration (Table III).
- :mod:`repro.core.compmodel` -- per-page compression oracles that put
  real codec measurements behind every simulated page.
- :mod:`repro.core.base` -- the memory-compression-controller interface
  and shared DRAM-layout bookkeeping.
- :mod:`repro.core.pipeline` -- the stage vocabulary of the miss paths,
  the per-miss service timeline, and per-path stage accounting.
- :mod:`repro.core.uncompressed` -- no-compression reference (Figure 18).
- :mod:`repro.core.compresso` -- Compresso [6], the state-of-the-art
  block-level hardware memory compression TMCC compares against.
- :mod:`repro.core.twolevel` -- the shared OS-inspired ML1/ML2 engine
  (Section IV-B).
- :mod:`repro.core.osinspired` -- the bare-bone OS-inspired design
  (serial page-level CTEs + IBM-speed Deflate; Figure 20's baseline).
- :mod:`repro.core.tmcc` -- TMCC proper: embedded CTEs in compressed PTBs
  with speculative parallel verification, plus the memory-specialized
  Deflate for ML2 (Section V).
"""

from repro.core.config import SystemConfig
from repro.core.compmodel import PageCompressionModel, PageRecord
from repro.core.pipeline import ServiceTimeline, StageAccounting, StageSpan
from repro.core.base import (
    CONTROLLER_REGISTRY,
    MemoryController,
    available_controllers,
    create_controller,
    register_controller,
)
from repro.core.uncompressed import UncompressedController
from repro.core.compresso import CompressoController, CompressoLLCVictimController
from repro.core.osinspired import (
    OSInspiredController,
    OSInspiredFastDeflateController,
)
from repro.core.twolevel import TwoLevelController
from repro.core.tmcc import TMCCController

__all__ = [
    "SystemConfig",
    "PageCompressionModel",
    "PageRecord",
    "ServiceTimeline",
    "StageAccounting",
    "StageSpan",
    "MemoryController",
    "CONTROLLER_REGISTRY",
    "available_controllers",
    "create_controller",
    "register_controller",
    "UncompressedController",
    "CompressoController",
    "CompressoLLCVictimController",
    "OSInspiredController",
    "OSInspiredFastDeflateController",
    "TwoLevelController",
    "TMCCController",
]
