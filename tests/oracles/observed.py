"""Observed views of one cache access and one LLC-miss service.

The replay loops call :meth:`CacheHierarchy.access_fast` and
:meth:`MemoryController.serve_l3_miss_fast`, which return a hit level
and span tuples.  Unit tests read the same calls as records: where a
block hit and at what cost, and how a miss was served, with its stage
timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.sa_cache import COMPRESSED
from repro.core.base import PATH_ML2, MemoryController
from repro.core.pipeline import ServiceTimeline

#: ``access_fast`` hit levels as names.
HIT_LEVELS = ("l1", "l2", "l3", "memory")


@dataclass
class AccessResult:
    """What one block access did."""

    hit_level: str  # "l1" | "l2" | "l3" | "memory"
    latency_cycles: int
    l3_miss: bool
    dram_writebacks: List[int] = field(default_factory=list)
    served_compressed: bool = False

    @property
    def hit(self) -> bool:
        return self.hit_level != "memory"


def access(hierarchy: CacheHierarchy, address: int, is_write: bool = False,
           is_ptb: bool = False) -> AccessResult:
    """Serve one demand access to the block of byte ``address``."""
    block = address >> 6
    writebacks: List[int] = []
    level = hierarchy.access_fast(block, is_write, is_ptb, writebacks)
    config = hierarchy.config
    l2_cycles = config.l1_latency + config.l2_latency
    cycles = (config.l1_latency, l2_cycles, l2_cycles + config.l3_latency,
              l2_cycles + config.l3_latency)[level]
    # Every outcome leaves the block in L1 carrying the compressed bit of
    # the copy that served it.
    return AccessResult(HIT_LEVELS[level], cycles, level == 3, writebacks,
                        bool(hierarchy.l1._index[block] & COMPRESSED))


@dataclass
class MissResult:
    """Outcome of one LLC-miss service."""

    latency_ns: float
    path: str
    in_ml2: bool = False
    #: Start and end of every stage; ``timeline.total_ns`` is
    #: ``latency_ns``.
    timeline: Optional[ServiceTimeline] = None


def serve_l3_miss(controller: MemoryController, ppn: int, block_index: int,
                  now_ns: float, is_write: bool = False) -> MissResult:
    """Serve an LLC miss for block ``block_index`` of page ``ppn``."""
    latency, path, spans = controller.serve_l3_miss_fast(
        ppn, block_index, now_ns, is_write)
    return MissResult(latency, path, in_ml2=path == PATH_ML2,
                      timeline=ServiceTimeline.from_spans(
                          now_ns, latency, spans))
