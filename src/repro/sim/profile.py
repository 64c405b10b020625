"""Host-side wall-clock profiling of the simulator's own Python code.

The simulated clock says where *modeled* time goes; this module says
where *host* time goes -- which Python hot path makes an 8-million-access
run slow.  It is deliberately tiny: a stack of named sections timed with
``time.perf_counter_ns``, aggregated into per-section inclusive
(``total_ns``), exclusive (``self_ns``), and call-count totals.

Everything is opt-in (``repro run --profile``).  When off, the replay
loop times nothing (its sections are wrapped only when a profiler is
armed), so no-flag runs pay nothing and stay bit-identical.

When on, the profiler registers as a callable metrics source under the
``profile.`` namespace::

    profile.<section>.total_ns   inclusive wall-clock time
    profile.<section>.self_ns    exclusive time (children subtracted)
    profile.<section>.calls      number of enter/exit pairs

Host time is inherently non-deterministic; ``profile.*`` keys exist only
under the flag precisely so deterministic metric dumps never contain
them.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Mapping


class HostProfiler:
    """Stack-based self-time accounting over named sections.

    Sections nest: entering ``controller`` inside ``access`` attributes
    the controller's elapsed time to both sections' ``total_ns`` but
    only to the controller's ``self_ns`` -- the parent's exclusive time
    excludes its children, so the ``self_ns`` column localizes hot
    paths directly.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        #: (name, start_ns, accumulated child time) per open section.
        self._stack: List[List[object]] = []
        self._total_ns: Dict[str, int] = {}
        self._self_ns: Dict[str, int] = {}
        self._calls: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------

    def begin(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0])

    def end(self) -> None:
        if not self._stack:
            raise RuntimeError("HostProfiler.end() without a matching begin()")
        name, start_ns, child_ns = self._stack.pop()
        elapsed = self._clock() - start_ns
        self._total_ns[name] = self._total_ns.get(name, 0) + elapsed
        self._self_ns[name] = self._self_ns.get(name, 0) + elapsed - child_ns
        self._calls[name] = self._calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += elapsed

    # ------------------------------------------------------------------
    # Reading (metrics-source protocol)
    # ------------------------------------------------------------------

    def sections(self) -> List[str]:
        return sorted(self._total_ns)

    def total_ns(self, name: str) -> int:
        return self._total_ns.get(name, 0)

    def self_ns(self, name: str) -> int:
        return self._self_ns.get(name, 0)

    def calls(self, name: str) -> int:
        return self._calls.get(name, 0)

    def __call__(self) -> Mapping[str, float]:
        """Flatten into ``<section>.total_ns/.self_ns/.calls`` keys."""
        out: Dict[str, float] = {}
        for name in self.sections():
            out[f"{name}.total_ns"] = self._total_ns[name]
            out[f"{name}.self_ns"] = self._self_ns[name]
            out[f"{name}.calls"] = self._calls[name]
        return out

    def reset(self) -> None:
        """Warm-up boundary support (open sections keep running)."""
        self._total_ns.clear()
        self._self_ns.clear()
        self._calls.clear()

    def report_rows(self) -> List[Dict[str, object]]:
        """Rows for human-facing rendering, hottest self-time first."""
        rows = [
            {
                "section": name,
                "calls": self._calls.get(name, 0),
                "total_ms": self._total_ns.get(name, 0) / 1e6,
                "self_ms": self._self_ns.get(name, 0) / 1e6,
            }
            for name in self.sections()
        ]
        rows.sort(key=lambda row: row["self_ms"], reverse=True)
        return rows
