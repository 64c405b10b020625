"""Outside-in layer tracing for the benchmark harness.

Every timed entry is a wrapper around a public call into one layer of
``repro``; the wrapper counts calls and accumulates total and *self*
time (total minus the time of wrapped callees).  Nothing inside
``src/`` is edited or observed from within, so the traced replay is the
same zero-observer loop the untraced benchmark times:

- Replay-time wrappers are set as *instance* attributes after the
  simulator is built and before ``run()``: ``run_fast`` binds
  ``serve_l3_miss_fast``, ``access_fast(_miss)``, ``walker.pwc.*`` and
  ``table.walk_path`` at loop entry, and the controllers look up
  ``self.dram.*``, ``migration``, ``recency`` and ``ml2_free`` per call.
- ``note_ptb_fetch`` is wrapped on the instance only: its *class-level*
  identity decides whether ``run_fast`` calls it at all.
- Set-up wrappers (codecs, page-table population, controller
  ``initialize``) are installed at class level by :func:`setup_wrappers`
  and restored when the ``with`` block ends.

A bounded sample of spans -- the first ``span_budget`` top-level calls
of each cell, with their children -- is kept in memory as plain tuples
and converted to :class:`repro.sim.tracing.Span` only when written.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Replay-time wrappers: (path from the simulator, method, layer key).
REPLAY_WRAPPERS = (
    ("controller", "serve_l3_miss_fast", "core.serve_miss"),
    ("controller", "note_ptb_fetch", "core.note_ptb"),
    ("controller", "serve_writeback", "core.writeback"),
    ("hierarchy", "access_fast_miss", "cache.miss"),
    ("hierarchy", "access_fast", "cache.ptb"),
    ("walker.pwc", "first_fetch_level", "vm.pwc"),
    ("walker.pwc", "fill", "vm.pwc"),
    ("table", "walk_path", "vm.walk_path"),
    ("dram", "read_ns", "dram.read"),
    ("dram", "stream", "dram.stream"),
    ("dram", "write", "dram.write"),
    # Two-level controllers only (TMCC, OS-inspired).
    ("controller.migration", "reserve", "mc.migration"),
    ("controller.recency", "on_access", "mc.recency"),
    ("controller.ml2_free", "alloc", "mc.ml2_alloc"),
)

#: Replay entries that a caller passes keyword arguments to
#: (``DRAMSystem.stream(..., is_write=True)``).  The others get a
#: positional-only wrapper, about 15% cheaper per call.
KEYWORD_ENTRIES = {("dram", "stream")}

#: Keys whose ``calls``/``self_s``/``total_s`` the harness reports.
TIMED_KEYS = tuple(dict.fromkeys(key for _, _, key in REPLAY_WRAPPERS)) + (
    "compression.deflate", "compression.block", "vm.populate",
    "core.initialize",
)

#: Span tuple layout: (trace_id, span_id, parent_id, key, start_ns, dur_ns).
SpanTuple = Tuple[int, int, Optional[int], str, int, int]


class LayerTracer:
    """Call counts, total and self time per layer key, plus span samples.

    ``clock`` returns integer nanoseconds; tests substitute a fake one.
    ``span_budget`` top-level calls per cell are kept as spans.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 span_budget: int = 0) -> None:
        self.clock = clock
        self.span_budget = span_budget
        #: key -> [calls, total_ns, self_ns]
        self.records: Dict[str, List[int]] = {}
        #: Time spent in wrapped callees of the frame currently running;
        #: at the top level, the time of all top-level wrapped calls.
        self.child_ns = 0
        self.spans: List[SpanTuple] = []
        self.sampling = False
        self._left = 0
        self._trace_id = 0
        self._next_id = 0
        self._stack: List[int] = []
        self._origin = 0

    def reset(self) -> None:
        """Forget all counts and spans (start of a traced round)."""
        self.records.clear()
        self.spans.clear()
        self.child_ns = 0
        self.sampling = False

    def begin_cell(self, trace_id: int, origin_ns: int) -> None:
        """Sample the next ``span_budget`` top-level calls as ``trace_id``.

        Span start times are relative to ``origin_ns``.
        """
        self._trace_id = trace_id
        self._origin = origin_ns
        self._left = self.span_budget
        self._stack = []
        self.sampling = self._left > 0

    def end_cell(self) -> None:
        self.sampling = False

    def wrap(self, key: str, fn: Callable, keywords: bool = True) -> Callable:
        """``fn`` with its calls and time charged to ``key``; with
        ``keywords=False`` the wrapper takes positional arguments only.

        No ``try``/``finally``: an exception fails the whole cell, and
        :meth:`begin_cell` resets the bookkeeping for the next one.
        """
        record = self.records.setdefault(key, [0, 0, 0])
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.sampling:
                return tracer._sampled_call(key, record, fn, args, kwargs)
            outer = tracer.child_ns
            tracer.child_ns = 0
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            record[0] += 1
            record[1] += elapsed
            record[2] += elapsed - tracer.child_ns
            tracer.child_ns = outer + elapsed
            return result

        @functools.wraps(fn)
        def positional(*args):
            if tracer.sampling:
                return tracer._sampled_call(key, record, fn, args, {})
            outer = tracer.child_ns
            tracer.child_ns = 0
            start = clock()
            result = fn(*args)
            elapsed = clock() - start
            record[0] += 1
            record[1] += elapsed
            record[2] += elapsed - tracer.child_ns
            tracer.child_ns = outer + elapsed
            return result

        return wrapper if keywords else positional

    def _sampled_call(self, key, record, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        self._next_id += 1
        span_id = self._next_id
        stack.append(span_id)
        outer = self.child_ns
        self.child_ns = 0
        start = self.clock()
        result = fn(*args, **kwargs)
        elapsed = self.clock() - start
        record[0] += 1
        record[1] += elapsed
        record[2] += elapsed - self.child_ns
        self.child_ns = outer + elapsed
        stack.pop()
        self.spans.append((self._trace_id, span_id, parent, key,
                           start - self._origin, elapsed))
        if parent is None:
            self._left -= 1
            if self._left <= 0:
                self.sampling = False
        return result

    def install_replay_wrappers(self, sim) -> None:
        """Wrap the simulator's per-instance replay entry points."""
        for path, method, key in REPLAY_WRAPPERS:
            target = sim
            for part in path.split("."):
                target = getattr(target, part, None)
            if target is not None:
                setattr(target, method, self.wrap(
                    key, getattr(target, method),
                    keywords=(path, method) in KEYWORD_ENTRIES))

    def timing(self, key: str) -> Tuple[int, int, int]:
        """``(calls, total_ns, self_ns)`` for one key (zeros if unused)."""
        calls, total, own = self.records.get(key, (0, 0, 0))
        return calls, total, own

    def span_objects(self, names: Dict[int, str]):
        """Sampled spans as :class:`repro.sim.tracing.Span`, with each
        trace's cell name (``names[trace_id]``) in its args."""
        from repro.sim.tracing import Span

        return [Span(trace_id=trace, span_id=span, parent_id=parent,
                     name=key, category=key.split(".", 1)[0],
                     start_ns=float(start), duration_ns=float(duration),
                     args={"cell": names.get(trace, "")})
                for trace, span, parent, key, start, duration in self.spans]


def _setup_targets():
    from repro.compression.block import SelectiveBlockCompressor
    from repro.compression.deflate import DeflateCodec
    from repro.core.base import MemoryController
    from repro.core.compresso import CompressoController
    from repro.core.twolevel import TwoLevelController
    from repro.vm.pagetable import PageTablePopulator

    return (
        (DeflateCodec, "compress", "compression.deflate"),
        (SelectiveBlockCompressor, "compress_page", "compression.block"),
        (PageTablePopulator, "populate_region", "vm.populate"),
        (PageTablePopulator, "populate_huge_region", "vm.populate"),
        (PageTablePopulator, "finalize_noise", "vm.populate"),
        (MemoryController, "initialize", "core.initialize"),
        (TwoLevelController, "initialize", "core.initialize"),
        (CompressoController, "initialize", "core.initialize"),
    )


@contextlib.contextmanager
def setup_wrappers(tracer: LayerTracer) -> Iterator[None]:
    """Class-level set-up wrappers for the duration of the block."""
    originals = []
    try:
        for cls, method, key in _setup_targets():
            original = cls.__dict__[method]
            originals.append((cls, method, original))
            setattr(cls, method, tracer.wrap(key, original))
        yield
    finally:
        for cls, method, original in reversed(originals):
            setattr(cls, method, original)
