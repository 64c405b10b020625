"""The replay loops (``docs/performance.md``).

:func:`run_fast` replays a workload trace in two passes over each
segment of the trace.  It returns miss service as span tuples rather
than objects, and runs the observers as hooks looked up once per pass,
so an unobserved run pays nothing for them.

* The **front-end pass** has no clock.  It runs the TLB, the page walk
  (native, or the 2D nested walk of a virtualized run) and L1-L3 with
  their prefetchers, and records what the memory controller must see as
  a :class:`FrontEndRecording`: per access a hit level or ``_EVENTS``,
  and for each ``_EVENTS`` access its ops in issue order -- cache hit
  levels, LLC-miss blocks, dirty writebacks, PTB fetches to harvest,
  and a ``_WALKED`` marker ending a TLB miss's walk.  Once per run the
  address space's translation becomes a sorted table.  Then, ``_SPAN``
  accesses at a time, the trace's address column is split into lists of
  vpns, TLB tags and global blocks (:mod:`repro.sim.columns`), so no
  column the pass holds is as long as the trace, and each access of the
  span, in trace order, is one call of the step that
  :func:`front_end_step` builds: the inlined TLB lookup, the memoized
  walk on a miss, and the inlined L1 probe.
* The **back-end pass** owns all time arithmetic.  It replays the
  recording through ``MemoryController.serve_l3_miss_fast``,
  ``serve_writeback`` and ``note_ptb_fetch``, and runs the hooks: the
  fault injector's tick, the heartbeat, ``sim.tlb_miss`` events, and
  the span tracer's access, ``page_walk`` and ``llc_miss`` spans.  An
  unobserved pass steps the clock over each run of accesses without
  ops in a plain loop, two adds per access (compute, then stall) in the
  per-access order.  ``note_ptb_fetch`` gets the page table's reader
  rather than the PTEs, so a controller reads a PTB only when it needs
  to (TMCC: on the PTB's first harvest).

:func:`run_cores` is the multi-core engine's loop.  Its cores interleave
by local clock and share an L3, so it cannot record a front end ahead;
each access takes its core's :func:`front_end_step`, and its ops are
served at once, as the back-end pass serves them.

Segments.  Whatever reads the whole metrics registry mid-run must see
the front end no further along than the back end, so the trace splits
into segments ``[i, j)``, each a front-end pass then a back-end pass:
one segment per access with a time-series recorder, segments ending at
every multiple of a supervisor's strides (checkpoints, watchdog), and a
segment boundary at the warm-up point under ``--profile``, whose totals
cover the measured region like every other statistic.  Otherwise the
run is one segment.  The warm-up reset happens inside a pass, or before
a segment that starts at the warm-up point.

Recordings.  No controller touches the TLB, the walkers or the caches,
so the front end of a trace is the same under every controller.  A
fresh one-segment run keeps its recording on its
:class:`~repro.sim.space.AddressSpace` (the tables and translation it
walked, shared by every simulator on the workload), and the next fresh
one-segment run on the same space skips the front-end pass when the
recording's key (TLB entries, cache configuration, warm-up point, trace
length) matches its own; it then loads the recorded end state into its
front end.  A run whose front end is already warm (a second ``run()``, a
resume) and a multi-segment run neither read nor write the recording.

The frozen goldens (``tests/sim/goldens``) pin every observable output
of this loop byte for byte.
"""

from __future__ import annotations

from array import array
from heapq import heapify, heappop, heapreplace
from itertools import chain, islice, repeat
from typing import NamedTuple, Optional

from repro.cache.sa_cache import DIRTY
from repro.common.lru import IntLRU
from repro.core.base import MemoryController, PATH_CTE_HIT, PATH_ML2
from repro.core.pipeline import ServiceTimeline
from repro.sim.columns import (TranslationTable, trace_columns,
                               translation_table)
from repro.sim.tracing import CATEGORY_WALK
from repro.vm.nested import GUEST_FETCH

#: A run supervisor's watchdog samples the wall clock, and its heartbeat
#: fires, once per this many accesses -- cheap enough to leave on, coarse
#: enough to stay off the hot path.
WATCHDOG_STRIDE = 64

# Per-access codes.  0-2: a TLB hit whose data access hit L1/L2/L3 and
# wrote nothing back; its stall is that level's latency.
_UNMAPPED = 3  # a TLB hit on an unmapped vpn: no stall
_EVENTS = 4    # anything else: the access's ops are in the op stream

# Op kinds.  0-2: a cache access that hit that level.
_WALKED = 3     # a TLB miss's page walk ends here
_MISS = 4       # + is_write + 2 * after a TLB miss: LLC miss of block arg
_WRITEBACK = 8  # dirty LLC victim arg drains
_PTB_MISS = 9   # + guest fetch: LLC miss of a PTB, arg = address << 3 | level
_NOTE = 11      # + huge leaf: harvest a fetched PTB, arg as for _PTB_MISS
_END = 13       # closes an access's ops

#: Accesses per span of the trace that a replay loop splits into lists
#: at once (:func:`repro.sim.columns.trace_columns`).
_SPAN = 1 << 12


class FrontEndRecording(NamedTuple):
    """One front-end pass over a trace, replayable under any controller."""

    key: Optional[tuple]  # see _key; None for a segment's recording
    codes: bytearray      # per access: a hit level, _UNMAPPED or _EVENTS
    kinds: bytearray      # ops of the _EVENTS accesses, each closed by _END
    args: array           # the args of the ops of kind _MISS and above
    end_state: Optional[tuple]  # (contents, statistics) after the pass


class _Columns(NamedTuple):
    """Per-run inputs of the front-end pass, shared by its segments."""

    table: TranslationTable
    codes: bytearray
    walk_cache: dict  # vpn -> its path in walk_paths, or None if unmapped
    walk_paths: dict  # each distinct ((level, ptb address) pairs, huge)
    window: list   # [first access, vpns, tags, blocks] of the last span


def run_fast(sim, state, supervisor=None) -> Optional[str]:
    """Run ``sim``'s trace replay from ``state`` to the end of the trace.

    Mutates the simulator state (clock, run progress, sim counters,
    every component); returns the supervisor's stop reason when it ends
    the run early, else None.
    """
    n = len(sim.workload.trace)
    warmup_end = state.warmup_end
    profiler = sim.context.profiler
    timeseries = sim.timeseries
    strides = [1] if timeseries is not None else []
    heartbeat = None
    if supervisor is not None:
        strides += supervisor.strides()
        heartbeat = supervisor.heartbeat
    one_segment = not strides and profiler is None

    space = sim.space
    key = _key(sim, warmup_end)
    fresh = one_segment and state.index == 0 and _cold(sim)
    recording = space.front_end if fresh else None
    reused = recording is not None and recording.key == key
    columns = None if reused else _columns(sim)
    front_end = _profiled(profiler, "sim.front_end", _front_end_pass)
    back_end = _profiled(profiler, "sim.back_end", _back_end_pass)
    stop_reason = None
    try:
        while state.index < n:
            start = state.index
            if supervisor is not None:
                stop_reason = supervisor.on_access(sim, state)
                if stop_reason is not None:
                    break
            if start == warmup_end:
                sim._reset_stats()
                state.measure_start_ns = sim.clock.now_ns
            stop = n
            for stride in strides:
                stop = min(stop, (start // stride + 1) * stride)
            if profiler is not None and start < warmup_end < stop:
                stop = warmup_end
            reset_at = warmup_end if start < warmup_end < stop else -1
            if not reused:
                recording = front_end(sim, columns, start, stop, reset_at)
                if stop == n:
                    columns = None  # the back end never reads them
                if fresh:
                    space.front_end = recording._replace(
                        key=key, end_state=(_save_contents(sim),
                                            _save(_stat_parts(sim))))
            back_end(sim, state, recording, stop, reset_at, heartbeat)
            if timeseries is not None:
                timeseries.maybe_sample(sim.clock.now_ns)
    finally:
        if reused:
            contents, stats = recording.end_state
            _load_contents(sim, contents)
            _load(_stat_parts(sim), stats)
    if timeseries is not None:
        timeseries.finish(sim.clock.now_ns)
    return stop_reason


def _profiled(profiler, section: str, function):
    """``function``, timed under ``section`` when a profiler is armed."""
    if profiler is None:
        return function

    def timed(*args):
        profiler.begin(section)
        try:
            return function(*args)
        finally:
            profiler.end()

    return timed


# ----------------------------------------------------------------------
# Recording identity and the front end's state
# ----------------------------------------------------------------------

def _key(sim, warmup_end: int) -> tuple:
    """Everything besides the address space that shapes the front end
    (the space holds the recording, so it always matches)."""
    return (sim.system.tlb_entries, sim.hierarchy.config, warmup_end,
            len(sim.workload.trace))


def _cold(sim) -> bool:
    """True while no access has gone through ``sim``'s front end."""
    hierarchy = sim.hierarchy
    return not (sim.tlb._lru or sim.tlb.stats.total or sim.walker.walks.value
                or hierarchy.l1._index or hierarchy.l2._index
                or hierarchy.l3._index)


def _stat_parts(sim) -> list:
    """``(object, attribute names)`` of the front end's statistics (the
    ones the warm-up boundary resets) and the simulator's two front-end
    counters."""
    walker = sim.walker
    hierarchy = sim.hierarchy
    ratio = ("hits", "total")
    return [(sim.tlb.stats, ratio), (walker.pwc.stats, ratio),
            (walker.walks, ("value",)), (walker.ptb_fetches, ("value",)),
            (hierarchy.l1.stats, ratio), (hierarchy.l2.stats, ratio),
            (hierarchy.l3.stats, ratio),
            (sim, ("_tlb_misses", "_l3_data_misses"))]


def _small_parts(sim) -> list:
    """``(object, attribute names)`` of the front end's contents other
    than cache lines: TLB and PWC recency, prefetcher tables, and a
    nested walker's host PWC and counters (never reset)."""
    hierarchy = sim.hierarchy
    parts = [(sim.tlb._lru, IntLRU.__slots__),
             (hierarchy._next_line, ("_outstanding", "_recent_results",
                                     "_enabled", "_cooloff")),
             (hierarchy._stride_l1, ("_table",)),
             (hierarchy._stride_l2, ("_table",))]
    pwcs = [sim.walker.pwc]
    nested = sim.nested_walker
    if nested is not None:
        host = nested.host_walker
        pwcs.append(host.pwc)
        parts += [(nested.walks, ("value",)),
                  (nested.total_fetches, ("value",)),
                  (host.walks, ("value",)), (host.ptb_fetches, ("value",)),
                  (host.pwc.stats, ("hits", "total"))]
    parts += [(lru, IntLRU.__slots__)
              for pwc in pwcs for lru in pwc._caches.values()]
    return parts


def _copy(value):
    """A copy of one state attribute that shares nothing mutable (dict
    values and list items are ints, bools or tuples)."""
    if type(value) is dict:
        return value.copy()
    if type(value) is list:
        return value[:]
    return value


def _save(parts) -> list:
    return [[_copy(getattr(obj, name)) for name in names]
            for obj, names in parts]


def _load(parts, saved) -> None:
    for (obj, names), values in zip(parts, saved):
        for name, value in zip(names, values):
            setattr(obj, name, _copy(value))


def _save_contents(sim) -> tuple:
    """The front end's contents; each cache's lines as flat columns
    (blocks in set order, LRU first; their flags; lines per set), which
    hold no object the live caches hold."""
    hierarchy = sim.hierarchy
    lines = []
    for cache in (hierarchy.l1, hierarchy.l2, hierarchy.l3):
        blocks = array("q", chain.from_iterable(cache._orders))
        lines.append((blocks, bytes(map(cache._index.__getitem__, blocks)),
                      array("I", map(len, cache._orders))))
    return _save(_small_parts(sim)), lines


def _load_contents(sim, contents) -> None:
    small, lines = contents
    _load(_small_parts(sim), small)
    hierarchy = sim.hierarchy
    for cache, (blocks, flags, counts) in zip(
            (hierarchy.l1, hierarchy.l2, hierarchy.l3), lines):
        blocks = blocks.tolist()
        cache._index = dict(zip(blocks, flags))
        taken = iter(blocks)
        cache._orders = [list(islice(taken, count)) for count in counts]


# ----------------------------------------------------------------------
# Front-end pass: TLB, walk, caches; no clock
# ----------------------------------------------------------------------

def _columns(sim) -> _Columns:
    """What the front-end passes of one run share: the translation table
    (translation is static, the same invariant the walk memo relies on),
    the code column they fill, the walk memo and the last span split."""
    return _Columns(translation_table(sim.space.translation),
                    bytearray(len(sim.workload.trace)), {}, {},
                    [-1, [], [], []])


def _front_end_pass(sim, columns: _Columns, start: int, stop: int,
                    reset_at: int) -> FrontEndRecording:
    """Replay accesses ``[start, stop)`` through the front end, recording
    the stream; statistics reset before access ``reset_at``."""
    table, codes, walk_cache, walk_paths, window = columns
    kinds = bytearray()
    args = array("q")
    misses = [sim._tlb_misses, sim._l3_data_misses]
    step = front_end_step(sim.tlb, sim.walker, sim.hierarchy,
                          sim.nested_walker, walk_cache, walk_paths, kinds,
                          args, misses)
    # The front end's statistics, which the warm-up boundary resets.
    front_stats = ([obj for obj, _ in _stat_parts(sim) if obj is not sim]
                   if reset_at >= 0 else ())
    trace = sim.workload.trace
    writes = trace.writes
    huge_pages = sim.huge_pages

    # The trace is split a _SPAN-aligned span at a time, kept in
    # ``window``, so the short segments of a time-series or supervised
    # run split each span once; the warm-up point starts a piece.
    cuts = sorted({start, stop, *range(start - start % _SPAN + _SPAN, stop,
                                       _SPAN)}
                  | ({reset_at} if reset_at >= 0 else set()))
    for low, high in zip(cuts, cuts[1:]):
        if low == reset_at:
            for stat in front_stats:
                stat.reset()
            misses[:] = 0, 0
        first = low - low % _SPAN
        if window[0] != first:
            window[:] = first, *trace_columns(trace, huge_pages, table,
                                              first, first + _SPAN)
        _, vpns, tags, blocks = window
        if high - low < len(vpns):
            lo, hi = low - first, high - first
            vpns, tags, blocks = vpns[lo:hi], tags[lo:hi], blocks[lo:hi]
        codes[low:high] = map(step, vpns, tags, blocks, writes[low:high])

    sim._tlb_misses, sim._l3_data_misses = misses
    return FrontEndRecording(None, codes, kinds, args, None)


def front_end_step(tlb, walker, hierarchy, nested_walker, walk_cache: dict,
                   walk_paths: dict, kinds: bytearray, args: array,
                   misses: list):
    """The front end's per-access step, for one core's TLB, walker and
    caches: ``step(vpn, tag, block, is_write)`` -> the access's code.

    ``step`` runs one access to page ``vpn`` whose TLB tag is ``tag``
    and whose global data block is ``block`` (-1: unmapped): the TLB
    lookup, and on a miss the walk of ``vpn`` -- the static walk path
    memoized in ``walk_cache`` (shared by every step over one table; the
    vpns of one leaf PTB share one path object, interned in
    ``walk_paths``), or the nested walk -- with its PTB fetches through
    the caches and the TLB fill;
    then the data access, its L1 probe inlined.  It returns a hit level
    (0-2), ``_UNMAPPED`` or ``_EVENTS``; an ``_EVENTS`` access's ops,
    closed by ``_END``, are appended to ``kinds`` and ``args``.
    ``misses`` counts ``[TLB misses, LLC data misses]``.

    The bound methods (``access_fast``, ``access_fast_miss``, the PWC's
    and the table's) are looked up on the instances here, once.
    """
    tlb_lru = tlb._lru
    tlb_slots = tlb_lru._slot
    tlb_move = tlb_lru.move_to_end
    tlb_insert = tlb_lru.insert_mru
    tlb_pop = tlb_lru.pop_lru
    tlb_entries = tlb.entries
    tlb_stats = tlb.stats
    access_fast = hierarchy.access_fast
    access_miss = hierarchy.access_fast_miss
    # The L1 probe of the demand-access path is inlined below; these are
    # its ingredients (CacheHierarchy.access_fast, first half).
    prefetch_on = hierarchy.config.enable_prefetch
    nl_outstanding = hierarchy._next_line._outstanding
    l1 = hierarchy.l1
    l1_index = l1._index
    l1_orders = l1._orders
    l1_mask = l1.set_mask
    l1_stats = l1.stats
    walks_counter = walker.walks
    ptb_fetches_counter = walker.ptb_fetches
    pwc_first = walker.pwc.first_fetch_level
    pwc_fill = walker.pwc.fill
    walk_path = walker.table.walk_path
    nested_walk = nested_walker.walk if nested_walker is not None else None
    kind_append = kinds.append
    arg_append = args.append
    writebacks: list = []

    def ptb_fetch(address: int, level: int, note: Optional[int]) -> None:
        """Record one PTB fetch of a walk through the caches; ``note`` is
        the op that hands the PTB to the controller (``_NOTE``, + 1 for a
        huge leaf), or None for a nested walk's guest PTB."""
        del writebacks[:]
        hit_level = access_fast(address >> 6, False, True, writebacks)
        arg = address << 3 | level
        if hit_level < 3:
            kind_append(hit_level)
        else:
            kind_append(_PTB_MISS if note else _PTB_MISS + 1)
            arg_append(arg)
        if writebacks:
            kinds.extend(repeat(_WRITEBACK, len(writebacks)))
            args.extend(writebacks)
        if note:
            kind_append(note)
            arg_append(arg)

    # The TLB miss's ingredients ride in one closure cell: each call of
    # ``step`` copies every cell of its closure into its frame.
    walk_parts = (nested_walk, ptb_fetch, walks_counter, walk_cache,
                  walk_paths, walk_path, pwc_first, ptb_fetches_counter,
                  pwc_fill, tlb_entries, tlb_pop, tlb_insert)

    def step(vpn: int, tag: int, block: int, is_write: int) -> int:
        # -- TLB lookup (TLB.lookup + TLB.fill, inlined) --------------------
        tlb_stats.total += 1
        if tag in tlb_slots:
            tlb_stats.hits += 1
            tlb_move(tag)
            tlb_missed = False
        else:
            tlb_missed = True
            misses[0] += 1
            (nested_walk, ptb_fetch, walks_counter, walk_cache,
             walk_paths, walk_path, pwc_first, ptb_fetches_counter,
             pwc_fill, tlb_entries, tlb_pop, tlb_insert) = walk_parts
            if nested_walk is not None:
                # A 2D walk (NestedPageWalker.walk): every fetch goes
                # through the caches; only host PTBs are harvested.
                try:
                    fetches = nested_walk(vpn).fetches
                except KeyError:
                    fetches = ()
                for kind, level, address in fetches:
                    ptb_fetch(address, level,
                              None if kind == GUEST_FETCH else _NOTE)
            else:
                # -- page walk (PageWalker.walk, inlined with the static
                # walk path memoized: the PWC start level, its LRU/stat
                # updates and the walker counters still run per walk) ----
                walks_counter.value += 1
                if vpn in walk_cache:
                    cached = walk_cache[vpn]
                else:
                    try:
                        path = walk_path(vpn)
                    except KeyError:
                        cached = walk_cache[vpn] = None
                    else:
                        cached = (tuple((lvl, addr) for lvl, addr, _ in path),
                                  path[-1][0] == 2)
                        cached = walk_cache[vpn] = walk_paths.setdefault(
                            cached, cached)
                if cached is not None:
                    path_pairs, walk_huge = cached
                    start_level = pwc_first(vpn)
                    fetches = [pair for pair in path_pairs
                               if pair[0] <= start_level]
                    ptb_fetches_counter.value += len(fetches)
                    pwc_fill(vpn)
                    for level, ptb_address in fetches:
                        ptb_fetch(ptb_address, level,
                                  _NOTE + (walk_huge and level == 2))
            kind_append(_WALKED)
            if tag in tlb_slots:
                tlb_move(tag)
            else:
                if len(tlb_slots) >= tlb_entries:
                    tlb_pop()
                tlb_insert(tag, 0)

        # -- data access (CacheHierarchy.access_fast, L1 hit unrolled) ------
        if block >= 0:
            if prefetch_on and block in nl_outstanding:
                nl_outstanding[block] = True
            l1_stats.total += 1
            if block not in l1_index:
                del writebacks[:]
                level = access_miss(block, is_write, False, writebacks)
                if level < 3:
                    if not writebacks and not tlb_missed:
                        return level
                    kind_append(level)
                else:
                    misses[1] += 1
                    kind_append(_MISS + is_write + 2 * tlb_missed)
                    arg_append(block)
                if writebacks:
                    kinds.extend(repeat(_WRITEBACK, len(writebacks)))
                    args.extend(writebacks)
                kind_append(_END)
                return _EVENTS
            l1_stats.hits += 1
            order = l1_orders[block & l1_mask]
            if order[-1] != block:
                order.remove(block)
                order.append(block)
            if is_write:
                l1_index[block] |= DIRTY
            if not tlb_missed:
                return 0
            kind_append(0)
        elif not tlb_missed:
            return _UNMAPPED
        kind_append(_END)
        return _EVENTS

    return step


# ----------------------------------------------------------------------
# Back-end pass: the clock, the memory controller and the observers
# ----------------------------------------------------------------------

def _hit_latencies(config) -> tuple:
    """The stall of an access that hit L1, L2 or L3 (the L3's is also
    the on-chip part of an LLC miss): each level's integer cycle count
    through ``cycles_to_ns``."""
    cache = config.cache
    l1_cycles = cache.l1_latency
    l2_cycles = l1_cycles + cache.l2_latency
    l3_cycles = l2_cycles + cache.l3_latency
    return (config.cycles_to_ns(l1_cycles), config.cycles_to_ns(l2_cycles),
            config.cycles_to_ns(l3_cycles))


def _back_end_pass(sim, state, recording: FrontEndRecording, stop: int,
                   reset_at: int, heartbeat=None) -> None:
    """Replay ``recording`` through ``sim``'s controller from ``state``
    up to access ``stop``; statistics reset before access ``reset_at``.

    ``heartbeat`` runs before every access whose index is a multiple of
    :data:`WATCHDOG_STRIDE`."""
    config = sim.system
    compute_ns = config.cycles_to_ns(sim.workload.compute_cycles_per_access)
    mlp = config.mlp_stall_factor

    lat = _hit_latencies(config)
    lat_miss = lat[2]
    # Stall of an access without ops, by code, and the clock step after
    # its compute step: ``stall * mlp``.
    code_stall = lat + (0.0,)
    step = tuple(stall * mlp for stall in code_stall)

    controller = sim.controller
    serve_fast = _profiled(sim.context.profiler, "controller.serve_miss",
                           controller.serve_l3_miss_fast)
    serve_writeback = controller.serve_writeback
    note_ptb = controller.note_ptb_fetch
    # Base-class note_ptb_fetch is a no-op, so it is skipped for
    # controllers that don't harvest embedded CTEs (everything but TMCC).
    # The PTEs go as the table's reader: a harvester reads them only when
    # it needs them (TMCC: on a PTB's first fetch).
    do_note = (type(controller).note_ptb_fetch
               is not MemoryController.note_ptb_fetch)
    table_ptb_at = (sim.table if sim.host_table is None
                    else sim.host_table).ptb_at
    stat_parts = _stat_parts(sim) if reset_at >= 0 else ()
    reset_stats = sim._reset_stats
    clock = sim.clock
    codes = recording.codes
    find = codes.find
    kinds = recording.kinds
    find_end = kinds.find
    next_arg = iter(recording.args).__next__

    # Observer hooks; an access without ops skips them all unless one
    # must run per access.
    trace = sim.workload.trace
    addresses = trace.addresses
    tracer = sim.tracer
    injector = sim._fault_injector
    bus = sim.context.bus
    publish = bus.publish if bus.active else None
    watch_walks = tracer is not None or publish is not None
    per_access = (tracer is not None or injector is not None
                  or heartbeat is not None)
    virtualized = sim.virtualized
    ptb_kinds = ("ptb_host", "ptb_guest") if virtualized else ("ptb", "ptb")

    now = clock.now_ns
    start = index = state.index
    fig5_cte_misses = sim._fig5_cte_misses
    fig5_after_tlb = sim._fig5_after_tlb
    op = 0
    # The tracer sees every access of the pass, in order.
    next_record = (trace.records(start, stop).__next__ if tracer is not None
                   else None)

    try:
        while index < stop:
            if index == reset_at:
                # The front-end pass has already reset and advanced the
                # front end's statistics: keep them.
                front_stats = _save(stat_parts)
                reset_stats()
                _load(stat_parts, front_stats)
                fig5_cte_misses = 0
                fig5_after_tlb = 0
                state.measure_start_ns = now
            if per_access:
                if injector is not None:
                    injector.tick(index, now)
                if heartbeat is not None and not index % WATCHDOG_STRIDE:
                    heartbeat()
            else:
                limit = reset_at if index < reset_at < stop else stop
                events = find(_EVENTS, index, limit)
                if events < 0:
                    events = limit
                if events > index:
                    # Accesses without ops: two clock adds each, in order.
                    for code in codes[index:events]:
                        now += compute_ns
                        now += step[code]
                    index = events
                    continue

            now += compute_ns
            if tracer is not None:
                vaddr, is_write = next_record()
                tracer.begin_access(now, index=index, vaddr=vaddr,
                                    write=is_write)
            code = codes[index]
            if code != _EVENTS:
                stall = code_stall[code]
            else:
                stall = 0.0
                end = find_end(_END, op)
                ops = kinds[op:end]
                op = end + 1
                walk_span = None
                if watch_walks and _WALKED in ops:
                    vpn = addresses[index] >> 12
                    if publish is not None:
                        publish("sim.tlb_miss", now, vpn=vpn)
                    if tracer is not None:
                        walk_span = tracer.begin(
                            "page_walk", CATEGORY_WALK, now, vpn=vpn,
                            nested=virtualized)
                for kind in ops:
                    if kind < _WALKED:
                        stall += lat[kind]
                        continue
                    if kind == _WALKED:
                        if walk_span is not None:
                            tracer.end(walk_span, now + stall)
                        continue
                    arg = next_arg()
                    if kind < _WRITEBACK:
                        stall += lat_miss
                        latency, path, spans = serve_fast(
                            arg >> 6, arg & 63, now + stall,
                            kind == _MISS + 1 or kind == _MISS + 3)
                        if tracer is not None and tracer.active:
                            _add_miss_span(tracer, now + stall, latency,
                                           path, spans, "data", arg >> 6)
                        stall += latency
                        if path != PATH_CTE_HIT:
                            fig5_cte_misses += 1
                            if kind > _MISS + 1:
                                fig5_after_tlb += 1
                    elif kind == _WRITEBACK:
                        serve_writeback(arg >> 6, arg & 63, now + stall)
                    elif kind < _NOTE:
                        stall += lat_miss
                        latency, path, spans = serve_fast(
                            arg >> 15, (arg >> 9) & 63, now + stall, False)
                        if tracer is not None and tracer.active:
                            _add_miss_span(tracer, now + stall, latency,
                                           path, spans,
                                           ptb_kinds[kind - _PTB_MISS],
                                           arg >> 15, arg & 7)
                        stall += latency
                        if path != PATH_CTE_HIT:
                            fig5_cte_misses += 1
                            fig5_after_tlb += 1
                    elif do_note:
                        note_ptb(arg & 7, arg >> 3, table_ptb_at,
                                 kind != _NOTE)
            if tracer is not None:
                tracer.end_access(now + stall)
            now += stall * mlp
            index += 1
    finally:
        # Flush loop-local state back onto the simulator, also on error.
        clock.now_ns = now
        measured_from = max(start, state.warmup_end)
        if index > measured_from:
            state.measured += index - measured_from
        state.index = index
        sim._fig5_cte_misses = fig5_cte_misses
        sim._fig5_after_tlb = fig5_after_tlb


# ----------------------------------------------------------------------
# The multi-core loop: each access's ops served at once
# ----------------------------------------------------------------------

def run_cores(sim, warmup: int) -> float:
    """Replay ``sim``'s trace on its cores (a
    :class:`~repro.sim.multicore.MultiCoreSimulator`); statistics reset
    after the first ``warmup`` accesses, and the time then (the most
    advanced core's clock) is returned, or 0.0 if that point never comes.

    Core ``i`` replays accesses ``i, i + n, i + 2n, ...`` through its own
    :func:`front_end_step`, and the least-advanced core with work left
    runs next (the lowest index on a tie): that is how concurrent
    streams interleave at the shared controller.  An access's ops are
    served at once on its core's clock, with the back-end pass's
    semantics and no observer but ``sim.tlb_miss`` events.
    """
    cores = sim.cores
    num_cores = len(cores)
    trace = sim.workload.trace
    table = translation_table(sim.space.translation)
    kinds = bytearray()
    args = array("q")
    # The table is static: one walk memo for all cores.
    walk_cache: dict = {}
    walk_paths: dict = {}
    streams = []
    for core in cores:
        step = front_end_step(core.tlb, core.walker, core.hierarchy, None,
                              walk_cache, walk_paths, kinds, args, [0, 0])
        accesses = chain.from_iterable(
            _core_spans(trace, table, core.index, num_cores))
        streams.append((step, accesses.__next__))

    config = sim.system
    compute_ns = config.cycles_to_ns(sim.workload.compute_cycles_per_access)
    mlp = config.mlp_stall_factor
    lat = _hit_latencies(config)
    lat_miss = lat[2]
    code_stall = lat + (0.0,)
    controller = sim.controller
    serve_fast = controller.serve_l3_miss_fast
    serve_writeback = controller.serve_writeback
    note_ptb = controller.note_ptb_fetch
    do_note = (type(controller).note_ptb_fetch
               is not MemoryController.note_ptb_fetch)
    table_ptb_at = sim.table.ptb_at
    bus = sim.context.bus
    publish = bus.publish if bus.active else None
    reset_metrics = sim.context.reset_metrics

    clocks = [core.now_ns for core in cores]
    left = [len(range(i, len(trace), num_cores)) for i in range(num_cores)]
    ready = [(clocks[i], i) for i in range(num_cores) if left[i]]
    heapify(ready)
    executed = 0
    measure_start = 0.0
    while ready:
        now, i = ready[0]
        step, next_access = streams[i]
        if executed == warmup:
            reset_metrics()
            measure_start = max(clocks)
        executed += 1
        left[i] -= 1
        now += compute_ns
        vpn, block, is_write = next_access()
        code = step(vpn, vpn, block, is_write)
        if code != _EVENTS:
            stall = code_stall[code]
        else:
            stall = 0.0
            if publish is not None and _WALKED in kinds:
                publish("sim.tlb_miss", now, vpn=vpn, core=i)
            next_arg = iter(args).__next__
            for kind in kinds:
                if kind < _WALKED:
                    stall += lat[kind]
                    continue
                if kind == _WALKED or kind == _END:
                    continue
                arg = next_arg()
                if kind < _WRITEBACK:
                    stall += lat_miss
                    stall += serve_fast(
                        arg >> 6, arg & 63, now + stall,
                        kind == _MISS + 1 or kind == _MISS + 3)[0]
                elif kind == _WRITEBACK:
                    serve_writeback(arg >> 6, arg & 63, now + stall)
                elif kind < _NOTE:
                    stall += lat_miss
                    stall += serve_fast(arg >> 15, (arg >> 9) & 63,
                                        now + stall, False)[0]
                elif do_note:
                    note_ptb(arg & 7, arg >> 3, table_ptb_at, kind != _NOTE)
            del kinds[:]
            del args[:]
        now += stall * mlp
        clocks[i] = now
        if left[i]:
            heapreplace(ready, (now, i))
        else:
            heappop(ready)

    for core, clock in zip(cores, clocks):
        core.now_ns = clock
    return measure_start


def _core_spans(trace, table, first: int, num_cores: int):
    """Core ``first``'s accesses (``first, first + num_cores, ...``) as
    ``(vpn, global block, is_write)`` iterators, one per ``_SPAN``."""
    writes = trace.writes
    width = _SPAN * num_cores
    for start in range(first, len(trace), width):
        stop = start + width
        vpns, _, blocks = trace_columns(trace, False, table, start, stop,
                                        num_cores)
        yield zip(vpns, blocks, writes[start:stop:num_cores])


def _add_miss_span(tracer, start_ns: float, latency: float, path: str,
                   spans, kind: str, ppn: int,
                   level: Optional[int] = None) -> None:
    """Promote a served miss's stages into the open trace as an
    ``llc_miss`` span; ``kind`` is ``data`` or the PTB fetch's kind."""
    args = {"path": path, "kind": kind, "ppn": ppn,
            "in_ml2": path == PATH_ML2}
    if level is not None:
        args["level"] = level
    tracer.add_timeline(
        "llc_miss", ServiceTimeline.from_spans(start_ns, latency, spans),
        **args)
