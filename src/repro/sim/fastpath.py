"""The zero-observer fast replay loop (``docs/performance.md``).

:func:`run_fast` replays a workload trace with state transitions
identical to ``Simulator.run`` + ``Simulator._one_access`` -- same stat
mutations, same RNG draw sequence, same DRAM bank/queue evolution, same
float accumulation order -- but with every observer hook removed and the
per-access object graph (``AccessResult``, ``MissResult``,
``ServiceTimeline``, ``ReadResult``) elided.  It runs in two passes:

* The **front-end pass** has no clock.  It runs the TLB, the page-walk
  cache and walk, and L1-L3 with their prefetchers, and records what the
  memory controller must see as a :class:`FrontEndRecording`: flat
  columns holding each access's hit levels, whether its TLB missed, its
  PTB fetches, LLC-miss blocks and dirty writebacks, in issue order, plus
  the front end's end state.  The trace is preprocessed column-wise
  (numpy when available); the TLB and the L1 probe are inlined and
  batched; misses run through the entry points the observed loop wraps
  (``CacheHierarchy.access_fast``/``access_fast_miss``).
* The **back-end pass** owns all time arithmetic.  It replays the
  recording through ``MemoryController.serve_l3_miss_fast``,
  ``serve_writeback`` and ``note_ptb_fetch`` in the slow loop's float
  order, resets statistics at the warm-up boundary, and finally loads the
  recorded end state into the front end (in place: the metrics registry
  keeps its stat objects).

No controller touches the TLB, the walker or the caches, so the front end
of a trace is the same under every controller.  A fresh simulator's
recording is kept on its :class:`~repro.sim.space.AddressSpace` -- the
page table and translation it walked, shared by every simulator on the
workload -- and the next fresh simulator on the same space skips the
front-end pass when the recording's key (TLB entries, cache
configuration, warm-up point, trace length) matches its own.  A
simulator whose front end is already warm (a second ``run()``) runs both
passes and neither reads nor writes the recording.

Eligibility is gated by ``Simulator.fast_path_eligible`` (no tracer,
timeseries recorder, profiler, fault injector, supervisor, bus
subscriber, or virtualization); other runs never see a recording.  The
frozen ``--emit-json`` goldens (``tests/sim/goldens``) and the
fast-vs-slow comparison pin the contract: if the two loops ever diverge
observably, that is a bug in this module.
"""

from __future__ import annotations

from array import array
from functools import reduce as _reduce
from itertools import chain, compress as _compress, islice, repeat
from operator import add as _add
from typing import NamedTuple

from repro.cache.sa_cache import DIRTY
from repro.common.lru import IntLRU
from repro.core.base import MemoryController, PATH_CTE_HIT
from repro.sim.columns import trace_columns

#: Largest pre-classified chunk the batched front end will take at once.
_MAX_CHUNK = 512

# Per-access codes.  0-2: a TLB hit whose data access hit L1/L2/L3 and
# wrote nothing back; its stall is that level's latency.
_UNMAPPED = 3  # a TLB hit on an unmapped vpn: no stall
_EVENTS = 4    # anything else: the access's ops are in the op stream

# Op kinds.  0-2: a cache access that hit that level.
_MISS = 3       # + is_write + 2 * after a TLB miss: LLC miss of block arg
_WRITEBACK = 7  # dirty LLC victim arg drains
_NOTE = 8       # + huge leaf: PTB fetch, arg = ptb_address << 3 | level
_END = 10       # closes an access's ops


class FrontEndRecording(NamedTuple):
    """One front-end pass over a trace, replayable under any controller."""

    key: tuple          # see _key
    codes: bytearray    # per access: a hit level, _UNMAPPED or _EVENTS
    kinds: bytearray    # ops of the _EVENTS accesses, each closed by _END
    args: array         # the args of the ops of kind _MISS and above
    end_state: tuple    # (contents, statistics) after the pass


def run_fast(sim, state) -> None:
    """Run ``sim``'s trace replay loop from ``state`` to completion.

    Mutates the same simulator state the slow loop would (clock, run
    progress, sim counters, every component) and returns nothing; the
    caller builds the result exactly as for a slow run.
    """
    space = sim.space
    fresh = state.index == 0 and _cold(sim)
    recording = space.front_end if fresh else None
    reused = (recording is not None
              and recording.key == _key(sim, state.warmup_end))
    if not reused:
        recording = _front_end_pass(sim, state)
        if fresh:
            space.front_end = recording
    try:
        _back_end_pass(sim, state, recording)
    finally:
        # The back end's warm-up reset zeroed the front end's statistics.
        contents, stats = recording.end_state
        if reused:
            _load_contents(sim, contents)
        _load(_stat_parts(sim), stats)


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
    """``(object, attribute names)`` of the front end's statistics and
    the simulator's two front-end counters."""
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
    than cache lines: TLB and PWC recency, prefetcher tables."""
    hierarchy = sim.hierarchy
    parts = [(sim.tlb._lru, IntLRU.__slots__),
             (hierarchy._next_line, ("_outstanding", "_recent_results",
                                     "_enabled", "_cooloff")),
             (hierarchy._stride_l1, ("_table",)),
             (hierarchy._stride_l2, ("_table",))]
    parts += [(lru, IntLRU.__slots__)
              for lru in sim.walker.pwc._caches.values()]
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

def _front_end_pass(sim, state) -> FrontEndRecording:
    """Replay the front end from ``state.index``, recording the stream."""
    trace = sim.workload.trace
    n = len(trace)
    vpns, tags, blocks, writes = trace_columns(trace, sim.huge_pages)

    # Global-block column: ppn * 64 + block_index, or -1 for unmapped
    # vpns.  Translation is static (same invariant the walk-path memo
    # below relies on), so the whole column is precomputed once.
    memo_get = sim.space.translation.get
    gblocks = [-1 if (p := memo_get(v)) is None else p * 64 + b
               for v, b in zip(vpns, blocks)]
    del blocks

    # Hoisted hot references (the slow loop re-resolves these per access).
    tlb = sim.tlb
    tlb_lru = tlb._lru
    tlb_slots = tlb_lru._slot
    tlb_move = tlb_lru.move_to_end
    tlb_insert = tlb_lru.insert_mru
    tlb_pop = tlb_lru.pop_lru
    tlb_entries = tlb.entries
    tlb_stats = tlb.stats
    hierarchy = sim.hierarchy
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
    walker = sim.walker
    walks_counter = walker.walks
    ptb_fetches_counter = walker.ptb_fetches
    pwc_first = walker.pwc.first_fetch_level
    pwc_fill = walker.pwc.fill
    walk_path = sim.table.walk_path
    # vpn -> ((level, ptb address) pairs, huge) | None for unmapped vpns.
    # The page table is static while a run is in flight, so the walk path
    # (PageWalker.walk minus its dynamic PWC interaction) memoizes; the
    # PWC start level, its LRU/stat updates, and the walker counters are
    # still replayed per walk.
    walk_cache: dict = {}
    # The front end's statistics, which the warm-up boundary resets.
    front_stats = [obj for obj, _ in _stat_parts(sim) if obj is not sim]
    writebacks: list = []

    codes = bytearray(n)  # 0: an L1 hit after a TLB hit, the common case
    kinds = bytearray()
    args = array("q")
    kind_append = kinds.append
    arg_append = args.append

    def data(index: int, tlb_missed: bool) -> bool:
        """Access ``index``'s data block (Simulator._one_access tail; the
        L1 hit is CacheHierarchy.access_fast unrolled): record it and
        close the access; True when it missed the LLC."""
        block = gblocks[index]
        if block >= 0:
            is_write = writes[index]
            if prefetch_on and block in nl_outstanding:
                nl_outstanding[block] = True
            l1_stats.total += 1
            if block not in l1_index:
                del writebacks[:]
                level = access_miss(block, is_write, False, writebacks)
                if level < 3 and not writebacks and not tlb_missed:
                    codes[index] = level
                    return False
                if level < 3:
                    kind_append(level)
                else:
                    kind_append(_MISS + is_write + 2 * tlb_missed)
                    arg_append(block)
                if writebacks:
                    kinds.extend(repeat(_WRITEBACK, len(writebacks)))
                    args.extend(writebacks)
                kind_append(_END)
                codes[index] = _EVENTS
                return level == 3
            l1_stats.hits += 1
            order = l1_orders[block & l1_mask]
            if order[-1] != block:
                order.remove(block)
                order.append(block)
            if is_write:
                l1_index[block] |= DIRTY
            if tlb_missed:
                kind_append(0)
        if tlb_missed:
            kind_append(_END)
            codes[index] = _EVENTS
        elif block < 0:
            codes[index] = _UNMAPPED
        return False

    # Batched front end ingredients: membership predicates (all C-level)
    # and the adaptive chunk widths.
    tlb_has = tlb_slots.__contains__
    l1_has = l1_index.__contains__
    nl_has = nl_outstanding.__contains__
    from_keys = dict.fromkeys
    chunk = 64   # outer (TLB-hit) pre-classification width
    lchunk = 8   # inner (L1-hit) window width

    index = state.index
    warmup_end = state.warmup_end
    tlb_misses = sim._tlb_misses
    l3_data_misses = sim._l3_data_misses

    while index < n:
        if index == warmup_end:
            for stat in front_stats:
                stat.reset()
            tlb_misses = 0
            l3_data_misses = 0

        # -- batched front end -------------------------------------------
        # Two-level chunk pre-classification.  Outer: the TLB-hit prefix
        # of the next chunk (nothing ever invalidates TLB entries mid-run,
        # and hits never change TLB membership, so the prefix stays valid
        # however the accesses below unfold); its lookups/fills collapse
        # to bulk stat sums plus one recency move per distinct tag (last
        # occurrence wins).  Inner: within the TLB-hit run, all-(mapped ∧
        # L1 hit) windows batch the same way; L1 *membership* only changes
        # on a miss, so each window is valid up to its first predicted
        # miss and the residue access runs through ``data``, after which
        # the window re-classifies.  Chunks never straddle the warmup
        # boundary.  Final state is identical to the scalar loop's:
        # recency moves collapse to each key's last occurrence and stats
        # are bulk sums.  L1 hits after TLB hits keep their zero code.
        end = index + chunk
        if index < warmup_end < end:
            end = warmup_end
        if end > n:
            end = n
        span = end - index
        if span >= 2:
            seg_tags = tags[index:end]
            tflags = list(map(tlb_has, seg_tags))
            try:
                tp = tflags.index(False)
            except ValueError:
                tp = span
            # Streak-adaptive outer width.
            chunk = 2 * tp + 2
            if chunk > _MAX_CHUNK:
                chunk = _MAX_CHUNK
            elif chunk < 16:
                chunk = 16
            if tp:
                tlb_stats.total += tp
                tlb_stats.hits += tp
                for t in reversed(from_keys(
                        reversed(seg_tags[:tp] if tp != span
                                 else seg_tags))):
                    tlb_move(t)
                stop = index + tp
                while index < stop:
                    wend = index + lchunk
                    if wend > stop:
                        wend = stop
                    seg_blocks = gblocks[index:wend]
                    lflags = list(map(l1_has, seg_blocks))
                    try:
                        q = lflags.index(False)
                    except ValueError:
                        q = wend - index
                    lchunk = 2 * q + 2
                    if lchunk > 64:
                        lchunk = 64
                    elif lchunk < 4:
                        lchunk = 4
                    if q:
                        if q != len(seg_blocks):
                            seg_blocks = seg_blocks[:q]
                        l1_stats.total += q
                        l1_stats.hits += q
                        for b in reversed(from_keys(reversed(seg_blocks))):
                            order = l1_orders[b & l1_mask]
                            if order[-1] != b:
                                order.remove(b)
                                order.append(b)
                        if prefetch_on and nl_outstanding:
                            for b in filter(nl_has, seg_blocks):
                                nl_outstanding[b] = True
                        for b in _compress(seg_blocks,
                                           writes[index:index + q]):
                            l1_index[b] |= DIRTY
                        index += q
                    if index < stop:
                        # Residue inside a TLB-hit run: an unmapped vpn
                        # or (far more often) an L1 miss.
                        if data(index, False):
                            l3_data_misses += 1
                        index += 1
                if tp == span:
                    continue
                # else: the access at ``index`` is a known TLB miss;
                # fall through to the full per-access path.

        # -- TLB lookup (TLB.lookup + TLB.fill, inlined) ----------------
        tag = tags[index]
        tlb_stats.total += 1
        if tag in tlb_slots:
            tlb_stats.hits += 1
            tlb_move(tag)
            tlb_missed = False
        else:
            tlb_missed = True
            tlb_misses += 1
            # -- page walk (Simulator._page_walk + PageWalker.walk,
            # inlined with the static walk path memoized) ---------------
            walks_counter.value += 1
            vpn = vpns[index]
            if vpn in walk_cache:
                cached = walk_cache[vpn]
            else:
                try:
                    path = walk_path(vpn)
                except KeyError:
                    cached = walk_cache[vpn] = None
                else:
                    cached = walk_cache[vpn] = (
                        tuple((lvl, addr) for lvl, addr, _ in path),
                        path[-1][0] == 2,
                    )
            if cached is not None:
                path_pairs, walk_huge = cached
                start_level = pwc_first(vpn)
                fetches = [pair for pair in path_pairs
                           if pair[0] <= start_level]
                ptb_fetches_counter.value += len(fetches)
                pwc_fill(vpn)
                for level, ptb_address in fetches:
                    del writebacks[:]
                    block = ptb_address >> 6
                    hit_level = access_fast(block, False, True, writebacks)
                    if hit_level < 3:
                        kind_append(hit_level)
                    else:
                        kind_append(_MISS + 2)
                        arg_append(block)
                    if writebacks:
                        kinds.extend(repeat(_WRITEBACK, len(writebacks)))
                        args.extend(writebacks)
                    kind_append(_NOTE + (walk_huge and level == 2))
                    arg_append(ptb_address << 3 | level)
            if tag in tlb_slots:
                tlb_move(tag)
            else:
                if len(tlb_slots) >= tlb_entries:
                    tlb_pop()
                tlb_insert(tag, 0)

        if data(index, tlb_missed):
            l3_data_misses += 1
        index += 1

    sim._tlb_misses = tlb_misses
    sim._l3_data_misses = l3_data_misses
    end_state = (_save_contents(sim), _save(_stat_parts(sim)))
    return FrontEndRecording(_key(sim, warmup_end), codes, kinds, args,
                             end_state)


# ----------------------------------------------------------------------
# Back-end pass: the clock and the memory controller
# ----------------------------------------------------------------------

def _back_end_pass(sim, state, recording: FrontEndRecording) -> None:
    """Replay ``recording`` through ``sim``'s controller from ``state``."""
    config = sim.system
    compute_ns = config.cycles_to_ns(sim.workload.compute_cycles_per_access)
    mlp = config.mlp_stall_factor

    # Per-hit-level stall latencies: same integer cycle counts as the
    # slow path feeds cycles_to_ns, so the floats are bit-identical.
    cache_config = sim.hierarchy.config
    l1_cycles = cache_config.l1_latency
    l2_cycles = l1_cycles + cache_config.l2_latency
    l3_cycles = l2_cycles + cache_config.l3_latency
    lat = (config.cycles_to_ns(l1_cycles), config.cycles_to_ns(l2_cycles),
           config.cycles_to_ns(l3_cycles), config.cycles_to_ns(l3_cycles))
    lat_miss = lat[3]
    # Clock step after the compute step of an access without ops, by
    # code: ``stall * mlp`` with stall = 0.0 + its level's latency.
    step = (lat[0] * mlp, lat[1] * mlp, lat[2] * mlp, 0.0 * mlp).__getitem__
    computes = repeat(compute_ns)

    controller = sim.controller
    serve_fast = controller.serve_l3_miss_fast
    serve_writeback = controller.serve_writeback
    note_ptb = controller.note_ptb_fetch
    # Base-class note_ptb_fetch is a no-op and table.ptb_at is side-effect
    # free, so both calls are skipped for controllers that don't harvest
    # embedded CTEs (everything but TMCC).
    do_note = (type(controller).note_ptb_fetch
               is not MemoryController.note_ptb_fetch)
    table_ptb_at = sim.table.ptb_at
    reset_stats = sim._reset_stats
    clock = sim.clock
    codes = recording.codes
    find = codes.find
    kinds = recording.kinds
    find_end = kinds.find
    next_arg = iter(recording.args).__next__

    n = len(codes)
    now = clock.now_ns
    start = index = state.index
    warmup_end = state.warmup_end
    fig5_cte_misses = sim._fig5_cte_misses
    fig5_after_tlb = sim._fig5_after_tlb
    op = 0

    try:
        while index < n:
            if index == warmup_end:
                reset_stats()
                fig5_cte_misses = 0
                fig5_after_tlb = 0
                state.measure_start_ns = now
            limit = warmup_end if index < warmup_end < n else n
            stop = find(_EVENTS, index, limit)
            if stop < 0:
                stop = limit
            if stop > index:
                # Accesses without ops: the slow loop's two clock adds
                # each, in order.
                now = _reduce(_add, chain.from_iterable(
                    zip(computes, map(step, codes[index:stop]))), now)
                index = stop
                continue

            now += compute_ns
            stall = 0.0
            end = find_end(_END, op)
            for kind in kinds[op:end]:
                if kind < _MISS:
                    stall += lat[kind]
                    continue
                arg = next_arg()
                if kind < _WRITEBACK:
                    stall += lat_miss
                    latency, path, _ = serve_fast(
                        arg >> 6, arg & 63, now + stall,
                        kind == _MISS + 1 or kind == _MISS + 3)
                    stall += latency
                    if path != PATH_CTE_HIT:
                        fig5_cte_misses += 1
                        if kind > _MISS + 1:
                            fig5_after_tlb += 1
                elif kind == _WRITEBACK:
                    serve_writeback(arg >> 6, arg & 63, now + stall)
                elif do_note:
                    ptb_address = arg >> 3
                    note_ptb(arg & 7, ptb_address, table_ptb_at(ptb_address),
                             kind != _NOTE)
            op = end + 1
            now += stall * mlp
            index += 1
    finally:
        # Flush loop-local state back onto the simulator, also on error.
        clock.now_ns = now
        measured_from = max(start, warmup_end)
        if index > measured_from:
            state.measured += index - measured_from
        state.index = index
        sim._fig5_cte_misses = fig5_cte_misses
        sim._fig5_after_tlb = fig5_after_tlb
