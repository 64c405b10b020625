"""The zero-observer fast replay loop (``docs/performance.md``).

:func:`run_fast` replays a workload trace with state transitions
identical to ``Simulator.run`` + ``Simulator._one_access`` -- same stat
mutations, same RNG draw sequence, same DRAM bank/queue evolution, same
float accumulation order -- but with every observer hook removed and the
per-access object graph (``AccessResult``, ``MissResult``,
``ServiceTimeline``, ``ReadResult``) elided:

* the trace is preprocessed column-wise (vpn / TLB tag / block index
  arrays via numpy when available);
* the TLB and the L1 probe are inlined and batched; everything below
  runs through the same allocation-free entry points the observed loop
  wraps (``CacheHierarchy.access_fast``/``access_fast_miss``,
  ``MemoryController.serve_l3_miss_fast``), so the miss path has one
  definition;
* every invariant attribute lookup is hoisted out of the loop into a
  bound local, and cache-level latencies are precomputed per hit level.

Eligibility is gated by ``Simulator.fast_path_eligible`` (no tracer,
timeseries recorder, profiler, fault injector, supervisor, bus
subscriber, or virtualization).  The frozen ``--emit-json`` goldens
(``tests/sim/goldens``) and the fast-vs-slow comparison pin the
contract: if the two loops ever diverge observably, that is a bug in
this module.
"""

from __future__ import annotations

from functools import reduce as _reduce
from itertools import compress as _compress
from operator import add as _add

from repro.cache.sa_cache import DIRTY
from repro.core.base import MemoryController, PATH_CTE_HIT
from repro.sim.columns import trace_columns

#: Largest pre-classified chunk the batched front end will take at once.
_MAX_CHUNK = 512


def run_fast(sim, state) -> None:
    """Run ``sim``'s trace replay loop from ``state`` to completion.

    Mutates the same simulator state the slow loop would (clock, run
    progress, sim counters, every component) and returns nothing; the
    caller builds the result exactly as for a slow run.
    """
    trace = sim.workload.trace
    n = len(trace)
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

    huge_pages = sim.huge_pages
    vpns, tags, blocks, writes = trace_columns(trace, huge_pages)

    # Global-block column: ppn * 64 + block_index, or -1 for unmapped
    # vpns.  Translation is static while a run is in flight (same
    # invariant the walk-path memo below relies on), so the whole column
    # is precomputed once.
    if huge_pages:
        memo = {v: sim._translate_vpn(v) for v in set(vpns)}
    else:
        memo = sim._vpn_to_ppn
    memo_get = memo.get
    gblocks = [-1 if (p := memo_get(v)) is None else p * 64 + b
               for v, b in zip(vpns, blocks)]

    # Hoisted hot references (the slow loop re-resolves these per access).
    tlb = sim.tlb
    tlb_lru = tlb._lru
    tlb_slots = tlb_lru._slot
    tlb_move = tlb_lru.move_to_end
    tlb_insert = tlb_lru.insert_mru
    tlb_pop = tlb_lru.pop_lru
    tlb_entries = tlb.entries
    tlb_stats = tlb.stats
    controller = sim.controller
    serve_fast = controller.serve_l3_miss_fast
    serve_writeback = controller.serve_writeback
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
    lat_l1 = lat[0]
    walker = sim.walker
    walks_counter = walker.walks
    ptb_fetches_counter = walker.ptb_fetches
    pwc_first = walker.pwc.first_fetch_level
    pwc_fill = walker.pwc.fill
    walk_path = sim.table.walk_path
    table_ptb_at = sim.table.ptb_at
    # vpn -> ((level, ptb address) pairs, huge) | None for unmapped vpns.
    # The page table is static while a run is in flight, so the walk path
    # (PageWalker.walk minus its dynamic PWC interaction) memoizes; the
    # PWC start level, its LRU/stat updates, and the walker counters are
    # still replayed per walk.
    walk_cache: dict = {}
    note_ptb = controller.note_ptb_fetch
    # Base-class note_ptb_fetch is a no-op and table.ptb_at is side-effect
    # free, so both calls are skipped for controllers that don't harvest
    # embedded CTEs (everything but TMCC).
    do_note = (type(controller).note_ptb_fetch
               is not MemoryController.note_ptb_fetch)
    reset_stats = sim._reset_stats
    clock = sim.clock
    writebacks: list = []

    # Batched front end ingredients: membership predicates (all C-level),
    # the alternating (compute, stall * mlp) float increments of an
    # L1-hit access, and the adaptive chunk width.
    tlb_has = tlb_slots.__contains__
    l1_has = l1_index.__contains__
    nl_has = nl_outstanding.__contains__
    from_keys = dict.fromkeys
    batch_pairs = (compute_ns, lat_l1 * mlp) * _MAX_CHUNK
    chunk = 64   # outer (TLB-hit) pre-classification width
    lchunk = 8   # inner (L1-hit) window width

    now = clock.now_ns
    index = state.index
    warmup_end = state.warmup_end
    measured = state.measured
    tlb_misses = sim._tlb_misses
    l3_data_misses = sim._l3_data_misses
    fig5_cte_misses = sim._fig5_cte_misses
    fig5_after_tlb = sim._fig5_after_tlb

    try:
        while index < n:
            if index == warmup_end:
                reset_stats()
                tlb_misses = 0
                l3_data_misses = 0
                fig5_cte_misses = 0
                fig5_after_tlb = 0
                state.measure_start_ns = now

            # -- batched front end ---------------------------------------
            # Two-level chunk pre-classification.  Outer: the TLB-hit
            # prefix of the next chunk (nothing ever invalidates TLB
            # entries mid-run, and hits never change TLB membership, so
            # the prefix stays valid however the accesses below unfold);
            # its lookups/fills collapse to bulk stat sums plus one
            # recency move per distinct tag (last occurrence wins).
            # Inner: within the TLB-hit run, all-(mapped ∧ L1 hit)
            # windows batch the same way; L1 *membership* only changes on
            # a miss, so each window is valid up to its first predicted
            # miss and the residue access runs through a per-access twin
            # of the data tail, after which the window re-classifies.
            # Chunks never straddle the warmup boundary.  Final state is
            # identical to the scalar loop's: recency moves collapse to
            # each key's last occurrence, stats are bulk sums, and the
            # clock advances by the same alternating float adds in the
            # same order.
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
                            for b in reversed(from_keys(
                                    reversed(seg_blocks))):
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
                            now = _reduce(_add, batch_pairs[:2 * q], now)
                            if index >= warmup_end:
                                measured += q
                            index += q
                        if index < stop:
                            # Residue inside a TLB-hit run: an unmapped
                            # vpn or (far more often) an L1 miss.  Twin
                            # of the data tail below, with the TLB work
                            # already done and tlb_missed == False.
                            now += compute_ns
                            stall = 0.0
                            block = gblocks[index]
                            if block >= 0:
                                is_write = writes[index]
                                if prefetch_on and block in nl_outstanding:
                                    nl_outstanding[block] = True
                                l1_stats.total += 1
                                if block in l1_index:
                                    l1_stats.hits += 1
                                    order = l1_orders[block & l1_mask]
                                    if order[-1] != block:
                                        order.remove(block)
                                        order.append(block)
                                    if is_write:
                                        l1_index[block] |= DIRTY
                                    stall += lat_l1
                                else:
                                    del writebacks[:]
                                    hit_level = access_miss(
                                        block, is_write, False, writebacks)
                                    stall += lat[hit_level]
                                    if hit_level == 3:
                                        l3_data_misses += 1
                                        latency, path, _ = serve_fast(
                                            block >> 6, block & 63,
                                            now + stall, is_write)
                                        stall += latency
                                        if path != PATH_CTE_HIT:
                                            fig5_cte_misses += 1
                                    if writebacks:
                                        drain_at = now + stall
                                        for block in writebacks:
                                            serve_writeback(
                                                block >> 6, block & 63,
                                                drain_at)
                            now += stall * mlp
                            if index >= warmup_end:
                                measured += 1
                            index += 1
                    if tp == span:
                        continue
                    # else: the access at ``index`` is a known TLB miss;
                    # fall through to the full per-access twin.

            now += compute_ns

            vpn = vpns[index]
            tag = tags[index]
            stall = 0.0

            # -- TLB lookup (TLB.lookup + TLB.fill, inlined) ------------
            tlb_stats.total += 1
            if tag in tlb_slots:
                tlb_stats.hits += 1
                tlb_move(tag)
                tlb_missed = False
            else:
                tlb_missed = True
                tlb_misses += 1
                # -- page walk (Simulator._page_walk + PageWalker.walk,
                # inlined with the static walk path memoized) -----------
                walks_counter.value += 1
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
                        hit_level = access_fast(ptb_address >> 6, False,
                                                True, writebacks)
                        stall += lat[hit_level]
                        if hit_level == 3:
                            latency, path, _ = serve_fast(
                                ptb_address >> 12, (ptb_address >> 6) & 63,
                                now + stall, False)
                            stall += latency
                            if path != PATH_CTE_HIT:
                                fig5_cte_misses += 1
                                fig5_after_tlb += 1
                        if writebacks:
                            drain_at = now + stall
                            for block in writebacks:
                                serve_writeback(block >> 6, block & 63,
                                                drain_at)
                        if do_note:
                            note_ptb(level, ptb_address,
                                     table_ptb_at(ptb_address),
                                     walk_huge and level == 2)
                if tag in tlb_slots:
                    tlb_move(tag)
                else:
                    if len(tlb_slots) >= tlb_entries:
                        tlb_pop()
                    tlb_insert(tag, 0)

            # -- data access (Simulator._one_access tail, inlined; the
            # L1-hit case is CacheHierarchy.access_fast unrolled) --------
            block = gblocks[index]
            if block >= 0:
                is_write = writes[index]
                if prefetch_on and block in nl_outstanding:
                    nl_outstanding[block] = True
                l1_stats.total += 1
                if block in l1_index:
                    l1_stats.hits += 1
                    order = l1_orders[block & l1_mask]
                    if order[-1] != block:
                        order.remove(block)
                        order.append(block)
                    if is_write:
                        l1_index[block] |= DIRTY
                    stall += lat_l1
                else:
                    del writebacks[:]
                    hit_level = access_miss(block, is_write, False,
                                            writebacks)
                    stall += lat[hit_level]
                    if hit_level == 3:
                        l3_data_misses += 1
                        latency, path, _ = serve_fast(block >> 6, block & 63,
                                                   now + stall, is_write)
                        stall += latency
                        if path != PATH_CTE_HIT:
                            fig5_cte_misses += 1
                            if tlb_missed:
                                fig5_after_tlb += 1
                    if writebacks:
                        drain_at = now + stall
                        for block in writebacks:
                            serve_writeback(block >> 6, block & 63, drain_at)

            now += stall * mlp
            if index >= warmup_end:
                measured += 1
            index += 1
    finally:
        # Flush loop-local state back onto the simulator, also on error.
        clock.now_ns = now
        state.index = index
        state.measured = measured
        sim._tlb_misses = tlb_misses
        sim._l3_data_misses = l3_data_misses
        sim._fig5_cte_misses = fig5_cte_misses
        sim._fig5_after_tlb = fig5_after_tlb
