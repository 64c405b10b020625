"""The DRAM system: banks, row buffers, queues, and scheduling effects.

This is a latency-accounting model rather than a cycle-accurate DRAM
simulator: each request is timestamped by the caller, banks keep open-row
state, each channel keeps a *decaying backlog* of unserved data-bus work
for bandwidth contention, and the FR-FCFS row-access cap of Table III is
modeled by forcing a precharge after ``row_cap`` consecutive same-row
hits.

The backlog model (rather than a ``busy_until`` horizon) keeps queueing
robust to request reordering: multi-core simulation delivers requests in
simulation order, not global time order, and a lagging core must not be
charged for bus work that other cores scheduled in its future.  Backlog
drains at wall-clock rate and each request queues behind whatever backlog
remains at its own timestamp.

Writes are posted: they consume bus time and disturb row buffers but a
read never waits for the full write. ``rank_targeted_writes`` models
TMCC's policy of putting only the written rank into write mode (Section
VI): with it on, writes to one rank inflate the shared-bus horizon less.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.stats import Counter, Histogram, RatioStat, StatGroup
from repro.dram.interleave import InterleavePolicy, SUBPAGE_EVERYWHERE
from repro.dram.timing import DDR4Timing


@dataclass(frozen=True)
class DRAMConfig:
    """Organization per Table III: one MC, one channel, 8 ranks."""

    num_mcs: int = 1
    channels_per_mc: int = 1
    ranks_per_channel: int = 8
    banks_per_rank: int = 4
    row_size: int = 8192
    timing: DDR4Timing = field(default_factory=DDR4Timing)
    interleave: InterleavePolicy = SUBPAGE_EVERYWHERE
    row_cap: int = 4
    rank_targeted_writes: bool = True
    #: Write bus occupancy multiplier when the whole channel enters write
    #: mode instead of one rank (used when rank_targeted_writes is False).
    channel_write_penalty: float = 2.0


@dataclass(slots=True)
class _Bank:
    open_row: int = -1
    consecutive_hits: int = 0
    #: Decaying backlog of this bank's access circuitry (same model as
    #: the channel bus): overlapping requests to one bank serialize even
    #: when the data bus is free; parallelism comes from the other banks.
    last_ns: float = 0.0
    backlog_ns: float = 0.0


@dataclass(frozen=True, slots=True)
class ReadResult:
    """Latency breakdown of one 64 B read: where its time went
    (channel queueing vs bank access) besides the total."""

    latency_ns: float
    queue_ns: float
    bank_ns: float
    row_hit: bool
    mc: int
    channel: int


class DRAMSystem:
    """All MCs/channels/banks behind one interface."""

    def __init__(self, config: Optional[DRAMConfig] = None) -> None:
        # ``None`` default (not ``DRAMConfig()``): a default argument is
        # evaluated once at import time and would be shared -- including
        # its mutable timing/interleave sub-objects -- by every
        # default-constructed system.
        config = config if config is not None else DRAMConfig()
        self.config = config
        total_channels = config.num_mcs * config.channels_per_mc
        self._banks: List[Dict[Tuple[int, int], _Bank]] = [
            {} for _ in range(total_channels)
        ]
        #: Per channel: (last observed time, unserved bus work in ns).
        self._backlog: List[List[float]] = [
            [0.0, 0.0] for _ in range(total_channels)
        ]
        self.stats = StatGroup("dram")
        #: With one MC and one channel the interleave route is the
        #: identity, so reads skip address decomposition.
        self._single_channel = total_channels == 1
        #: Bound per-channel busy counters and read stats, filled lazily so
        #: stat keys only exist once the matching request type happened.
        self._busy_counters: Dict[int, Counter] = {}
        self._read_stats: Optional[Tuple[Counter, RatioStat, Histogram]] = None
        #: Timing constants read_ns re-derives per call otherwise;
        #: snapshotted lazily (first read) so late config tweaks before
        #: the first access still take effect.
        self._read_consts: Optional[tuple] = None
        #: (queue_ns, bank_ns, row_hit, channel) of the latest read, for
        #: :meth:`read`'s breakdown.
        self._last_read: Optional[tuple] = None

    def _bank_at(self, channel_index: int, bank_key: Tuple[int, int]) -> _Bank:
        """Get-or-create without ``setdefault`` (which would allocate a
        throwaway :class:`_Bank` on every call)."""
        banks = self._banks[channel_index]
        bank = banks.get(bank_key)
        if bank is None:
            bank = banks[bank_key] = _Bank()
        return bank

    def _busy_counter(self, channel_index: int) -> Counter:
        counter = self._busy_counters.get(channel_index)
        if counter is None:
            counter = self._busy_counters[channel_index] = self.stats.counter(
                f"channel{channel_index}_busy_ns"
            )
        return counter

    def _enqueue(self, channel_index: int, now_ns: float,
                 service_ns: float) -> float:
        """Charge ``service_ns`` of bus work; returns the queue delay."""
        state = self._backlog[channel_index]
        if now_ns > state[0]:
            state[1] = max(0.0, state[1] - (now_ns - state[0]))
            state[0] = now_ns
        queue_ns = state[1]
        state[1] += service_ns
        return queue_ns

    # ------------------------------------------------------------------
    # Address decomposition
    # ------------------------------------------------------------------

    def _route(self, address: int) -> Tuple[int, int, int]:
        mc, channel, local = self.config.interleave.route(
            address, self.config.num_mcs, self.config.channels_per_mc
        )
        return mc, mc * self.config.channels_per_mc + channel, local

    def _bank_and_row(self, local_address: int) -> Tuple[Tuple[int, int], int]:
        """XOR-based (Skylake-like) rank/bank hash + row index."""
        config = self.config
        row = local_address // config.row_size
        rank_bits = (local_address >> 13) ^ (local_address >> 17)
        bank_bits = (local_address >> 15) ^ (local_address >> 19)
        rank = rank_bits % config.ranks_per_channel
        bank = bank_bits % config.banks_per_rank
        return (rank, bank), row

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def read(self, address: int, now_ns: float) -> ReadResult:
        """Serve a 64 B read issued at ``now_ns``; returns its latency
        with the queueing / bank-access breakdown."""
        latency = self.read_ns(address, now_ns)
        queue_ns, bank_ns, row_hit, channel_index = self._last_read
        return ReadResult(latency, queue_ns, bank_ns, row_hit,
                          channel_index // self.config.channels_per_mc,
                          channel_index)

    def read_ns(self, address: int, now_ns: float) -> float:
        """Serve a 64 B read issued at ``now_ns``; returns its latency.

        Row-buffer outcome (with the FR-FCFS row-access cap), channel bus
        queueing, and bank serialization, each as a decaying backlog.
        The controllers call this once per DRAM access; :meth:`read`
        adds the breakdown.
        """
        consts = self._read_consts
        if consts is None:
            config = self.config
            timing = config.timing
            consts = self._read_consts = (
                timing.row_hit_ns, timing.row_closed_ns,
                timing.row_conflict_ns, timing.burst_ns, timing.noc_ns,
                config.row_size, config.row_cap,
                config.ranks_per_channel, config.banks_per_rank,
                int(timing.burst_ns * 1000),
            )
        (row_hit_ns, row_closed_ns, row_conflict_ns, burst_ns, noc_ns,
         row_size, row_cap, ranks, banks_per_rank, busy_inc) = consts
        if self._single_channel:
            channel_index = 0
            local = address
        else:
            _, channel_index, local = self._route(address)
        row = local // row_size
        bank_key = (
            ((local >> 13) ^ (local >> 17)) % ranks,
            ((local >> 15) ^ (local >> 19)) % banks_per_rank,
        )
        banks = self._banks[channel_index]
        bank = banks.get(bank_key)
        if bank is None:
            bank = banks[bank_key] = _Bank()

        if bank.open_row == row and bank.consecutive_hits < row_cap:
            bank_ns = row_hit_ns
            bank.consecutive_hits += 1
            row_hit = True
        elif bank.open_row == -1:
            bank_ns = row_closed_ns
            bank.consecutive_hits = 1
            row_hit = False
        else:
            bank_ns = row_conflict_ns
            bank.consecutive_hits = 1
            row_hit = False
        bank.open_row = row

        state = self._backlog[channel_index]
        if now_ns > state[0]:
            drained = state[1] - (now_ns - state[0])
            state[1] = drained if drained > 0.0 else 0.0
            state[0] = now_ns
        queue_ns = state[1]
        state[1] = queue_ns + burst_ns

        if now_ns > bank.last_ns:
            drained = bank.backlog_ns - (now_ns - bank.last_ns)
            bank.backlog_ns = drained if drained > 0.0 else 0.0
            bank.last_ns = now_ns
        bank_wait = bank.backlog_ns
        bank.backlog_ns = bank_wait + bank_ns

        latency = queue_ns + bank_wait + bank_ns + noc_ns
        self._last_read = (queue_ns, bank_ns, row_hit, channel_index)

        stats = self._read_stats
        if stats is None:
            stats = self._read_stats = (
                self.stats.counter("reads"),
                self.stats.ratio("row_buffer"),
                self.stats.histogram("read_latency_ns"),
            )
        reads, row_buffer, latency_hist = stats
        reads.value += 1
        row_buffer.total += 1
        if row_hit:
            row_buffer.hits += 1
        latency_hist.count += 1
        latency_hist.total += latency
        counter = self._busy_counters.get(channel_index)
        if counter is None:
            counter = self._busy_counter(channel_index)
        counter.value += busy_inc
        return latency

    def write(self, address: int, now_ns: float) -> None:
        """Post a 64 B write; consumes bus time but returns immediately."""
        config = self.config
        timing = config.timing
        _, channel_index, local = self._route(address)
        bank_key, row = self._bank_and_row(local)
        bank = self._bank_at(channel_index, bank_key)
        if bank.open_row != row:
            bank.consecutive_hits = 0
        bank.open_row = row

        occupancy = timing.burst_ns
        if not config.rank_targeted_writes:
            occupancy *= config.channel_write_penalty
        self._enqueue(channel_index, now_ns, occupancy)

        self.stats.counter("writes").increment()
        self._busy_counter(channel_index).value += int(occupancy * 1000)

    # ------------------------------------------------------------------
    # Streaming transfers (page migrations, compressed-page reads)
    # ------------------------------------------------------------------

    def stream(self, address: int, num_blocks: int, now_ns: float,
               is_write: bool = False) -> None:
        """Account bus occupancy for a multi-block sequential transfer.

        Page migrations and compressed-page reads move dozens of blocks;
        their *latency* is modeled by the caller (decompressor pipeline,
        migration buffer), so here we only charge the data-bus time --
        respecting the paper's cap of at most 10 queue slots for
        page-granularity transfers by spreading them behind demand reads.
        """
        if num_blocks <= 0:
            return
        _, channel_index, _ = self._route(address)
        occupancy = self.config.timing.burst_ns * num_blocks
        self._enqueue(channel_index, now_ns, occupancy)
        counter = "stream_writes" if is_write else "stream_reads"
        self.stats.counter(counter).increment(num_blocks)
        self._busy_counter(channel_index).value += int(occupancy * 1000)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def bandwidth_utilization(self, elapsed_ns: float) -> float:
        """Fraction of total channel data-bus time spent busy."""
        if elapsed_ns <= 0:
            return 0.0
        total_channels = self.config.num_mcs * self.config.channels_per_mc
        busy = sum(
            self.stats.counter(f"channel{c}_busy_ns").value / 1000
            for c in range(total_channels)
        )
        return min(1.0, busy / (elapsed_ns * total_channels))

    @property
    def row_hit_rate(self) -> float:
        return self.stats.ratio("row_buffer").hit_rate
