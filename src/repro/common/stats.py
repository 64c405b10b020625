"""Statistics primitives used across the simulator and benchmarks.

The simulator reports everything the paper's figures need -- miss rates,
latency averages, access-type breakdowns -- via these small containers so
each component can expose a uniform ``stats()`` mapping.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    items = list(values)
    if not items:
        return 0.0
    return sum(items) / len(items)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; 0.0 for an empty sequence.

    The paper reports compression ratios and speedups as geometric means.
    Zero entries (a workload that recorded nothing, e.g. after a crash or
    an all-warm-up run) are skipped with a warning rather than poisoning
    the whole aggregate; negative entries are still a caller bug and
    raise.
    """
    items = list(values)
    if any(v < 0 for v in items):
        raise ValueError("geomean requires non-negative values")
    zeros = sum(1 for v in items if v == 0)
    if zeros:
        warnings.warn(f"geomean: skipping {zeros} zero value(s)",
                      stacklevel=2)
        items = [v for v in items if v > 0]
    if not items:
        return 0.0
    return math.exp(sum(math.log(v) for v in items) / len(items))


@dataclass(slots=True)
class Counter:
    """A named monotonically increasing event counter."""

    name: str
    value: int = 0

    def increment(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0


@dataclass(slots=True)
class RatioStat:
    """Tracks hits out of total lookups (TLB/cache/CTE hit rates)."""

    name: str
    hits: int = 0
    total: int = 0

    def record(self, hit: bool) -> None:
        self.total += 1
        if hit:
            self.hits += 1

    @property
    def misses(self) -> int:
        return self.total - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0

    @property
    def miss_rate(self) -> float:
        return 1.0 - self.hit_rate if self.total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.total = 0


@dataclass(slots=True)
class Histogram:
    """Accumulates samples as a count and a running sum; reports
    count/sum/mean.

    No sample is kept, so a histogram's memory does not grow with the
    run.  ``total`` adds each sample in arrival order, starting from 0.0,
    so ``mean`` does not depend on the interpreter's ``sum`` (Python 3.12
    compensates float sums; 3.10 and 3.11 fold left, as this does).  Hot
    callers bind the histogram and update both fields in place, as
    :meth:`record` does.
    """

    name: str
    count: int = 0
    total: float = 0.0

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0


class StatGroup:
    """A flat bag of named statistics with a uniform dump format.

    Components register counters/ratios/histograms once and callers render
    them with :meth:`as_dict`, which the benchmark harness prints as the
    rows of each reproduced table or figure.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._ratios: Dict[str, RatioStat] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def count_of(self, name: str) -> int:
        """A counter's value without creating it.

        Result builders read through this so that reporting a partial
        (truncated) result never changes which counters exist -- counter
        existence is part of checkpointed state, and resumed runs must
        stay bit-identical to uninterrupted ones.
        """
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def ratio(self, name: str) -> RatioStat:
        if name not in self._ratios:
            self._ratios[name] = RatioStat(name)
        return self._ratios[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def reset(self) -> None:
        for stat in (*self._counters.values(), *self._ratios.values(),
                     *self._histograms.values()):
            stat.reset()

    def as_dict(self) -> Mapping[str, float]:
        """Flatten all statistics into ``{name: value}`` for reporting."""
        out: Dict[str, float] = {}
        for counter in self._counters.values():
            out[counter.name] = counter.value
        for ratio in self._ratios.values():
            out[f"{ratio.name}.hits"] = ratio.hits
            out[f"{ratio.name}.total"] = ratio.total
            out[f"{ratio.name}.hit_rate"] = ratio.hit_rate
        for histogram in self._histograms.values():
            out[f"{histogram.name}.count"] = histogram.count
            out[f"{histogram.name}.mean"] = histogram.mean
        return out
