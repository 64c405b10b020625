"""Stage vocabulary, service timelines, and per-path stage accounting.

The paper's central claims are timeline claims: Figure 8 contrasts the
serial CTE-fetch -> data-fetch chain against TMCC's parallel speculative
fetch, Figure 18 decomposes average L3-miss latency, and Figure 19 splits
accesses across service paths.  Each controller serves a miss with flat
code (``serve_l3_miss_fast``) that reports the stages it ran as *span
tuples*::

    (name, start_ns, latency_ns, critical, wasted, slack_ns)

in the order the stages were issued.  ``critical`` marks serial stages
and parallel winners (the critical spans of a miss sum to its latency);
a losing parallel branch is non-critical and its last span carries the
time it finished before the winner as ``slack_ns``; ``wasted`` marks
discarded speculative work (TMCC's stale-CTE data fetch), whose cost is
real DRAM work even off the critical path.

:class:`StageAccounting` folds span tuples into per-path aggregates for
the Figure 8/18 reconstructions (``repro run --breakdown``) and into
per-stage latency histograms, and
:meth:`ServiceTimeline.from_spans` turns them into the timeline objects
observers consume (span tracing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.stats import Histogram, StatGroup

#: One stage of one miss: ``(name, start_ns, latency_ns, critical,
#: wasted, slack_ns)``.
SpanTuple = Tuple[str, float, float, bool, bool, float]

# ----------------------------------------------------------------------
# Canonical stage names (metric keys are ``controller.stage.<name>.*``)
# ----------------------------------------------------------------------

STAGE_CTE_FETCH = "cte_fetch"
STAGE_DATA_FETCH = "data_fetch"
STAGE_SPEC_DATA_FETCH = "spec_data_fetch"
STAGE_ML2_READ = "ml2_read"
STAGE_DECOMPRESS = "decompress"
STAGE_MIGRATION_STALL = "migration_stall"
STAGE_EVICT = "evict"
STAGE_EMERGENCY_EVICT = "emergency_evict"


@dataclass(slots=True)
class StageSpan:
    """One stage's occurrence on a service timeline."""

    name: str
    start_ns: float
    end_ns: float
    latency_ns: float
    #: On the critical path (serial stages and parallel winners).  The
    #: critical spans of a timeline sum to its total latency.
    critical: bool = True
    #: Time this stage's branch finished before the parallel winner --
    #: latency hidden under another branch, not paid by the miss.
    slack_ns: float = 0.0
    #: Speculative work that was discarded (e.g. TMCC's stale-CTE data
    #: fetch); the cost is real DRAM work even when off the critical path.
    wasted: bool = False

    def as_dict(self) -> Dict[str, object]:
        return {
            "stage": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "latency_ns": self.latency_ns,
            "critical": self.critical,
            "slack_ns": self.slack_ns,
            "wasted": self.wasted,
        }


@dataclass(slots=True)
class ServiceTimeline:
    """One served miss: every stage's placement plus the total."""

    start_ns: float
    total_ns: float
    spans: List[StageSpan]

    @classmethod
    def from_spans(cls, start_ns: float, total_ns: float,
                   spans: Sequence[SpanTuple]) -> "ServiceTimeline":
        """The timeline of a miss served at ``start_ns`` from its span
        tuples."""
        return cls(start_ns, total_ns, [
            StageSpan(name, start, start + latency, latency, critical,
                      slack, wasted)
            for name, start, latency, critical, wasted, slack in spans
        ])

    @property
    def end_ns(self) -> float:
        return self.start_ns + self.total_ns

    def stage_names(self) -> List[str]:
        return [span.name for span in self.spans]

    def span(self, name: str) -> Optional[StageSpan]:
        """The first span with ``name``, or None."""
        for item in self.spans:
            if item.name == name:
                return item
        return None

    def critical_ns(self) -> float:
        """Sum of critical-span latencies (equals ``total_ns``)."""
        return sum(span.latency_ns for span in self.spans if span.critical)

    def wasted_ns(self) -> float:
        return sum(span.latency_ns for span in self.spans if span.wasted)


# ----------------------------------------------------------------------
# Aggregation (Figure 8/18 reconstruction)
# ----------------------------------------------------------------------


@dataclass(slots=True)
class StageTotals:
    """Aggregated occurrences of one stage under one access path."""

    count: int = 0
    total_ns: float = 0.0
    #: Portion on the critical path -- what the miss actually paid.
    critical_ns: float = 0.0
    #: Discarded speculative work (full stage cost).
    wasted_ns: float = 0.0
    #: Completion time hidden under a longer parallel branch.
    slack_ns: float = 0.0

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.count if self.count else 0.0


class StageAccounting:
    """Per-path, per-stage aggregation over every serviced miss.

    Registered as a metrics source (``controller.breakdown.*``): calling
    the instance flattens into ``<path>.<stage>.mean_ns`` /
    ``.critical_ns`` / ``.count`` keys, plus each path's ``total_ns``.
    Every span also lands in the ``histograms`` group as
    ``<stage>.ns``; wasted speculative work and parallel slack get their
    own ``<stage>.wasted_ns`` / ``<stage>.slack_ns`` histograms, so the
    Figure 8 timelines can separate paid, discarded, and hidden time.
    ``reset()`` supports the warm-up boundary (the histogram group is
    reset by its own owner).
    """

    def __init__(self, histograms: StatGroup) -> None:
        #: path -> stage name -> (its StageTotals, its histograms in
        #: ``_bound_histograms``): what one span updates, behind one
        #: lookup.
        self._paths: Dict[str, Dict[str, Tuple[StageTotals, list]]] = {}
        self._path_total_ns: Dict[str, float] = {}
        self._path_count: Dict[str, int] = {}
        self.histograms = histograms
        #: stage name -> its [``.ns``, ``.wasted_ns``, ``.slack_ns``]
        #: histograms, each bound on first use (histogram creation order
        #: is observable).  Histograms reset in place, so the bindings
        #: stay valid across resets.
        self._bound_histograms: Dict[str, list] = {}

    def record(self, path: str, spans: Sequence[SpanTuple],
               total_ns: float) -> None:
        """Fold one miss (its span tuples and latency) into ``path``.

        Runs once per LLC miss, so histograms are bound once and updated
        in place.
        """
        stages = self._paths.get(path)
        if stages is None:
            stages = self._paths[path] = {}
        for name, _start, latency_ns, critical, wasted, slack_ns in spans:
            entry = stages.get(name)
            if entry is None:
                entry = stages[name] = (StageTotals(), self._bound(name))
            totals, bound = entry
            totals.count += 1
            totals.total_ns += latency_ns
            if critical:
                totals.critical_ns += latency_ns
            histogram = bound[0]
            histogram.count += 1
            histogram.total += latency_ns
            if slack_ns:
                totals.slack_ns += slack_ns
            if wasted:
                totals.wasted_ns += latency_ns
                histogram = self._bind(bound, 1, name, "wasted_ns")
                histogram.count += 1
                histogram.total += latency_ns
            elif slack_ns:
                histogram = self._bind(bound, 2, name, "slack_ns")
                histogram.count += 1
                histogram.total += slack_ns
        path_total = self._path_total_ns
        path_total[path] = path_total.get(path, 0.0) + total_ns
        path_count = self._path_count
        path_count[path] = path_count.get(path, 0) + 1

    def _bound(self, name: str) -> list:
        """``name``'s histograms, first binding ``<name>.ns``."""
        bound = self._bound_histograms.get(name)
        if bound is None:
            bound = self._bound_histograms[name] = [
                self.histograms.histogram(f"{name}.ns"), None, None]
        return bound

    def _bind(self, bound: list, index: int, name: str,
              suffix: str) -> Histogram:
        """``bound[index]``, first binding histogram ``<name>.<suffix>``."""
        histogram = bound[index]
        if histogram is None:
            histogram = bound[index] = self.histograms.histogram(
                f"{name}.{suffix}")
        return histogram

    # -- reading -------------------------------------------------------

    def paths(self) -> List[str]:
        return sorted(self._paths)

    def stages(self, path: str) -> Dict[str, StageTotals]:
        return {name: totals
                for name, (totals, _) in self._paths.get(path, {}).items()}

    def path_total_ns(self, path: str) -> float:
        return self._path_total_ns.get(path, 0.0)

    def path_count(self, path: str) -> int:
        return self._path_count.get(path, 0)

    def grand_total_ns(self) -> float:
        return sum(self._path_total_ns.values())

    def breakdown(self) -> List[Dict[str, object]]:
        """Rows for the ``--breakdown`` table, one per (path, stage).

        ``share`` is the stage's critical-path time as a fraction of all
        miss latency, so shares sum to ~1 across the whole table.
        """
        grand = self.grand_total_ns()
        rows: List[Dict[str, object]] = []
        for path in self.paths():
            for name, (totals, _) in sorted(self._paths[path].items()):
                rows.append({
                    "path": path,
                    "stage": name,
                    "count": totals.count,
                    "mean_ns": totals.mean_ns,
                    "critical_ns": totals.critical_ns,
                    "wasted_ns": totals.wasted_ns,
                    "slack_ns": totals.slack_ns,
                    "share": totals.critical_ns / grand if grand else 0.0,
                })
        return rows

    # -- metrics-source protocol ---------------------------------------

    def __call__(self) -> Mapping[str, float]:
        out: Dict[str, float] = {}
        for path in self.paths():
            out[f"{path}.total_ns"] = self._path_total_ns.get(path, 0.0)
            out[f"{path}.count"] = self._path_count.get(path, 0)
            for name, (totals, _) in sorted(self._paths[path].items()):
                prefix = f"{path}.{name}"
                out[f"{prefix}.count"] = totals.count
                out[f"{prefix}.mean_ns"] = totals.mean_ns
                out[f"{prefix}.critical_ns"] = totals.critical_ns
                if totals.wasted_ns:
                    out[f"{prefix}.wasted_ns"] = totals.wasted_ns
                if totals.slack_ns:
                    out[f"{prefix}.slack_ns"] = totals.slack_ns
        return out

    def reset(self) -> None:
        self._paths.clear()
        self._path_total_ns.clear()
        self._path_count.clear()
