"""Declarative latency algebra: the spec of an LLC-miss timeline.

The paper's miss paths are timeline claims: Figure 8 contrasts the
serial CTE-fetch -> data-fetch chain against TMCC's parallel speculative
fetch.  This module states those paths as small expression trees built
from

- :class:`Stage` -- one named unit of work with a latency (a constant, or
  a callable evaluated with the stage's start time),
- :func:`serial` -- stages back to back (latencies sum left to right),
- :func:`parallel` -- stages racing (latency is the max; losing branches
  are non-critical and their hidden time is attributed as *slack* on the
  branch's last span; ``wasted`` stages keep their full cost visible),
- :func:`cond` -- build-time selection between alternative sub-paths,
- :func:`defer` -- a sub-pipeline built from its own start time.

:func:`evaluate` walks the tree once, in declaration order, and returns
the :class:`~repro.core.pipeline.ServiceTimeline` it implies.  The
controllers serve misses with flat code that emits the same spans
directly; ``tests/core/test_miss_timelines.py`` checks their timelines
against this algebra.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.core.pipeline import ServiceTimeline, StageSpan

#: A stage's cost: a non-negative constant, or a callable receiving the
#: stage's absolute start time (ns) and returning the latency (ns).
Latency = Union[float, int, Callable[[float], float]]


class PipelineNode:
    """Base class of the composition tree."""

    def _evaluate(self, base_ns: float, spans: List[StageSpan]) -> float:
        """Append this node's spans, starting at ``base_ns``; return the
        node's duration in ns."""
        raise NotImplementedError


class Stage(PipelineNode):
    """One named unit of work.

    ``latency`` is either a constant or a callable invoked with the
    stage's absolute start time.  ``record=False`` runs the stage without
    emitting a span -- bookkeeping that takes no foreground time.
    """

    __slots__ = ("name", "latency", "wasted", "record")

    def __init__(self, name: str, latency: Latency, wasted: bool = False,
                 record: bool = True) -> None:
        if not name:
            raise ValueError("stage name must be non-empty")
        if not callable(latency) and latency < 0:
            raise ValueError(f"stage {name!r} latency must be non-negative")
        self.name = name
        self.latency = latency
        self.wasted = wasted
        self.record = record

    def _evaluate(self, base_ns: float, spans: List[StageSpan]) -> float:
        latency = self.latency
        if callable(latency):
            latency = latency(base_ns)
        if self.record:
            spans.append(StageSpan(self.name, base_ns, base_ns + latency,
                                   latency, wasted=self.wasted))
        return latency


class _Serial(PipelineNode):
    __slots__ = ("children",)

    def __init__(self, children: Sequence[PipelineNode]) -> None:
        self.children = list(children)

    def _evaluate(self, base_ns: float, spans: List[StageSpan]) -> float:
        total = 0.0
        for child in self.children:
            total += child._evaluate(base_ns + total, spans)
        return total


class _Parallel(PipelineNode):
    __slots__ = ("children",)

    def __init__(self, children: Sequence[PipelineNode]) -> None:
        if not children:
            raise ValueError("parallel() needs at least one branch")
        self.children = list(children)

    def _evaluate(self, base_ns: float, spans: List[StageSpan]) -> float:
        durations: List[float] = []
        branch_slices: List[Tuple[int, int]] = []
        for child in self.children:
            mark = len(spans)
            durations.append(child._evaluate(base_ns, spans))
            branch_slices.append((mark, len(spans)))
        duration = max(durations)
        winner = durations.index(duration)
        for index, (lo, hi) in enumerate(branch_slices):
            if index == winner:
                continue
            slack = duration - durations[index]
            for span in spans[lo:hi]:
                span.critical = False
            if hi > lo and slack > 0.0:
                spans[hi - 1].slack_ns += slack
        return duration


class _Deferred(PipelineNode):
    __slots__ = ("builder",)

    def __init__(self, builder: Callable[[float], PipelineNode]) -> None:
        self.builder = builder

    def _evaluate(self, base_ns: float, spans: List[StageSpan]) -> float:
        return as_node(self.builder(base_ns))._evaluate(base_ns, spans)


def as_node(node: PipelineNode) -> PipelineNode:
    if isinstance(node, PipelineNode):
        return node
    raise TypeError(f"not a pipeline node: {node!r}")


def serial(*children: PipelineNode) -> PipelineNode:
    """Stages back to back; the duration is the left-to-right sum."""
    return _Serial([as_node(child) for child in children])


def parallel(*children: PipelineNode) -> PipelineNode:
    """Branches racing from a common start; the duration is the max."""
    return _Parallel([as_node(child) for child in children])


def cond(condition: object, then: PipelineNode,
         otherwise: Optional[PipelineNode] = None) -> PipelineNode:
    """Build-time selection: ``then`` when truthy, else ``otherwise``
    (an empty pipeline when omitted)."""
    if condition:
        return as_node(then)
    if otherwise is None:
        return _Serial([])
    return as_node(otherwise)


def defer(builder: Callable[[float], PipelineNode]) -> PipelineNode:
    """A sub-pipeline built at evaluation time from its own start time."""
    return _Deferred(builder)


def evaluate(node: PipelineNode, start_ns: float = 0.0) -> ServiceTimeline:
    """Run the pipeline once; returns the recorded timeline."""
    spans: List[StageSpan] = []
    total = as_node(node)._evaluate(start_ns, spans)
    return ServiceTimeline(start_ns=start_ns, total_ns=total, spans=spans)
