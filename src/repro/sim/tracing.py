"""Causal span tracing: promote simulator work into linked span trees.

Aggregate metrics say *how much* translation latency a run paid; spans
say *where each nanosecond went* on individual accesses.  Every sampled
trace access becomes one **trace**: a root ``access`` span whose
children are the page walk, each LLC-miss service (with the miss's
evaluated :class:`~repro.core.pipeline.ServiceTimeline` promoted into
per-stage child spans, preserving the parallel structure of TMCC's
speculative verify), and instant markers for migrations and injected
faults.  Spans carry ``trace_id`` / ``span_id`` / ``parent_id`` linkage,
so consumers can rebuild the causal tree without relying on timestamps.

Three design constraints, in order:

1. **Zero cost when off.**  The simulator's hooks are ``is None``
   checks; nothing here touches RNG streams or modeled time, so runs
   with tracing on emit bit-identical metrics to runs with it off.
2. **Deterministic sampling.**  ``sample_every=N`` records every Nth
   access by counter -- a pure function of the trace, not of randomness
   or wall clock.
3. **Bounded memory.**  Retained spans are capped (``buffer_spans``)
   with head/tail retention at whole-trace granularity: the first half
   of the budget keeps the earliest sampled traces (warm-up behaviour,
   first-touch misses), the rest is a ring of the latest (steady
   state).  Mid-run traces beyond the budget are dropped and counted.

Exports: Chrome/Perfetto ``trace.json`` (loadable by
https://ui.perfetto.dev and ``chrome://tracing``) and a one-span-per-line
JSONL; ``repro trace convert`` translates between them.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, IO, Iterable, List, Mapping, Optional, Union

from repro.common.errors import ConfigError
from repro.core.pipeline import ServiceTimeline
from repro.sim.instrument import Event, EventBus

#: Span categories (the Perfetto ``cat`` field).
CATEGORY_ACCESS = "access"
CATEGORY_WALK = "walk"
CATEGORY_MISS = "miss"
CATEGORY_STAGE = "stage"
CATEGORY_MIGRATION = "migration"
CATEGORY_FAULT = "fault"

#: Event kinds the tracer bridges from the bus into instant spans.
_INSTANT_KINDS = {
    "controller.migration": CATEGORY_MIGRATION,
    "faults.injected": CATEGORY_FAULT,
}


@dataclass
class Span:
    """One node of a causal trace tree.

    ``duration_ns == 0.0`` with category ``migration``/``fault`` marks
    an instant event.  ``args`` carries span-specific attributes (access
    path, ppn, critical/wasted flags, ...).
    """

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    start_ns: float
    duration_ns: float
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def end_ns(self) -> float:
        return self.start_ns + self.duration_ns

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
        }
        if self.args:
            record["args"] = dict(sorted(self.args.items()))
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "Span":
        try:
            return cls(
                trace_id=int(record["trace_id"]),
                span_id=int(record["span_id"]),
                parent_id=(None if record.get("parent_id") is None
                           else int(record["parent_id"])),
                name=str(record["name"]),
                category=str(record.get("category", "")),
                start_ns=float(record["start_ns"]),
                duration_ns=float(record["duration_ns"]),
                args=dict(record.get("args", {}) or {}),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigError(f"not a span record: {error}") from error


class SpanTracer:
    """Collects span trees for sampled accesses into a bounded buffer."""

    def __init__(self, sample_every: int = 1,
                 buffer_spans: int = 4096) -> None:
        if sample_every < 1:
            raise ConfigError(
                f"trace sample interval must be >= 1, got {sample_every}")
        if buffer_spans < 2:
            raise ConfigError(
                f"trace buffer must hold >= 2 spans, got {buffer_spans}")
        self.sample_every = sample_every
        self.buffer_spans = buffer_spans
        #: True while the current access is being recorded.
        self.active = False
        self._access_counter = 0
        self._next_trace_id = 0
        self._next_span_id = 0
        #: The in-flight trace's spans and open-span stack.
        self._current: List[Span] = []
        self._stack: List[Span] = []
        # Head/tail retention: whole traces, split ~half/half by spans.
        self._head: List[List[Span]] = []
        self._head_spans = 0
        self._tail: Deque[List[Span]] = deque()
        self._tail_spans = 0
        self.traces_recorded = 0
        self.traces_dropped = 0

    # ------------------------------------------------------------------
    # Root lifecycle (one trace per sampled access)
    # ------------------------------------------------------------------

    def begin_access(self, start_ns: float, **args: object) -> None:
        """Open the root span; decides (deterministically) to sample."""
        self._access_counter += 1
        if (self._access_counter - 1) % self.sample_every != 0:
            self.active = False
            return
        self.active = True
        self._current = []
        self._stack = []
        self._next_trace_id += 1
        root = self._make_span("access", CATEGORY_ACCESS, start_ns, args)
        self._current.append(root)
        self._stack.append(root)

    def end_access(self, end_ns: float) -> None:
        """Close the root span and commit the trace to the buffer."""
        if not self.active:
            return
        while self._stack:  # root plus anything a failure left open
            span = self._stack.pop()
            span.duration_ns = max(0.0, end_ns - span.start_ns)
        self._commit(self._current)
        self._current = []
        self.active = False

    # ------------------------------------------------------------------
    # Span construction
    # ------------------------------------------------------------------

    def begin(self, name: str, category: str, start_ns: float,
              **args: object) -> Optional[Span]:
        """Open a nested span; returns None when the access is unsampled."""
        if not self.active:
            return None
        span = self._make_span(name, category, start_ns, args)
        self._current.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Optional[Span], end_ns: float) -> None:
        if span is None:
            return
        span.duration_ns = max(0.0, end_ns - span.start_ns)
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    def instant(self, name: str, category: str, time_ns: float,
                **args: object) -> None:
        """A zero-duration marker attached to the open span."""
        if not self.active:
            return
        self._current.append(
            self._make_span(name, category, time_ns, args, duration_ns=0.0))

    def add_timeline(self, name: str, timeline: ServiceTimeline,
                     **args: object) -> None:
        """Promote an evaluated service timeline into a span subtree.

        The timeline becomes one ``category="miss"`` span under the
        current open span, with one ``category="stage"`` child per
        :class:`~repro.core.pipeline.StageSpan`.  Stage spans keep their
        absolute placement, so parallel branches (TMCC's speculative
        ``parallel(cte_fetch, data_fetch)``) share a start time and a
        parent -- the structure survives into the export.
        """
        if not self.active:
            return
        root = self._make_span(name, CATEGORY_MISS, timeline.start_ns, args,
                               duration_ns=timeline.total_ns)
        self._current.append(root)
        for stage in timeline.spans:
            self._current.append(Span(
                trace_id=root.trace_id,
                span_id=self._take_span_id(),
                parent_id=root.span_id,
                name=stage.name,
                category=CATEGORY_STAGE,
                start_ns=stage.start_ns,
                duration_ns=stage.latency_ns,
                args={"critical": stage.critical, "wasted": stage.wasted,
                      "slack_ns": stage.slack_ns},
            ))

    def _make_span(self, name: str, category: str, start_ns: float,
                   args: Mapping[str, object],
                   duration_ns: float = 0.0) -> Span:
        return Span(
            trace_id=self._next_trace_id,
            span_id=self._take_span_id(),
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            category=category,
            start_ns=start_ns,
            duration_ns=duration_ns,
            args=dict(args),
        )

    def _take_span_id(self) -> int:
        self._next_span_id += 1
        return self._next_span_id

    # ------------------------------------------------------------------
    # Head/tail retention
    # ------------------------------------------------------------------

    def _commit(self, trace: List[Span]) -> None:
        self.traces_recorded += 1
        head_budget = self.buffer_spans // 2
        if self._head_spans + len(trace) <= head_budget:
            self._head.append(trace)
            self._head_spans += len(trace)
            return
        tail_budget = max(1, self.buffer_spans - self._head_spans)
        self._tail.append(trace)
        self._tail_spans += len(trace)
        while len(self._tail) > 1 and self._tail_spans > tail_budget:
            dropped = self._tail.popleft()
            self._tail_spans -= len(dropped)
            self.traces_dropped += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def traces(self) -> List[List[Span]]:
        return list(self._head) + list(self._tail)

    def spans(self) -> List[Span]:
        out: List[Span] = []
        for trace in self._head:
            out.extend(trace)
        for trace in self._tail:
            out.extend(trace)
        return out

    def summary(self) -> Dict[str, int]:
        return {
            "accesses_seen": self._access_counter,
            "traces_recorded": self.traces_recorded,
            "traces_retained": len(self._head) + len(self._tail),
            "traces_dropped": self.traces_dropped,
            "spans_retained": self._head_spans + self._tail_spans,
            "sample_every": self.sample_every,
            "buffer_spans": self.buffer_spans,
        }

    # ------------------------------------------------------------------
    # Bus bridge (migration / fault instants)
    # ------------------------------------------------------------------

    def attach_bus(self, bus: EventBus) -> None:
        """Subscribe to the event kinds promoted into instant spans."""
        self._bus = bus
        for kind in _INSTANT_KINDS:
            bus.subscribe(kind, self._on_bus_event)

    def detach_bus(self) -> None:
        bus = getattr(self, "_bus", None)
        if bus is not None:
            bus.unsubscribe(self._on_bus_event)
            self._bus = None

    def _on_bus_event(self, event: Event) -> None:
        if not self.active:
            return
        category = _INSTANT_KINDS.get(event.kind, CATEGORY_FAULT)
        self.instant(event.kind, category, event.time_ns, **dict(event.payload))

    def __getstate__(self) -> Dict[str, object]:
        # The bus reference rides on the context; handlers are detached
        # around checkpoints, so the tracer pickles without it.
        state = dict(self.__dict__)
        state.pop("_bus", None)
        return state


# ----------------------------------------------------------------------
# Export / import
# ----------------------------------------------------------------------


def write_spans_jsonl(spans: Iterable[Span], handle: IO[str]) -> int:
    """One span per line; returns the number written."""
    count = 0
    for span in spans:
        handle.write(json.dumps(span.as_dict(), sort_keys=True) + "\n")
        count += 1
    return count


def read_spans_jsonl(handle: IO[str]) -> List[Span]:
    spans = []
    for line in handle:
        line = line.strip()
        if line:
            spans.append(Span.from_dict(json.loads(line)))
    return spans


def perfetto_document(spans: Iterable[Span],
                      metadata: Optional[Mapping[str, object]] = None) -> Dict:
    """The Chrome/Perfetto trace-JSON document for a span set.

    Duration spans become ``ph="X"`` complete events, instants become
    ``ph="i"``; timestamps are microseconds (the format's unit), and the
    causal ids ride in ``args`` so the tree survives the round trip.
    """
    events = []
    for span in spans:
        args: Dict[str, object] = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
        }
        args.update(span.args)
        event: Dict[str, object] = {
            "name": span.name,
            "cat": span.category or "sim",
            "ts": span.start_ns / 1000.0,
            "pid": 1,
            "tid": 1,
            "args": args,
        }
        if span.duration_ns > 0.0 or span.category in (
                CATEGORY_ACCESS, CATEGORY_WALK, CATEGORY_MISS, CATEGORY_STAGE):
            event["ph"] = "X"
            event["dur"] = span.duration_ns / 1000.0
        else:
            event["ph"] = "i"
            event["s"] = "t"
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "metadata": dict(metadata or {}),
    }


def write_perfetto(spans: Iterable[Span], handle: IO[str],
                   metadata: Optional[Mapping[str, object]] = None) -> None:
    json.dump(perfetto_document(spans, metadata), handle, sort_keys=True)


def spans_from_perfetto(document: Mapping[str, object]) -> List[Span]:
    """Rebuild spans from a Perfetto document we exported."""
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ConfigError("not a Perfetto trace: missing traceEvents list")
    spans = []
    for event in events:
        args = dict(event.get("args", {}) or {})
        try:
            trace_id = int(args.pop("trace_id"))
            span_id = int(args.pop("span_id"))
            parent_id = args.pop("parent_id", None)
        except KeyError as error:
            raise ConfigError(
                f"Perfetto event lacks span linkage args: {error}") from error
        spans.append(Span(
            trace_id=trace_id,
            span_id=span_id,
            parent_id=None if parent_id is None else int(parent_id),
            name=str(event.get("name", "")),
            category=str(event.get("cat", "")),
            start_ns=float(event.get("ts", 0.0)) * 1000.0,
            duration_ns=float(event.get("dur", 0.0)) * 1000.0,
            args=args,
        ))
    return spans


def load_spans(path: Union[str, Path]) -> List[Span]:
    """Read spans from either export format (by content, not extension)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as error:
        raise ConfigError(f"cannot read trace {str(path)!r}: {error}") from error
    if not text.strip():
        return []
    # Both formats start with "{": a Perfetto document is one JSON value,
    # span JSONL is one value *per line* -- so sniff by whole-text parse.
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        document = None
    if isinstance(document, Mapping):
        if "traceEvents" in document:
            return spans_from_perfetto(document)
        return [Span.from_dict(document)]  # a one-line JSONL file
    spans = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            spans.append(Span.from_dict(json.loads(line)))
        except json.JSONDecodeError as error:
            raise ConfigError(
                f"{str(path)!r} is not span JSONL: {error}") from error
    return spans


def write_trace_file(spans: Iterable[Span], path: Union[str, Path],
                     metadata: Optional[Mapping[str, object]] = None) -> None:
    """Write spans in the format the destination's extension names.

    ``.jsonl`` gets the line-oriented span format; anything else gets the
    Perfetto document.
    """
    path = Path(path)
    try:
        with open(path, "w") as handle:
            if path.suffix == ".jsonl":
                write_spans_jsonl(spans, handle)
            else:
                write_perfetto(spans, handle, metadata)
    except OSError as error:
        raise ConfigError(
            f"cannot write trace to {str(path)!r}: {error}") from error


def convert_trace(src: Union[str, Path], dst: Union[str, Path]) -> int:
    """``repro trace convert``: JSONL <-> Perfetto by extension.

    Returns the number of spans converted.
    """
    spans = load_spans(src)
    write_trace_file(spans, dst, metadata={"converted_from": str(src)})
    return len(spans)


# ----------------------------------------------------------------------
# --trace-events writer (bus events, not spans)
# ----------------------------------------------------------------------


class TraceEventWriter:
    """Context-managed JSONL sink for raw ``EventBus`` events.

    Owns the output file: opening happens in the constructor (so a bad
    path fails before the expensive trace build), the handler subscribes
    with :meth:`attach`, and :meth:`close` -- idempotent, invoked by the
    simulator's teardown path or the ``with`` block, whichever comes
    first -- detaches the handler, flushes, and closes.  Early exits
    (watchdog truncation, fault-path failures) therefore never leave a
    truncated, unflushed event file behind.
    """

    FLUSH_EVERY = 256

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = str(path)
        try:
            self._handle: Optional[IO[str]] = open(path, "w")
        except OSError as error:
            raise ConfigError(
                f"cannot write trace events to {self.path!r}: {error}"
            ) from error
        self._bus: Optional[EventBus] = None
        self.events_written = 0

    def attach(self, bus: EventBus) -> "TraceEventWriter":
        self._bus = bus
        bus.subscribe_all(self._on_event)
        return self

    def _on_event(self, event: Event) -> None:
        handle = self._handle
        if handle is None:
            return
        handle.write(json.dumps(event.as_dict(), sort_keys=True) + "\n")
        self.events_written += 1
        if self.events_written % self.FLUSH_EVERY == 0:
            handle.flush()

    @property
    def closed(self) -> bool:
        return self._handle is None

    def close(self) -> None:
        if self._bus is not None:
            self._bus.unsubscribe(self._on_event)
            self._bus = None
        if self._handle is not None:
            try:
                self._handle.flush()
            finally:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "TraceEventWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
