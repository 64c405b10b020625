"""Structured instrumentation: event bus, probes, and the metrics registry.

Every layer of the simulation stack (TLB, page walker, caches, CTE cache,
migration engine, DRAM queues, the controllers' access paths) publishes
into one shared surface instead of ad-hoc per-component stat dicts:

- :class:`EventBus` -- a lightweight publish/subscribe bus for discrete
  trace events (access-path outcomes, migrations, TLB misses).  With no
  subscribers a publish is one attribute check, so instrumentation stays
  free on the hot path unless a consumer (``--trace-events``) opts in.
- :class:`MetricsRegistry` -- a hierarchy of named stat sources flattened
  into dot-namespaced keys (``tlb.hit_rate``, ``controller.cte_cache.
  hit_rate``, ``dram.row_buffer.hit_rate``).  Sources are the existing
  :mod:`repro.common.stats` containers, so components keep their counters
  and the registry only aggregates.
- :class:`Probe` -- the component-facing handle bundling a namespace, a
  :class:`~repro.common.stats.StatGroup`, and the bus.

The key naming scheme is documented in ``docs/architecture.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Union

from repro.common.stats import Counter, Histogram, RatioStat, StatGroup

#: Anything the metrics registry can flatten into namespaced keys.
StatSource = Union[StatGroup, RatioStat, Counter, Histogram,
                   Callable[[], Mapping[str, float]]]


@dataclass(frozen=True)
class Event:
    """One discrete trace event."""

    kind: str
    time_ns: float
    payload: Mapping[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {"kind": self.kind, "time_ns": self.time_ns}
        record.update(self.payload)
        return record


class EventBus:
    """Publish/subscribe for simulation trace events.

    Handlers subscribe to one ``kind`` or to everything; publishing with
    no handlers short-circuits before the :class:`Event` is even built.
    """

    def __init__(self) -> None:
        self._by_kind: Dict[str, List[Callable[[Event], None]]] = {}
        self._all: List[Callable[[Event], None]] = []
        #: True when at least one subscriber exists.  A plain attribute
        #: (kept in sync by every mutator) because the miss service
        #: checks it once per LLC miss.
        self.active = False

    def _sync(self) -> None:
        self.active = bool(self._all or self._by_kind)

    def subscribe(self, kind: str, handler: Callable[[Event], None]) -> None:
        self._by_kind.setdefault(kind, []).append(handler)
        self.active = True

    def subscribe_all(self, handler: Callable[[Event], None]) -> None:
        self._all.append(handler)
        self.active = True

    def unsubscribe(self, handler: Callable[[Event], None],
                    kind: Optional[str] = None) -> bool:
        """Remove one handler (from ``kind``, or wherever it appears).

        Returns True when the handler was found.  Consumers that attach
        themselves (trace writers, span tracers) detach with this so
        other subscribers survive -- ``unsubscribe_all`` would drop them
        too.  Unknown handlers are a no-op, so teardown paths can call
        it unconditionally.
        """
        removed = False
        if kind is not None:
            handlers = self._by_kind.get(kind, [])
            if handler in handlers:
                handlers.remove(handler)
                removed = True
            if not handlers:
                self._by_kind.pop(kind, None)
            self._sync()
            return removed
        if handler in self._all:
            self._all.remove(handler)
            removed = True
        for name in list(self._by_kind):
            handlers = self._by_kind[name]
            while handler in handlers:
                handlers.remove(handler)
                removed = True
            if not handlers:
                del self._by_kind[name]
        self._sync()
        return removed

    def unsubscribe_all(self) -> None:
        """Drop every subscriber (ends a ``--trace-events`` capture)."""
        self._by_kind.clear()
        self._all.clear()
        self.active = False

    #: Alias: ``clear()`` reads better at the end of a capture session.
    clear = unsubscribe_all

    def detach_subscribers(self) -> tuple:
        """Remove and return every subscriber (checkpoint support).

        Subscribers are often closures over open files, which cannot be
        pickled; the run supervisor detaches them around a checkpoint
        dump and restores them with :meth:`restore_subscribers`.
        """
        saved = (self._by_kind, self._all)
        self._by_kind = {}
        self._all = []
        self.active = False
        return saved

    def restore_subscribers(self, saved: tuple) -> None:
        self._by_kind, self._all = saved
        self._sync()

    def publish(self, kind: str, time_ns: float, **payload: object) -> None:
        if not self.active:
            return
        handlers = self._by_kind.get(kind)
        if not handlers and not self._all:
            return
        event = Event(kind, time_ns, payload)
        for handler in self._all:
            handler(event)
        if handlers:
            for handler in handlers:
                handler(event)


def nest_metrics(flat: Mapping[str, float]) -> Dict[str, object]:
    """Turn a flat ``{"ns.key": value}`` dump into nested dicts.

    Used by :meth:`MetricsRegistry.tree` and by consumers that only hold
    a :attr:`~repro.sim.results.SimResult.metrics` snapshot.
    """
    root: Dict[str, object] = {}
    for key, value in flat.items():
        node = root
        parts = key.split(MetricsRegistry.SEPARATOR)
        for part in parts[:-1]:
            child = node.setdefault(part, {})
            if not isinstance(child, dict):
                # A leaf and a namespace collide (e.g. "walks" counter
                # next to "walks.something"); nest the leaf under "".
                child = node[part] = {"": child}
            node = child
        leaf = parts[-1]
        existing = node.get(leaf)
        if isinstance(existing, dict):
            existing[""] = value
        else:
            node[leaf] = value
    return root


def _flatten_source(source: StatSource) -> Mapping[str, float]:
    """One source's values keyed relative to its namespace."""
    if isinstance(source, StatGroup):
        return source.as_dict()
    if isinstance(source, RatioStat):
        return {"hits": source.hits, "total": source.total,
                "hit_rate": source.hit_rate}
    if isinstance(source, Counter):
        return {"value": source.value}
    if isinstance(source, Histogram):
        return {"count": source.count, "mean": source.mean}
    return dict(source())  # callable returning a mapping


class MetricsRegistry:
    """Hierarchical, namespaced view over every component's statistics.

    ``attach("controller.cte_cache", ratio_stat)`` makes the ratio's
    values appear as ``controller.cte_cache.hits`` / ``.total`` /
    ``.hit_rate`` in :meth:`snapshot`.  Callable sources compute derived
    values lazily at snapshot time (e.g. path fractions).
    """

    SEPARATOR = "."

    def __init__(self) -> None:
        self._sources: Dict[str, StatSource] = {}

    def attach(self, namespace: str, source: StatSource) -> None:
        if not namespace:
            raise ValueError("metrics namespace must be non-empty")
        if namespace in self._sources and self._sources[namespace] is not source:
            raise ValueError(f"metrics namespace {namespace!r} already attached")
        self._sources[namespace] = source

    def detach(self, namespace: str) -> None:
        self._sources.pop(namespace, None)

    def namespaces(self) -> List[str]:
        return sorted(self._sources)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Flatten every source into ``{"ns.key": value}``.

        The returned dict is fully key-sorted (not just by namespace),
        so serializing it -- even without ``sort_keys`` -- produces
        byte-stable documents that ``repro report --compare`` can diff.
        """
        out: Dict[str, float] = {}
        for namespace in sorted(self._sources):
            for key, value in _flatten_source(self._sources[namespace]).items():
                out[f"{namespace}{self.SEPARATOR}{key}"] = value
        return dict(sorted(out.items()))

    def get(self, key: str, default: Optional[float] = None) -> Optional[float]:
        """One namespaced value, live (no full snapshot)."""
        namespace, _, leaf = key.rpartition(self.SEPARATOR)
        while namespace:
            source = self._sources.get(namespace)
            if source is not None:
                values = _flatten_source(source)
                suffix = key[len(namespace) + 1:]
                if suffix in values:
                    return values[suffix]
            namespace, _, _ = namespace.rpartition(self.SEPARATOR)
        return default

    def tree(self) -> Dict[str, object]:
        """The snapshot as nested dicts, for JSON export."""
        return nest_metrics(self.snapshot())

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.tree(), indent=indent, sort_keys=True)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Reset every resettable source (warm-up boundary)."""
        for source in self._sources.values():
            reset = getattr(source, "reset", None)
            if reset is not None:
                reset()


class Probe:
    """A component's handle into the instrumentation layer.

    Bundles the component's namespace, its :class:`StatGroup`, and the
    event bus so instrumented code reads as one call site::

        probe.count("ml2_accesses")
        probe.emit("access_path", now_ns, path=path, ppn=ppn)
    """

    def __init__(self, namespace: str, bus: Optional[EventBus] = None,
                 stats: Optional[StatGroup] = None) -> None:
        self.namespace = namespace
        self.bus = bus or EventBus()
        self.stats = stats if stats is not None else StatGroup(namespace)

    def count(self, name: str, amount: int = 1) -> None:
        self.stats.counter(name).increment(amount)

    def record(self, name: str, value: float) -> None:
        self.stats.histogram(name).record(value)

    def ratio(self, name: str, hit: bool) -> None:
        self.stats.ratio(name).record(hit)

    def emit(self, kind: str, time_ns: float, **payload: object) -> None:
        """Publish a namespaced trace event (``<namespace>.<kind>``)."""
        self.bus.publish(f"{self.namespace}.{kind}", time_ns, **payload)
