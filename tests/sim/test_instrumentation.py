"""Unit tests for the event bus, probes, and the metrics registry."""

import json

import pytest

from repro.common.stats import Counter, Histogram, RatioStat, StatGroup
from repro.sim.instrument import (
    Event,
    EventBus,
    MetricsRegistry,
    Probe,
    nest_metrics,
)


# ----------------------------------------------------------------------
# EventBus
# ----------------------------------------------------------------------

def test_bus_inactive_without_subscribers():
    bus = EventBus()
    assert not bus.active
    bus.publish("x", 0.0, a=1)  # no-op, no error


def test_bus_kind_subscription():
    bus = EventBus()
    seen = []
    bus.subscribe("tlb_miss", seen.append)
    assert bus.active
    bus.publish("tlb_miss", 5.0, vpn=3)
    bus.publish("other", 6.0)
    assert len(seen) == 1
    assert seen[0] == Event("tlb_miss", 5.0, {"vpn": 3})
    assert seen[0].as_dict() == {"kind": "tlb_miss", "time_ns": 5.0, "vpn": 3}


def test_bus_subscribe_all_and_unsubscribe():
    bus = EventBus()
    seen = []
    bus.subscribe_all(seen.append)
    bus.publish("a", 1.0)
    bus.publish("b", 2.0)
    assert [e.kind for e in seen] == ["a", "b"]
    bus.unsubscribe_all()
    assert not bus.active
    bus.publish("c", 3.0)
    assert len(seen) == 2


def test_bus_unsubscribe_by_kind():
    bus = EventBus()
    seen = []
    bus.subscribe("a", seen.append)
    bus.subscribe("b", seen.append)
    assert bus.unsubscribe(seen.append, kind="a")
    bus.publish("a", 1.0)
    bus.publish("b", 2.0)
    assert [e.kind for e in seen] == ["b"]
    # The empty "a" list is pruned, so only "b" keeps the bus active.
    assert bus.unsubscribe(seen.append, kind="b")
    assert not bus.active


def test_bus_unsubscribe_everywhere():
    bus = EventBus()
    seen = []
    bus.subscribe("a", seen.append)
    bus.subscribe("b", seen.append)
    bus.subscribe_all(seen.append)
    assert bus.unsubscribe(seen.append)
    assert not bus.active
    bus.publish("a", 1.0)
    assert seen == []


def test_bus_unsubscribe_unknown_handler_is_noop():
    bus = EventBus()
    seen = []
    bus.subscribe("a", seen.append)
    assert not bus.unsubscribe(print)
    assert not bus.unsubscribe(seen.append, kind="other")
    assert bus.active
    bus.publish("a", 1.0)
    assert len(seen) == 1


def test_bus_clear_is_unsubscribe_all():
    bus = EventBus()
    bus.subscribe("a", lambda e: None)
    bus.subscribe_all(lambda e: None)
    bus.clear()
    assert not bus.active


def test_bus_detach_and_restore_track_activity():
    bus = EventBus()
    seen = []
    bus.subscribe("a", seen.append)
    saved = bus.detach_subscribers()
    assert not bus.active
    bus.publish("a", 1.0)
    bus.restore_subscribers(saved)
    assert bus.active
    bus.publish("a", 2.0)
    assert [e.time_ns for e in seen] == [2.0]


def test_bus_no_subscriber_publish_builds_no_event(monkeypatch):
    """With no subscribers, publish must return before constructing Event."""
    import repro.sim.instrument as instrument

    class _Exploding:
        def __init__(self, *args, **kwargs):
            raise AssertionError("Event constructed on the fast path")

    monkeypatch.setattr(instrument, "Event", _Exploding)
    bus = instrument.EventBus()
    bus.publish("anything", 1.0, payload=1)  # must not raise


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------

def _registry():
    registry = MetricsRegistry()
    ratio = RatioStat("hits")
    ratio.record(True)
    ratio.record(True)
    ratio.record(False)
    registry.attach("tlb", ratio)
    counter = Counter("walks", value=4)
    registry.attach("walker.walks", counter)
    group = StatGroup("controller")
    group.counter("ml2_accesses").increment(2)
    registry.attach("controller", group)
    registry.attach("controller.paths", lambda: {"cte_hit": 0.75})
    return registry, ratio, counter


def test_snapshot_flattens_every_source_kind():
    registry, _, _ = _registry()
    snapshot = registry.snapshot()
    assert snapshot["tlb.hit_rate"] == pytest.approx(2 / 3)
    assert snapshot["tlb.total"] == 3
    assert snapshot["walker.walks.value"] == 4
    assert snapshot["controller.ml2_accesses"] == 2
    assert snapshot["controller.paths.cte_hit"] == 0.75


def test_get_single_key_is_live():
    registry, ratio, _ = _registry()
    assert registry.get("tlb.hit_rate") == pytest.approx(2 / 3)
    ratio.record(True)
    assert registry.get("tlb.hit_rate") == pytest.approx(3 / 4)
    assert registry.get("no.such.key") is None
    assert registry.get("no.such.key", 1.5) == 1.5


def test_histogram_source():
    registry = MetricsRegistry()
    histogram = Histogram("stall_ns")
    histogram.record(10.0)
    histogram.record(30.0)
    registry.attach("migration.stall_ns", histogram)
    snapshot = registry.snapshot()
    assert snapshot["migration.stall_ns.count"] == 2
    assert snapshot["migration.stall_ns.mean"] == 20.0


def test_attach_conflicts_rejected():
    registry = MetricsRegistry()
    registry.attach("tlb", Counter("a"))
    with pytest.raises(ValueError, match="already attached"):
        registry.attach("tlb", Counter("b"))
    with pytest.raises(ValueError, match="non-empty"):
        registry.attach("", Counter("c"))


def test_detach():
    registry = MetricsRegistry()
    registry.attach("tlb", Counter("a"))
    registry.detach("tlb")
    assert registry.namespaces() == []
    registry.detach("tlb")  # idempotent


def test_tree_and_json_round_trip():
    registry, _, _ = _registry()
    tree = json.loads(registry.to_json())
    assert tree["tlb"]["hit_rate"] == pytest.approx(2 / 3)
    assert tree["walker"]["walks"]["value"] == 4
    assert tree["controller"]["ml2_accesses"] == 2
    assert tree["controller"]["paths"]["cte_hit"] == 0.75


def test_nest_metrics_leaf_namespace_collision():
    nested = nest_metrics({"a.b": 1.0, "a.b.c": 2.0})
    assert nested["a"]["b"][""] == 1.0
    assert nested["a"]["b"]["c"] == 2.0


def test_reset_resets_resettable_sources_only():
    registry, ratio, counter = _registry()
    registry.reset()
    assert ratio.total == 0
    assert counter.value == 0
    # The callable source survives (nothing to reset).
    assert registry.snapshot()["controller.paths.cte_hit"] == 0.75


# ----------------------------------------------------------------------
# Probe
# ----------------------------------------------------------------------

def test_probe_counts_and_emits():
    bus = EventBus()
    seen = []
    bus.subscribe("controller.access_path", seen.append)
    probe = Probe("controller", bus=bus)
    probe.count("l3_misses")
    probe.count("l3_misses", 2)
    probe.record("latency_ns", 12.0)
    probe.ratio("cte", True)
    probe.emit("access_path", 9.0, path="cte_hit")
    assert probe.stats.counter("l3_misses").value == 3
    assert probe.stats.histogram("latency_ns").mean == 12.0
    assert probe.stats.ratio("cte").hit_rate == 1.0
    assert seen[0].kind == "controller.access_path"
    assert seen[0].payload["path"] == "cte_hit"


def test_probe_wraps_existing_stat_group():
    group = StatGroup("controller")
    probe = Probe("controller", stats=group)
    probe.count("x")
    assert group.counter("x").value == 1


def test_probe_emit_namespaces_every_kind():
    bus = EventBus()
    seen = []
    bus.subscribe_all(seen.append)
    Probe("walker", bus=bus).emit("ptb_hit", 1.0)
    Probe("controller", bus=bus).emit("migration", 2.0, pages=3)
    assert [e.kind for e in seen] == ["walker.ptb_hit", "controller.migration"]
    assert seen[1].payload == {"pages": 3}


def test_migrations_emit_only_to_an_active_bus(monkeypatch):
    """An unobserved run builds no migration event; with a subscriber,
    every migration is published once, in both directions."""
    from repro.sim.simulator import Simulator
    from repro.workloads.suite import workload_by_name

    emitted = []
    emit = Probe.emit

    def counting(self, kind, time_ns, **payload):
        if kind == "migration":
            emitted.append(payload["direction"])
        emit(self, kind, time_ns, **payload)

    monkeypatch.setattr(Probe, "emit", counting)
    workload = workload_by_name("mcf", max_accesses=6_000, scale=0.05)
    # Tight enough that pages also migrate out to ML2.
    budget = int(0.55 * workload.footprint_pages * 4096)

    def run(observed):
        sim = Simulator(workload, controller="tmcc", dram_budget_bytes=budget)
        seen = []
        if observed:
            sim.context.bus.subscribe("controller.migration", seen.append)
        sim.run()
        stats = sim.controller.stats
        return seen, (stats.counter("ml2_to_ml1_migrations").value
                      + stats.counter("ml1_to_ml2_evictions").value)

    seen, _ = run(observed=False)
    assert emitted == [] and seen == []
    seen, migrations = run(observed=True)
    assert {"ml2_to_ml1", "ml1_to_ml2"} <= set(emitted)
    assert [event.payload["direction"] for event in seen] == emitted
    assert len(seen) >= migrations > 0
