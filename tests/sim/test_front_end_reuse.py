"""The replay loop's recorded front end: reuse, end state, invalidation.

``repro.sim.fastpath`` runs the TLB, page walk and caches once per
trace and keeps the recording on the workload's shared address space;
a later fresh one-segment simulator on the same workload replays only
its memory controller.  These tests pin that reuse to the frozen goldens
(byte for byte, whichever controller recorded), check that a reused run
leaves the front end exactly as a fresh run would, that observed
one-segment runs reuse it too while segmented runs never touch it, and
that anything shaping the front end or the address space differently
forces a new recording.
"""

import dataclasses
import json
import pickle

import pytest

from repro.cache.hierarchy import HierarchyConfig
from repro.core import available_controllers
from repro.core.config import SystemConfig
from repro.sim import fastpath
from repro.sim.context import SimContext
from repro.sim.faults import FaultPlan
from repro.sim.simulator import Simulator
from repro.sim.supervisor import RunSupervisor
from repro.sim.timeseries import TimeSeriesRecorder
from repro.sim.tracing import SpanTracer

from tests.sim.test_frozen_goldens import (
    GOLDEN_DIR,
    _budget,
    _emit_json,
    _mcf,
    _small,
    _tmcc_iso_budget,
)


def _record(workload, controller, **kwargs):
    """Replace ``workload``'s recording with one made by ``controller``."""
    workload._space = None
    Simulator(workload, controller=controller, seed=3, **kwargs).run()
    recording = workload._space.front_end
    assert recording is not None
    return recording


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_reused_front_end_matches_frozen_goldens(order):
    """Every fast-loop golden, each replayed on a front end another
    controller recorded on the same workload object."""
    controllers = available_controllers()
    if order == "reverse":
        controllers = controllers[::-1]
    small = _small()
    mcf = _mcf()
    iso = _tmcc_iso_budget(small)
    configs = [(f"{name}.json", small, name, {}) for name in controllers]
    configs += [
        ("tmcc_iso_budget.json", small, "tmcc", {"dram_budget_bytes": iso}),
        ("tmcc_mcf_budget.json", mcf, "tmcc",
         {"dram_budget_bytes": _budget(mcf, 0.6)}),
        ("osinspired_mcf_budget.json", mcf, "osinspired",
         {"dram_budget_bytes": _budget(mcf, 0.6)}),
        ("compresso_huge_pages.json", small, "compresso",
         {"huge_pages": True}),
        ("tmcc.json", small, "tmcc", {"resilience": True}),
    ]
    for position, (name, workload, controller, kwargs) in enumerate(configs):
        recorder = next(candidate for candidate in
                        controllers[position + 1:] + controllers[:position + 1]
                        if candidate != controller)
        recording = _record(workload, recorder,
                            huge_pages=kwargs.get("huge_pages", False))
        document = _emit_json(workload, controller, **kwargs)
        assert workload._space.front_end is recording, f"{name}: not reused"
        assert document == (GOLDEN_DIR / name).read_bytes(), (
            f"{name} differs after {recorder} recorded the front end")


def _front_end_state(sim):
    """Everything the front end holds, in comparable form."""
    hierarchy = sim.hierarchy
    walker = sim.walker
    next_line = hierarchy._next_line
    lru = sim.tlb._lru
    return {
        "caches": [(sorted(cache._index.items()), cache._orders,
                    cache.stats.hits, cache.stats.total)
                   for cache in (hierarchy.l1, hierarchy.l2, hierarchy.l3)],
        "next_line": (list(next_line._outstanding.items()),
                      next_line._recent_results, next_line._enabled,
                      next_line._cooloff),
        "stride": [list(stride._table.items())
                   for stride in (hierarchy._stride_l1, hierarchy._stride_l2)],
        "tlb": ([(tag, lru.get(tag)) for tag in lru.keys_lru_to_mru()],
                sim.tlb.stats.hits, sim.tlb.stats.total),
        "pwc": ({level: list(cache.keys_lru_to_mru())
                 for level, cache in walker.pwc._caches.items()},
                walker.pwc.stats.hits, walker.pwc.stats.total),
        "walker": (walker.walks.value, walker.ptb_fetches.value),
        "sim": (sim._tlb_misses, sim._l3_data_misses),
    }


@pytest.mark.parametrize("huge_pages", [False, True])
def test_reused_run_leaves_the_front_end_of_a_fresh_run(huge_pages):
    shared = _small()
    recording = _record(shared, "uncompressed", huge_pages=huge_pages)
    reused = Simulator(shared, controller="tmcc", seed=3,
                       huge_pages=huge_pages)
    reused_result = reused.run()
    assert shared._space.front_end is recording
    fresh = Simulator(_small(), controller="tmcc", seed=3,
                      huge_pages=huge_pages)
    fresh_result = fresh.run()
    assert _front_end_state(reused) == _front_end_state(fresh)
    assert reused_result.as_dict() == fresh_result.as_dict()
    # Loaded in place: the registry still reads the components' stats.
    sources = reused.context.metrics._sources
    assert sources["cache.l1"] is reused.hierarchy.l1.stats
    assert sources["tlb"] is reused.tlb.stats
    assert sources["walker.walks"] is reused.walker.walks


@pytest.fixture
def front_end_passes(monkeypatch):
    """Counts front-end passes (a reused run makes none)."""
    calls = []
    original = fastpath._front_end_pass

    def counting(sim, *args):
        calls.append(sim)
        return original(sim, *args)

    monkeypatch.setattr(fastpath, "_front_end_pass", counting)
    return calls


def test_second_run_is_the_same_either_way(front_end_passes):
    """A warm front end neither records nor reuses, and a second run()
    gives the same result whether the first one reused or not."""
    shared = _small()
    recording = _record(shared, "compresso")
    del front_end_passes[:]
    reused = Simulator(shared, controller="tmcc", seed=3)
    first = reused.run()
    assert front_end_passes == []  # fresh: reused
    second = reused.run()
    assert front_end_passes == [reused]  # warm: no reuse
    assert shared._space.front_end is recording  # warm: no recording

    fresh = Simulator(_small(), controller="tmcc", seed=3)
    assert fresh.run().as_dict() == first.as_dict()
    assert fresh.run().as_dict() == second.as_dict()


def _with_cache(**changes):
    return SystemConfig(cache=dataclasses.replace(HierarchyConfig(),
                                                  **changes))


@pytest.mark.parametrize("variant", [
    {"seed": 4},
    {"huge_pages": True},
    {"warmup_fraction": 0.3},
    {"system": SystemConfig(tlb_entries=512)},
    {"system": _with_cache(l2_size=128 * 1024)},
    {"system": _with_cache(enable_prefetch=False)},
], ids=["seed", "huge_pages", "warmup", "tlb_entries", "l2_size",
        "prefetch"])
def test_differently_shaped_front_end_is_not_reused(variant,
                                                    front_end_passes):
    def run(workload):
        kwargs = dict(variant)
        warmup = kwargs.pop("warmup_fraction", 0.2)
        kwargs.setdefault("seed", 3)
        sim = Simulator(workload, controller="tmcc", **kwargs)
        result = sim.run(warmup_fraction=warmup)
        return json.dumps(result.as_dict(), sort_keys=True)

    shared = _small()
    recording = _record(shared, "compresso")
    del front_end_passes[:]
    changed = run(shared)
    assert len(front_end_passes) == 1
    assert shared._space.front_end is not recording
    assert changed == run(_small())


@pytest.mark.parametrize("variant", [
    {},
    {"placement_drift": 0.1},
    {"virtualized": True},
], ids=["rebuilt", "placement_drift", "virtualized"])
def test_different_address_space_is_not_reused(variant, front_end_passes):
    """A recording is found only on the address space it walked; a run on
    any other space (rebuilt, or differently shaped) gives a fresh
    workload's document byte for byte."""
    shared = _small()
    recording = _record(shared, "compresso")
    space = shared._space
    if not variant:
        shared._space = None  # an equal space, built again
    del front_end_passes[:]
    document = _emit_json(shared, "tmcc", **variant)
    assert shared._space is not space
    assert space.front_end is recording
    assert len(front_end_passes) == 1
    assert shared._space.front_end is not None
    assert shared._space.front_end is not recording
    assert document == _emit_json(_small(), "tmcc", **variant)


def _observed_run(workload, observer):
    """One tmcc run with ``observer`` attached: ``(result dict, what
    the observer saw)``."""
    sim = Simulator(workload, controller="tmcc", seed=3,
                    virtualized=observer == "virtualized",
                    fault_plan=(FaultPlan.parse("stale_cte:0.05")
                                if observer == "faulted" else None))
    seen = []
    if observer in ("traced", "virtualized"):
        sim.attach_tracer(SpanTracer(sample_every=7))
    elif observer == "events":
        sim.context.bus.subscribe_all(seen.append)
    if observer == "heartbeat":
        result = RunSupervisor(heartbeat=lambda: seen.append(1)).run(sim)
    else:
        result = sim.run()
    if sim.tracer is not None:
        seen = sim.tracer.spans()
    return result.as_dict(), [item if isinstance(item, int)
                              else item.as_dict() for item in seen]


@pytest.mark.parametrize("observer", ["traced", "events", "faulted",
                                      "heartbeat", "virtualized"])
def test_one_segment_observed_runs_reuse_the_recording(observer,
                                                       front_end_passes):
    """An observed run that needs no segment boundary replays another
    run's recording, and sees exactly what it sees on a fresh
    workload."""
    shared = _small()
    recording = _record(shared, "compresso",
                        virtualized=observer == "virtualized")
    del front_end_passes[:]
    reused = _observed_run(shared, observer)
    assert front_end_passes == []
    assert shared._space.front_end is recording
    assert reused == _observed_run(_small(), observer)


def _segmented_run(workload, observer, tmp_path):
    context = None
    if observer == "profiled":
        context = SimContext(seed=3)
        context.enable_profiling()
    sim = Simulator(workload, controller="tmcc", seed=3, context=context)
    if observer == "timeseries":
        sim.attach_timeseries(
            TimeSeriesRecorder(sim.context.metrics, 2000.0))
    if observer == "checkpointed":
        return RunSupervisor(checkpoint_path=str(tmp_path / "ck.pkl"),
                             checkpoint_every=250).run(sim)
    if observer == "watchdog":
        return RunSupervisor(wall_clock_limit_s=1e9).run(sim)
    return sim.run()


@pytest.mark.parametrize("observer", ["timeseries", "checkpointed",
                                      "watchdog", "profiled"])
def test_segmented_runs_never_touch_the_recording(observer, tmp_path,
                                                  front_end_passes):
    """A run that reads the whole registry (or stops) mid-trace runs the
    front end segment by segment: it neither reuses nor records."""
    shared = _small()
    recording = _record(shared, "compresso")
    del front_end_passes[:]
    result = _segmented_run(shared, observer, tmp_path)
    assert len(front_end_passes) > 1
    assert shared._space.front_end is recording
    record = result.as_dict()
    record["metrics"] = {key: value
                         for key, value in record["metrics"].items()
                         if not key.startswith("profile.")}
    golden = json.loads((GOLDEN_DIR / "tmcc.json").read_bytes())
    del golden["metrics_tree"], golden["run_config"]
    assert json.loads(json.dumps(record)) == golden


def test_pickled_workload_arrives_without_its_address_space():
    """Worker hand-offs carry the workload, not its address space."""
    shared = _small()
    _record(shared, "compresso")
    assert pickle.loads(pickle.dumps(shared))._space is None
    assert shared._space is not None


def test_recording_is_not_pickled():
    """A checkpointed simulator carries its address space, never the
    space's recording."""
    shared = _small()
    _record(shared, "compresso")
    sim = Simulator(shared, controller="tmcc", seed=3)
    restored = pickle.loads(pickle.dumps(sim))
    assert restored.space.front_end is None
    assert restored.space.data_ppns == sim.space.data_ppns
    assert restored.table is restored.space.table
    assert shared._space.front_end is not None
