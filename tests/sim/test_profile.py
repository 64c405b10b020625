"""Unit tests for host wall-clock profiling."""

import pytest

from repro.sim.instrument import MetricsRegistry
from repro.sim.profile import HostProfiler


class _FakeClock:
    """Deterministic perf counter: advances only when told."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_excludes_children():
    clock = _FakeClock()
    profiler = HostProfiler(clock=clock)
    profiler.begin("access")
    clock.now = 10
    profiler.begin("controller")
    clock.now = 40
    profiler.end()  # controller: 30 ns, all self
    clock.now = 50
    profiler.end()  # access: 50 ns total, 20 ns self
    assert profiler.total_ns("access") == 50
    assert profiler.self_ns("access") == 20
    assert profiler.total_ns("controller") == 30
    assert profiler.self_ns("controller") == 30
    assert profiler.calls("access") == 1


def test_repeated_sections_accumulate():
    clock = _FakeClock()
    profiler = HostProfiler(clock=clock)
    for _ in range(3):
        profiler.begin("serve")
        clock.now += 5
        profiler.end()
    assert profiler.calls("serve") == 3
    assert profiler.total_ns("serve") == 15


def test_end_without_begin_raises():
    with pytest.raises(RuntimeError):
        HostProfiler().end()


def test_metrics_source_flattening():
    clock = _FakeClock()
    profiler = HostProfiler(clock=clock)
    profiler.begin("sim.access")
    clock.now += 7
    profiler.end()
    registry = MetricsRegistry()
    registry.attach("profile", profiler)
    snapshot = registry.snapshot()
    assert snapshot["profile.sim.access.total_ns"] == 7
    assert snapshot["profile.sim.access.self_ns"] == 7
    assert snapshot["profile.sim.access.calls"] == 1


def test_reset_clears_totals_keeps_open_sections():
    clock = _FakeClock()
    profiler = HostProfiler(clock=clock)
    profiler.begin("warmup")
    clock.now += 100
    profiler.end()
    profiler.begin("run")
    clock.now = 150
    profiler.reset()  # warm-up boundary with "run" still open
    clock.now = 170
    profiler.end()
    assert profiler.total_ns("warmup") == 0
    # The open section keeps running across the reset -- its whole
    # elapsed time lands in the post-reset totals.
    assert profiler.total_ns("run") == 70


def test_report_rows_sorted_by_self_time():
    clock = _FakeClock()
    profiler = HostProfiler(clock=clock)
    profiler.begin("cold")
    clock.now += 1_000_000
    profiler.end()
    profiler.begin("hot")
    clock.now += 5_000_000
    profiler.end()
    rows = profiler.report_rows()
    assert [row["section"] for row in rows] == ["hot", "cold"]
    assert rows[0]["self_ms"] == 5.0
