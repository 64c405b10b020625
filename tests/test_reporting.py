"""Tests for table rendering and report assembly."""

import json

import pytest

from repro.common.errors import ConfigError
from repro.reporting import (
    Report,
    ReproducedTable,
    build_run_report,
    compare_runs,
    format_value,
    load_run_document,
    render_comparison,
    render_table,
    sparkline,
)


def test_render_table_alignment():
    text = render_table(("name", "value"), [("a", 1), ("longer", 22)])
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert set(lines[1]) == {"-"}
    assert len({len(line) for line in (lines[0], lines[2], lines[3])}) <= 2
    assert "longer" in lines[3]


def test_render_table_validation():
    with pytest.raises(ValueError):
        render_table((), [])
    with pytest.raises(ValueError):
        render_table(("a", "b"), [("only-one",)])


def test_reproduced_table_render_and_markdown():
    table = ReproducedTable("Figure X", ("workload", "speedup"))
    table.add_row("mcf", "1.13")
    table.add_row("canneal", "1.20")
    rendered = table.render()
    assert rendered.startswith("=== Figure X ===")
    md = table.to_markdown()
    assert "| workload | speedup |" in md
    assert "| mcf | 1.13 |" in md


def test_report_write(tmp_path):
    report = Report("Reproduction")
    table = ReproducedTable("T", ("a",))
    table.add_row(1)
    report.add(table)
    path = report.write(tmp_path / "out" / "report.md")
    text = path.read_text()
    assert text.startswith("# Reproduction")
    assert "## T" in text
    assert "| 1 |" in text


# ----------------------------------------------------------------------
# format_value / sparkline
# ----------------------------------------------------------------------

def test_format_value():
    assert format_value(3) == "3"
    assert format_value(3.0) == "3"
    assert format_value(0.123456) == "0.1235"
    assert format_value(float("nan")) == "nan"
    assert format_value(True) == "True"
    assert format_value("x") == "x"


def test_sparkline_shapes():
    assert sparkline([]) == ""
    assert sparkline([1.0, 1.0, 1.0]) == "▁▁▁"
    ramp = sparkline([0.0, 1.0, 2.0, 3.0])
    assert ramp[0] == "▁" and ramp[-1] == "█"
    assert len(sparkline(list(range(100)), width=10)) == 10


# ----------------------------------------------------------------------
# Run reports and comparisons
# ----------------------------------------------------------------------

def _run_document(workload="wl", controller="tmcc", performance=1.0,
                  extra_metrics=None):
    metrics = {
        "tlb.hit_rate": 0.9,
        "controller.ml2_accesses": 100,
        "controller.breakdown.parallel_ok.cte_fetch.count": 5,
        "controller.breakdown.parallel_ok.cte_fetch.mean_ns": 30.0,
        "controller.breakdown.parallel_ok.cte_fetch.critical_ns": 0.0,
        "controller.breakdown.parallel_ok.cte_fetch.wasted_ns": 0.0,
        "controller.breakdown.parallel_ok.count": 5,  # path total: skipped
    }
    metrics.update(extra_metrics or {})
    return {
        "workload": workload,
        "controller": controller,
        "performance": performance,
        "avg_l3_miss_latency_ns": 120.0,
        "metrics": metrics,
        "path_fractions": {"parallel_ok": 0.75, "ml2_slow": 0.25},
        "run_config": {"seed": 7, "controller": {"name": controller}},
        "accesses": 1000,
    }


def test_load_run_document_schema_mismatch(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_run_document()))
    assert load_run_document(good)["workload"] == "wl"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"workload": "w"}))
    with pytest.raises(ConfigError, match="controller, metrics"):
        load_run_document(bad)
    notjson = tmp_path / "notjson.json"
    notjson.write_text("nope{")
    with pytest.raises(ConfigError):
        load_run_document(notjson)


def test_build_run_report_sections():
    report = build_run_report(_run_document())
    md = report.to_markdown()
    assert md.startswith("# Run report: wl / tmcc")
    assert "## Configuration" in md
    assert "controller.name" in md  # nested run_config flattened
    assert "## Headline metrics" in md
    assert "| performance | 1 |" in md
    assert "## Access paths" in md
    assert "75.00%" in md
    assert "## Stage-latency breakdown" in md
    assert "| parallel_ok | cte_fetch | 5 | 30 |" in md
    # No spans/timeseries supplied: those sections are absent.
    assert "Slowest spans" not in md
    assert "## Time series" not in md


def test_build_run_report_with_spans_and_timeseries():
    from repro.sim.tracing import Span

    spans = [
        Span(1, 1, None, "access", "access", 0.0, 500.0, {"vaddr": 64}),
        Span(1, 2, 1, "llc_miss", "miss", 10.0, 90.0, {"path": "ml2_slow"}),
        Span(1, 3, 2, "metadata", "stage", 10.0, 20.0),  # never ranked
    ]
    rows = [
        {"window": 0, "start_ns": 0.0, "end_ns": 10.0, "m": 1.0, "flat": 2.0},
        {"window": 1, "start_ns": 10.0, "end_ns": 20.0, "m": 4.0, "flat": 2.0},
    ]
    md = build_run_report(_run_document(), spans=spans,
                          timeseries_rows=rows, top_k=5).to_markdown()
    assert "## Slowest spans (top 5)" in md
    assert "| 1 | access | access | 0 | 500 |" in md
    assert "path=ml2_slow" in md
    assert "metadata" not in md.split("Slowest spans")[1].split("##")[0]
    assert "## Time series" in md
    assert "m " in md and "flat" not in md  # flat column filtered out


def test_run_report_html():
    html = build_run_report(_run_document()).to_html()
    assert html.startswith("<!DOCTYPE html>")
    assert "<h1>Run report: wl / tmcc</h1>" in html
    assert "<table>" in html


def test_build_run_report_rejects_bad_schema():
    with pytest.raises(ConfigError):
        build_run_report({"workload": "w", "metrics": {}})


def test_compare_runs_deltas():
    a = _run_document(performance=1.0,
                      extra_metrics={"x.only_a": 1.0, "tlb.total": 100})
    b = _run_document(performance=1.2,
                      extra_metrics={"x.only_b": 2.0, "tlb.total": 150})
    comparison = compare_runs(a, b, label_a="base", label_b="cand")
    perf = [r for r in comparison["headline"] if r["key"] == "performance"][0]
    assert perf["delta"] == pytest.approx(0.2)
    assert perf["relative"] == pytest.approx(0.2)
    assert comparison["only_in_a"] == ["x.only_a"]
    assert comparison["only_in_b"] == ["x.only_b"]
    assert comparison["metrics_changed"] == 1
    assert comparison["metrics"][0]["key"] == "tlb.total"
    rendered = render_comparison(comparison)
    assert rendered.startswith("comparing base (wl/tmcc) vs cand (wl/tmcc)")
    assert "+20.00%" in rendered
    assert "only in base: x.only_a" in rendered
    assert "only in cand: x.only_b" in rendered


def test_compare_runs_zero_baseline_relative_is_na():
    a = _run_document(extra_metrics={"z": 0.0})
    b = _run_document(extra_metrics={"z": 5.0})
    comparison = compare_runs(a, b)
    row = [r for r in comparison["metrics"] if r["key"] == "z"][0]
    assert row["relative"] is None
    assert "n/a" in render_comparison(comparison)


def test_compare_runs_schema_mismatch_raises():
    with pytest.raises(ConfigError, match="B is not a run document"):
        compare_runs(_run_document(), {"workload": "w"})


def test_build_run_report_embeds_bench_history():
    report = build_run_report(_run_document(),
                              bench_history="doc  suite  vs seed")
    text = report.to_markdown()
    assert "## Performance trajectory" in text
    assert "doc  suite  vs seed" in text
