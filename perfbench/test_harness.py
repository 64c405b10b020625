"""Tests for the layered benchmark harness: ``pytest perfbench -q``."""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from compare import compare  # noqa: E402
from harness import ISO, Group  # noqa: E402
from layers import LayerTracer  # noqa: E402

#: Tiny cells: an ISO-budgeted TMCC behind Compresso, and a two-level
#: controller under DRAM pressure (ML2 traffic, migrations, evictions).
TINY = (Group("omnetpp", 80_000, ("compresso", "tmcc"), ISO, scale=0.05),
        Group("mcf", 40_000, ("tmcc",), 0.6, scale=0.05))

DECLARATION = harness.load_declaration()
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.fixture(scope="module")
def rounds():
    untraced = harness.run_round(TINY, seed=1)
    traced = harness.run_round(TINY, seed=1, tracer=LayerTracer())
    return untraced, traced


def test_tracing_keeps_fingerprints(rounds):
    untraced, traced = rounds
    fingerprints = [cell.get("fingerprint") for cell in untraced["cells"]]
    assert all(fingerprints), untraced["cells"]
    assert fingerprints == [cell.get("fingerprint") for cell in traced["cells"]]


def test_fast_path_taken_under_wrapping(rounds):
    _, traced = rounds
    calls = traced["layers"]["core.serve_miss"][0]
    l3_misses = sum(cell["l3_misses"] for cell in traced["cells"])
    assert l3_misses > 0
    assert calls >= l3_misses


def test_self_time_is_total_minus_children():
    now = [0]
    tracer = LayerTracer(clock=lambda: now[0], span_budget=1)

    def leaf():
        now[0] += 30

    def inner():
        now[0] += 5
        wrapped_leaf()
        now[0] += 5

    def outer():
        now[0] += 100
        wrapped_inner()
        wrapped_leaf()

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_inner = tracer.wrap("inner", inner)
    wrapped_outer = tracer.wrap("outer", outer)
    tracer.begin_cell(trace_id=7, origin_ns=0)
    wrapped_outer()  # sampled: the span budget is one top-level call
    wrapped_outer()  # counted, not sampled
    assert tracer.timing("outer") == (2, 340, 200)
    assert tracer.timing("inner") == (2, 80, 20)
    assert tracer.timing("leaf") == (4, 120, 120)
    assert tracer.child_ns == 340  # top-level wrapped time
    spans = {span[3]: span for span in tracer.spans if span[3] != "leaf"}
    assert len(tracer.spans) == 4
    assert spans["outer"][2] is None
    assert spans["inner"][2] == spans["outer"][1]
    assert {span[0] for span in tracer.spans} == {7}


def test_host_speed_scales_by_probes_inside_the_region():
    speed = harness.HostSpeed(reference_ns=1.0)

    def half_speed():
        speed.speeds.append(0.5)
        return 0.5

    speed.probe = half_speed
    before = signal.getsignal(signal.SIGALRM)
    result, wall, scaled = speed.time(lambda: time.sleep(0.2) or "done")
    assert result == "done"
    assert wall >= 0.19e9
    assert scaled == pytest.approx(wall * 0.5)
    assert len(speed.speeds) > 2  # probes before, inside and after
    assert signal.getsignal(signal.SIGALRM) is before


def _doc(seed, value, workload="w", failed=0, fingerprint="a"):
    return {"workload": workload, "seed": seed, "attempted": 10,
            "failed": failed, "cells": {"cell": fingerprint},
            "metrics": {"rate": value}}


RATE = [{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]


def _verdict(parent_values, change_values, **change_fields):
    parent = [_doc(seed, value) for seed, value in enumerate(parent_values)]
    change = [_doc(seed, value, **change_fields)
              for seed, value in enumerate(change_values)]
    return {row["metric"]: row["verdict"]
            for row in compare(parent, change, RATE)}


def test_compare_nine_of_ten_rule():
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    gain = [value + 5 for value in parent]
    assert _verdict(parent, gain)["rate"] == "better"
    eight_wins = gain[:8] + [parent[8] - 1, parent[9] - 1]
    assert _verdict(parent, eight_wins)["rate"] == "same"


def test_compare_unresolved_when_parent_spread_exceeds_bound():
    parent = [80, 120, 90, 110, 100, 70, 130, 100, 95, 105]
    assert _verdict(parent, [v + 1 for v in parent])["rate"] == "unresolved"
    # ... unless every change run beats every parent run.
    assert _verdict(parent, [200 + v for v in range(10)])["rate"] == "better"


def test_compare_bound_breach_failures_and_fingerprints_are_worse():
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    slower = [value * 0.85 for value in parent]
    assert _verdict(parent, slower)["rate"] == "worse"
    assert _verdict(parent, parent, failed=1)["fail_rate"] == "worse"
    assert _verdict(parent, parent, fingerprint="b")["fingerprints"] == "worse"
    assert set(_verdict(parent, parent).values()) == {"same"}


def test_emitted_metric_names_are_declared():
    declared = {section: {entry["name"] for entry in DECLARATION[section]}
                for section in ("end_to_end", "per_layer")}
    catalog = harness.metric_catalog(DECLARATION)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        doc = harness.measure("tiny", 1, 0, trace, None, groups=TINY[:1])
        assert doc["failed"] == 0, doc["failures"]
        assert set(doc["metrics"]) == declared[section]
        line = harness.result_line([doc], catalog)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        for name, metric in line["metrics"].items():
            assert NAME.match(name), name
            assert metric["unit"] == catalog[name]["unit"]


def test_declaration_matches_harness():
    assert [w["name"] for w in DECLARATION["workloads"]] == list(
        harness.WORKLOAD_NAMES)
    bounds = {e["name"]: e["bound"] for e in DECLARATION["end_to_end"]}
    # No bound past 10%: a metric that does not repeat within it needs a
    # steadier measurement, not a wider bound.
    assert all(0 < bound <= 0.10 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [e["name"] for s in ("end_to_end", "per_layer")
             for e in DECLARATION[s]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    catalog = json.loads((HERE / "catalog.json").read_text())
    assert list(catalog["workloads"]) == list(harness.WORKLOAD_NAMES)
    layered = [name for layer in catalog["layers"] for name in layer["metrics"]]
    assert sorted(layered) == sorted(e["name"] for e in DECLARATION["per_layer"])
    for layer in catalog["layers"]:
        assert set(layer["on"] + layer["flat_on"]) <= set(harness.WORKLOAD_NAMES)
        assert set(layer["moves"]) <= set(bounds)
    args = harness.parse_args(["run", "--workload", "fig18", "--seed", "3",
                               "--seconds", "25", "--trace", "0"])
    assert (args.workloads, args.seed, args.seconds, args.trace) == (
        ["fig18"], 3, 25.0, "0")


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/harness.py", "run", "--workload",
         "fig18", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout == ""
