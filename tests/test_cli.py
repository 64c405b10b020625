"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_workloads_lists_all(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    for name in ("pageRank", "mcf", "omnetpp", "canneal", "triCount"):
        assert name in out


def test_workloads_json(capsys):
    assert main(["workloads", "--json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert {r["name"] for r in records} >= {"mcf", "omnetpp", "canneal"}
    assert all("kind" in r for r in records)


def test_run_controller_list(capsys):
    assert main(["run", "--controller", "list"]) == 0
    names = capsys.readouterr().out.split()
    assert "tmcc" in names and "compresso" in names
    assert "uncompressed" in names and "osinspired" in names
    from repro.core import available_controllers

    assert names == available_controllers()


def test_run_requires_workload(capsys):
    assert main(["run", "--controller", "tmcc"]) == 2
    assert "workload is required" in capsys.readouterr().err


def test_run_rejects_unknown_controller(capsys):
    assert main(["run", "omnetpp", "--controller", "hal9000"]) == 2
    assert "unknown controller" in capsys.readouterr().err


def test_run_rejects_unknown_workload(capsys):
    assert main(["run", "doom3"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_run_emit_json_and_trace_events(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    assert main(["run", "omnetpp", "--accesses", "4000", "--scale", "0.05",
                 "--controller", "compresso", "--emit-json",
                 "--trace-events", str(events)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["accesses"] > 0
    assert "tlb.hit_rate" in record["metrics"]
    assert "hit_rate" in record["metrics_tree"]["tlb"]
    lines = [json.loads(line) for line in events.read_text().splitlines()]
    assert lines, "expected at least one trace event"
    assert all("kind" in e and "time_ns" in e for e in lines)
    kinds = {e["kind"] for e in lines}
    assert "controller.access_path" in kinds or "sim.tlb_miss" in kinds


def test_compare_emit_json(capsys):
    assert main(["compare", "omnetpp", "--accesses", "6000",
                 "--scale", "0.05", "--emit-json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert set(record["systems"]) == {"uncompressed", "compresso", "tmcc"}
    tmcc = record["systems"]["tmcc"]
    assert "controller" in tmcc["metrics_tree"]
    assert "paths" in tmcc["metrics_tree"]["controller"]


def test_deflate_command(capsys):
    assert main(["deflate", "graph", "--pages", "3"]) == 0
    out = capsys.readouterr().out
    assert "round-trip OK" in out
    assert "our ASIC Deflate" in out


def test_deflate_rejects_unknown_profile(capsys):
    assert main(["deflate", "nonsense"]) == 2
    assert "unknown profile" in capsys.readouterr().err


def test_compare_command_small(capsys):
    assert main(["compare", "omnetpp", "--accesses", "6000",
                 "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "TMCC speedup" in out
    assert "Compresso" in out


def test_sweep_command_small(capsys):
    assert main(["sweep", "omnetpp", "--accesses", "6000",
                 "--scale", "0.05", "--points", "2"]) == 0
    out = capsys.readouterr().out
    assert "perf vs Compresso" in out


def test_parser_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["compare", "doom3"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_trace_export_and_run(tmp_path, capsys):
    path = str(tmp_path / "omnetpp.rtrc")
    assert main(["trace", "export", "omnetpp", path,
                 "--accesses", "4000", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "accesses" in out
    assert main(["trace", "run", path, "--controller", "compresso"]) == 0
    out = capsys.readouterr().out
    assert "LLC misses" in out


def test_trace_run_rejects_unknown_controller(tmp_path, capsys):
    path = str(tmp_path / "t.rtrc")
    main(["trace", "export", "omnetpp", path,
          "--accesses", "2000", "--scale", "0.05"])
    capsys.readouterr()
    assert main(["trace", "run", path, "--controller", "hal9000"]) == 2
    assert "unknown controller" in capsys.readouterr().err


def test_trace_run_controller_list(capsys):
    assert main(["trace", "run", "--controller", "list"]) == 0
    names = capsys.readouterr().out.split()
    assert "tmcc" in names


def test_trace_run_requires_path(capsys):
    assert main(["trace", "run", "--controller", "tmcc"]) == 2
    assert "trace path is required" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Argument validation (one-line errors, exit code 2)
# ----------------------------------------------------------------------

_TWO_CORES = ["run", "omnetpp", "--accesses", "2000", "--scale", "0.05",
              "--cores", "2"]


@pytest.mark.parametrize("argv, needle", [
    (["run", "mcf", "--accesses", "0"], "--accesses must be > 0"),
    (["run", "mcf", "--accesses", "-5"], "--accesses must be > 0"),
    (["run", "mcf", "--scale", "0"], "--scale must be in (0, 1]"),
    (["run", "mcf", "--scale", "1.5"], "--scale must be in (0, 1]"),
    (["run", "mcf", "--cores", "0"], "--cores must be >= 1"),
    (["run", "mcf", "--checkpoint-every", "-1"],
     "--checkpoint-every must be >= 0"),
    (["run", "mcf", "--checkpoint-every", "10"],
     "--checkpoint-every needs --checkpoint"),
    (["run", "mcf", "--wall-clock-limit", "0"],
     "--wall-clock-limit must be > 0"),
    (["sweep", "mcf", "--points", "-1"], "--points must be > 0"),
    (["sweep", "mcf", "--accesses", "0"], "--accesses must be > 0"),
    (["compare", "mcf", "--scale", "2"], "--scale must be in (0, 1]"),
    (["trace", "export", "mcf", "/tmp/t.rtrc", "--accesses", "0"],
     "--accesses must be > 0"),
    (["deflate", "graph", "--pages", "0"], "--pages must be > 0"),
    # What only the single-core loop runs, refused by the Simulator.
    (_TWO_CORES + ["--trace-out", "{tmp}/trace.json"],
     "cannot run with tracer"),
    (_TWO_CORES + ["--interval-ns", "1000", "--interval-out",
                   "{tmp}/series.csv"], "cannot run with timeseries"),
    (_TWO_CORES + ["--profile"], "cannot run with profiler"),
    (_TWO_CORES + ["--faults", "dram_read_error:0.1"],
     "cannot run with fault_plan"),
    (_TWO_CORES + ["--checkpoint", "{tmp}/ck.pkl"],
     "cannot run with supervisor"),
    (_TWO_CORES + ["--wall-clock-limit", "60"],
     "cannot run with supervisor"),
    (["run", "--resume", "{tmp}/ck.pkl", "--cores", "2"],
     "cannot be combined with --resume"),
])
def test_validation_one_line_errors(tmp_path, capsys, argv, needle):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert needle in err
    assert len(err.strip().splitlines()) == 1  # one line, no traceback
    assert not any(tmp_path.iterdir())  # a refused run writes no file


def test_run_multicore_emit_json_names_its_cores(tmp_path, capsys):
    """A multi-core run reports like a single-core one, and its
    run_config names the core count and the drift-free placement."""
    events = tmp_path / "events.jsonl"
    assert main(_TWO_CORES + ["--emit-json", "--trace-events",
                              str(events)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["run_config"]["cores"] == 2
    assert record["run_config"]["placement_drift"] == 0.0
    assert record["cte_misses"] > 0 and record["l3_data_misses"] > 0
    assert "embedded_coverage" in record["extra"]
    assert "core1.walker.ptb_fetches.value" in record["metrics"]
    assert '"core": 1' in events.read_text()


def test_run_validation_failure_still_emits_json(capsys):
    assert main(["run", "mcf", "--accesses", "0", "--emit-json"]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["error_kind"] == "config"
    assert "--accesses" in record["error"]
    assert record["metrics"] == {}


def test_run_mid_run_failure_emits_json_with_metrics(tmp_path, capsys):
    """A checkpoint write to an unwritable path fails mid-run; the JSON
    error document still carries every metric collected so far."""
    missing_dir = tmp_path / "nope" / "ck.pkl"
    code = main(["run", "mcf", "--accesses", "6000", "--scale", "0.12",
                 "--checkpoint", str(missing_dir),
                 "--checkpoint-every", "300", "--emit-json"])
    assert code == 1
    captured = capsys.readouterr()
    record = json.loads(captured.out)
    assert record["error_kind"] == "resource"
    assert "checkpoint" in record["error"]
    assert record["metrics"].get("tlb.total", 0) > 0
    assert "error (resource)" in captured.err


def test_run_rejects_bad_fault_spec(capsys):
    assert main(["run", "mcf", "--faults", "hal9000:0.1"]) == 2
    assert "unknown fault kind" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Fault injection and supervised runs through the CLI
# ----------------------------------------------------------------------

RUN_SMALL = ["run", "mcf", "--accesses", "6000", "--scale", "0.12",
             "--seed", "3"]


def test_run_with_faults_reports_resilience_metrics(capsys):
    assert main(RUN_SMALL + ["--faults", "dram_read_error:0.02:2",
                             "--emit-json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["accesses"] > 0 and not record.get("truncated")
    assert record["metrics"]["resilience.faults_injected"] > 0
    assert record["metrics"]["resilience.dram_retries"] > 0
    assert "resilience" in record["metrics_tree"]


def test_run_checkpoint_resume_matches_uninterrupted(tmp_path, capsys):
    assert main(RUN_SMALL) == 0
    baseline = capsys.readouterr().out
    path = str(tmp_path / "ck.pkl")
    assert main(RUN_SMALL + ["--checkpoint", path,
                             "--checkpoint-every", "300"]) == 0
    assert capsys.readouterr().out == baseline
    assert main(["run", "--resume", path]) == 0
    assert capsys.readouterr().out == baseline


def test_run_wall_clock_truncation_exits_3_then_resumes(tmp_path, capsys):
    assert main(RUN_SMALL) == 0
    baseline = capsys.readouterr().out
    path = str(tmp_path / "ck.pkl")
    code = main(RUN_SMALL + ["--checkpoint", path, "--emit-json",
                             "--wall-clock-limit", "1e-9"])
    assert code == 3
    captured = capsys.readouterr()
    record = json.loads(captured.out)
    assert record["truncated"] is True
    assert "wall-clock limit" in record["error"]
    assert "run truncated" in captured.err
    assert main(["run", "--resume", path]) == 0
    assert capsys.readouterr().out == baseline


def test_run_resume_rejects_garbage_checkpoint(tmp_path, capsys):
    path = tmp_path / "bogus.pkl"
    path.write_text("not a checkpoint")
    assert main(["run", "--resume", str(path)]) == 2
    assert "not a repro checkpoint" in capsys.readouterr().err


def test_run_resume_missing_checkpoint_is_resource_error(tmp_path, capsys):
    assert main(["run", "--resume", str(tmp_path / "missing.pkl")]) == 1
    assert "error (resource)" in capsys.readouterr().err


def test_run_rejects_faults_with_resume(tmp_path, capsys):
    assert main(["run", "--resume", str(tmp_path / "x.pkl"),
                 "--faults", "stale_cte"]) == 2
    assert "cannot be combined" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Observability: tracing, time series, profiling, reports
# ----------------------------------------------------------------------

@pytest.mark.parametrize("argv, needle", [
    (["run", "mcf", "--trace-sample", "0", "--trace-out", "/tmp/t.json"],
     "--trace-sample must be >= 1"),
    (["run", "mcf", "--trace-sample", "8"], "--trace-sample needs --trace-out"),
    (["run", "mcf", "--trace-out", "/tmp/t.json", "--trace-buffer", "1"],
     "--trace-buffer must be >= 2"),
    (["run", "mcf", "--interval-ns", "0", "--interval-out", "/tmp/s.csv"],
     "--interval-ns must be > 0"),
    (["run", "mcf", "--interval-ns", "100"],
     "--interval-ns needs --interval-out"),
    (["run", "mcf", "--interval-out", "/tmp/s.csv"],
     "--interval-out needs --interval-ns"),
])
def test_observability_validation_errors(capsys, argv, needle):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert needle in err
    assert len(err.strip().splitlines()) == 1


def test_run_emit_json_identical_with_observability_on(tmp_path, capsys):
    """Tracing/time-series/profiling must not perturb simulation metrics.

    ``profile.*`` keys are host wall-clock and non-deterministic, so the
    regression check strips them; every simulated metric must be
    byte-identical.
    """
    argv = ["run", "mcf", "--accesses", "6000", "--scale", "0.12",
            "--seed", "3", "--emit-json"]
    assert main(argv) == 0
    baseline = json.loads(capsys.readouterr().out)
    assert main(argv + [
        "--trace-sample", "16", "--trace-out", str(tmp_path / "t.json"),
        "--trace-buffer", "256",
        "--interval-ns", "1000000", "--interval-out", str(tmp_path / "s.csv"),
        "--profile"]) == 0
    observed = json.loads(capsys.readouterr().out)
    observed["metrics"] = {k: v for k, v in observed["metrics"].items()
                           if not k.startswith("profile.")}
    observed["metrics_tree"].pop("profile", None)
    assert json.dumps(observed, sort_keys=True) == \
        json.dumps(baseline, sort_keys=True)


def test_emit_json_keys_are_sorted(capsys):
    assert main(["run", "mcf", "--accesses", "4000", "--scale", "0.12",
                 "--emit-json"]) == 0
    out = capsys.readouterr().out
    record = json.loads(out)
    metric_keys = list(record["metrics"])
    assert metric_keys == sorted(metric_keys)
    # The whole document is dumped with sort_keys: re-dumping sorted
    # reproduces the exact bytes.
    assert out.strip() == json.dumps(record, indent=2, sort_keys=True)


def test_run_trace_out_perfetto_and_report(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    series = tmp_path / "series.csv"
    result = tmp_path / "run.json"
    argv = ["run", "mcf", "--accesses", "6000", "--scale", "0.12",
            "--seed", "3", "--emit-json",
            "--trace-sample", "8", "--trace-out", str(trace),
            "--interval-ns", "2000", "--interval-out", str(series),
            "--profile"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    result.write_text(captured.out)

    document = json.loads(trace.read_text())
    events = document["traceEvents"]
    assert isinstance(events, list) and events
    categories = {e["cat"] for e in events}
    assert {"access", "walk", "miss", "stage"} <= categories, categories
    assert all("trace_id" in event["args"] for event in events)
    rows = series.read_text().splitlines()
    assert rows[0].startswith("window,start_ns,end_ns,")
    assert len(rows) > 2, "expected more than one window row"

    assert main(["report", str(result), "--trace", str(trace),
                 "--timeseries", str(series)]) == 0
    out = capsys.readouterr().out
    assert "# Run report: mcf" in out
    assert "## Headline metrics" in out
    assert "## Slowest spans" in out
    assert "## Time series" in out

    html = tmp_path / "report.html"
    assert main(["report", str(result), "--html", "--out", str(html)]) == 0
    assert html.read_text().startswith("<!DOCTYPE html>")


def test_trace_convert_round_trip(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main(["run", "mcf", "--accesses", "4000", "--scale", "0.12",
                 "--trace-sample", "8", "--trace-out", str(trace)]) == 0
    capsys.readouterr()
    jsonl = tmp_path / "trace.jsonl"
    assert main(["trace", "convert", str(trace), str(jsonl)]) == 0
    assert "converted" in capsys.readouterr().out
    from repro.sim.tracing import load_spans

    assert load_spans(jsonl) == load_spans(trace)


def test_trace_convert_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("garbage\n")
    assert main(["trace", "convert", str(bad), str(tmp_path / "o.json")]) == 2
    assert "error (config)" in capsys.readouterr().err


def test_run_profile_prints_host_sections(capsys):
    assert main(["run", "mcf", "--accesses", "4000", "--scale", "0.12",
                 "--profile"]) == 0
    out = capsys.readouterr().out
    assert "sim.front_end" in out
    assert "sim.back_end" in out
    assert "controller.serve_miss" in out
    assert "self_ms" in out


def test_report_compare_exit_codes(tmp_path, capsys):
    base = ["run", "mcf", "--accesses", "6000", "--scale", "0.12",
            "--emit-json"]
    assert main(base + ["--seed", "3"]) == 0
    a = tmp_path / "a.json"
    a.write_text(capsys.readouterr().out)
    assert main(base + ["--seed", "4"]) == 0
    b = tmp_path / "b.json"
    b.write_text(capsys.readouterr().out)

    assert main(["report", "--compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("comparing")
    assert "delta" in out and "relative" in out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"workload": "w"}))
    assert main(["report", "--compare", str(a), str(bad)]) == 2
    assert "error (config)" in capsys.readouterr().err


def test_report_requires_result_or_compare(capsys):
    assert main(["report"]) == 2
    assert "error (config)" in capsys.readouterr().err
