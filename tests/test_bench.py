"""Tests for the pinned performance suite (``repro.bench`` + CLI)."""

import json
from pathlib import Path

import pytest

from repro.bench import (
    BENCH_WORKLOADS,
    SEED_SUITE_RATE,
    compare_to_baseline,
    controller_rates,
    default_output_name,
    host_metadata,
    load_document,
    peak_rss_mb,
    render_history,
    run_suite,
    write_document,
)
from repro.cli import main
from repro.common.errors import ConfigError


def document(rates, suite_rate=None):
    """A minimal bench document with the given per-config rates."""
    return {
        "schema": "repro-bench/1",
        "configs": [
            {"workload": workload, "controller": controller,
             "accesses": 1000, "elapsed_s": 1.0,
             "accesses_per_s": rate}
            for (workload, controller), rate in rates.items()
        ],
        "suite_accesses_per_s": suite_rate,
    }


def test_compare_passes_within_allowance():
    baseline = document({("mcf", "tmcc"): 1000.0}, suite_rate=1000.0)
    current = document({("mcf", "tmcc"): 850.0}, suite_rate=850.0)
    assert compare_to_baseline(current, baseline, 0.20) == []


def test_compare_flags_config_and_suite_regressions():
    baseline = document({("mcf", "tmcc"): 1000.0,
                         ("mcf", "compresso"): 1000.0}, suite_rate=1000.0)
    current = document({("mcf", "tmcc"): 700.0,
                        ("mcf", "compresso"): 990.0}, suite_rate=700.0)
    messages = compare_to_baseline(current, baseline, 0.20)
    assert len(messages) == 2
    assert any(m.startswith("mcf/tmcc") for m in messages)
    assert any(m.startswith("suite") for m in messages)


def test_compare_skips_unmatched_configs():
    baseline = document({("mcf", "tmcc"): 1000.0})
    current = document({("bfs", "tmcc"): 1.0})
    assert compare_to_baseline(current, baseline, 0.20) == []


def test_compare_rejects_bad_allowance():
    with pytest.raises(ConfigError):
        compare_to_baseline(document({}), document({}), 1.0)


def test_run_suite_rejects_unknown_workload():
    with pytest.raises(ConfigError):
        run_suite(accesses=100, workloads=("nope",))


def test_default_output_name_is_dated():
    from datetime import date

    assert default_output_name(date(2026, 8, 8)) == "BENCH_2026-08-08.json"


def test_load_document_rejects_non_bench_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError):
        load_document(str(path))
    with pytest.raises(ConfigError):
        load_document(str(tmp_path / "missing.json"))


def test_cli_bench_rejects_unknown_workload(capsys):
    assert main(["bench", "--workloads", "doom3", "--accesses", "100"]) == 2
    assert "unknown bench workload" in capsys.readouterr().err


def test_cli_bench_rejects_bad_regression_bound(capsys):
    assert main(["bench", "--max-regression", "-0.1"]) == 2
    assert "--max-regression" in capsys.readouterr().err


def test_cli_bench_rejects_bad_accesses(capsys):
    assert main(["bench", "--accesses", "0"]) == 2
    assert "--accesses" in capsys.readouterr().err


def test_cli_bench_runs_and_gates(tmp_path, capsys):
    """End to end at toy scale: write a document, then gate a second
    run against it with a full allowance (cannot flake)."""
    out = tmp_path / "bench.json"
    argv = ["bench", "--workloads", "omnetpp", "--accesses", "1500",
            "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    record = json.loads(out.read_text())
    assert record["schema"] == "repro-bench/1"
    assert [c["controller"] for c in record["configs"]] == [
        "uncompressed", "compresso", "tmcc"]
    assert all(c["accesses_per_s"] > 0 for c in record["configs"])
    assert record["suite_accesses"] == 3 * 1500
    assert record["peak_rss_mb"] > 0
    [setup] = record["setup"]
    assert setup["workload"] == "omnetpp"
    assert setup["build_s"] > 0 and setup["model_s"] > 0

    relaxed = tmp_path / "relaxed.json"
    write_document({**record, "configs": [
        dict(c, accesses_per_s=0.001) for c in record["configs"]
    ], "suite_accesses_per_s": 0.001}, str(relaxed))
    assert main(argv[:-1] + [str(tmp_path / "second.json"),
                             "--baseline", str(relaxed)]) == 0
    assert "no regression" in capsys.readouterr().out

    demanding = tmp_path / "demanding.json"
    write_document({**record, "configs": [
        dict(c, accesses_per_s=c["accesses_per_s"] * 1e6)
        for c in record["configs"]
    ], "suite_accesses_per_s": 1e12}, str(demanding))
    assert main(argv[:-1] + [str(tmp_path / "third.json"),
                             "--baseline", str(demanding)]) == 1
    assert "regression:" in capsys.readouterr().err


def test_host_metadata_identifies_the_machine():
    host = host_metadata()
    assert host["python"].count(".") == 2
    assert isinstance(host["cpu"], str) and host["cpu"]
    assert {"machine", "system"} <= host.keys()


def test_controller_rates_aggregate_not_average():
    doc = {"configs": [
        {"workload": "mcf", "controller": "tmcc",
         "accesses": 1000, "elapsed_s": 1.0, "accesses_per_s": 1000.0},
        {"workload": "bfs", "controller": "tmcc",
         "accesses": 3000, "elapsed_s": 1.0, "accesses_per_s": 3000.0},
    ]}
    # 4000 accesses over 2 s, not the 2000 a per-config mean would give.
    assert controller_rates(doc) == {"tmcc": 2000.0}


def test_render_history_table(tmp_path):
    early = document({("mcf", "uncompressed"): 100.0,
                      ("mcf", "tmcc"): 50.0}, suite_rate=SEED_SUITE_RATE)
    late = document({("mcf", "uncompressed"): 200.0,
                     ("mcf", "tmcc"): 100.0},
                    suite_rate=2 * SEED_SUITE_RATE)
    write_document(early, str(tmp_path / "BENCH_2026-01-01.json"))
    write_document(late, str(tmp_path / "BENCH_2026-02-01.json"))
    table = render_history(str(tmp_path))
    lines = table.splitlines()
    assert lines[0].split()[:2] == ["document", "uncompressed"]
    assert "compresso" in lines[0] and "tmcc" in lines[0]
    early_row, late_row = lines[2], lines[3]
    assert early_row.startswith("BENCH_2026-01-01.json")
    assert "1.00x" in early_row and "2.00x" in late_row
    assert late_row.split()[1] == "1,000"  # 1000 acc / 1.0 s, uncompressed
    assert "-" in early_row.split()  # compresso column absent in fixture


def test_peak_rss_is_this_process_in_megabytes():
    """``peak_rss_mb`` is the kernel's high-water mark, in MB."""
    status = Path("/proc/self/status")
    if not status.exists():
        pytest.skip("needs Linux's per-process status file")
    hwm_kb = next(int(line.split()[1])
                  for line in status.read_text().splitlines()
                  if line.startswith("VmHWM:"))
    assert peak_rss_mb() == pytest.approx(hwm_kb / 1024, abs=1.0)


def test_render_history_shows_peak_rss_and_reads_older_documents(tmp_path):
    """Documents from before ``peak_rss_mb`` load, compare and render
    with a "-" in the peak column."""
    older = document({("mcf", "tmcc"): 500.0}, suite_rate=500.0)
    newer = dict(document({("mcf", "tmcc"): 600.0}, suite_rate=600.0),
                 peak_rss_mb=93.4)
    write_document(older, str(tmp_path / "BENCH_2026-01-01.json"))
    write_document(newer, str(tmp_path / "BENCH_2026-02-01.json"))
    lines = render_history(str(tmp_path)).splitlines()
    assert lines[0].split()[-2:] == ["peak", "MB"]
    assert lines[2].split()[-1] == "-"
    assert lines[3].split()[-1] == "93.4"
    loaded = load_document(str(tmp_path / "BENCH_2026-01-01.json"))
    assert compare_to_baseline(newer, loaded, 0.20) == []
    assert compare_to_baseline(loaded, newer, 0.20) == []


def test_render_history_shows_model_seconds_and_reads_older_documents(
        tmp_path):
    """The model column sums each workload's ``model_s``; documents from
    before ``setup`` load, compare and render with a "-" there."""
    older = document({("mcf", "tmcc"): 500.0}, suite_rate=500.0)
    newer = dict(document({("mcf", "tmcc"): 600.0}, suite_rate=600.0),
                 setup=[{"workload": "mcf", "build_s": 0.5, "model_s": 0.25},
                        {"workload": "bfs", "build_s": 0.9, "model_s": 0.5}])
    write_document(older, str(tmp_path / "BENCH_2026-01-01.json"))
    write_document(newer, str(tmp_path / "BENCH_2026-02-01.json"))
    lines = render_history(str(tmp_path)).splitlines()
    assert lines[0].split()[-4:] == ["model", "s", "peak", "MB"]
    assert lines[2].split()[-2:] == ["-", "-"]
    assert lines[3].split()[-2:] == ["0.75", "-"]
    loaded = load_document(str(tmp_path / "BENCH_2026-01-01.json"))
    assert compare_to_baseline(newer, loaded, 0.20) == []


def test_render_history_reads_documents_with_a_numpy_host_flag(tmp_path):
    """Documents written while numpy could be masked carry a
    ``host.numpy`` flag; the history still reads them."""
    host = dict(host_metadata(), numpy=True)
    write_document(dict(document({("mcf", "tmcc"): 500.0}, suite_rate=500.0),
                        host=host),
                   str(tmp_path / "BENCH_2026-08-08.json"))
    table = render_history(str(tmp_path))
    assert table.splitlines()[2].startswith("BENCH_2026-08-08.json")
    assert "numpy" not in host_metadata()


def test_render_history_rejects_empty_directory(tmp_path):
    with pytest.raises(ConfigError):
        render_history(str(tmp_path))


def test_cli_bench_history_runs_no_suite(tmp_path, capsys):
    write_document(document({("mcf", "tmcc"): 500.0}, suite_rate=500.0),
                   str(tmp_path / "BENCH_2026-03-04.json"))
    assert main(["bench", "--history", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "BENCH_2026-03-04.json" in out
    assert "vs seed" in out


def test_cli_bench_history_missing_directory_is_config_error(capsys):
    assert main(["bench", "--history", "/no/such/dir"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (config):")
    assert len(err.strip().splitlines()) == 1


def test_cli_bench_baseline_missing_file_is_config_error(capsys):
    """--baseline pointing nowhere must fail fast (before the suite
    runs) with a one-line config error and exit 2."""
    assert main(["bench", "--baseline", "/no/such/baseline.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (config):")
    assert "cannot read benchmark document" in err
    assert len(err.strip().splitlines()) == 1


def test_cli_bench_baseline_mismatched_schema_is_config_error(tmp_path,
                                                              capsys):
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({"schema": "repro-bench/0",
                                 "configs": []}))
    assert main(["bench", "--baseline", str(stale)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (config):")
    assert "repro-bench/0" in err and "repro-bench/1" in err
    assert len(err.strip().splitlines()) == 1


def test_cli_bench_baseline_malformed_config_record(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({
        "schema": "repro-bench/1",
        "configs": [{"workload": "mcf", "controller": "tmcc",
                     "accesses_per_s": "fast"}],
    }))
    assert main(["bench", "--baseline", str(broken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (config):")
    assert "accesses_per_s" in err


def test_bench_workloads_are_the_fig18_set():
    assert BENCH_WORKLOADS == ("pageRank", "shortestPath", "bfs", "kcore",
                               "mcf", "omnetpp", "canneal")
