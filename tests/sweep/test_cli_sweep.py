"""The ``repro sweep`` command family, end to end through main()."""

import json

from repro.cli import main
from repro.sweep.spec import SweepSpec


def write_spec(tmp_path, **overrides):
    base = dict(
        name="clismoke",
        workloads=["mcf"],
        controllers=["compresso", "tmcc@iso"],
        accesses=1_500,
        scale=0.05,
    )
    base.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(base))
    return str(path)


def test_sweep_run_then_ls_show_export(tmp_path, capsys):
    spec = write_spec(tmp_path)
    store = str(tmp_path / "s.db")
    assert main(["sweep", "run", spec, "--store", store]) == 0
    out = capsys.readouterr().out
    assert "[1/2]" in out and "[2/2]" in out and "2 done" in out

    assert main(["sweep", "ls", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "clismoke" in out and "2/2" in out

    assert main(["sweep", "show", "clismoke", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "compresso" in out and "tmcc" in out and "done" in out

    assert main(["sweep", "export", "clismoke", "--store", store]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["schema"].startswith("repro-sweep/")
    assert len(document["jobs"]) == 2

    csv_out = tmp_path / "rows.csv"
    assert main(["sweep", "export", "clismoke", "--store", store,
                 "--format", "csv", "--out", str(csv_out)]) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0].startswith("idx,workload,") and len(lines) == 3


def test_sweep_run_resumes(tmp_path, capsys):
    spec = write_spec(tmp_path)
    store = str(tmp_path / "s.db")
    assert main(["sweep", "run", spec, "--store", store]) == 0
    capsys.readouterr()
    assert main(["sweep", "run", spec, "--store", store]) == 0
    out = capsys.readouterr().out
    assert "(resumed)" in out
    assert out.count("skipped (already recorded)") == 2


def test_sweep_run_workers_matches_inline(tmp_path, capsys):
    from repro.sweep.store import SweepStore

    spec = write_spec(tmp_path, workloads=["mcf", "omnetpp"])
    one, two = str(tmp_path / "j1.db"), str(tmp_path / "j2.db")
    assert main(["sweep", "run", spec, "--store", one, "-j", "1"]) == 0
    assert main(["sweep", "run", spec, "--store", two, "-j", "2"]) == 0
    capsys.readouterr()
    store_one, store_two = SweepStore.open(one), SweepStore.open(two)
    sweep_id = store_one.find_sweep("clismoke")["sweep_id"]
    assert store_one.fingerprint_rows(sweep_id) == \
        store_two.fingerprint_rows(sweep_id)


def test_sweep_builtin_spec_accepted(tmp_path, capsys):
    """The builtin tiny matrix end to end: 'smoke' (2 workloads x
    compresso/tmcc@iso) on 2 worker processes, a second invocation that
    resumes and skips every job, and a valid export."""
    store = str(tmp_path / "s.db")
    assert main(["sweep", "run", "smoke", "--store", store,
                 "--jobs", "2"]) == 0
    assert "4 done" in capsys.readouterr().out

    assert main(["sweep", "run", "smoke", "--store", store]) == 0
    resumed = capsys.readouterr().out
    assert "(resumed)" in resumed
    assert resumed.count("skipped (already recorded)") == 4

    assert main(["sweep", "ls", "--store", store]) == 0
    assert main(["sweep", "show", "smoke", "--store", store]) == 0
    out = tmp_path / "smoke.json"
    assert main(["sweep", "export", "smoke", "--store", store,
                 "--out", str(out)]) == 0
    document = json.loads(out.read_text())
    assert document["schema"].startswith("repro-sweep/"), document["schema"]
    jobs = document["jobs"]
    assert len(jobs) == 4 and all(job["status"] == "done" for job in jobs)
    iso = [job for job in jobs if job["budget"] == "iso"]
    assert iso and all(job["budget_bytes"] for job in iso)


def test_sweep_error_exit_codes(tmp_path, capsys):
    store = str(tmp_path / "s.db")
    assert main(["sweep", "run", "nosuchspec", "--store", store]) == 2
    assert "no spec file" in capsys.readouterr().err
    assert main(["sweep", "run", "smoke", "--store", store,
                 "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert main(["sweep", "run", "smoke", "--store", store,
                 "--timeout", "-5"]) == 2
    assert "--timeout" in capsys.readouterr().err
    assert main(["sweep", "show", "nosuch", "--store", store]) == 2
    assert "no sweep" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["sweep", "run", str(bad), "--store", store]) == 2
    assert "JSON" in capsys.readouterr().err


def test_sweep_run_failed_job_exits_1(tmp_path, capsys):
    spec = write_spec(tmp_path,
                      controllers=["compresso",
                                   {"name": "tmcc", "budgets": [1]}])
    assert main(["sweep", "run", spec, "--store",
                 str(tmp_path / "s.db")]) == 1
    out = capsys.readouterr().out
    assert "failed" in out


def test_sweep_robustness_flag_validation(tmp_path, capsys):
    store = str(tmp_path / "s.db")
    assert main(["sweep", "run", "smoke", "--store", store,
                 "--max-retries=-1"]) == 2
    assert "--max-retries" in capsys.readouterr().err
    assert main(["sweep", "run", "smoke", "--store", store,
                 "--heartbeat-timeout", "0"]) == 2
    assert "--heartbeat-timeout" in capsys.readouterr().err


def test_sweep_quarantine_exit_code_and_report(tmp_path, capsys,
                                               kill_worker_on_job):
    """A worker death every attempt hits: exit 4, a quarantine report
    on stderr, and `sweep show` flagging the cell."""
    spec = write_spec(tmp_path)
    store = str(tmp_path / "s.db")
    kill_worker_on_job(0)
    code = main(["sweep", "run", spec, "--store", store, "-j", "2",
                 "--max-retries", "1"])
    captured = capsys.readouterr()
    assert code == 4
    assert "quarantined" in captured.out
    assert "quarantine report" in captured.err
    assert "after 2 attempts" in captured.err

    assert main(["sweep", "show", "clismoke", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "[quarantined]" in out
    assert " try " in out  # the attempts column made it into the header


def test_sweep_show_reports_attempts(tmp_path, capsys):
    spec = write_spec(tmp_path)
    store = str(tmp_path / "s.db")
    assert main(["sweep", "run", spec, "--store", store]) == 0
    capsys.readouterr()
    assert main(["sweep", "show", "clismoke", "--store", store]) == 0
    out = capsys.readouterr().out
    assert " try " in out
    # Every fault-free job took exactly one attempt, none quarantined.
    done = [line for line in out.splitlines() if " done " in line]
    assert done and all("   1 " in line for line in done)
    assert "[quarantined]" not in out


def test_sweep_export_failures(tmp_path, capsys):
    spec = write_spec(tmp_path)
    store = str(tmp_path / "s.db")
    assert main(["sweep", "run", spec, "--store", store]) == 0
    capsys.readouterr()
    assert main(["sweep", "export", "clismoke", "--store", store,
                 "--failures"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["schema"] == "repro-sweep-failures/1"
    assert document["failures"] == []  # clean sweep

    assert main(["sweep", "export", "clismoke", "--store", store,
                 "--failures", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("idx,job_id,workload,")


def test_sweep_repair_command(tmp_path, capsys):
    spec = write_spec(tmp_path)
    store = str(tmp_path / "s.db")
    out = str(tmp_path / "repaired.db")
    assert main(["sweep", "run", spec, "--store", store]) == 0
    capsys.readouterr()
    assert main(["sweep", "repair", store, "--out", out]) == 0
    captured = capsys.readouterr()
    assert "2 job(s) salvaged" in captured.out
    assert main(["sweep", "show", "clismoke", "--store", out]) == 0
    assert "done" in capsys.readouterr().out
    assert main(["sweep", "repair", str(tmp_path / "missing.db"),
                 "--out", str(tmp_path / "x.db")]) == 2
    assert "no sweep store" in capsys.readouterr().err


def test_sweep_spec_hash_stability():
    # The CLI resume path keys on the spec hash: loading the same file
    # twice (or the equivalent dict) must find the same sweep.
    spec = SweepSpec.from_dict({
        "name": "t", "workloads": ["mcf"], "controllers": ["compresso"],
    })
    assert spec.spec_hash() == SweepSpec.from_dict(spec.to_dict()).spec_hash()
