"""Engine layer: scheduling, resume, retries, and worker-count
determinism.

These run real (tiny) simulations -- 1.5k accesses at 5% scale -- so
every assertion is against genuine end-to-end rows.
"""

import os
import signal
import sqlite3
import threading
import time

import pytest

from repro.common.errors import ConfigError, ResourceError
from repro.sweep.engine import RetryPolicy, run_sweep
from repro.sweep.spec import SweepSpec
from repro.sweep.store import SweepStore
from repro.sweep.worker import WorkerPool


def tiny_spec(**overrides):
    base = dict(
        name="t",
        workloads=("mcf", "omnetpp"),
        controllers=("compresso", "tmcc@iso"),
        accesses=1_500,
        scale=0.05,
    )
    base.update(overrides)
    return SweepSpec.build(**base)


def test_ephemeral_run_produces_all_results():
    run = run_sweep(tiny_spec())
    assert run.ok and run.store is None and not run.resumed
    assert run.counts == {"done": 4}
    for job in run.jobs:
        assert run.result(job).workload == job.workload


def test_provider_budget_resolution():
    run = run_sweep(tiny_spec())
    for workload in ("mcf", "omnetpp"):
        compresso = run.result(run.find_jobs(workload, "compresso")[0])
        iso_job = run.find_jobs(workload, "tmcc")[0]
        tmcc = run.result(iso_job)
        assert iso_job.budget.kind == "iso"
        assert tmcc.dram_used_bytes <= compresso.dram_used_bytes


def test_store_records_resolved_iso_budget(tmp_path):
    run = run_sweep(tiny_spec(), store=str(tmp_path / "s.db"))
    store = run.store
    compresso = run.result(run.find_jobs("mcf", "compresso")[0])
    iso_row = next(job for job in store.jobs(run.sweep_id)
                   if job["workload"] == "mcf"
                   and job["controller"] == "tmcc")
    assert iso_row["budget_bytes"] == compresso.dram_used_bytes


def test_pool_rows_identical_to_inline(tmp_path):
    """-j 1 and -j N must produce row-identical stores."""
    spec = tiny_spec()
    inline = run_sweep(spec, store=str(tmp_path / "j1.db"), workers=1)
    pooled = run_sweep(spec, store=str(tmp_path / "j2.db"), workers=2)
    assert inline.ok and pooled.ok and not pooled.resumed
    rows_inline = inline.store.fingerprint_rows(inline.sweep_id)
    rows_pooled = pooled.store.fingerprint_rows(pooled.sweep_id)
    assert rows_inline == rows_pooled


def test_killed_sweep_resumes_row_identical(tmp_path):
    """Kill mid-flight; the resumed store must match an uninterrupted one."""
    spec = tiny_spec()
    control = run_sweep(spec, store=str(tmp_path / "control.db"))

    finishes = 0

    def kill_after_first_finish(event, job, record):
        nonlocal finishes
        if event == "finish":
            finishes += 1
            if finishes == 1:
                raise KeyboardInterrupt

    killed_path = str(tmp_path / "killed.db")
    with pytest.raises(KeyboardInterrupt):
        run_sweep(spec, store=killed_path, progress=kill_after_first_finish)
    interrupted = SweepStore.open(killed_path)
    sweep_row = interrupted.find_sweep(spec.name)
    assert sweep_row["status"] == "interrupted"
    assert "done" in interrupted.job_statuses(sweep_row["sweep_id"]).values()

    resumed = run_sweep(spec, store=killed_path)
    assert resumed.resumed and resumed.ok
    assert resumed.skipped == finishes  # completed jobs were not re-run
    assert resumed.store.fingerprint_rows(resumed.sweep_id) == \
        control.store.fingerprint_rows(control.sweep_id)


def test_resume_of_finished_sweep_reloads_results(tmp_path):
    spec = tiny_spec()
    path = str(tmp_path / "s.db")
    first = run_sweep(spec, store=path)
    second = run_sweep(spec, store=path)
    assert second.resumed and second.skipped == len(second.jobs)
    for job in second.jobs:
        assert second.result(job) == first.result(job)


def test_fresh_discards_recorded_rows(tmp_path):
    spec = tiny_spec()
    path = str(tmp_path / "s.db")
    run_sweep(spec, store=path)
    rerun = run_sweep(spec, store=path, fresh=True)
    assert not rerun.resumed and rerun.skipped == 0 and rerun.ok


def test_captured_failure_does_not_stop_the_sweep(tmp_path):
    # A 1-byte budget is under the compressible floor: that cell must
    # record as failed/config while the rest of the matrix completes.
    spec = tiny_spec(
        workloads=("mcf",),
        controllers=("compresso", {"name": "tmcc", "budgets": [1]}),
    )
    run = run_sweep(spec, store=str(tmp_path / "s.db"))
    assert not run.ok
    assert run.counts == {"done": 1, "failed": 1}
    failed = run.find_jobs("mcf", "tmcc")[0]
    assert run.errors[failed.job_id]["error_kind"] == "config"
    with pytest.raises(RuntimeError, match="did not complete"):
        run.result(failed)
    assert run.store.find_sweep(spec.name)["status"] == "failed"


def test_failed_provider_fails_dependents():
    spec = tiny_spec(
        workloads=("mcf",),
        controllers=("compresso", "tmcc@iso"),
        # Time out every job instantly: the compresso reference can
        # never provide a budget, so the iso cell must fail cleanly
        # instead of deadlocking.
        job_timeout_s=1e-9,
    )
    run = run_sweep(spec)
    statuses = set(run.counts)
    assert statuses == {"timeout", "failed"}
    iso_job = run.find_jobs("mcf", "tmcc")[0]
    assert "provider" in run.errors[iso_job.job_id]["error"]


def test_uncaptured_errors_propagate():
    spec = tiny_spec(workloads=("mcf",),
                     controllers=({"name": "tmcc", "budgets": [1]},))
    with pytest.raises(ConfigError):
        run_sweep(spec, capture_errors=False)


def test_invalid_engine_arguments_rejected():
    spec = tiny_spec()
    with pytest.raises(ConfigError, match="workers"):
        run_sweep(spec, workers=0)
    with pytest.raises(ConfigError, match="inline-only"):
        run_sweep(spec, workers=2, system=object())
    with pytest.raises(ConfigError, match="inline-only"):
        run_sweep(spec, workers=2, capture_errors=False)
    with pytest.raises(ConfigError, match="heartbeat"):
        run_sweep(spec, heartbeat_timeout_s=0.0)
    with pytest.raises(ConfigError, match="max_retries"):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ConfigError, match="backoff"):
        RetryPolicy(backoff_s=2.0, backoff_cap_s=1.0)


# ----------------------------------------------------------------------
# Retry / quarantine
# ----------------------------------------------------------------------

FAST_RETRY = RetryPolicy(max_retries=2, backoff_s=0.001,
                         backoff_cap_s=0.01)


def flaky_execute_job(fail_attempts, record_status="failed"):
    """An execute_job stand-in that fails transiently the first
    ``fail_attempts`` times a job is seen, then delegates to the real
    thing."""
    from repro.sweep import worker

    seen = {}

    def fake(job, budget_bytes=None, timeout_s=None, **kwargs):
        seen[job.job_id] = seen.get(job.job_id, 0) + 1
        if seen[job.job_id] <= fail_attempts:
            return {
                "job_id": job.job_id, "status": record_status,
                "error": "synthetic transient failure",
                "error_type": "SyntheticError", "error_kind": "resource",
                "elapsed_s": 0.0, "budget_bytes": budget_bytes,
                "result": None,
            }
        return worker.execute_job(job, budget_bytes, timeout_s, **kwargs)

    return fake


def test_inline_transient_failure_retries_to_success(tmp_path,
                                                     monkeypatch):
    import repro.sweep.engine as engine_module

    monkeypatch.setattr(engine_module, "execute_job",
                        flaky_execute_job(fail_attempts=1))
    spec = tiny_spec(workloads=("mcf",))
    events = []
    run = run_sweep(spec, store=str(tmp_path / "s.db"), retry=FAST_RETRY,
                    progress=lambda event, job, record:
                    events.append(event))
    assert run.ok and not run.quarantined
    assert all(count == 2 for count in run.attempts.values())
    assert events.count("retry") == len(run.jobs)
    for row in run.store.jobs(run.sweep_id):
        assert row["attempts"] == 2
        assert row["last_error"] == "synthetic transient failure"
        assert row["quarantined"] == 0


def test_permanent_failure_is_not_retried(tmp_path):
    # A 1-byte budget raises ConfigError deterministically: exactly one
    # attempt, no quarantine flag (it would fail forever anyway).
    spec = tiny_spec(workloads=("mcf",),
                     controllers=({"name": "tmcc", "budgets": [1]},))
    run = run_sweep(spec, store=str(tmp_path / "s.db"), retry=FAST_RETRY)
    job_id = run.jobs[0].job_id
    assert run.statuses[job_id] == "failed"
    assert run.attempts[job_id] == 1 and not run.quarantined


def test_inline_exhausted_retries_quarantine(tmp_path, monkeypatch):
    import repro.sweep.engine as engine_module

    monkeypatch.setattr(engine_module, "execute_job",
                        flaky_execute_job(fail_attempts=99))
    spec = tiny_spec(workloads=("mcf",), controllers=("compresso",))
    run = run_sweep(spec, store=str(tmp_path / "s.db"), retry=FAST_RETRY)
    job_id = run.jobs[0].job_id
    assert run.statuses[job_id] == "failed"
    assert run.attempts[job_id] == FAST_RETRY.max_retries + 1
    assert run.quarantined[job_id]["error_type"] == "SyntheticError"
    row = run.store.jobs(run.sweep_id)[0]
    assert row["quarantined"] == 1


def test_store_write_failure_is_retried(tmp_path, monkeypatch):
    store = SweepStore.open(str(tmp_path / "s.db"))
    real_finish = store.finish_job
    failures = {"left": 1}

    def flaky_finish(*args, **kwargs):
        if failures["left"]:
            failures["left"] -= 1
            raise sqlite3.OperationalError("database is locked")
        return real_finish(*args, **kwargs)

    monkeypatch.setattr(store, "finish_job", flaky_finish)
    spec = tiny_spec(workloads=("mcf",), controllers=("compresso",))
    run = run_sweep(spec, store=store, retry=FAST_RETRY)
    assert run.ok
    assert store.jobs(run.sweep_id)[0]["status"] == "done"


def test_store_write_failure_exhaustion_aborts(tmp_path, monkeypatch):
    store = SweepStore.open(str(tmp_path / "s.db"))

    def always_fail(*args, **kwargs):
        raise sqlite3.OperationalError("database is locked")

    monkeypatch.setattr(store, "finish_job", always_fail)
    spec = tiny_spec(workloads=("mcf",), controllers=("compresso",))
    with pytest.raises(ResourceError, match="cannot record"):
        run_sweep(spec, store=store, retry=FAST_RETRY)


def test_retry_delay_is_deterministic_and_capped():
    policy = RetryPolicy(max_retries=5, backoff_s=0.5, backoff_cap_s=2.0)
    delays = [policy.delay_s("job", attempt) for attempt in range(1, 6)]
    assert delays == [policy.delay_s("job", attempt)
                      for attempt in range(1, 6)]
    assert all(delay <= 2.0 for delay in delays)
    assert delays[1] > delays[0]  # exponential ramp before the cap
    assert policy.delay_s("job", 1) != policy.delay_s("other", 1)  # jitter


# ----------------------------------------------------------------------
# WorkerPool supervision (external signals, real faults)
# ----------------------------------------------------------------------

def busy_job():
    """One real matrix cell; ``hold_worker_in_job`` keeps its first
    attempt in progress until the test signals the worker."""
    return tiny_spec(workloads=("mcf",),
                     controllers=("compresso",)).expand()[0]


def busy_worker(pool, timeout_s=10.0):
    """The handle of the worker the submitted job landed on, once its
    process is demonstrably inside the job."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        for handle in pool._handles:
            if handle.busy and pool._heartbeats[handle.slot] > 0:
                return handle
        time.sleep(0.02)
    raise AssertionError("no worker picked the job up")


def test_pool_detects_sigkilled_worker_and_recovers(hold_worker_in_job):
    """SIGKILL a worker mid-job: the pool must synthesize a transient
    failure for that attempt, replace the worker, and complete the
    job's retry."""
    pool = WorkerPool(2)
    try:
        job = busy_job()
        pool.submit(job, None, None, attempt=1)
        hold_worker_in_job()
        victim = busy_worker(pool)
        os.kill(victim.proc.pid, signal.SIGKILL)
        record = pool.next_result()
        assert record["status"] == "failed"
        assert record["error_type"] == "WorkerDied"
        assert record["error_kind"] == "resource"
        assert record["attempt"] == 1 and record["job_id"] == job.job_id
        # The slot was respawned and can take the retry.
        assert pool.has_idle
        pool.submit(job, None, None, attempt=2)
        retried = pool.next_result()
        assert retried["status"] == "done" and retried["attempt"] == 2
    finally:
        pool.close()


def test_pool_respawns_dead_idle_worker_on_submit():
    pool = WorkerPool(1)
    try:
        first_pid = pool._handles[0].proc.pid
        os.kill(first_pid, signal.SIGKILL)
        pool._handles[0].proc.join(timeout=5.0)
        job = tiny_spec(workloads=("mcf",),
                        controllers=("compresso",)).expand()[0]
        pool.submit(job, None, None, attempt=1)
        assert pool._handles[0].proc.pid != first_pid
        assert pool.next_result()["status"] == "done"
    finally:
        pool.close()


def test_hung_worker_is_replaced_and_job_retried(hold_worker_in_job):
    """SIGSTOP a worker mid-job: once its heartbeat is older than the
    timeout the pool must kill it, synthesize a transient failure for
    that attempt, respawn the slot, and complete the job's retry."""
    pool = WorkerPool(2, heartbeat_timeout_s=1.0)
    try:
        job = busy_job()
        pool.submit(job, None, None, attempt=1)
        hold_worker_in_job()
        victim = busy_worker(pool)
        os.kill(victim.proc.pid, signal.SIGSTOP)
        # Should the pool never act, kill the victim later so the test
        # fails on the record below instead of waiting forever.
        backstop = threading.Timer(30.0, os.kill,
                                   (victim.proc.pid, signal.SIGKILL))
        backstop.start()
        try:
            record = pool.next_result()
        finally:
            backstop.cancel()
        assert record["status"] == "failed"
        assert record["error_type"] == "WorkerHung"
        assert record["error_kind"] == "resource"
        assert record["attempt"] == 1 and record["job_id"] == job.job_id
        # The pool, not the backstop, killed the stopped worker.
        assert victim.proc.exitcode == -signal.SIGKILL
        replacement = pool._handles[victim.slot]
        assert replacement is not victim and replacement.proc.is_alive()
        pool.submit(job, None, None, attempt=2)
        retried = pool.next_result()
        assert retried["status"] == "done" and retried["attempt"] == 2
    finally:
        pool.close()


def test_corrupt_row_never_reaches_the_store(tmp_path, monkeypatch):
    """A result changed after its worker digested it is retried as
    ``CorruptResult``; only the recomputed, good row is stored."""
    from repro.sweep import worker

    spec = tiny_spec(workloads=("mcf",))
    control = run_sweep(spec, store=str(tmp_path / "control.db"))
    marker = str(tmp_path / "corrupted")
    real_digest = worker.result_digest

    def corrupting_digest(result):
        digest = real_digest(result)
        try:  # the first record any worker sends is corrupted in flight
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return digest
        result.elapsed_ns += 1.0
        return digest

    # Forked workers inherit the patch; the engine checks digests with
    # its own reference to the real function.
    monkeypatch.setattr(worker, "result_digest", corrupting_digest)
    events = []
    run = run_sweep(
        spec, store=str(tmp_path / "s.db"), workers=2, retry=FAST_RETRY,
        progress=lambda event, job, record: events.append((event, record)))
    assert run.ok and not run.quarantined
    retried = [record for event, record in events if event == "retry"]
    assert [record["error_type"] for record in retried] == ["CorruptResult"]
    for row in run.store.jobs(run.sweep_id):
        assert row["status"] == "done" and not row["quarantined"]
    assert run.store.fingerprint_rows(run.sweep_id) == \
        control.store.fingerprint_rows(control.sweep_id)


def test_exhausted_retries_quarantine_not_abort(tmp_path,
                                                kill_worker_on_job):
    """A worker death every attempt hits quarantines its job; the rest
    of the matrix completes, and a resume skips the quarantined cell."""
    spec = tiny_spec()
    path = str(tmp_path / "s.db")
    kill_worker_on_job(0)
    run = run_sweep(
        spec, store=path, workers=2,
        retry=RetryPolicy(max_retries=1, backoff_s=0.01,
                          backoff_cap_s=0.05))
    victim = run.jobs[0]
    assert not run.ok
    assert list(run.quarantined) == [victim.job_id]
    assert run.quarantined[victim.job_id]["attempts"] == 2
    assert run.quarantined[victim.job_id]["error_type"] == "WorkerDied"
    assert run.statuses[victim.job_id] == "failed"
    # The other independent cells still completed.
    assert run.statuses[run.jobs[2].job_id] == "done"
    row = next(job for job in run.store.jobs(run.sweep_id)
               if job["job_id"] == victim.job_id)
    assert row["quarantined"] == 1 and row["attempts"] == 2

    resumed = run_sweep(spec, store=path, workers=2)
    assert resumed.resumed and resumed.skipped == len(spec.expand())
    assert not resumed.quarantined  # nothing re-ran, nothing new


def test_sweep_completes_through_external_worker_death(tmp_path,
                                                      hold_worker_in_job):
    """End to end: an externally SIGKILLed worker costs one attempt,
    the engine requeues per retry policy, and the sweep lands
    row-identical to an undisturbed run."""
    spec = tiny_spec(workloads=("mcf",), controllers=("compresso",))
    control = run_sweep(spec, store=str(tmp_path / "control.db"))

    store_path = str(tmp_path / "killed.db")
    pool_holder = {}
    original_init = WorkerPool.__init__

    def capturing_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        pool_holder["pool"] = self

    import unittest.mock

    with unittest.mock.patch.object(WorkerPool, "__init__",
                                    capturing_init):
        import threading

        def assassin():
            hold_worker_in_job()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                pool = pool_holder.get("pool")
                if pool is not None:
                    for handle in pool._handles:
                        if handle.busy and pool._heartbeats[handle.slot]:
                            os.kill(handle.proc.pid, signal.SIGKILL)
                            return
                time.sleep(0.02)

        thread = threading.Thread(target=assassin, daemon=True)
        thread.start()
        run = run_sweep(spec, store=store_path, workers=2,
                        retry=RetryPolicy(max_retries=3, backoff_s=0.01,
                                          backoff_cap_s=0.05))
        thread.join(timeout=15.0)
    assert run.ok
    assert run.attempts[run.jobs[0].job_id] >= 2  # the kill cost one
    assert run.store.fingerprint_rows(run.sweep_id) == \
        control.store.fingerprint_rows(control.sweep_id)
