"""Shared fixtures for the sweep tests."""

import os
import signal
import time

import pytest


@pytest.fixture
def kill_worker_on_job(monkeypatch):
    """Arm a fault every attempt hits: a pool worker handed the job at
    matrix index ``index`` SIGKILLs itself, the way the OOM killer
    would.  Forked workers inherit the patch; the test process itself
    is never killed."""
    from repro.sweep import worker

    parent = os.getpid()
    real = worker.execute_job

    def arm(index):
        def execute_job(job, *args, **kwargs):
            if job.index == index and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(job, *args, **kwargs)

        monkeypatch.setattr(worker, "execute_job", execute_job)

    return arm


@pytest.fixture
def hold_worker_in_job(monkeypatch, tmp_path):
    """Keep the first job a pool worker is handed in progress until the
    test signals that worker: the worker beats its heartbeat and waits,
    for at most 30 s, before running the job.  Later attempts (and jobs
    run in the test process) run at once.  The fixture's value waits
    until a worker is held, so a SIGKILL or SIGSTOP sent after it always
    lands inside the job, however fast the host is."""
    from repro.sweep import worker

    parent = os.getpid()
    real = worker.execute_job
    marker = tmp_path / "held"

    def execute_job(job, *args, heartbeat=None, **kwargs):
        if os.getpid() != parent and _first_claim(str(marker)):
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if heartbeat is not None:
                    heartbeat()
                time.sleep(0.01)
        return real(job, *args, heartbeat=heartbeat, **kwargs)

    monkeypatch.setattr(worker, "execute_job", execute_job)

    def wait_until_held(timeout_s: float = 10.0) -> None:
        deadline = time.monotonic() + timeout_s
        while not marker.exists():
            if time.monotonic() > deadline:
                raise AssertionError("no worker started the held job")
            time.sleep(0.01)

    return wait_until_held


def _first_claim(path: str) -> bool:
    """True for the one caller, in any process, that creates ``path``."""
    try:
        os.close(os.open(path, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return False
    return True
