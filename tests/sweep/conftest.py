"""Shared fixtures for the sweep tests."""

import os
import signal

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
