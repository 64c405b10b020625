"""The sweep engine: declarative job matrices, a worker pool, a store.

Every "compare N designs" experiment used to be a hand-rolled ``for``
loop that re-ran each configuration from scratch with no record of what
was measured.  This package replaces those loops with one engine:

- :mod:`repro.sweep.spec` -- a declarative sweep spec (TOML/JSON files
  or the programmatic builder) with axes over workloads x controllers x
  budgets x seeds x fault plans, expanded into a deterministic job
  matrix with per-job derived seeds.
- :mod:`repro.sweep.worker` -- single-job execution plus a supervised
  multiprocessing pool (fresh process-local state per worker, per-job
  wall-clock watchdogs reusing the run supervisor's discipline, dead
  and hung workers replaced).
- :mod:`repro.sweep.store` -- a schema-versioned SQLite result store
  (sweeps/jobs/metrics tables, engine/connection split) with a
  query/export surface behind ``repro sweep ls/show/export``.
- :mod:`repro.sweep.engine` -- the orchestrator: registers the matrix,
  dispatches ready jobs (budget dependencies resolved from completed
  results), records everything, retries transient host failures (a
  worker killed or hung, a store write that failed) and quarantines a
  job that exhausts its retries, and resumes killed sweeps by skipping
  jobs already ``done``.
- :mod:`repro.sweep.reduce` -- reductions from job rows back to the
  paper's figures (iso-capacity speedups, capacity curves).
"""

from repro.sweep.engine import RetryPolicy, SweepRun, run_sweep
from repro.sweep.spec import (
    BudgetSpec,
    ControllerSpec,
    JobSpec,
    SweepSpec,
    builtin_spec,
)
from repro.sweep.store import STORE_SCHEMA_VERSION, StoreEngine, SweepStore

__all__ = [
    "BudgetSpec",
    "ControllerSpec",
    "JobSpec",
    "RetryPolicy",
    "SweepSpec",
    "builtin_spec",
    "SweepRun",
    "run_sweep",
    "StoreEngine",
    "SweepStore",
    "STORE_SCHEMA_VERSION",
]
