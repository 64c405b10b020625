"""The sweep orchestrator: matrix in, recorded results out.

:func:`run_sweep` ties the layers together:

1. expand the :class:`~repro.sweep.spec.SweepSpec` into its job matrix;
2. register the sweep in the :class:`~repro.sweep.store.SweepStore`
   (or find the existing one by spec hash -- that is a *resume*: jobs
   already ``done`` are skipped wholesale, jobs left ``running`` by a
   killed process are re-enqueued as ``pending``);
3. pre-build each distinct workload trace once in the parent so a
   fork-based pool shares them read-only;
4. dispatch ready jobs -- a job is ready when it has no budget
   provider, or its provider finished (iso/fraction budgets resolve
   from the provider's measured ``dram_used_bytes``) -- inline for
   ``workers=1``, through the :class:`~repro.sweep.worker.WorkerPool`
   otherwise;
5. record every outcome (status, resolved budget, result document,
   headline metrics) in the store as it lands.

Host-fault resilience sits between steps 4 and 5.  Every attempt
outcome is classified **transient or permanent** (see
:data:`repro.common.errors.TRANSIENT_ERROR_KINDS`): worker death, hung
workers, timeouts, corrupted result records, and store I/O failures
are transient and retried under the :class:`RetryPolicy` (exponential
backoff, deterministic jitter, capped); ``ConfigError`` and
``ModelInvariantError`` are permanent and fail fast.  A transient job
that exhausts its retries is **quarantined** -- recorded terminal with
the ``quarantined`` flag so the rest of the matrix completes and the
CLI can report it distinctly.

Determinism: scheduling never feeds back into simulation.  Every job's
seed and configuration is fixed at expansion time, each job runs in a
fresh simulator, and budget resolution depends only on the provider's
(deterministic) result -- so ``-j 1`` and ``-j 8`` sweeps, killed-
then-resumed sweeps, and sweeps that retried a dead worker's job
produce row-identical stores (see
:meth:`~repro.sweep.store.SweepStore.fingerprint_rows`).
"""

from __future__ import annotations

import hashlib
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.common.errors import ConfigError, ResourceError, is_transient
from repro.sim.results import SimResult
from repro.sweep.spec import JobSpec, SweepSpec
from repro.sweep.store import SweepStore
from repro.sweep.worker import WorkerPool, execute_job, result_digest

#: Progress callback signature: (event, job, record_or_None).  Events:
#: ``skip`` (already done in the store), ``start``, ``retry`` (a
#: transient attempt failed, the job goes back in the queue), and
#: ``finish``.
ProgressFn = Callable[[str, JobSpec, Optional[dict]], None]


@dataclass(frozen=True)
class RetryPolicy:
    """How transient attempt failures are retried.

    Deliberately *not* part of :class:`~repro.sweep.spec.SweepSpec`:
    retries change host behaviour, never simulated results, so they
    must not perturb the spec hash a resume keys on.
    """

    #: Transient failures re-run up to this many times (so a job gets
    #: ``max_retries + 1`` attempts total); 0 disables retries.
    max_retries: int = 2
    #: First backoff delay; doubles per retry.
    backoff_s: float = 0.1
    #: Backoff ceiling.
    backoff_cap_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_s < 0 or self.backoff_cap_s < self.backoff_s:
            raise ConfigError(
                f"backoff must satisfy 0 <= backoff_s <= backoff_cap_s, "
                f"got {self.backoff_s}/{self.backoff_cap_s}")

    def delay_s(self, job_id: str, attempt: int) -> float:
        """Capped exponential backoff with *deterministic* jitter.

        The jitter factor (0.5..1.0) comes from hashing (job_id,
        attempt), so concurrent retries de-synchronize without making
        the schedule nondeterministic across runs.
        """
        base = min(self.backoff_cap_s,
                   self.backoff_s * (2 ** max(0, attempt - 1)))
        digest = hashlib.sha256(f"{job_id}:{attempt}".encode()).hexdigest()
        frac = int(digest[:8], 16) / 0xFFFFFFFF
        return base * (0.5 + 0.5 * frac)


def _is_transient(record: dict) -> bool:
    """Whether an attempt record describes a retryable failure."""
    if record["status"] == "timeout":
        return True
    return (record["status"] == "failed"
            and is_transient(record.get("error_kind", "")))


@dataclass
class SweepRun:
    """Everything one :func:`run_sweep` call produced or reloaded."""

    sweep_id: str
    spec: SweepSpec
    jobs: List[JobSpec]
    store: Optional[SweepStore]
    resumed: bool
    skipped: int
    elapsed_s: float = 0.0
    statuses: Dict[str, str] = field(default_factory=dict)
    results: Dict[str, SimResult] = field(default_factory=dict)
    errors: Dict[str, dict] = field(default_factory=dict)
    #: job_id -> attempts made this run (resumed-done jobs absent).
    attempts: Dict[str, int] = field(default_factory=dict)
    #: job_id -> error info for jobs that exhausted their retries.
    quarantined: Dict[str, dict] = field(default_factory=dict)

    @property
    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for status in self.statuses.values():
            counts[status] = counts.get(status, 0) + 1
        return counts

    @property
    def ok(self) -> bool:
        return all(status == "done" for status in self.statuses.values())

    def find_jobs(self, workload: Optional[str] = None,
                  controller: Optional[str] = None,
                  budget_kind: Optional[str] = None,
                  seed: Optional[int] = None) -> List[JobSpec]:
        """Matrix cells matching the given coordinates, in matrix order."""
        return [
            job for job in self.jobs
            if (workload is None or job.workload == workload)
            and (controller is None or job.controller == controller)
            and (budget_kind is None or job.budget.kind == budget_kind)
            and (seed is None or job.seed == seed)
        ]

    def result(self, job: JobSpec) -> SimResult:
        """The job's result; raises with its recorded error otherwise."""
        found = self.results.get(job.job_id)
        if found is None:
            error = self.errors.get(job.job_id, {})
            raise RuntimeError(
                f"job {job.label()!r} did not complete "
                f"({self.statuses.get(job.job_id, 'missing')}"
                f"{': ' + error['error'] if error.get('error') else ''})")
        return found


def run_sweep(
    spec: SweepSpec,
    store: Union[SweepStore, str, None] = None,
    workers: int = 1,
    fresh: bool = False,
    progress: Optional[ProgressFn] = None,
    capture_errors: bool = True,
    workload_resolver: Optional[Callable[[JobSpec], object]] = None,
    system=None,
    model=None,
    retry: Optional[RetryPolicy] = None,
    heartbeat_timeout_s: Optional[float] = None,
) -> SweepRun:
    """Run (or resume) a sweep; see the module docs for the phases.

    ``store`` may be a path, an open :class:`SweepStore`, or None for an
    ephemeral in-memory run (no resume).  ``workload_resolver`` /
    ``system`` / ``model`` let the experiment protocols inject pre-built
    objects; they are inline-only (``workers`` must be 1) because worker
    processes rebuild state from the job spec alone.  ``retry`` defaults
    to :class:`RetryPolicy`'s defaults; ``heartbeat_timeout_s`` arms
    hung-worker detection in the pool.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    overrides = (workload_resolver is not None or system is not None
                 or model is not None)
    if workers > 1 and overrides:
        raise ConfigError("workload_resolver/system/model overrides are "
                          "inline-only; use workers=1")
    if workers > 1 and not capture_errors:
        raise ConfigError("capture_errors=False is inline-only; "
                          "use workers=1")
    if heartbeat_timeout_s is not None and heartbeat_timeout_s <= 0:
        raise ConfigError(f"heartbeat timeout must be > 0 s, "
                          f"got {heartbeat_timeout_s}")
    if retry is None:
        retry = RetryPolicy()

    jobs = spec.expand(known_workloads_only=workload_resolver is None)
    if isinstance(store, str):
        store = SweepStore.open(store)

    resumed = False
    if store is not None:
        sweep_id, resumed = store.register_sweep(spec, jobs)
        if fresh and resumed:
            store.drop_sweep(sweep_id)
            sweep_id, resumed = store.register_sweep(spec, jobs)
    else:
        sweep_id = f"{spec.name}-{spec.spec_hash()[:8]}"

    run = SweepRun(sweep_id=sweep_id, spec=spec, jobs=jobs, store=store,
                   resumed=resumed, skipped=0)
    statuses = (store.job_statuses(sweep_id) if store is not None
                else {job.job_id: "pending" for job in jobs})
    run.statuses = statuses

    by_id = {job.job_id: job for job in jobs}
    # Resume: reload completed results (dependents may need provider
    # budgets, reductions need every row) and skip those jobs.
    for job in jobs:
        if statuses[job.job_id] == "done" and store is not None:
            result = store.result_for(job.job_id)
            if result is not None:
                run.results[job.job_id] = result
            run.skipped += 1
            if progress is not None:
                progress("skip", job, None)
        elif statuses[job.job_id] in ("failed", "timeout"):
            run.skipped += 1
            if progress is not None:
                progress("skip", job, None)

    todo = [job for job in jobs
            if statuses[job.job_id] not in ("done", "failed", "timeout")]

    # Pre-build each distinct trace once in the parent (fork sharing).
    if workload_resolver is None:
        from repro.workloads.suite import cached_workload

        for key in sorted({(job.workload, job.accesses, job.workload_seed,
                            job.scale) for job in todo}):
            cached_workload(key[0], max_accesses=key[1], seed=key[2],
                            scale=key[3])

    attempts: Dict[str, int] = {job.job_id: 0 for job in todo}
    run.attempts = attempts

    def budget_for(job: JobSpec) -> Optional[int]:
        if not job.budget.needs_reference:
            return job.budget.resolve(None)
        provider = run.results.get(job.provider_id)
        if provider is None:
            raise ConfigError(
                f"budget provider for {job.label()!r} has no result")
        return job.budget.resolve(provider.dram_used_bytes)

    def ready(job: JobSpec) -> bool:
        if not job.budget.needs_reference:
            return True
        return statuses.get(job.provider_id) == "done"

    def provider_dead(job: JobSpec) -> bool:
        return (job.budget.needs_reference
                and statuses.get(job.provider_id) in ("failed", "timeout"))

    def store_finish(job: JobSpec, record: dict,
                     quarantined: bool = False) -> None:
        """Persist a terminal outcome, riding out transient store I/O
        failures (ENOSPC, a locked database) with the same backoff the
        jobs themselves get."""
        if store is None:
            return
        write_attempt = 0
        while True:
            write_attempt += 1
            try:
                store.finish_job(
                    job.job_id, record["status"],
                    elapsed_s=record.get("elapsed_s", 0.0),
                    error=record.get("error", ""),
                    budget_bytes=record.get("budget_bytes"),
                    result=record["result"],
                    quarantined=quarantined,
                )
                return
            except (OSError, sqlite3.Error) as error:
                if write_attempt > retry.max_retries:
                    raise ResourceError(
                        f"cannot record result for {job.label()!r} after "
                        f"{write_attempt} attempts: {error}") from error
                time.sleep(retry.delay_s(job.job_id, write_attempt))

    def record_outcome(job: JobSpec, record: dict,
                       quarantined: bool = False) -> None:
        statuses[job.job_id] = record["status"]
        if record["result"] is not None and record["status"] == "done":
            run.results[job.job_id] = record["result"]
        if record["status"] != "done":
            run.errors[job.job_id] = {
                "error": record.get("error", ""),
                "error_type": record.get("error_type", ""),
                "error_kind": record.get("error_kind", ""),
            }
        if quarantined:
            run.quarantined[job.job_id] = {
                "error": record.get("error", ""),
                "error_type": record.get("error_type", ""),
                "attempts": attempts.get(job.job_id, 0),
            }
        store_finish(job, record, quarantined=quarantined)
        if progress is not None:
            progress("finish", job, record)

    def verify_record(job: JobSpec, record: dict) -> dict:
        """Digest-check a pool record; corruption becomes a transient
        failure record so the normal retry path handles it."""
        if "result_digest" not in record:
            return record
        if result_digest(record["result"]) == record["result_digest"]:
            return record
        return {
            "job_id": job.job_id, "status": "failed",
            "error": "result record corrupted in flight "
                     "(digest mismatch)",
            "error_type": "CorruptResult", "error_kind": "resource",
            "elapsed_s": record.get("elapsed_s", 0.0),
            "budget_bytes": record.get("budget_bytes"), "result": None,
        }

    def handle_outcome(job: JobSpec, record: dict) -> Optional[float]:
        """Classify an attempt outcome.

        Transient failure with retry budget left: remember the error,
        flip the job back to pending, and return the backoff delay.
        Otherwise record the terminal outcome (quarantining exhausted
        transients) and return None.
        """
        attempt = attempts.get(job.job_id, 0)
        transient = _is_transient(record)
        if transient and attempt <= retry.max_retries:
            if store is not None:
                store.record_attempt_failure(
                    job.job_id, record.get("error", ""))
            statuses[job.job_id] = "pending"
            if progress is not None:
                progress("retry", job, record)
            return retry.delay_s(job.job_id, attempt)
        record_outcome(job, record, quarantined=transient)
        return None

    def fail_dependent(job: JobSpec) -> None:
        provider = by_id[job.provider_id]
        record_outcome(job, {
            "job_id": job.job_id, "status": "failed",
            "error": f"budget provider {provider.label()!r} "
                     f"{statuses.get(job.provider_id)}",
            "error_type": "ProviderFailed", "error_kind": "config",
            "elapsed_s": 0.0, "budget_bytes": None, "result": None,
        })

    def begin_attempt(job: JobSpec) -> None:
        attempts[job.job_id] = attempts.get(job.job_id, 0) + 1
        if store is not None:
            store.mark_job_running(job.job_id)
        statuses[job.job_id] = "running"
        if progress is not None:
            progress("start", job, None)

    started = time.perf_counter()
    completed = False
    try:
        if workers == 1:
            _run_inline(todo, ready, provider_dead, budget_for,
                        handle_outcome, fail_dependent, begin_attempt,
                        spec, capture_errors, workload_resolver, system,
                        model)
        else:
            _run_pool(todo, by_id, ready, provider_dead, budget_for,
                      handle_outcome, fail_dependent, begin_attempt,
                      verify_record, attempts, spec, workers,
                      heartbeat_timeout_s)
        completed = True
    finally:
        run.elapsed_s = time.perf_counter() - started
        run.statuses = statuses
        if store is not None:
            # Best-effort: the status row must not mask the original
            # failure when the store itself is what broke.
            try:
                if not completed:
                    store.set_sweep_status(sweep_id, "interrupted")
                elif all(status == "done"
                         for status in statuses.values()):
                    store.set_sweep_status(sweep_id, "done")
                else:
                    store.set_sweep_status(sweep_id, "failed")
            except (ResourceError, OSError, sqlite3.Error):
                if completed:
                    raise
    return run


def _run_inline(todo, ready, provider_dead, budget_for, handle_outcome,
                fail_dependent, begin_attempt, spec, capture_errors,
                workload_resolver, system, model) -> None:
    """Single-process scheduling: matrix order, providers first;
    retries run in place after their backoff sleep."""
    pending = list(todo)
    while pending:
        progressed = False
        deferred: List[JobSpec] = []
        for job in pending:
            if provider_dead(job):
                fail_dependent(job)
                progressed = True
                continue
            if not ready(job):
                deferred.append(job)
                continue
            budget = budget_for(job)
            while True:
                begin_attempt(job)
                workload = (workload_resolver(job)
                            if workload_resolver is not None else None)
                record = execute_job(
                    job, budget_bytes=budget, timeout_s=spec.job_timeout_s,
                    workload=workload, system=system, model=model,
                    capture_errors=capture_errors,
                )
                delay = handle_outcome(job, record)
                if delay is None:
                    break
                time.sleep(delay)
            progressed = True
        pending = deferred
        if pending and not progressed:
            stuck = ", ".join(job.label() for job in pending[:4])
            raise ConfigError(f"sweep deadlocked waiting on budget "
                              f"providers for: {stuck}")


def _run_pool(todo, by_id, ready, provider_dead, budget_for,
              handle_outcome, fail_dependent, begin_attempt, verify_record,
              attempts, spec, workers, heartbeat_timeout_s) -> None:
    """Pool scheduling: keep every worker fed with ready jobs; retries
    rejoin the queue when their backoff expires."""
    pool = WorkerPool(workers, heartbeat_timeout_s=heartbeat_timeout_s)
    try:
        waiting = list(todo)
        retries: List[Tuple[float, JobSpec]] = []

        def launch(job: JobSpec) -> None:
            budget = budget_for(job)
            begin_attempt(job)
            pool.submit(job, budget, spec.job_timeout_s,
                        attempt=attempts[job.job_id])

        def dispatch_ready() -> None:
            nonlocal waiting
            deferred: List[JobSpec] = []
            for job in waiting:
                if provider_dead(job):
                    fail_dependent(job)
                elif ready(job) and pool.has_idle:
                    launch(job)
                else:
                    deferred.append(job)
            waiting = deferred
            now = time.monotonic()
            due_later: List[Tuple[float, JobSpec]] = []
            for due, job in retries:
                if due <= now and pool.has_idle:
                    launch(job)
                else:
                    due_later.append((due, job))
            retries[:] = due_later

        dispatch_ready()
        while pool.inflight or retries:
            if pool.inflight:
                record = pool.next_result()
                job = by_id[record["job_id"]]
                record = verify_record(job, record)
                delay = handle_outcome(job, record)
                if delay is not None:
                    retries.append((time.monotonic() + delay, job))
            else:
                # Nothing running; sleep until the soonest retry is due.
                due = min(due for due, _ in retries)
                time.sleep(max(0.0, due - time.monotonic()))
            dispatch_ready()
        if waiting:
            stuck = ", ".join(job.label() for job in waiting[:4])
            raise ConfigError(f"sweep deadlocked waiting on budget "
                              f"providers for: {stuck}")
    finally:
        pool.close()
