"""Sweep job execution: one simulation per job, optionally in a pool.

:func:`execute_job` is the single-job primitive every front-end shares:
the sweep engine's inline path, the multiprocessing pool below, and the
refactored experiment protocols in :mod:`repro.sim.experiments` all
funnel through it, so a job measured by a ``-j 8`` sweep is the same
computation as a sequential ``repro compare`` run.

Process model: each job builds a **fresh simulator** (and with it a
fresh :class:`~repro.sim.context.SimContext` -- clock, RNG streams,
metrics) so no state leaks between matrix cells.  Two process-local
read-only caches keep that cheap:

- workload traces via :func:`repro.workloads.suite.cached_workload` --
  with a fork-based pool the parent pre-builds them and children
  inherit the pages copy-on-write;
- :class:`~repro.core.compmodel.PageCompressionModel` oracles keyed by
  (workload, trace knobs, seed) -- deterministic at construction, so
  sharing one across a workload's controllers changes nothing but
  setup time (the same sharing the experiment protocols always did).

Per-job timeouts reuse :class:`~repro.sim.supervisor.RunSupervisor`'s
wall-clock watchdog discipline: the run stops *gracefully*, the partial
result is returned flagged truncated, and the job is recorded with
status ``timeout`` rather than killed from outside mid-write.

Host-fault resilience (the :class:`WorkerPool` below): each worker owns
a private task queue, so the parent always knows which (job, attempt)
a worker holds -- when a child dies (OOM killer, external SIGKILL) or its
heartbeat goes stale (hung child), the pool synthesizes a transient
failure record for exactly that attempt, replaces the worker, and the
engine's retry policy decides what happens next.  Result records carry
a content digest computed worker-side, so in-flight corruption is
detected parent-side and treated as one more transient failure.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import ResourceError, classify_error
from repro.core.compmodel import PageCompressionModel
from repro.core.config import SystemConfig
from repro.sim.results import SimResult
from repro.sweep.spec import JobSpec
from repro.workloads.trace import Workload

#: Process-local compression-oracle cache; see the module docs.
_MODEL_CACHE: Dict[Tuple[str, int, float, int, int], PageCompressionModel] = {}

#: One default config per process; jobs never mutate it.
_DEFAULT_SYSTEM: Optional[SystemConfig] = None


def _default_system() -> SystemConfig:
    global _DEFAULT_SYSTEM
    if _DEFAULT_SYSTEM is None:
        _DEFAULT_SYSTEM = SystemConfig()
    return _DEFAULT_SYSTEM


def _model_for(job: JobSpec, workload: Workload,
               system: SystemConfig) -> PageCompressionModel:
    key = (job.workload, job.accesses, job.scale, job.workload_seed,
           job.seed)
    model = _MODEL_CACHE.get(key)
    if model is None:
        model = PageCompressionModel.for_system(workload.content, system,
                                                job.seed)
        _MODEL_CACHE[key] = model
    return model


def clear_model_cache() -> None:
    _MODEL_CACHE.clear()


def result_digest(result: Optional[SimResult]) -> Optional[str]:
    """A short content digest of a result document.

    Computed by the worker before the record crosses the process
    boundary and re-computed by the engine after; a mismatch means the
    record was corrupted in flight and the attempt must not be trusted.
    """
    if result is None:
        return None
    payload = json.dumps(result.as_dict(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def execute_job(
    job: JobSpec,
    budget_bytes: Optional[int] = None,
    timeout_s: Optional[float] = None,
    workload: Optional[Workload] = None,
    system: Optional[SystemConfig] = None,
    model: Optional[PageCompressionModel] = None,
    capture_errors: bool = True,
    heartbeat: Optional[Callable[[], None]] = None,
) -> dict:
    """Run one matrix cell end to end; returns the job's result record.

    The record: ``{"job_id", "status", "error", "error_type",
    "error_kind", "elapsed_s", "budget_bytes", "result"}`` where
    ``result`` is the :class:`SimResult` (or None on failure) and
    ``status`` is ``done``/``timeout``/``failed``.  With
    ``capture_errors=False`` simulation errors propagate to the caller
    instead of being folded into the record (inline single-process use
    only -- the experiment protocols keep their historical raise
    behaviour that way).
    """
    start = time.perf_counter()

    def record(status: str, result: Optional[SimResult] = None,
               error: Optional[BaseException] = None) -> dict:
        return {
            "job_id": job.job_id,
            "status": status,
            "error": (str(error) or type(error).__name__) if error else (
                result.error if result is not None and status == "timeout"
                else ""),
            "error_type": type(error).__name__ if error else "",
            "error_kind": classify_error(error) if error else "",
            "elapsed_s": time.perf_counter() - start,
            "budget_bytes": budget_bytes,
            "result": result,
        }

    try:
        # The model cache key is only trustworthy when the workload was
        # resolved from the job's own fields; caller-supplied workloads
        # may collide on (name, knobs) with different trace content.
        resolved_from_spec = workload is None
        if resolved_from_spec:
            from repro.workloads.suite import cached_workload

            workload = cached_workload(job.workload,
                                       max_accesses=job.accesses,
                                       seed=job.workload_seed,
                                       scale=job.scale)
        if model is None and system is None and resolved_from_spec:
            model = _model_for(job, workload, _default_system())

        fault_plan = None
        if job.faults:
            from repro.sim.faults import FaultPlan

            fault_plan = FaultPlan.parse(job.faults)

        from repro.sim.simulator import Simulator

        sim = Simulator(
            workload,
            controller=job.controller,
            system=system,
            dram_budget_bytes=budget_bytes,
            huge_pages=job.huge_pages,
            seed=job.seed,
            model=model,
            fault_plan=fault_plan,
        )
        if timeout_s is not None or heartbeat is not None:
            from repro.sim.supervisor import RunSupervisor

            result = RunSupervisor(wall_clock_limit_s=timeout_s,
                                   heartbeat=heartbeat).run(sim)
        else:
            result = sim.run()
    except Exception as error:
        if not capture_errors:
            raise
        return record("failed", error=error)
    return record("timeout" if result.truncated else "done", result=result)


# ----------------------------------------------------------------------
# The worker pool
# ----------------------------------------------------------------------

def _pool_main(slot, tasks, results, heartbeats) -> None:
    """Worker-process loop: execute jobs until the ``None`` sentinel.

    ``heartbeats[slot]`` is the worker's liveness slot in the shared
    array; it is bumped on every dequeue and, via the supervisor's
    watchdog stride, throughout each simulation.
    """

    def beat() -> None:
        if heartbeats is not None:
            heartbeats[slot] = time.monotonic()

    while True:
        item = tasks.get()
        if item is None:
            return
        job, budget_bytes, timeout_s, attempt = item
        beat()
        try:
            record = execute_job(job, budget_bytes, timeout_s,
                                 heartbeat=beat)
            record["worker_slot"] = slot
            record["attempt"] = attempt
            record["result_digest"] = result_digest(record["result"])
            results.put(record)
        except BaseException as error:  # never wedge the dispatcher
            results.put({
                "job_id": job.job_id, "status": "failed",
                "error": str(error) or type(error).__name__,
                "error_type": type(error).__name__,
                "error_kind": classify_error(error)
                if isinstance(error, Exception) else "resource",
                "elapsed_s": 0.0, "budget_bytes": budget_bytes,
                "result": None, "worker_slot": slot, "attempt": attempt,
                "result_digest": None,
            })
            if isinstance(error, KeyboardInterrupt):
                return


class _WorkerHandle:
    """One worker process plus its private task queue and current job."""

    def __init__(self, ctx, slot: int, results, heartbeats) -> None:
        self.slot = slot
        self.tasks = ctx.Queue()
        self.proc = ctx.Process(
            target=_pool_main,
            args=(slot, self.tasks, results, heartbeats),
            daemon=True)
        #: (job, budget_bytes, attempt, submitted_at) while busy.
        self.current: Optional[Tuple[JobSpec, Optional[int], int,
                                     float]] = None
        self.proc.start()

    @property
    def busy(self) -> bool:
        return self.current is not None

    def drop_queue(self) -> None:
        try:
            self.tasks.close()
        except Exception:
            pass


class WorkerPool:
    """A supervised multiprocessing pool of sweep-job workers.

    Each worker owns a **private task queue** and at most one in-flight
    job, so the parent always knows which (job, attempt) a worker
    holds.  Result records come back on one shared queue in completion
    order; the dispatcher (the sweep engine) owns scheduling and the
    store, workers only simulate.  Prefers ``fork`` so pre-built
    workload traces are shared copy-on-write; falls back to ``spawn``
    where fork is unavailable (workers then rebuild their caches on
    first use).

    Supervision: a worker found dead mid-job (OOM killer, external
    SIGKILL) or heartbeat-stale past ``heartbeat_timeout_s`` (hung) is
    killed and replaced -- with a *fresh* task queue, so a half-fed
    queue can never replay a job -- and the pool synthesizes a
    transient (``error_kind="resource"``) failure record for exactly
    the attempt it owned.  Late records from a worker already declared
    dead are dropped by (job, attempt) ownership matching.  Respawns
    are capped; blowing the cap means the host itself is sick and
    surfaces as a :class:`ResourceError`.
    """

    def __init__(self, workers: int,
                 heartbeat_timeout_s: Optional[float] = None) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if heartbeat_timeout_s is not None and heartbeat_timeout_s <= 0:
            raise ValueError(
                f"heartbeat timeout must be > 0 s, got {heartbeat_timeout_s}")
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        self._results = self._ctx.Queue()
        self._heartbeats = self._ctx.Array("d", workers, lock=False)
        self._heartbeat_timeout_s = heartbeat_timeout_s
        self._respawns = 0
        self._max_respawns = 32 + 4 * workers
        self._handles: List[_WorkerHandle] = [
            _WorkerHandle(self._ctx, slot, self._results, self._heartbeats)
            for slot in range(workers)
        ]

    @property
    def inflight(self) -> int:
        return sum(1 for handle in self._handles if handle.busy)

    @property
    def has_idle(self) -> bool:
        return any(not handle.busy for handle in self._handles)

    def submit(self, job: JobSpec, budget_bytes: Optional[int],
               timeout_s: Optional[float], attempt: int = 1) -> None:
        """Dispatch a job to an idle worker."""
        handle = self._idle_handle()
        if handle is None:
            raise RuntimeError("no idle worker to submit to")
        now = time.monotonic()
        self._heartbeats[handle.slot] = now
        handle.current = (job, budget_bytes, attempt, now)
        handle.tasks.put((job, budget_bytes, timeout_s, attempt))

    def _idle_handle(self) -> Optional[_WorkerHandle]:
        for handle in self._handles:
            if handle.busy:
                continue
            if not handle.proc.is_alive():
                self._replace(handle)
                handle = self._handles[handle.slot]
            return handle
        return None

    def _replace(self, handle: _WorkerHandle) -> None:
        """Kill (if needed) and respawn the worker at ``handle.slot``."""
        self._respawns += 1
        if self._respawns > self._max_respawns:
            raise ResourceError(
                f"sweep workers died or hung {self._respawns} times; "
                f"giving up on this host -- re-run to resume from the "
                f"store")
        if handle.proc.is_alive():
            handle.proc.kill()
        handle.proc.join(timeout=5.0)
        handle.drop_queue()
        self._handles[handle.slot] = _WorkerHandle(
            self._ctx, handle.slot, self._results, self._heartbeats)

    def _failure_record(self, handle: _WorkerHandle, error: str,
                        error_type: str) -> dict:
        job, budget_bytes, attempt, submitted_at = handle.current
        return {
            "job_id": job.job_id, "status": "failed", "error": error,
            "error_type": error_type, "error_kind": "resource",
            "elapsed_s": time.monotonic() - submitted_at,
            "budget_bytes": budget_bytes, "result": None,
            "worker_slot": handle.slot, "attempt": attempt,
            "result_digest": None,
        }

    def _supervise(self) -> Optional[dict]:
        """One supervision pass over the busy workers.

        Returns a synthesized failure record when a busy worker is
        found dead or hung (after replacing it), else None.  Idle
        workers are left alone -- they have nothing to report and are
        lazily respawned by :meth:`submit` if dead.
        """
        now = time.monotonic()
        for handle in self._handles:
            if not handle.busy:
                continue
            if not handle.proc.is_alive():
                exitcode = handle.proc.exitcode
                record = self._failure_record(
                    handle,
                    f"sweep worker died mid-job (exit code {exitcode})",
                    "WorkerDied")
                handle.proc.join(timeout=1.0)
                handle.current = None
                self._replace(handle)
                return record
            if self._heartbeat_timeout_s is not None:
                stale_s = now - self._heartbeats[handle.slot]
                if stale_s > self._heartbeat_timeout_s:
                    record = self._failure_record(
                        handle,
                        f"sweep worker hung (no heartbeat for "
                        f"{stale_s:.1f} s)", "WorkerHung")
                    handle.current = None
                    self._replace(handle)
                    return record
        return None

    def next_result(self) -> dict:
        """Block until any in-flight job finishes (or its worker is
        declared dead/hung); stale late records are dropped."""
        if self.inflight <= 0:
            raise RuntimeError("no in-flight jobs to wait for")
        import queue as queue_module

        while True:
            try:
                record = self._results.get(timeout=0.2)
            except queue_module.Empty:
                synthesized = self._supervise()
                if synthesized is not None:
                    return synthesized
                continue
            handle = self._owner_of(record)
            if handle is None:
                continue  # late record from a replaced worker: drop
            handle.current = None
            return record

    def _owner_of(self, record: dict) -> Optional[_WorkerHandle]:
        slot = record.get("worker_slot")
        if slot is None or not 0 <= slot < len(self._handles):
            return None
        handle = self._handles[slot]
        if not handle.busy:
            return None
        job, _, attempt, _ = handle.current
        if (job.job_id, attempt) != (record.get("job_id"),
                                     record.get("attempt")):
            return None
        return handle

    def close(self) -> None:
        """Stop workers: sentinel each, join briefly, kill stragglers."""
        for handle in self._handles:
            try:
                handle.tasks.put_nowait(None)
            except Exception:
                pass
        for handle in self._handles:
            handle.proc.join(timeout=2.0)
        for handle in self._handles:
            if handle.proc.is_alive():
                handle.proc.kill()
                handle.proc.join(timeout=1.0)
            handle.drop_queue()
        try:
            self._results.close()
        except Exception:
            pass
