"""The SQLite-backed sweep result store.

Layout (schema-versioned; :data:`STORE_SCHEMA_VERSION`):

- ``meta``    -- key/value header; holds ``schema_version``.
- ``sweeps``  -- one row per registered sweep: id, name, the full spec
  as canonical JSON, its hash (the resume key), status, created_at.
- ``jobs``    -- one row per matrix cell: every simulation-relevant
  field, scheduling status (``pending``/``running``/``done``/
  ``failed``/``timeout``), the resolved byte budget, the error line,
  host elapsed seconds, the retry bookkeeping (``attempts``,
  ``last_error``, ``quarantined``), and the full result document
  (:meth:`repro.sim.results.SimResult.as_dict` JSON).
- ``metrics`` -- headline metrics flattened to ``(job_id, key, value)``
  rows so SQL can compare designs without parsing result JSON.

The engine/connection split: :class:`StoreEngine` owns the file path,
pragmas, and schema migration; every operation borrows a short-lived
connection from :meth:`StoreEngine.connect`, so one store can be read
by many processes while the sweep engine (the single writer) runs.
Connections run in WAL mode with a generous ``busy_timeout``, so
``repro sweep ls/show`` against a live sweep waits instead of dying
with ``database is locked``.  Opening a store runs ``PRAGMA
quick_check``; torn files are rejected with a one-line pointer at
:meth:`SweepStore.repair`, which salvages completed rows into a fresh
store.  :class:`SweepStore` is the high-level API the sweep engine,
the CLI (``repro sweep ls/show/export``), and the benchmark harness
use.

Timestamps and host-elapsed columns are the only nondeterministic
fields; :meth:`SweepStore.fingerprint_rows` projects them away, which
is how the resume tests assert a killed-and-resumed sweep is
row-identical to an uninterrupted one.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError, ResourceError
from repro.sim.results import SimResult
from repro.sweep.spec import JobSpec, SweepSpec

#: Bump on incompatible table changes; old stores are migrated when the
#: upgrade is additive (v1 -> v2 adds the retry columns) and rejected
#: with a one-line ConfigError otherwise.
STORE_SCHEMA_VERSION = 2

_SQLITE_MAGIC = b"SQLite format 3\x00"

#: Job lifecycle states.  ``running`` rows are re-enqueued on resume:
#: the process that owned them died without recording a result.
JOB_STATES = ("pending", "running", "done", "failed", "timeout")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS sweeps (
    sweep_id   TEXT PRIMARY KEY,
    name       TEXT NOT NULL,
    spec_hash  TEXT NOT NULL UNIQUE,
    spec_json  TEXT NOT NULL,
    status     TEXT NOT NULL,
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    job_id       TEXT PRIMARY KEY,
    sweep_id     TEXT NOT NULL REFERENCES sweeps(sweep_id),
    idx          INTEGER NOT NULL,
    workload     TEXT NOT NULL,
    controller   TEXT NOT NULL,
    seed         INTEGER NOT NULL,
    base_seed    INTEGER NOT NULL,
    repeat      INTEGER NOT NULL,
    budget       TEXT NOT NULL,
    budget_bytes INTEGER,
    faults       TEXT NOT NULL DEFAULT '',
    accesses     INTEGER NOT NULL,
    scale        REAL NOT NULL,
    workload_seed INTEGER NOT NULL,
    fast_path    TEXT NOT NULL,  -- retired knob; new rows hold ''
    huge_pages   INTEGER NOT NULL DEFAULT 0,
    provider_id  TEXT NOT NULL DEFAULT '',
    status       TEXT NOT NULL,
    error        TEXT NOT NULL DEFAULT '',
    attempts     INTEGER NOT NULL DEFAULT 0,
    last_error   TEXT NOT NULL DEFAULT '',
    quarantined  INTEGER NOT NULL DEFAULT 0,
    elapsed_s    REAL,
    started_at   REAL,
    finished_at  REAL,
    result_json  TEXT
);
CREATE INDEX IF NOT EXISTS jobs_by_sweep ON jobs(sweep_id, idx);
CREATE INDEX IF NOT EXISTS jobs_by_config
    ON jobs(workload, controller, accesses, seed);
CREATE TABLE IF NOT EXISTS metrics (
    job_id TEXT NOT NULL REFERENCES jobs(job_id),
    key    TEXT NOT NULL,
    value  REAL NOT NULL,
    PRIMARY KEY (job_id, key)
);
"""


class StoreEngine:
    """Owns a store file: connection factory plus schema management."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._ensure_schema()

    @contextmanager
    def connect(self) -> Iterator[sqlite3.Connection]:
        """A short-lived connection; commits on success, rolls back on
        error.  Borrow one per logical operation -- holding connections
        across operations would serialize readers against the writer."""
        try:
            conn = sqlite3.connect(self.path, timeout=30.0)
        except sqlite3.Error as error:
            raise ResourceError(
                f"cannot open sweep store {self.path!r}: {error}")
        conn.row_factory = sqlite3.Row
        # One place for the concurrency pragmas: WAL lets `sweep ls`
        # read while the engine writes, busy_timeout makes the rare
        # writer/writer collision wait instead of raising `database is
        # locked`.  Best-effort -- a damaged file fails these, and the
        # quick_check in _ensure_schema owns that diagnosis.
        try:
            conn.execute("PRAGMA busy_timeout = 30000")
            conn.execute("PRAGMA journal_mode = WAL")
            conn.execute("PRAGMA synchronous = NORMAL")
        except sqlite3.Error:
            pass
        try:
            yield conn
            conn.commit()
        except BaseException:
            conn.rollback()
            raise
        finally:
            conn.close()

    def _looks_like_sqlite(self) -> bool:
        try:
            with open(self.path, "rb") as handle:
                return handle.read(len(_SQLITE_MAGIC)) == _SQLITE_MAGIC
        except OSError:
            return False

    def _ensure_schema(self) -> None:
        with self.connect() as conn:
            try:
                check = conn.execute("PRAGMA quick_check(1)").fetchone()
                tables = {row["name"] for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table'")}
            except sqlite3.DatabaseError:
                check = None
                tables = None
            if tables is None or (check is not None and check[0] != "ok"):
                # A readable-but-torn SQLite file gets the salvage
                # pointer; arbitrary non-SQLite bytes keep the blunter
                # historical message.
                if self._looks_like_sqlite():
                    raise ConfigError(
                        f"sweep store {self.path!r} failed the SQLite "
                        f"integrity check; salvage completed rows with "
                        f"`repro sweep repair {self.path} --out NEW.db`")
                raise ConfigError(
                    f"{self.path!r} is not a sweep store (not a SQLite "
                    f"database)")
            if "meta" not in tables:
                if tables:
                    raise ConfigError(
                        f"{self.path!r} is a SQLite database but not a "
                        f"sweep store (no schema_version)")
                conn.executescript(_SCHEMA)
                conn.execute(
                    "INSERT INTO meta (key, value) VALUES "
                    "('schema_version', ?)", (str(STORE_SCHEMA_VERSION),))
                return
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                raise ConfigError(
                    f"sweep store {self.path!r} has no schema_version")
            version = int(row["value"])
            if version == 1:
                self._migrate_v1_to_v2(conn)
                return
            if version != STORE_SCHEMA_VERSION:
                raise ConfigError(
                    f"sweep store {self.path!r} has schema version "
                    f"{version}; this build reads version "
                    f"{STORE_SCHEMA_VERSION}")

    @staticmethod
    def _migrate_v1_to_v2(conn: sqlite3.Connection) -> None:
        """v1 -> v2: the retry-bookkeeping columns, purely additive.

        Existing rows read as never-retried (``attempts=0``), which is
        truthful -- v1 engines recorded one attempt and no retries."""
        for ddl in (
            "ALTER TABLE jobs ADD COLUMN attempts INTEGER NOT NULL DEFAULT 0",
            "ALTER TABLE jobs ADD COLUMN last_error TEXT NOT NULL DEFAULT ''",
            "ALTER TABLE jobs ADD COLUMN quarantined INTEGER NOT NULL "
            "DEFAULT 0",
        ):
            conn.execute(ddl)
        conn.execute("UPDATE meta SET value = ? WHERE key = 'schema_version'",
                     (str(STORE_SCHEMA_VERSION),))


class SweepStore:
    """High-level sweep/job/metric operations over a :class:`StoreEngine`."""

    def __init__(self, engine: StoreEngine) -> None:
        self.engine = engine

    @classmethod
    def open(cls, path: str) -> "SweepStore":
        return cls(StoreEngine(path))

    @property
    def path(self) -> str:
        return self.engine.path

    # ------------------------------------------------------------------
    # Sweep registration / lifecycle
    # ------------------------------------------------------------------

    def register_sweep(self, spec: SweepSpec,
                       jobs: Sequence[JobSpec]) -> Tuple[str, bool]:
        """Insert a sweep and its pending job matrix, or find the
        existing sweep with the same spec hash.

        Returns ``(sweep_id, resumed)``; ``resumed`` is True when the
        sweep already existed (its recorded jobs are reused, jobs stuck
        ``running`` by a killed process are reset to ``pending``, and
        matrix cells missing entirely -- a repaired store that lost
        rows to a torn page -- are re-inserted as ``pending``).
        """
        spec_hash = spec.spec_hash()
        sweep_id = f"{spec.name}-{spec_hash[:8]}"
        with self.engine.connect() as conn:
            row = conn.execute(
                "SELECT sweep_id FROM sweeps WHERE spec_hash = ?",
                (spec_hash,)).fetchone()
            if row is not None:
                sweep_id = row["sweep_id"]
                conn.execute(
                    "UPDATE jobs SET status = 'pending', started_at = NULL "
                    "WHERE sweep_id = ? AND status = 'running'", (sweep_id,))
                conn.execute(
                    "UPDATE sweeps SET status = 'running' "
                    "WHERE sweep_id = ?", (sweep_id,))
                conn.executemany(
                    "INSERT OR IGNORE INTO jobs (job_id, sweep_id, idx, "
                    "workload, controller, seed, base_seed, repeat, "
                    "budget, faults, accesses, scale, workload_seed, "
                    "fast_path, huge_pages, provider_id, status) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, "
                    "?, ?, 'pending')",
                    [(job.job_id, sweep_id, job.index, job.workload,
                      job.controller, job.seed, job.base_seed, job.repeat,
                      job.budget.label(), job.faults or "", job.accesses,
                      job.scale, job.workload_seed, "",
                      int(job.huge_pages), job.provider_id)
                     for job in jobs])
                return sweep_id, True
            conn.execute(
                "INSERT INTO sweeps (sweep_id, name, spec_hash, spec_json, "
                "status, created_at) VALUES (?, ?, ?, ?, 'running', ?)",
                (sweep_id, spec.name, spec_hash, spec.canonical_json(),
                 time.time()))
            conn.executemany(
                "INSERT INTO jobs (job_id, sweep_id, idx, workload, "
                "controller, seed, base_seed, repeat, budget, faults, "
                "accesses, scale, workload_seed, fast_path, huge_pages, "
                "provider_id, status) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, "
                "'pending')",
                [(job.job_id, sweep_id, job.index, job.workload,
                  job.controller, job.seed, job.base_seed, job.repeat,
                  job.budget.label(), job.faults or "", job.accesses,
                  job.scale, job.workload_seed, "",
                  int(job.huge_pages), job.provider_id)
                 for job in jobs])
        return sweep_id, False

    def drop_sweep(self, sweep_id: str) -> None:
        """Delete a sweep and everything it measured (``--fresh``)."""
        with self.engine.connect() as conn:
            conn.execute(
                "DELETE FROM metrics WHERE job_id IN "
                "(SELECT job_id FROM jobs WHERE sweep_id = ?)", (sweep_id,))
            conn.execute("DELETE FROM jobs WHERE sweep_id = ?", (sweep_id,))
            conn.execute("DELETE FROM sweeps WHERE sweep_id = ?", (sweep_id,))

    def set_sweep_status(self, sweep_id: str, status: str) -> None:
        with self.engine.connect() as conn:
            conn.execute("UPDATE sweeps SET status = ? WHERE sweep_id = ?",
                         (status, sweep_id))

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------

    def job_statuses(self, sweep_id: str) -> Dict[str, str]:
        with self.engine.connect() as conn:
            rows = conn.execute(
                "SELECT job_id, status FROM jobs WHERE sweep_id = ?",
                (sweep_id,)).fetchall()
        return {row["job_id"]: row["status"] for row in rows}

    def mark_job_running(self, job_id: str) -> None:
        """Flip a job to running and count the attempt."""
        with self.engine.connect() as conn:
            conn.execute(
                "UPDATE jobs SET status = 'running', started_at = ?, "
                "attempts = attempts + 1 WHERE job_id = ?",
                (time.time(), job_id))

    def record_attempt_failure(self, job_id: str, error: str) -> None:
        """A transient attempt failed but the job will be retried:
        back to ``pending`` with the failure remembered in
        ``last_error`` (the attempt counter already ticked when the
        attempt started)."""
        with self.engine.connect() as conn:
            conn.execute(
                "UPDATE jobs SET status = 'pending', last_error = ? "
                "WHERE job_id = ?", (error, job_id))

    def finish_job(
        self,
        job_id: str,
        status: str,
        elapsed_s: float,
        error: str = "",
        budget_bytes: Optional[int] = None,
        result: Optional[SimResult] = None,
        quarantined: bool = False,
    ) -> None:
        """Record a finished job: status, resolved budget, result row,
        and the flattened headline metrics.  ``quarantined`` marks a
        transient failure that exhausted its retries."""
        if status not in JOB_STATES:
            raise ValueError(f"unknown job status {status!r}")
        result_json = None
        headline: Dict[str, float] = {}
        if result is not None:
            result_json = json.dumps(result.as_dict(), sort_keys=True)
            headline = result.headline()
        with self.engine.connect() as conn:
            conn.execute(
                "UPDATE jobs SET status = ?, error = ?, elapsed_s = ?, "
                "budget_bytes = ?, finished_at = ?, result_json = ?, "
                "quarantined = ? WHERE job_id = ?",
                (status, error, elapsed_s, budget_bytes, time.time(),
                 result_json, int(quarantined), job_id))
            conn.execute("DELETE FROM metrics WHERE job_id = ?", (job_id,))
            if headline:
                conn.executemany(
                    "INSERT INTO metrics (job_id, key, value) "
                    "VALUES (?, ?, ?)",
                    [(job_id, key, float(value))
                     for key, value in headline.items()])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def failure_rows(self, sweep_id: str) -> List[dict]:
        """The persisted failure/quarantine report: every job that is
        not cleanly ``done``, with its attempt count and last error."""
        with self.engine.connect() as conn:
            rows = conn.execute(
                "SELECT idx, job_id, workload, controller, budget, seed, "
                "faults, status, attempts, quarantined, error, last_error "
                "FROM jobs WHERE sweep_id = ? AND "
                "(status != 'done' OR quarantined != 0) ORDER BY idx",
                (sweep_id,)).fetchall()
        return [dict(row) for row in rows]

    def list_sweeps(self) -> List[dict]:
        with self.engine.connect() as conn:
            rows = conn.execute(
                "SELECT s.*, "
                "  (SELECT COUNT(*) FROM jobs j WHERE j.sweep_id = "
                "   s.sweep_id) AS jobs_total, "
                "  (SELECT COUNT(*) FROM jobs j WHERE j.sweep_id = "
                "   s.sweep_id AND j.status = 'done') AS jobs_done "
                "FROM sweeps s ORDER BY s.created_at").fetchall()
        return [dict(row) for row in rows]

    def find_sweep(self, ident: str) -> dict:
        """Look a sweep up by exact id, id prefix, or name (latest)."""
        with self.engine.connect() as conn:
            for query, arg in (
                ("SELECT * FROM sweeps WHERE sweep_id = ?", ident),
                ("SELECT * FROM sweeps WHERE sweep_id LIKE ? "
                 "ORDER BY created_at DESC", f"{ident}%"),
                ("SELECT * FROM sweeps WHERE name = ? "
                 "ORDER BY created_at DESC", ident),
            ):
                row = conn.execute(query, (arg,)).fetchone()
                if row is not None:
                    return dict(row)
        raise ConfigError(f"no sweep {ident!r} in {self.path!r}; "
                          f"try `repro sweep ls`")

    def jobs(self, sweep_id: str) -> List[dict]:
        with self.engine.connect() as conn:
            rows = conn.execute(
                "SELECT * FROM jobs WHERE sweep_id = ? ORDER BY idx",
                (sweep_id,)).fetchall()
        return [dict(row) for row in rows]

    def result_for(self, job_id: str) -> Optional[SimResult]:
        with self.engine.connect() as conn:
            row = conn.execute(
                "SELECT result_json FROM jobs WHERE job_id = ?",
                (job_id,)).fetchone()
        if row is None or not row["result_json"]:
            return None
        return _result_from_json(row["result_json"])

    def find_result(
        self,
        workload: str,
        controller: str,
        accesses: int,
        seed: int = 1,
        scale: float = 1.0,
        budget_bytes: Optional[int] = None,
        huge_pages: bool = False,
    ) -> Optional[SimResult]:
        """The recorded result for one concrete configuration, if any.

        This is the benchmark harness's cache-lookup surface: budgets
        match on the *resolved* byte value, so an iso-capacity row is
        found by the budget its provider measured.
        """
        query = (
            "SELECT result_json FROM jobs WHERE workload = ? AND "
            "controller = ? AND accesses = ? AND seed = ? AND scale = ? "
            "AND huge_pages = ? AND status = 'done' AND faults = ''")
        args: List[object] = [workload, controller, accesses, seed, scale,
                              int(huge_pages)]
        if budget_bytes is None:
            query += " AND budget = 'none'"
        else:
            query += " AND budget_bytes = ?"
            args.append(int(budget_bytes))
        with self.engine.connect() as conn:
            row = conn.execute(query, args).fetchone()
        if row is None or not row["result_json"]:
            return None
        return _result_from_json(row["result_json"])

    def metrics_rows(self, sweep_id: str) -> List[dict]:
        with self.engine.connect() as conn:
            rows = conn.execute(
                "SELECT j.idx, j.workload, j.controller, j.budget, j.seed, "
                "j.faults, m.key, m.value FROM metrics m "
                "JOIN jobs j ON j.job_id = m.job_id "
                "WHERE j.sweep_id = ? ORDER BY j.idx, m.key",
                (sweep_id,)).fetchall()
        return [dict(row) for row in rows]

    # ------------------------------------------------------------------
    # Export / determinism fingerprint
    # ------------------------------------------------------------------

    def export_document(self, sweep_id: str) -> dict:
        """The whole sweep as one machine-readable document."""
        sweep = self.find_sweep(sweep_id)
        jobs = self.jobs(sweep["sweep_id"])
        for job in jobs:
            raw = job.pop("result_json", None)
            job["result"] = json.loads(raw) if raw else None
        return {
            "schema": f"repro-sweep/{STORE_SCHEMA_VERSION}",
            "sweep": {key: sweep[key] for key in
                      ("sweep_id", "name", "spec_hash", "status",
                       "created_at")},
            "spec": json.loads(sweep["spec_json"]),
            "jobs": jobs,
        }

    def fingerprint_rows(self, sweep_id: str) -> List[tuple]:
        """Every deterministic column of the sweep's job and metric rows.

        Wall-clock columns (created/started/finished, host elapsed) are
        projected out; everything else -- including the full result
        JSON, which contains only simulated quantities -- must be
        identical between an uninterrupted sweep and a killed-and-
        resumed one, and between ``-j 1`` and ``-j N`` runs.
        """
        with self.engine.connect() as conn:
            jobs = conn.execute(
                "SELECT job_id, idx, workload, controller, seed, base_seed, "
                "repeat, budget, budget_bytes, faults, accesses, scale, "
                "workload_seed, fast_path, huge_pages, provider_id, status, "
                "error, result_json FROM jobs WHERE sweep_id = ? "
                "ORDER BY idx", (sweep_id,)).fetchall()
            metrics = conn.execute(
                "SELECT m.job_id, m.key, m.value FROM metrics m "
                "JOIN jobs j ON j.job_id = m.job_id WHERE j.sweep_id = ? "
                "ORDER BY m.job_id, m.key", (sweep_id,)).fetchall()
        return [tuple(row) for row in jobs] + [tuple(row) for row in metrics]

    # ------------------------------------------------------------------
    # Salvage
    # ------------------------------------------------------------------

    @classmethod
    def repair(cls, src: str, dst: str) -> Dict[str, int]:
        """Salvage a damaged store into a fresh one at ``dst``.

        Reads ``src`` raw (no schema gate -- it is damaged by
        hypothesis), copies every ``done`` job whose result document
        still parses verbatim, resets everything else to ``pending``,
        and marks the salvaged sweeps ``interrupted`` so a re-run
        against the new store resumes exactly the unsalvageable cells.
        Rows sqlite can no longer read are skipped, not fatal.  Also
        reads v1-era stores (missing retry columns default to zero).
        Returns salvage counts for the CLI report.
        """
        if not os.path.exists(src):
            raise ConfigError(f"no sweep store at {src!r}")
        if os.path.exists(dst):
            raise ConfigError(
                f"refusing to overwrite existing {dst!r}; point --out at "
                f"a fresh path")

        def _read_rows(conn: sqlite3.Connection, table: str) -> List[dict]:
            # Row-at-a-time so everything before the first torn page is
            # still salvaged; a list comprehension would lose the lot.
            rows: List[dict] = []
            try:
                cursor = conn.execute(f"SELECT * FROM {table}")
                while True:
                    row = cursor.fetchone()
                    if row is None:
                        break
                    rows.append(dict(row))
            except sqlite3.Error:
                pass
            return rows

        try:
            src_conn = sqlite3.connect(src, timeout=30.0)
        except sqlite3.Error as error:
            raise ResourceError(f"cannot open damaged store {src!r}: {error}")
        src_conn.row_factory = sqlite3.Row
        try:
            sweeps = _read_rows(src_conn, "sweeps")
            jobs = _read_rows(src_conn, "jobs")
            metrics = _read_rows(src_conn, "metrics")
        finally:
            src_conn.close()
        if not sweeps and not jobs:
            raise ConfigError(
                f"nothing salvageable in {src!r}: no readable sweep or "
                f"job rows")

        counts = {"sweeps": 0, "jobs_salvaged": 0, "jobs_reset": 0,
                  "metrics": 0}
        salvaged_ids = set()
        store = cls.open(dst)
        with store.engine.connect() as conn:
            for sweep in sweeps:
                conn.execute(
                    "INSERT OR IGNORE INTO sweeps (sweep_id, name, "
                    "spec_hash, spec_json, status, created_at) "
                    "VALUES (?, ?, ?, ?, 'interrupted', ?)",
                    (sweep.get("sweep_id"), sweep.get("name", ""),
                     sweep.get("spec_hash", ""), sweep.get("spec_json", ""),
                     sweep.get("created_at", 0.0)))
                counts["sweeps"] += 1
            for job in jobs:
                done = job.get("status") == "done"
                result_json = job.get("result_json")
                if done and result_json:
                    try:
                        json.loads(result_json)
                    except (TypeError, ValueError):
                        done = False
                else:
                    done = False
                if done:
                    counts["jobs_salvaged"] += 1
                    salvaged_ids.add(job.get("job_id"))
                else:
                    counts["jobs_reset"] += 1
                conn.execute(
                    "INSERT OR IGNORE INTO jobs (job_id, sweep_id, idx, "
                    "workload, controller, seed, base_seed, repeat, budget, "
                    "budget_bytes, faults, accesses, scale, workload_seed, "
                    "fast_path, huge_pages, provider_id, status, error, "
                    "attempts, last_error, quarantined, elapsed_s, "
                    "started_at, finished_at, result_json) VALUES "
                    "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, "
                    "?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (job.get("job_id"), job.get("sweep_id"),
                     job.get("idx", 0), job.get("workload", ""),
                     job.get("controller", ""), job.get("seed", 0),
                     job.get("base_seed", 0), job.get("repeat", 0),
                     job.get("budget", "none"),
                     job.get("budget_bytes") if done else None,
                     job.get("faults", ""), job.get("accesses", 0),
                     job.get("scale", 1.0), job.get("workload_seed", 0),
                     job.get("fast_path", ""),
                     job.get("huge_pages", 0), job.get("provider_id", ""),
                     "done" if done else "pending",
                     job.get("error", "") if done else "",
                     job.get("attempts", 0), job.get("last_error", ""),
                     job.get("quarantined", 0) if done else 0,
                     job.get("elapsed_s") if done else None,
                     job.get("started_at") if done else None,
                     job.get("finished_at") if done else None,
                     result_json if done else None))
            for metric in metrics:
                if metric.get("job_id") not in salvaged_ids:
                    continue
                try:
                    value = float(metric.get("value"))
                except (TypeError, ValueError):
                    continue
                conn.execute(
                    "INSERT OR IGNORE INTO metrics (job_id, key, value) "
                    "VALUES (?, ?, ?)",
                    (metric.get("job_id"), metric.get("key", ""), value))
                counts["metrics"] += 1
        return counts


def _result_from_json(raw: str) -> SimResult:
    data = json.loads(raw)
    fields = set(SimResult.__dataclass_fields__)
    return SimResult(**{k: v for k, v in data.items() if k in fields})
