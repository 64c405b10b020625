"""The pinned performance-benchmark suite behind ``repro bench``.

The suite replays the Figure 18 configuration matrix -- every paper
graph/SPEC/PARSEC workload under the uncompressed baseline, Compresso,
and TMCC at Compresso's measured DRAM budget (iso-capacity) -- with
pinned access count and seed, and reports *host* throughput in
simulated accesses per second per configuration.

Two artifacts live in ``benchmarks/perf/``:

- ``BENCH_<date>.json`` -- one measurement document per recorded run;
  the dated series is the performance trajectory of the simulator
  itself (see ``docs/performance.md``).  Each document also records
  the process's peak resident set (``peak_rss_mb``) and each
  workload's set-up seconds (``setup``: ``build_s`` for the workload,
  ``model_s`` for its compression model); documents from before those
  fields still load and compare.
- ``baseline.json`` -- the committed reference the CI ``bench`` job
  compares against; :func:`compare_to_baseline` flags any
  configuration (or the suite aggregate) that regressed by more than
  the allowed fraction.

Throughput is a host property: absolute accesses/sec depends on the
machine, so regression gates are only meaningful against a baseline
recorded on comparable hardware.  The committed baseline holds the
numbers from the slowest reference host; treat cross-host comparisons
as trajectories, not gates.
"""

from __future__ import annotations

import glob
import json
import os
import platform
import sys
import time
from datetime import date
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.core.compmodel import PageCompressionModel
from repro.core.config import SystemConfig
from repro.sim.experiments import run_workload
from repro.workloads.suite import workload_by_name

#: The pinned Figure 18 workload set (benchmarks/conftest.py's default).
BENCH_WORKLOADS = ("pageRank", "shortestPath", "bfs", "kcore", "mcf",
                   "omnetpp", "canneal")
#: Controller sequence per workload.  Order matters: TMCC runs at the
#: DRAM budget Compresso measured, so Compresso must precede it.
BENCH_CONTROLLERS = ("uncompressed", "compresso", "tmcc")
#: Pinned replay length and seed (the fig18 benchmark's defaults).
BENCH_ACCESSES = 60_000
BENCH_SEED = 1

#: Document format tag, bumped on breaking schema changes.
BENCH_SCHEMA = "repro-bench/1"

#: Suite aggregate of the seed tree (instrumented loop only, reference
#: host; see docs/performance.md).  Denominator of the ``--history``
#: speedup column: every dated document is "Nx over where we started".
SEED_SUITE_RATE = 25_156.0


def default_output_name(today: Optional[date] = None) -> str:
    """``BENCH_<ISO date>.json`` -- the dated trajectory file name."""
    return f"BENCH_{(today or date.today()).isoformat()}.json"


def host_metadata() -> Dict[str, object]:
    """Identify the measuring host inside the benchmark document.

    Throughput is a host property, so every document records the CPU
    model (from ``/proc/cpuinfo`` where available) and the Python
    version -- enough to judge whether two documents are comparable
    before reading their rates.  (Documents before the numpy mask was
    removed also carry a ``numpy`` flag.)
    """
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:  # non-Linux hosts: keep the platform fallback
        pass
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
        "cpu": cpu,
    }


def peak_rss_mb() -> Optional[float]:
    """This process's peak resident set so far, in MB (``ru_maxrss``);
    None where the platform has no ``resource`` module."""
    try:
        import resource
    except ImportError:  # Windows
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    return round(peak / (1 << 20 if sys.platform == "darwin" else 1 << 10), 1)


def run_suite(
    accesses: int = BENCH_ACCESSES,
    workloads: Sequence[str] = BENCH_WORKLOADS,
    seed: int = BENCH_SEED,
    system: Optional[SystemConfig] = None,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
) -> Dict[str, object]:
    """Run the pinned suite; returns the benchmark document.

    Each workload shares one :class:`PageCompressionModel` across its
    three controllers (page-content sampling is the dominant setup cost
    and is identical between them), exactly as the fig18 benchmark
    does.  ``progress`` receives each per-configuration record as it
    completes.
    """
    unknown = [name for name in workloads if name not in BENCH_WORKLOADS]
    if unknown:
        raise ConfigError(f"unknown bench workload(s) {unknown}; "
                          f"choose from {list(BENCH_WORKLOADS)}")
    system = system or SystemConfig()
    records: List[Dict[str, object]] = []
    setup: List[Dict[str, object]] = []
    suite_start = time.perf_counter()
    for name in workloads:
        start = time.perf_counter()
        workload = workload_by_name(name, max_accesses=accesses)
        built = time.perf_counter()
        model = PageCompressionModel.for_system(workload.content, system, seed)
        setup.append({"workload": name,
                      "build_s": round(built - start, 4),
                      "model_s": round(time.perf_counter() - built, 4)})
        budget = None
        for controller in BENCH_CONTROLLERS:
            start = time.perf_counter()
            result = run_workload(workload, controller, system,
                                  dram_budget_bytes=budget, seed=seed,
                                  model=model)
            elapsed = time.perf_counter() - start
            if controller == "compresso":
                budget = result.dram_used_bytes
            replayed = len(workload.trace)
            record = {
                "workload": name,
                "controller": controller,
                "accesses": replayed,
                "elapsed_s": round(elapsed, 4),
                "accesses_per_s": round(replayed / elapsed, 1),
            }
            records.append(record)
            if progress is not None:
                progress(record)
    suite_elapsed = time.perf_counter() - suite_start
    total = sum(record["accesses"] for record in records)
    return {
        "schema": BENCH_SCHEMA,
        "date": date.today().isoformat(),
        "accesses": accesses,
        "seed": seed,
        "host": host_metadata(),
        "suite_accesses": total,
        "suite_elapsed_s": round(suite_elapsed, 2),
        "suite_accesses_per_s": round(total / suite_elapsed, 1),
        "peak_rss_mb": peak_rss_mb(),
        "setup": setup,
        "configs": records,
    }


def write_document(document: Dict[str, object], path: str) -> None:
    """Write a benchmark document as stable, diff-friendly JSON."""
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_document(path: str) -> Dict[str, object]:
    """Load and validate a benchmark document.

    Everything :func:`compare_to_baseline` touches is checked here --
    the schema tag, the ``configs`` list, and each record's
    workload/controller/``accesses_per_s`` fields -- so a malformed
    baseline surfaces as a one-line :class:`ConfigError` (CLI exit 2),
    never as a ``KeyError`` traceback from deep inside the gate.
    """
    try:
        with open(path) as handle:
            document = json.load(handle)
    except OSError as error:
        raise ConfigError(f"cannot read benchmark document: {error}")
    except ValueError as error:
        raise ConfigError(f"{path} is not valid JSON: {error}")
    if not isinstance(document, dict) or "configs" not in document:
        raise ConfigError(f"{path} is not a repro-bench document "
                          f"(missing 'configs')")
    schema = document.get("schema")
    if schema != BENCH_SCHEMA:
        raise ConfigError(
            f"{path} has schema {schema!r}; this build reads "
            f"{BENCH_SCHEMA!r}" if schema is not None else
            f"{path} is not a repro-bench document (missing 'schema'; "
            f"expected {BENCH_SCHEMA!r})")
    configs = document["configs"]
    if not isinstance(configs, list):
        raise ConfigError(f"{path}: 'configs' must be a list, "
                          f"got {type(configs).__name__}")
    for position, record in enumerate(configs):
        if not isinstance(record, dict):
            raise ConfigError(f"{path}: configs[{position}] must be an "
                              f"object, got {type(record).__name__}")
        for key in ("workload", "controller"):
            if not isinstance(record.get(key), str):
                raise ConfigError(f"{path}: configs[{position}] needs a "
                                  f"string {key!r} field")
        rate = record.get("accesses_per_s")
        if not isinstance(rate, (int, float)) or isinstance(rate, bool):
            raise ConfigError(f"{path}: configs[{position}] "
                              f"({record['workload']}/"
                              f"{record['controller']}) needs a numeric "
                              f"'accesses_per_s' field")
    return document


def compare_to_baseline(
    current: Dict[str, object],
    baseline: Dict[str, object],
    max_regression: float = 0.20,
) -> List[str]:
    """Regression messages for configs slower than baseline allows.

    A configuration regresses when its accesses/sec falls below
    ``baseline * (1 - max_regression)``; the suite aggregate is held to
    the same bar.  Configurations present on only one side are skipped
    (the matrix may legitimately grow), and an empty return means the
    gate passes.
    """
    if not 0.0 <= max_regression < 1.0:
        raise ConfigError(f"max_regression must be in [0, 1), "
                          f"got {max_regression}")
    baseline_rates = {
        (record["workload"], record["controller"]): record["accesses_per_s"]
        for record in baseline.get("configs", [])
    }
    floor = 1.0 - max_regression
    messages = []
    for record in current.get("configs", []):
        key = (record["workload"], record["controller"])
        reference = baseline_rates.get(key)
        if reference is None or reference <= 0:
            continue
        rate = record["accesses_per_s"]
        if rate < reference * floor:
            messages.append(
                f"{key[0]}/{key[1]}: {rate:,.0f} acc/s is "
                f"{1 - rate / reference:.0%} below baseline "
                f"{reference:,.0f} acc/s"
            )
    suite_ref = baseline.get("suite_accesses_per_s")
    suite_now = current.get("suite_accesses_per_s")
    if suite_ref and suite_now and suite_now < suite_ref * floor:
        messages.append(
            f"suite: {suite_now:,.0f} acc/s is "
            f"{1 - suite_now / suite_ref:.0%} below baseline "
            f"{suite_ref:,.0f} acc/s"
        )
    return messages


def controller_rates(document: Dict[str, object]) -> Dict[str, float]:
    """Aggregate accesses/sec per controller across a document's configs.

    Rates do not average: per controller, total replayed accesses over
    total elapsed time, so long workloads weigh in proportionally.
    """
    accesses: Dict[str, int] = {}
    elapsed: Dict[str, float] = {}
    for record in document.get("configs", []):
        controller = record["controller"]
        accesses[controller] = (accesses.get(controller, 0)
                                + record.get("accesses", 0))
        elapsed[controller] = (elapsed.get(controller, 0.0)
                               + record.get("elapsed_s", 0.0))
    return {controller: accesses[controller] / elapsed[controller]
            for controller in accesses if elapsed[controller] > 0}


def _model_seconds(document: Dict[str, object]) -> Optional[float]:
    """Seconds the document's run spent building compression models,
    summed over its workloads; None for documents without ``setup``."""
    setup = document.get("setup")
    if not isinstance(setup, list) or not setup:
        return None
    seconds = [record.get("model_s") for record in setup
               if isinstance(record, dict)]
    if not seconds or not all(isinstance(value, (int, float))
                              for value in seconds):
        return None
    return float(sum(seconds))


def history_documents(directory: str) -> List[Tuple[str, Dict[str, object]]]:
    """The dated ``BENCH_*.json`` series under ``directory``, oldest
    first (the ISO-dated file names sort chronologically)."""
    paths = sorted(glob.glob(os.path.join(directory, "BENCH_*.json")))
    if not paths:
        raise ConfigError(f"no BENCH_*.json documents under {directory}")
    return [(path, load_document(path)) for path in paths]


def render_history(directory: str) -> str:
    """The performance-trajectory table behind ``repro bench --history``.

    One row per committed dated document: aggregate accesses/sec per
    controller, the suite aggregate, the speedup over the seed tree's
    instrumented loop (:data:`SEED_SUITE_RATE`), the seconds spent
    building compression models and the peak RSS ("-" for documents
    that predate either).
    """
    documents = history_documents(directory)
    controllers = list(BENCH_CONTROLLERS)
    for _, document in documents:  # matrices may grow; keep them visible
        for name in controller_rates(document):
            if name not in controllers:
                controllers.append(name)
    header = (["document"] + controllers
              + ["suite", "vs seed", "model s", "peak MB"])
    rows = [header]
    for path, document in documents:
        rates = controller_rates(document)
        suite = document.get("suite_accesses_per_s")
        row = [os.path.basename(path)]
        row += [f"{rates[name]:,.0f}" if name in rates else "-"
                for name in controllers]
        if isinstance(suite, (int, float)) and suite > 0:
            row += [f"{suite:,.0f}", f"{suite / SEED_SUITE_RATE:.2f}x"]
        else:
            row += ["-", "-"]
        model_s = _model_seconds(document)
        row.append(f"{model_s:.2f}" if model_s is not None else "-")
        rss = document.get("peak_rss_mb")
        row.append(f"{rss:,.1f}" if isinstance(rss, (int, float)) else "-")
        rows.append(row)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for number, row in enumerate(rows):
        lines.append("  ".join(
            cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
            for i, cell in enumerate(row)).rstrip())
        if number == 0:
            lines.append("  ".join("-" * width for width in widths))
    lines.append(f"(speedups vs the seed tree's instrumented loop, "
                 f"{SEED_SUITE_RATE:,.0f} acc/s on the reference host)")
    return "\n".join(lines)
