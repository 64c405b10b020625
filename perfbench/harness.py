"""Layered host-performance benchmark for the TMCC simulator.

Run every workload (each in a fresh single-threaded subprocess, one
after another) and print the end-to-end metrics::

    python3 perfbench/harness.py run --seed 1

One workload, one seed, a fixed measuring time, traced or not::

    python3 perfbench/harness.py run --workload fig18 --seed 3 \\
        --seconds 25 --trace 1

Judge a change against its parent from two directories of run
documents, and re-pin the result fingerprints::

    python3 perfbench/harness.py compare PARENT_DIR CHANGE_DIR
    python3 perfbench/harness.py record-expected --seeds 1,2

A *round* replays every cell of a workload once; a run repeats rounds
back to back while the next one still fits in ``--seconds`` (at least
one) and reports each metric's median over its rounds.  End-to-end
times are reported at the reference host's speed (see
:class:`HostSpeed`); wall-clock values are kept in the run document.
Every cell's simulated result is reduced to a fingerprint and checked
against ``expected.json`` (pinned seeds) or against the run's other
rounds.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See README.md for the metric catalog and why each workload exists.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from compare import RUN_SCHEMA, compare, load_runs, quartiles, render  # noqa: E402
from layers import TIMED_KEYS, LayerTracer, setup_wrappers  # noqa: E402

BENCHMARK_FILE = ROOT / "BENCHMARK.json"
EXPECTED_FILE = HERE / "expected.json"
RESULTS_DIR = ROOT / "results" / "perf"

#: The simulator's statistics start after this share of each trace.
WARMUP_FRACTION = 0.2
#: Top-level calls per cell kept as spans (first traced round only).
SPAN_BUDGET = 2000

WORKLOAD_NAMES = ("fig18", "cache-resident", "ml2-pressure", "long-run")

#: SimResult fields a fingerprint covers, each to 9 significant digits.
FINGERPRINT_FIELDS = (
    "accesses", "elapsed_ns", "tlb_misses", "l3_misses",
    "dram_reads", "dram_writes", "dram_used_bytes",
    "avg_l3_miss_latency_ns", "ml2_access_rate", "path_fractions",
    "performance",
)
FINGERPRINT_DIGITS = 9

#: Budget rule: later controllers run at the DRAM usage Compresso measured.
ISO = "iso"

#: Iterations of the host-speed probe loop (0.2-0.4 ms).
PROBE_ITERATIONS = 2_000
#: Seconds between probes inside a timed region.
PROBE_INTERVAL_S = 0.025
#: Probe duration at the reference speed: on the reference host (a
#: 2-vCPU Intel Xeon VM, Python 3.11.7) a replay timed while nothing
#: else slowed the host reads about the same scaled and on the wall clock.
PROBE_REFERENCE_NS = 182_000

T = TypeVar("T")


class HostSpeed:
    """Times a region on the wall clock and at a fixed reference speed.

    The reference host runs the same pure-Python code at full speed or
    at about half speed, switching within seconds, from contention below
    its VM; CPU time slows with wall time, so no clock excludes it.  A
    fixed loop of integer arithmetic and lookups in a 256-entry dict
    (nothing from ``repro``, no allocation, data that stays in the
    nearest cache) slows the same way.  ``time`` runs that probe before
    and after the region and, from a ``SIGALRM`` interval timer, every
    ``PROBE_INTERVAL_S`` inside it; the region's wall time, less the
    probes inside it, is scaled by the mean of ``reference / probe``.
    A change to the simulator moves the region and not the probe, so the
    scaled time moves with it.  On the 5 s ``long-run`` replay, repeated
    for 200 s, this cut the spread of single replays from 17.7% to 4.4%
    (IQR/median).  Probes inside a traced replay are charged to whichever
    wrapped call they interrupt (about 1% of its time).
    """

    def __init__(self, reference_ns: float = PROBE_REFERENCE_NS) -> None:
        self.reference_ns = reference_ns
        self._table = {key: key * 7 for key in range(256)}
        #: reference_ns / probe duration, one entry per probe.  Raw
        #: doubles: a float object kept from inside a region would pin
        #: an allocator arena the simulator freed around it (fig18's
        #: peak RSS rose by 20 MB with a list of floats).
        self.speeds = array.array("d")

    def probe(self) -> float:
        """Host speed now, relative to the reference (higher is faster)."""
        table = self._table
        total = 0
        start = time.perf_counter_ns()
        for i in range(PROBE_ITERATIONS):
            total += table[(i * 40503) & 0xFF] & 7
        speed = self.reference_ns / (time.perf_counter_ns() - start)
        self.speeds.append(speed)
        return speed

    def time(self, region: Callable[[], T]) -> Tuple[T, int, float]:
        """Run ``region()``: (its result, wall ns, ns at reference speed)."""
        first = len(self.speeds)
        probing_ns = 0

        def tick(signum, frame) -> None:
            nonlocal probing_ns
            start = time.perf_counter_ns()
            self.probe()
            probing_ns += time.perf_counter_ns() - start

        self.probe()
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = time.perf_counter_ns()
        try:
            result = region()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter_ns()
            signal.signal(signal.SIGALRM, previous)
        self.probe()
        wall = end - start - probing_ns
        return result, wall, wall * statistics.fmean(self.speeds[first:])


@dataclass(frozen=True)
class Group:
    """One trace and compression model, replayed under each controller.

    ``budget`` is None (no DRAM budget), :data:`ISO`, or a fraction of
    the workload's footprint bytes.  ``scale`` shrinks the workload
    (tests only).
    """

    workload: str
    accesses: int
    controllers: Tuple[str, ...]
    budget: Union[None, str, float] = None
    scale: float = 1.0

    def cell_id(self, controller: str, budgeted: bool) -> str:
        name = f"{self.workload}/{controller}"
        if not budgeted:
            return name
        if self.budget == ISO:
            return f"{name}@iso"
        return f"{name}@{self.budget:g}fp"


def workload_cells(name: str) -> Tuple[Group, ...]:
    """The cell table of one named workload."""
    if name == "fig18":
        # The pinned `repro bench` suite, imported so the two stay one.
        from repro.bench import BENCH_ACCESSES, BENCH_CONTROLLERS, BENCH_WORKLOADS

        return tuple(Group(workload, BENCH_ACCESSES, BENCH_CONTROLLERS, ISO)
                     for workload in BENCH_WORKLOADS)
    # The other three are sized so that a run holds two or more rounds
    # even when the host runs at two thirds of reference speed: a run
    # reports medians over its rounds.
    if name == "cache-resident":
        controllers = ("uncompressed", "compresso", "tmcc")
        return (Group("degCentr", 120_000, controllers),
                Group("omnetpp", 120_000, controllers))
    if name == "ml2-pressure":
        controllers = ("tmcc", "osinspired")
        return (Group("mcf", 60_000, controllers, 0.5),
                Group("pageRank", 60_000, controllers, 0.5))
    if name == "long-run":
        return (Group("canneal", 300_000, ("tmcc",)),)
    raise ValueError(f"unknown workload {name!r}; choose from "
                     f"{', '.join(WORKLOAD_NAMES)}")


# ----------------------------------------------------------------------
# Per-cell measurements
# ----------------------------------------------------------------------

def fingerprint(result) -> str:
    """sha256 over the pinned SimResult fields, 9 significant digits."""

    def rounded(value):
        if isinstance(value, dict):
            return {key: rounded(value[key]) for key in sorted(value)}
        return format(value, f".{FINGERPRINT_DIGITS}g")

    document = {field: rounded(getattr(result, field))
                for field in FINGERPRINT_FIELDS}
    text = json.dumps(document, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def layer_counts(metrics: Dict[str, float]) -> Dict[str, int]:
    """Exact simulated counts per layer, from ``SimResult.metrics``
    (lazily created counters may be absent: they count 0)."""

    def get(key: str) -> int:
        return int(metrics.get(key, 0))

    counts = {
        "vm.tlb_misses": get("sim.tlb_misses"),
        "vm.ptb_fetches": get("walker.ptb_fetches.value"),
        "cache.l1_misses": get("cache.l1.total") - get("cache.l1.hits"),
        "cache.l3_misses": get("cache.l3.total") - get("cache.l3.hits"),
        "core.cte_dram_fetches": get("controller.cte_dram_fetches"),
    }
    for path in ("cte_hit", "parallel_ok", "parallel_mismatch",
                 "serial_no_cte", "ml2"):
        counts[f"core.path.{path}"] = get(f"controller.path_{path}")
    for name in ("reads", "writes", "stream_reads", "stream_writes"):
        counts[f"dram.{name}"] = get(f"dram.{name}")
    return counts


def samples_retained(sim) -> int:
    """Σ ``len(Histogram.samples)`` over histograms reachable from ``sim``
    through repro objects and dicts (0 once samples are not a list)."""
    from repro.common.stats import Histogram

    total = 0
    seen = set()
    stack = [sim]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Histogram):
            samples = getattr(obj, "samples", None)
            if isinstance(samples, list):
                total += len(samples)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif (type(obj).__module__.startswith("repro.")
              and hasattr(obj, "__dict__")):
            stack.extend(vars(obj).values())
    return total


# ----------------------------------------------------------------------
# Rounds and runs
# ----------------------------------------------------------------------

#: Timed phases of a round.  ``sim.replay.untraced`` is the untraced
#: twin of each traced replay; ``sim.loop.self`` is derived.
PHASES = ("workloads.build", "compression.model", "sim.construct",
          "sim.replay", "sim.loop.self", "sim.replay.untraced")
SETUP_PHASES = ("workloads.build", "compression.model", "sim.construct")


def _rates(accesses: int, setup_ns: float, replay_ns: float) -> Dict[str, float]:
    return {"setup_s": setup_ns / 1e9, "replay_s": replay_ns / 1e9,
            "acc_per_s": accesses * 1e9 / max(1.0, setup_ns + replay_ns),
            "replay_acc_per_s": accesses * 1e9 / max(1.0, replay_ns)}


def run_round(groups: Sequence[Group], seed: int,
              tracer: Optional[LayerTracer] = None,
              speed: Optional[HostSpeed] = None) -> Dict[str, object]:
    """Build and replay every cell once; returns the round record.

    Timed regions: workload build, compression model, ``Simulator(...)``
    and ``run()``, each also scaled to reference speed by ``speed``.
    Dropping the previous simulator, ``gc.collect()``, host-speed
    probes, wrapper installation and result checks are outside them.

    With a ``tracer`` every cell is first replayed untraced, then traced,
    back to back on the same workload and model: the untraced twin is
    the base of ``trace.overhead`` and must give the same fingerprint.
    """
    from repro.common.units import PAGE_SIZE
    from repro.core.compmodel import PageCompressionModel
    from repro.core.config import SystemConfig
    from repro.sim.simulator import Simulator
    from repro.workloads.suite import workload_by_name

    speed = speed if speed is not None else HostSpeed()
    system = SystemConfig()
    origin = time.perf_counter_ns()
    # phase -> [wall ns, ns at reference speed]
    phases = {name: [0, 0.0] for name in PHASES}

    def timed(phase: Optional[str], region: Callable[[], T]) -> Tuple[T, int]:
        """``(region(), wall ns)``; both times are added to ``phase``."""
        result, wall, scaled = speed.time(region)
        if phase is not None:
            phases[phase][0] += wall
            phases[phase][1] += scaled
        return result, wall

    def wrapped(traced: bool):
        return setup_wrappers(tracer) if traced else contextlib.nullcontext()

    def replay(workload, model, controller, budget, trace_id):
        """Build and run one simulator: traced when ``trace_id`` is set,
        else, in a traced round, the untraced twin (its construction is
        not counted); ``(result, replay wall ns, samples retained)``."""
        traced = trace_id is not None
        twin = tracer is not None and not traced
        gc.collect()  # the previous simulator was dropped on return
        with wrapped(traced):
            sim, _ = timed(None if twin else "sim.construct",
                           lambda: Simulator(workload, controller=controller,
                                             system=system,
                                             dram_budget_bytes=budget,
                                             seed=seed, model=model))
        if not sim.fast_path_eligible():
            raise RuntimeError("simulator is not fast-path eligible")
        if traced:
            tracer.install_replay_wrappers(sim)
            tracer.child_ns = 0
            tracer.begin_cell(trace_id, origin)
        try:
            result, replay_ns = timed(
                "sim.replay.untraced" if twin else "sim.replay",
                lambda: sim.run(warmup_fraction=WARMUP_FRACTION))
        finally:
            if traced:
                tracer.end_cell()
        retained = samples_retained(sim) if traced else 0
        return result, replay_ns, retained

    cells: List[Dict[str, object]] = []
    counts: Dict[str, int] = {}
    retained = 0
    accesses = 0
    for group in groups:
        # Free the previous group here, not by reassignment in a timed region.
        workload = model = None
        gc.collect()
        try:
            with wrapped(tracer is not None):
                workload, _ = timed("workloads.build", lambda: workload_by_name(
                    group.workload, max_accesses=group.accesses, seed=seed,
                    scale=group.scale))
                model, _ = timed("compression.model", lambda: PageCompressionModel(
                    workload.content,
                    sample_pages=system.compression_samples,
                    deflate_config=system.deflate,
                    timing=system.deflate_timing,
                    ibm=system.ibm_timing,
                    seed=seed,
                ))
        except Exception as error:  # every cell of the group fails
            for controller in group.controllers:
                cells.append({"id": group.cell_id(controller, False),
                              "error": f"{type(error).__name__}: {error}"})
            continue
        budget = None
        if isinstance(group.budget, float):
            budget = int(group.budget * workload.footprint_pages * PAGE_SIZE)
        trace_length = len(workload.trace)
        measured = trace_length - int(trace_length * WARMUP_FRACTION)
        for controller in group.controllers:
            cell = {"id": group.cell_id(controller, budget is not None)}
            cells.append(cell)
            try:
                if tracer is not None:
                    twin, _, _ = replay(workload, model, controller, budget,
                                        None)
                result, replay_ns, cell_retained = replay(
                    workload, model, controller, budget,
                    len(cells) - 1 if tracer is not None else None)
            except Exception as error:
                cell["error"] = f"{type(error).__name__}: {error}"
                continue
            if result.truncated or result.accesses != measured:
                cell["error"] = (f"measured {result.accesses} accesses, "
                                 f"expected {measured}")
                continue
            if group.budget == ISO and controller == "compresso":
                budget = result.dram_used_bytes
            cell["fingerprint"] = fingerprint(result)
            cell["l3_misses"] = result.l3_misses
            accesses += trace_length
            if tracer is not None:
                phases["sim.loop.self"][0] += replay_ns - tracer.child_ns
                if fingerprint(twin) != cell["fingerprint"]:
                    cell["error"] = "traced result differs from untraced"
                for name, value in layer_counts(result.metrics).items():
                    counts[name] = counts.get(name, 0) + value
                retained += cell_retained

    def rates(column: int) -> Dict[str, float]:
        return _rates(accesses,
                      sum(phases[name][column] for name in SETUP_PHASES),
                      phases["sim.replay"][column])

    record = {
        "traced": tracer is not None,
        "accesses": accesses,
        # Includes the untimed work (gc, drops, probes, checks).
        "elapsed_s": (time.perf_counter_ns() - origin) / 1e9,
        # End-to-end values at reference speed, then on the wall clock.
        "ref": rates(1),
        "wall": rates(0),
        "phases_s": {name: wall / 1e9 for name, (wall, _) in phases.items()},
        "phases_ref_s": {name: ref / 1e9 for name, (_, ref) in phases.items()},
        "cells": cells,
    }
    if tracer is not None:
        record["layers"] = {key: list(tracer.timing(key))
                            for key in TIMED_KEYS}
        record["counts"] = counts
        record["samples_retained"] = retained
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool,
            expected: Optional[Dict[str, str]],
            groups: Optional[Sequence[Group]] = None,
            trace_file: Optional[Path] = None) -> Dict[str, object]:
    """One benchmark run of ``workload``: rounds until ``seconds`` are used.

    Every round of a traced run is traced.  ``expected`` maps cell id ->
    pinned fingerprint (None: unchecked seed).  ``groups`` overrides the
    workload's cell table (tests).
    """
    groups = tuple(groups) if groups is not None else workload_cells(workload)
    tracer = LayerTracer() if trace else None
    speed = HostSpeed()
    rounds: List[Dict[str, object]] = []
    peak_rss_mb = 0.0
    started = time.perf_counter()
    while True:
        before = time.perf_counter()
        if tracer is not None:
            tracer.reset()
            # Spans are sampled from the first round only.
            tracer.span_budget = SPAN_BUDGET if not rounds else 0
        rounds.append(run_round(groups, seed, tracer, speed))
        if len(rounds) == 1:
            # Later rounds only add allocator fragmentation, so the peak
            # is taken after the first: it must not depend on how many
            # rounds fit in the measuring time.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer is not None and trace_file is not None:
                _write_spans(tracer, rounds[0], trace_file, workload, seed)
        last = time.perf_counter() - before
        if time.perf_counter() - started + last > seconds:
            break
    failures = check_cells(rounds, expected)
    document = {
        "schema": RUN_SCHEMA,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "checked": expected is not None,
        "attempted": sum(len(r["cells"]) for r in rounds),
        "failed": len(failures),
        "failures": failures,
        "cells": {cell["id"]: cell.get("fingerprint")
                  for cell in rounds[0]["cells"]},
        "rounds": [{key: value for key, value in r.items() if key != "cells"}
                   for r in rounds],
        "peak_rss_mb": peak_rss_mb,
        # Host speed relative to the reference host, over every probe.
        "host_speed": statistics.median(speed.speeds),
        "wall_metrics": end_to_end_metrics(rounds, peak_rss_mb, "wall"),
    }
    document["metrics"] = (layer_metrics(rounds) if trace
                           else end_to_end_metrics(rounds, peak_rss_mb))
    return document


def check_cells(rounds: Sequence[Dict[str, object]],
                expected: Optional[Dict[str, str]]) -> List[str]:
    """One line per failed cell attempt: an exception, a fingerprint
    that differs from the pinned one, or (unchecked seeds) from the
    same cell's fingerprint in the run's first round."""
    failures = []
    first = {cell["id"]: cell.get("fingerprint") for cell in rounds[0]["cells"]}
    for number, record in enumerate(rounds):
        for cell in record["cells"]:
            where = f"round {number} {cell['id']}"
            if "error" in cell:
                failures.append(f"{where}: {cell['error']}")
                continue
            want = (expected.get(cell["id"]) if expected is not None
                    else first[cell["id"]])
            if cell["fingerprint"] != want:
                failures.append(f"{where}: fingerprint {cell['fingerprint'][:12]}"
                                f" != expected {str(want)[:12]}")
    return failures


def end_to_end_metrics(rounds, peak_rss_mb: float,
                       clock: str = "ref") -> Dict[str, float]:
    """Medians over rounds, at reference speed or (``clock="wall"``) on
    the wall clock."""
    metrics = {name: statistics.median(r[clock][name] for r in rounds)
               for name in ("acc_per_s", "replay_acc_per_s", "setup_s")}
    metrics["peak_rss_mb"] = peak_rss_mb
    return metrics


def layer_metrics(rounds) -> Dict[str, float]:
    """Per-layer metrics of a traced run: times are medians over rounds,
    counts are exact (identical in every round)."""
    last = rounds[-1]
    metrics: Dict[str, float] = {}
    median = statistics.median
    for phase in ("sim.construct", "sim.replay", "sim.loop.self",
                  "workloads.build", "compression.model"):
        metrics[f"{phase}_s"] = median(r["phases_s"][phase] for r in rounds)
    for key in TIMED_KEYS:
        metrics[f"{key}.self_s"] = median(r["layers"][key][2] / 1e9
                                          for r in rounds)
        if key not in ("vm.populate", "core.initialize"):
            metrics[f"{key}.calls"] = last["layers"][key][0]
    metrics["core.serve_miss.total_s"] = median(
        r["layers"]["core.serve_miss"][1] / 1e9 for r in rounds)
    metrics.update(last["counts"])
    ok = last["counts"]["core.path.parallel_ok"]
    checked = ok + last["counts"]["core.path.parallel_mismatch"]
    metrics["core.spec_ok_ratio"] = ok / checked if checked else 0.0
    metrics["stats.samples_retained"] = last["samples_retained"]
    # Both replays at reference speed: a slow second between a cell's
    # untraced twin and its traced replay must not read as overhead.
    metrics["trace.overhead"] = median(
        r["phases_ref_s"]["sim.replay"] / r["phases_ref_s"]["sim.replay.untraced"]
        - 1.0 for r in rounds)
    return dict(sorted(metrics.items()))


def _write_spans(tracer: LayerTracer, record: Dict[str, object], path: Path,
                 workload: str, seed: int) -> None:
    from repro.sim.tracing import write_trace_file

    names = {index: cell["id"] for index, cell in enumerate(record["cells"])}
    write_trace_file(tracer.span_objects(names), path,
                     metadata={"workload": workload, "seed": seed,
                               "clock": "host perf_counter_ns",
                               "span_budget_per_cell": tracer.span_budget})


# ----------------------------------------------------------------------
# The benchmark declaration and pinned fingerprints
# ----------------------------------------------------------------------

def load_declaration(path: Path = BENCHMARK_FILE) -> Dict[str, object]:
    with open(path) as handle:
        return json.load(handle)


def metric_catalog(declaration: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    """name -> its end_to_end or per_layer entry."""
    return {entry["name"]: entry
            for section in ("end_to_end", "per_layer")
            for entry in declaration[section]}


def load_expected(path: Path = EXPECTED_FILE) -> Dict[str, object]:
    if not path.exists():
        return {"seeds": {}}
    with open(path) as handle:
        return json.load(handle)


def expected_for(pinned: Dict[str, object], seed: int,
                 workload: str) -> Optional[Dict[str, str]]:
    return pinned.get("seeds", {}).get(str(seed), {}).get(workload)


# ----------------------------------------------------------------------
# Subprocesses
# ----------------------------------------------------------------------

def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    # One thread per process: numpy's BLAS pool stays at one thread.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    # A fixed string-hash seed, so dict and set layouts (and their speed)
    # are the same in every run; simulated results never depend on it.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              out: Path, tag: str, check: bool = True) -> Dict[str, object]:
    """One run in a fresh subprocess; returns its run document."""
    doc_path = out / f"run-{workload}-seed{seed}-{tag}.json"
    command = [sys.executable, str(Path(__file__).resolve()), "worker",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--doc", str(doc_path)]
    if trace:
        command += ["--trace-file",
                    str(out / f"trace-{workload}-seed{seed}-{tag}.json")]
    if not check:
        command.append("--no-check")
    completed = subprocess.run(command, env=_child_env(), stdout=sys.stderr)
    if completed.returncode != 0 or not doc_path.exists():
        raise RuntimeError(f"{workload} (seed {seed}) run exited with "
                           f"code {completed.returncode}")
    with open(doc_path) as handle:
        return json.load(handle)


def _format(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):,}"
    if abs(value) >= 100:
        return f"{value:,.1f}"
    return f"{value:.4g}"


def print_summary(docs: Sequence[Dict[str, object]],
                  catalog: Dict[str, Dict[str, object]]) -> None:
    by_workload: Dict[str, List[Dict[str, object]]] = {}
    for doc in docs:
        by_workload.setdefault(doc["workload"], []).append(doc)
    for workload, runs in by_workload.items():
        checked = "pinned" if all(doc["checked"] for doc in runs) else "unchecked"
        failed = sum(doc["failed"] for doc in runs)
        attempted = sum(doc["attempted"] for doc in runs)
        rounds = [len(doc["rounds"]) for doc in runs]
        print(f"\n{workload}: {len(runs)} run(s), rounds per run {rounds}, "
              f"fingerprints {checked}, failed {failed}/{attempted} cells")
        for doc in runs:
            for line in doc["failures"][:10]:
                print(f"  FAILED {line}")
        names = list(runs[0]["metrics"])
        width = max(len(name) for name in names)
        print(f"  {'metric':<{width}}  {'median':>14}  {'IQR':>10}  n  unit")
        for name in names:
            values = [doc["metrics"][name] for doc in runs]
            q1, median, q3 = quartiles(values)
            unit = catalog.get(name, {}).get("unit", "?")
            line = (f"  {name:<{width}}  {_format(median):>14}  "
                    f"{_format(q3 - q1):>10}  {len(values)}  {unit}")
            if name == "core.spec_ok_ratio":
                metrics = runs[0]["metrics"]
                base = (metrics["core.path.parallel_ok"]
                        + metrics["core.path.parallel_mismatch"])
                line += f" (of {base:,} speculative fetches)"
            print(line)
        if runs[0]["trace"]:
            print_layer_table(runs[0])
        else:
            wall = ", ".join(
                f"{name} {_format(statistics.median(doc['wall_metrics'][name] for doc in runs))}"
                for name in ("acc_per_s", "replay_acc_per_s", "setup_s"))
            speeds = statistics.median(doc["host_speed"] for doc in runs)
            print(f"  wall clock (medians): {wall}; host speed {speeds:.3f} "
                  f"x reference")


def print_layer_table(doc: Dict[str, object]) -> None:
    """Self time per wrapped layer entry as a share of traced replay."""
    metrics = doc["metrics"]
    replay = metrics["sim.replay_s"]
    rows = [("sim.loop (batched front end)", None, metrics["sim.loop.self_s"])]
    for key in TIMED_KEYS:
        if key in ("vm.populate", "core.initialize", "compression.deflate",
                   "compression.block"):
            continue
        rows.append((key, metrics[f"{key}.calls"], metrics[f"{key}.self_s"]))
    print(f"  replay self time by layer (traced replay {replay:.3f} s, "
          f"overhead {metrics['trace.overhead']:+.1%}):")
    for key, calls, self_s in sorted(rows, key=lambda row: -row[2]):
        calls_text = "" if calls is None else f"{calls:>12,}"
        print(f"    {key:<30} {calls_text:>12} {self_s:9.3f} s "
              f"{self_s / replay:7.1%}")


def result_line(docs: Sequence[Dict[str, object]],
                  catalog: Dict[str, Dict[str, object]]) -> Dict[str, object]:
    """The final JSON line; metrics only when one workload was run."""
    metrics = {}
    if len({doc["workload"] for doc in docs}) == 1:
        for name in docs[0]["metrics"]:
            value = statistics.median(doc["metrics"][name] for doc in docs)
            metrics[name] = {"value": value, "unit": catalog[name]["unit"]}
    failed = sum(doc["failed"] for doc in docs)
    return {"correct": failed == 0,
            "attempted": sum(doc["attempted"] for doc in docs),
            "failed": failed,
            "metrics": metrics}


def command_run(args) -> int:
    declaration = load_declaration()
    catalog = metric_catalog(declaration)
    seconds = (declaration["run_seconds"] if args.seconds is None
               else args.seconds)
    trace = args.trace == "1"
    out = Path(args.out) if args.out else RESULTS_DIR / (
        time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}")
    out.mkdir(parents=True, exist_ok=True)
    docs = []
    layers = {}
    for workload in args.workloads:
        for repeat in range(args.repeats):
            doc = run_child(workload, args.seed, seconds, trace, out,
                            tag=f"{'trace' if trace else 'run'}{repeat}")
            docs.append(doc)
            if trace:
                layers[f"{workload}/seed{args.seed}/{repeat}"] = doc["metrics"]
    if trace:
        with open(out / "layers.json", "w") as handle:
            json.dump(layers, handle, indent=2, sort_keys=True)
    print_summary(docs, catalog)
    print(f"\nrun documents: {out}")
    print(json.dumps(result_line(docs, catalog)))
    return 0


def command_worker(args) -> int:
    pinned = load_expected()
    expected = (expected_for(pinned, args.seed, args.workload)
                if not args.no_check else None)
    if expected is None and not args.no_check:
        print(f"{args.workload} seed {args.seed}: no pinned fingerprints, "
              f"unchecked (rounds are checked against each other)",
              file=sys.stderr)
    doc = measure(args.workload, args.seed, args.seconds, args.trace == "1",
                  expected,
                  trace_file=Path(args.trace_file) if args.trace_file else None)
    from repro.bench import host_metadata

    doc["host"] = host_metadata()
    with open(args.doc, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
    return 0


def command_record_expected(args) -> int:
    existing = sorted(load_expected()["seeds"], key=int)
    seeds = args.seeds or [int(seed) for seed in existing] or [1, 2]
    recorded: Dict[str, Dict[str, Dict[str, str]]] = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
        for seed in seeds:
            for workload in WORKLOAD_NAMES:
                doc = run_child(workload, seed, 0, False, Path(workdir),
                                tag="record", check=False)
                if doc["failed"]:
                    print("\n".join(doc["failures"]), file=sys.stderr)
                    return 1
                recorded.setdefault(str(seed), {})[workload] = doc["cells"]
                print(f"seed {seed} {workload}: {len(doc['cells'])} cells",
                      file=sys.stderr)
    document = {"fields": list(FINGERPRINT_FIELDS),
                "digits": FINGERPRINT_DIGITS,
                "seeds": recorded}
    with open(EXPECTED_FILE, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {EXPECTED_FILE}")
    return 0


def command_compare(args) -> int:
    declaration = load_declaration()
    parent = load_runs(Path(args.parent))
    change = load_runs(Path(args.change))
    rows = compare(parent, change, declaration["end_to_end"])
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


def _seed_list(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part]


def _workload_list(text: str) -> List[str]:
    names = [part for part in text.split(",") if part]
    unknown = [name for name in names if name not in WORKLOAD_NAMES]
    if unknown or not names:
        raise argparse.ArgumentTypeError(
            f"unknown workload(s) {unknown}; choose from "
            f"{', '.join(WORKLOAD_NAMES)}")
    return names


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="harness.py",
        description="Layered host-performance benchmark (see README.md).")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run workloads, print metrics")
    run.add_argument("--workloads", "--workload", dest="workloads",
                     type=_workload_list, default=list(WORKLOAD_NAMES))
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=None,
                     help="measuring time per run (default: BENCHMARK.json "
                          "run_seconds); 0 runs one round")
    run.add_argument("--repeats", type=int, default=1)
    run.add_argument("--trace", nargs="?", const="1", default="0",
                     choices=("0", "1"))
    run.add_argument("--out", help="directory for run documents "
                                   "(default: results/perf/<timestamp>)")

    worker = commands.add_parser("worker", help=argparse.SUPPRESS)
    worker.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    worker.add_argument("--seed", type=int, required=True)
    worker.add_argument("--seconds", type=float, required=True)
    worker.add_argument("--trace", choices=("0", "1"), required=True)
    worker.add_argument("--doc", required=True)
    worker.add_argument("--trace-file")
    worker.add_argument("--no-check", action="store_true")

    record = commands.add_parser(
        "record-expected", help="re-pin expected.json from this commit")
    record.add_argument("--seeds", type=_seed_list, default=None,
                        help="comma list (default: the seeds already pinned)")

    compare = commands.add_parser(
        "compare", help="verdicts for a change against its parent")
    compare.add_argument("parent", help="directory of the parent's run documents")
    compare.add_argument("change", help="directory of the change's run documents")

    args = parser.parse_args(argv)
    if args.command == "run" and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if getattr(args, "seconds", None) is not None and args.seconds < 0:
        parser.error("--seconds must not be negative")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"harness: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    handlers = {"run": command_run, "worker": command_worker,
                "record-expected": command_record_expected,
                "compare": command_compare}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
