"""Command-line interface.

The subcommands cover the library's main entry points:

- ``workloads`` -- list the paper's workloads (``--json`` for machines).
- ``deflate``   -- compress synthetic pages of one content profile and
  report size/latency under our ASIC vs block-level vs IBM's ASIC.
- ``run``       -- simulate one workload under one controller, with the
  observability surface: ``--emit-json`` for the namespaced metric tree,
  ``--trace-events`` for a raw JSONL event stream, ``--trace-sample`` /
  ``--trace-out`` for causal span traces (Perfetto-loadable),
  ``--interval-ns`` / ``--interval-out`` for windowed metric
  time-series, and ``--profile`` for host self-time.
- ``compare``   -- the headline experiment: TMCC vs Compresso at equal
  DRAM usage for one workload (a three-cell sweep under the hood).
- ``sweep``     -- the sweep engine: ``sweep run`` executes a
  declarative job matrix (a ``.toml``/``.json`` spec or a built-in like
  ``fig18``) into a resumable SQLite store, in parallel with ``-j N``,
  retrying transient host failures (``--max-retries``) and supervising
  hung workers (``--heartbeat-timeout``); exit code 4 means some jobs
  were quarantined after exhausting retries.  ``sweep ls``/
  ``show``/``export`` query stores (``export --failures`` emits the
  quarantine report); ``sweep repair`` salvages completed rows from a
  damaged store; ``sweep curve`` (or the historical ``sweep
  <workload>`` spelling) prints TMCC's performance/capacity trade-off
  curve.
- ``report``    -- render one ``--emit-json`` document as a
  markdown/HTML run report, or diff two with ``--compare A B``.
- ``bench``     -- run the pinned performance suite (``repro.bench``),
  write ``BENCH_<date>.json``, and optionally gate against a committed
  baseline (``--baseline``/``--max-regression``).
- ``trace convert`` -- translate span traces between JSONL and Perfetto.

Controllers come from :data:`repro.core.CONTROLLER_REGISTRY`; pass
``--controller list`` to ``run`` (or ``trace run``) to enumerate them.

Examples::

    python -m repro.cli workloads --json
    python -m repro.cli deflate graph
    python -m repro.cli run mcf --controller tmcc --emit-json
    python -m repro.cli run mcf --trace-sample 64 --trace-out t.json \\
        --interval-ns 1000000 --interval-out windows.csv
    python -m repro.cli report result.json --trace t.json
    python -m repro.cli report --compare a.json b.json
    python -m repro.cli compare canneal --accesses 40000 --scale 0.4
    python -m repro.cli sweep run fig18 --store sweeps.db -j 4
    python -m repro.cli sweep export fig18 --format csv
    python -m repro.cli sweep mcf --points 4
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.common.errors import ERROR_KIND_CONFIG, classify_error
from repro.common.units import PAGE_SIZE
from repro.compression.block import SelectiveBlockCompressor
from repro.compression.deflate import (
    DeflateCodec,
    DeflateTimingModel,
    IBMDeflateModel,
)
from repro.workloads.content import CONTENT_PROFILES, ContentSynthesizer
from repro.workloads.suite import PAPER_WORKLOAD_NAMES, workload_by_name

_WORKLOAD_KINDS = {
    "mcf": "SPEC-like pointer chase",
    "omnetpp": "SPEC-like event queue",
    "canneal": "PARSEC-like annealing",
}


def _controller_names() -> List[str]:
    from repro.core import available_controllers

    return available_controllers()


def _validate_args(args: argparse.Namespace) -> Optional[str]:
    """One-line validation errors for knobs shared across subcommands.

    Catching impossible values here keeps deep model-layer tracebacks
    (negative trace lengths, empty placement plans) out of the user's
    face; the return value is printed as ``error: <message>``.
    """
    accesses = getattr(args, "accesses", None)
    if accesses is not None and accesses <= 0:
        return f"--accesses must be > 0, got {accesses}"
    scale = getattr(args, "scale", None)
    if scale is not None and not 0.0 < scale <= 1.0:
        return f"--scale must be in (0, 1], got {scale}"
    points = getattr(args, "points", None)
    if points is not None and points <= 0:
        return f"--points must be > 0, got {points}"
    cores = getattr(args, "cores", None)
    if cores is not None and cores < 1:
        return f"--cores must be >= 1, got {cores}"
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        return f"--seed must be >= 0, got {seed}"
    checkpoint_every = getattr(args, "checkpoint_every", None)
    if checkpoint_every is not None and checkpoint_every < 0:
        return f"--checkpoint-every must be >= 0, got {checkpoint_every}"
    if checkpoint_every and not getattr(args, "checkpoint", None):
        return "--checkpoint-every needs --checkpoint PATH"
    limit = getattr(args, "wall_clock_limit", None)
    if limit is not None and limit <= 0:
        return f"--wall-clock-limit must be > 0 seconds, got {limit}"
    pages = getattr(args, "pages", None)
    if pages is not None and pages <= 0:
        return f"--pages must be > 0, got {pages}"
    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs < 1:
        return f"--jobs must be >= 1, got {jobs}"
    timeout = getattr(args, "timeout", None)
    if timeout is not None and timeout <= 0:
        return f"--timeout must be > 0 seconds, got {timeout}"
    max_retries = getattr(args, "max_retries", None)
    if max_retries is not None and max_retries < 0:
        return f"--max-retries must be >= 0, got {max_retries}"
    heartbeat_timeout = getattr(args, "heartbeat_timeout", None)
    if heartbeat_timeout is not None and heartbeat_timeout <= 0:
        return (f"--heartbeat-timeout must be > 0 seconds, "
                f"got {heartbeat_timeout}")
    return None


def _check_controller(name: str) -> bool:
    """True if ``name`` is registered; otherwise print the choices."""
    names = _controller_names()
    if name in names:
        return True
    print(f"unknown controller {name!r}; choose from {names}",
          file=sys.stderr)
    return False


def _cmd_workloads(args: argparse.Namespace) -> int:
    if getattr(args, "json", False):
        records = [
            {"name": name,
             "kind": _WORKLOAD_KINDS.get(name, "GraphBIG-like kernel")}
            for name in PAPER_WORKLOAD_NAMES
        ]
        print(json.dumps(records, indent=2))
        return 0
    print(f"{'workload':14s} {'kind':22s}")
    for name in PAPER_WORKLOAD_NAMES:
        print(f"{name:14s} "
              f"{_WORKLOAD_KINDS.get(name, 'GraphBIG-like kernel'):22s}")
    return 0


def _cmd_deflate(args: argparse.Namespace) -> int:
    if args.profile not in CONTENT_PROFILES:
        print(f"unknown profile {args.profile!r}; "
              f"choose from {sorted(CONTENT_PROFILES)}", file=sys.stderr)
        return 2
    synthesizer = ContentSynthesizer(args.profile, seed=args.seed)
    codec = DeflateCodec()
    blocks = SelectiveBlockCompressor()
    timing = DeflateTimingModel()
    ibm = IBMDeflateModel()
    pages = [synthesizer.page(v) for v in range(args.pages)]
    original = len(pages) * PAGE_SIZE
    compressed = [codec.compress(p) for p in pages]
    for c, p in zip(compressed, pages):
        if codec.decompress(c) != p:
            print("round-trip FAILED", file=sys.stderr)
            return 1
    deflate_bytes = sum(c.size_bytes for c in compressed)
    block_bytes = sum(blocks.compressed_page_size(p) for p in pages)
    half = sum(timing.decompress_latency_ns(c, PAGE_SIZE // 2)
               for c in compressed) / len(compressed)
    print(f"profile {args.profile}: {args.pages} pages, round-trip OK")
    print(f"our ASIC Deflate: {original / deflate_bytes:5.2f}x, "
          f"half-page latency {half:.0f} ns")
    print(f"block-level:      {original / block_bytes:5.2f}x")
    print(f"IBM ASIC half-page latency: "
          f"{ibm.decompress_latency_ns(PAGE_SIZE, PAGE_SIZE // 2):.0f} ns")
    return 0


def _print_breakdown(accounting) -> None:
    """Render the per-path per-stage latency table behind ``--breakdown``.

    ``share`` is each stage's critical-path time as a fraction of all
    measured miss latency, so the column sums to ~1.0 over the table.
    """
    rows = accounting.breakdown()
    if not rows:
        print("no per-stage data recorded (no LLC misses?)")
        return
    header = (f"{'path':<18} {'stage':<16} {'count':>8} "
              f"{'mean_ns':>10} {'share':>7}")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['path']:<18} {row['stage']:<16} {row['count']:>8} "
              f"{row['mean_ns']:>10.2f} {row['share']:>7.1%}")


def _run_failure(args: argparse.Namespace, error: BaseException,
                 sim=None) -> int:
    """Report a failed ``run``: one stderr line, plus JSON when asked.

    With ``--emit-json`` the failure still produces a JSON document --
    an ``error`` field, its taxonomy ``error_kind``, and whatever
    metrics the simulator collected before dying -- so harnesses never
    have to parse tracebacks.  Exit code 2 for configuration mistakes,
    1 for model-invariant / resource failures.
    """
    kind = classify_error(error)
    message = str(error) or type(error).__name__
    print(f"error ({kind}): {message}", file=sys.stderr)
    if sim is not None:
        # Best effort: a failed run still leaves its sampled spans and
        # windowed rows behind for post-mortem analysis.
        try:
            timeseries = getattr(sim, "timeseries", None)
            if timeseries is not None:
                timeseries.finish(sim.clock.now_ns)
            _write_observability_outputs(args, sim, quiet=True)
        except Exception:
            pass
    if getattr(args, "emit_json", False):
        metrics = {}
        if sim is not None:
            try:
                metrics = sim.context.metrics.snapshot()
            except Exception:
                metrics = {}
        print(json.dumps({"error": message, "error_kind": kind,
                          "metrics": metrics}, indent=2, sort_keys=True))
    return 2 if kind == ERROR_KIND_CONFIG else 1


def _validate_observability_args(args: argparse.Namespace) -> Optional[str]:
    """Validation for the opt-in tracing/time-series/profiling flags."""
    if args.trace_sample is not None:
        if args.trace_sample < 1:
            return f"--trace-sample must be >= 1, got {args.trace_sample}"
        if not args.trace_out:
            return "--trace-sample needs --trace-out PATH"
    if args.trace_buffer < 2:
        return f"--trace-buffer must be >= 2 spans, got {args.trace_buffer}"
    if args.interval_ns is not None and args.interval_ns <= 0:
        return f"--interval-ns must be > 0, got {args.interval_ns}"
    if args.interval_ns is not None and not args.interval_out:
        return "--interval-ns needs --interval-out PATH"
    if args.interval_out and args.interval_ns is None:
        return "--interval-out needs --interval-ns NS"
    observability = (args.trace_out or args.interval_ns is not None
                     or args.profile)
    if observability and args.cores > 1:
        return ("--trace-out/--interval-ns/--profile only support "
                "single-core runs")
    if args.profile and args.resume is not None:
        return ("--profile cannot be combined with --resume; profiling "
                "hooks are wired at construction time")
    return None


def _validate_run_args(args: argparse.Namespace) -> Optional[str]:
    issue = _validate_args(args)
    if issue is not None:
        return issue
    issue = _validate_observability_args(args)
    if issue is not None:
        return issue
    if args.resume is not None:
        if args.faults:
            return ("--faults cannot be combined with --resume; the "
                    "fault plan is part of the checkpoint")
        if args.cores > 1:
            return "--resume only supports single-core runs"
        return None
    if args.workload is None:
        return "a workload is required unless --controller list or --resume"
    if args.workload not in PAPER_WORKLOAD_NAMES:
        return (f"unknown workload {args.workload!r}; "
                f"choose from {PAPER_WORKLOAD_NAMES}")
    if args.cores > 1 and args.faults:
        return "--faults only supports single-core runs"
    if args.cores > 1 and (args.checkpoint or args.wall_clock_limit):
        return "--checkpoint/--wall-clock-limit only support single-core runs"
    return None


def _write_observability_outputs(args: argparse.Namespace, sim,
                                 quiet: bool) -> None:
    """Write --trace-out / --interval-out files from whatever the run
    collected.  Called after normal, truncated, *and* failed runs, so a
    watchdog-killed simulation still leaves its sampled spans behind."""
    tracer = getattr(sim, "tracer", None)
    if tracer is not None and args.trace_out:
        from repro.sim.tracing import write_trace_file

        write_trace_file(
            tracer.spans(), args.trace_out,
            metadata={"workload": sim.workload.name,
                      "controller": sim.controller_name,
                      **tracer.summary()},
        )
        if not quiet:
            summary = tracer.summary()
            print(f"trace: {summary['traces_retained']} traces "
                  f"({summary['spans_retained']} spans, "
                  f"{summary['traces_dropped']} dropped) "
                  f"written to {args.trace_out}")
    timeseries = getattr(sim, "timeseries", None)
    if timeseries is not None and args.interval_out:
        from repro.sim.timeseries import write_timeseries_file

        write_timeseries_file(timeseries.rows, args.interval_out,
                              columns=timeseries.columns())
        if not quiet:
            print(f"time series: {len(timeseries.rows)} windows "
                  f"written to {args.interval_out}")


def _run_simulation(args: argparse.Namespace, holder: dict) -> int:
    """The body of ``repro run``; raises into :func:`_run_failure`."""
    from repro.sim.faults import FaultPlan
    from repro.sim.supervisor import RunSupervisor, load_checkpoint
    from repro.sim.tracing import SpanTracer, TraceEventWriter

    plan = FaultPlan.parse(args.faults) if args.faults else None

    event_writer = None
    if args.trace_events:  # fail fast, before the expensive trace build
        event_writer = TraceEventWriter(args.trace_events)

    try:
        if args.resume is not None:
            if args.workload is not None:
                print(f"note: resuming from {args.resume}; "
                      f"workload argument ignored", file=sys.stderr)
            sim = load_checkpoint(args.resume)
            controller_name = sim.controller_name
        else:
            from repro.sim.multicore import MultiCoreSimulator
            from repro.sim.simulator import Simulator

            workload = workload_by_name(args.workload,
                                        max_accesses=args.accesses,
                                        scale=args.scale)
            controller_name = args.controller
            if args.cores > 1:
                sim = MultiCoreSimulator(workload, num_cores=args.cores,
                                         controller=args.controller,
                                         seed=args.seed)
            else:
                context = None
                if args.profile:
                    # Probes capture the profiler at construction, so it
                    # must be armed on the context *before* the build.
                    from repro.sim.context import SimContext

                    context = SimContext(seed=args.seed)
                    context.enable_profiling()
                sim = Simulator(workload, controller=args.controller,
                                seed=args.seed, fault_plan=plan,
                                context=context)
    except BaseException:
        if event_writer is not None:
            event_writer.close()
        raise
    holder["sim"] = sim

    if event_writer is not None:
        # The simulator's run() teardown closes owned writers (close is
        # idempotent, so the failure path's close below is harmless).
        event_writer.attach(sim.context.bus)
        sim.context.own(event_writer)

    if args.trace_out:
        tracer = SpanTracer(sample_every=args.trace_sample or 1,
                            buffer_spans=args.trace_buffer)
        sim.attach_tracer(tracer)
    if args.interval_ns is not None:
        from repro.sim.timeseries import TimeSeriesRecorder

        sim.attach_timeseries(
            TimeSeriesRecorder(sim.context.metrics, args.interval_ns))

    supervisor = None
    if args.checkpoint or args.wall_clock_limit:
        supervisor = RunSupervisor(
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            wall_clock_limit_s=args.wall_clock_limit,
        )

    try:
        if supervisor is not None:
            result = supervisor.run(sim)
        else:
            result = sim.run()
    finally:
        if event_writer is not None:
            event_writer.close()

    _write_observability_outputs(args, sim, quiet=args.emit_json)

    if args.emit_json:
        from repro.sim.instrument import nest_metrics

        record = result.as_dict()
        record["metrics_tree"] = nest_metrics(result.metrics)
        if hasattr(sim, "describe_run"):
            record["run_config"] = sim.describe_run()
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print(f"{sim.workload.name} / {controller_name}: "
              f"{result.accesses} accesses, "
              f"{result.l3_misses} LLC misses, "
              f"avg miss latency {result.avg_l3_miss_latency_ns:.1f} ns, "
              f"perf {result.performance:.1f}/us, "
              f"capacity {result.compression_ratio:.2f}x")
        if args.breakdown:
            _print_breakdown(sim.controller.stage_accounting)
        if args.profile:
            _print_profile(sim.context.profiler)
        if args.trace_events:
            print(f"trace events written to {args.trace_events}")
    if result.truncated:
        print(f"run truncated: {result.error}", file=sys.stderr)
        if args.checkpoint:
            print(f"resume with: repro run --resume {args.checkpoint}",
                  file=sys.stderr)
        return 3
    return 0


def _print_profile(profiler) -> None:
    """Render the --profile host self-time table, hottest first."""
    if profiler is None:
        return
    rows = profiler.report_rows()
    if not rows:
        print("no profiled sections (run too short?)")
        return
    header = f"{'section':<28} {'calls':>10} {'total_ms':>10} {'self_ms':>10}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['section']:<28} {row['calls']:>10} "
              f"{row['total_ms']:>10.2f} {row['self_ms']:>10.2f}")


def _cmd_run(args: argparse.Namespace) -> int:
    if args.controller == "list":
        for name in _controller_names():
            print(name)
        return 0
    issue = _validate_run_args(args)
    if issue is not None:
        from repro.common.errors import ConfigError

        return _run_failure(args, ConfigError(issue))
    if args.resume is None and not _check_controller(args.controller):
        return 2
    holder: dict = {}
    try:
        return _run_simulation(args, holder)
    except BrokenPipeError:
        raise
    except Exception as error:
        return _run_failure(args, error, holder.get("sim"))


def _cmd_compare(args: argparse.Namespace) -> int:
    """Figure 17's protocol as a thin wrapper over the sweep engine:
    a three-cell matrix for one workload, reduced to the iso row."""
    from repro.sweep.engine import run_sweep
    from repro.sweep.reduce import iso_capacity_rows
    from repro.sweep.spec import SweepSpec
    from repro.workloads.suite import cached_workload

    spec = SweepSpec.build(
        name="compare",
        workloads=(args.workload,),
        controllers=("uncompressed", "compresso", "tmcc@iso"),
        accesses=args.accesses,
        scale=args.scale,
    )
    run = run_sweep(spec, capture_errors=False)
    row = iso_capacity_rows(run, subject="tmcc")[0]
    uncompressed = run.result(run.find_jobs(controller="uncompressed")[0])
    if getattr(args, "emit_json", False):
        from repro.sim.instrument import nest_metrics

        systems = {}
        for label, result in (("uncompressed", uncompressed),
                              ("compresso", row["reference"]),
                              ("tmcc", row["subject"])):
            record = result.as_dict()
            record["metrics_tree"] = nest_metrics(result.metrics)
            systems[label] = record
        print(json.dumps({"workload": args.workload,
                          "speedup": row["speedup"],
                          "systems": systems},
                         indent=2, sort_keys=True))
        return 0
    workload = cached_workload(args.workload, max_accesses=args.accesses,
                               scale=args.scale)
    print(f"{args.workload}: footprint "
          f"{workload.footprint_pages * 4 // 1024} MiB, "
          f"{workload.access_count} accesses")
    print(f"{'system':14s} {'L3 miss lat':>12s} {'perf':>10s} {'capacity':>9s}")
    for label, result in (("no compress", uncompressed),
                          ("Compresso", row["reference"]),
                          ("TMCC", row["subject"])):
        print(f"{label:14s} {result.avg_l3_miss_latency_ns:9.1f} ns "
              f"{result.performance:7.1f}/us {result.compression_ratio:8.2f}x")
    print(f"TMCC speedup at iso-capacity: {row['speedup']:.3f}x")
    return 0


def _load_sweep_spec(ident: str):
    """A sweep spec from a file path or a built-in matrix name."""
    import os

    from repro.common.errors import ConfigError
    from repro.sweep.spec import SweepSpec, builtin_spec

    if os.path.exists(ident):
        return SweepSpec.from_file(ident)
    try:
        return builtin_spec(ident)
    except ConfigError:
        raise ConfigError(
            f"no spec file {ident!r} and no built-in sweep by that name; "
            f"built-ins: fig18, smoke")


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.common.errors import ConfigError
    from repro.sweep.engine import RetryPolicy, run_sweep

    try:
        spec = _load_sweep_spec(args.spec)
        if args.timeout is not None:
            spec = dataclasses.replace(spec, job_timeout_s=args.timeout)
        total = len(spec.expand())
        retry = RetryPolicy(max_retries=args.max_retries)
    except ConfigError as error:
        print(f"error (config): {error}", file=sys.stderr)
        return 2

    finished = {"count": 0}

    def progress(event: str, job, record) -> None:
        if event == "skip":
            finished["count"] += 1
            print(f"[{finished['count']:>{len(str(total))}}/{total}] "
                  f"{job.label()}: skipped (already recorded)", flush=True)
        elif event == "retry":
            print(f"[retry] {job.label()}: {record['status']}"
                  + (f" ({record['error']})" if record.get("error") else "")
                  + "; backing off and retrying", flush=True)
        elif event == "finish":
            finished["count"] += 1
            line = (f"[{finished['count']:>{len(str(total))}}/{total}] "
                    f"{job.label()}: {record['status']}")
            result = record.get("result")
            if record["status"] == "done" and result is not None:
                line += (f"  perf {result.performance:.1f}/us "
                         f"capacity {result.compression_ratio:.2f}x "
                         f"({record['elapsed_s']:.1f}s)")
            elif record.get("error"):
                line += f"  ({record['error']})"
            print(line, flush=True)

    try:
        run = run_sweep(spec, store=args.store, workers=args.jobs,
                        fresh=args.fresh, progress=progress, retry=retry,
                        heartbeat_timeout_s=args.heartbeat_timeout)
    except KeyboardInterrupt:
        print(f"\ninterrupted; completed jobs are recorded -- resume with: "
              f"repro sweep run {args.spec} --store {args.store}",
              file=sys.stderr)
        return 130
    except ConfigError as error:
        print(f"error (config): {error}", file=sys.stderr)
        return 2

    counts = run.counts
    summary = ", ".join(f"{counts[key]} {key}" for key in
                        ("done", "failed", "timeout") if counts.get(key))
    if run.quarantined:
        summary += f" ({len(run.quarantined)} quarantined)"
    resumed = " (resumed)" if run.resumed else ""
    print(f"sweep {run.sweep_id}{resumed}: {summary or 'no jobs'} "
          f"in {run.elapsed_s:.1f}s; store: {args.store}")
    if run.quarantined:
        by_id = {job.job_id: job for job in run.jobs}
        print(f"quarantine report: {len(run.quarantined)} job(s) "
              f"exhausted their retries", file=sys.stderr)
        for job_id, info in sorted(
                run.quarantined.items(),
                key=lambda item: by_id[item[0]].index):
            job = by_id[job_id]
            print(f"  idx {job.index} {job.label()}: "
                  f"{info['error_type'] or 'failure'} after "
                  f"{info['attempts']} attempts -- {info['error']}",
                  file=sys.stderr)
        return 4
    if not run.ok:
        print(f"some jobs did not finish; inspect with: "
              f"repro sweep show {run.sweep_id} --store {args.store}",
              file=sys.stderr)
    return 0 if run.ok else 1


def _cmd_sweep_ls(args: argparse.Namespace) -> int:
    from repro.sweep.store import SweepStore

    sweeps = SweepStore.open(args.store).list_sweeps()
    if not sweeps:
        print(f"no sweeps recorded in {args.store}")
        return 0
    print(f"{'sweep_id':24s} {'status':12s} {'jobs':>9s}  name")
    for sweep in sweeps:
        print(f"{sweep['sweep_id']:24s} {sweep['status']:12s} "
              f"{sweep['jobs_done']:>4d}/{sweep['jobs_total']:<4d} "
              f"{sweep['name']}")
    return 0


def _cmd_sweep_show(args: argparse.Namespace) -> int:
    from repro.sweep.store import SweepStore

    store = SweepStore.open(args.store)
    sweep = store.find_sweep(args.sweep)
    jobs = store.jobs(sweep["sweep_id"])
    print(f"sweep {sweep['sweep_id']}: status {sweep['status']}, "
          f"{len(jobs)} jobs, spec {sweep['spec_hash']}")
    header = (f"{'idx':>4s} {'workload':14s} {'controller':12s} "
              f"{'budget':>8s} {'seed':>5s} {'status':8s} {'try':>4s} "
              f"{'perf':>9s} {'capacity':>9s}")
    print(header)
    print("-" * len(header))
    for job in jobs:
        result = json.loads(job["result_json"]) if job["result_json"] else {}
        perf = (f"{result['performance']:7.1f}/us"
                if "performance" in result else "-".rjust(9))
        ratio = (f"{result['compression_ratio']:8.2f}x"
                 if "compression_ratio" in result else "-".rjust(9))
        attempts = job.get("attempts", 0) or 0
        flags = ""
        if job.get("quarantined"):
            flags += "  [quarantined]"
        if job["error"]:
            flags += f"  {job['error']}"
        print(f"{job['idx']:>4d} {job['workload']:14s} "
              f"{job['controller']:12s} {job['budget']:>8s} "
              f"{job['seed']:>5d} {job['status']:8s} {attempts:>4d} "
              f"{perf:>9s} {ratio:>9s}" + flags)
    return 0


#: Column order of the ``sweep export --failures`` CSV (matches
#: :meth:`repro.sweep.store.SweepStore.failure_rows`).
_FAILURE_COLUMNS = ("idx", "job_id", "workload", "controller", "budget",
                    "seed", "faults", "status", "attempts", "quarantined",
                    "error", "last_error")


def _cmd_sweep_export(args: argparse.Namespace) -> int:
    from repro.sweep.reduce import export_csv
    from repro.sweep.store import SweepStore

    store = SweepStore.open(args.store)
    if args.failures:
        sweep = store.find_sweep(args.sweep)
        rows = store.failure_rows(sweep["sweep_id"])
        if args.format == "csv":
            import csv
            import io

            buffer = io.StringIO()
            writer = csv.writer(buffer)
            writer.writerow(_FAILURE_COLUMNS)
            for row in rows:
                writer.writerow([row.get(column, "")
                                 for column in _FAILURE_COLUMNS])
            text = buffer.getvalue()
        else:
            text = json.dumps(
                {"schema": "repro-sweep-failures/1",
                 "sweep_id": sweep["sweep_id"],
                 "failures": rows},
                indent=2, sort_keys=True) + "\n"
        count = len(rows)
        noun = "failed/quarantined job(s)"
    else:
        document = store.export_document(args.sweep)
        text = (export_csv(document) if args.format == "csv"
                else json.dumps(document, indent=2, sort_keys=True) + "\n")
        count = len(document["jobs"])
        noun = "jobs"
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(text)
        print(f"exported {count} {noun} to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_sweep_curve(args: argparse.Namespace) -> int:
    """The historical ``repro sweep <workload>`` capacity ladder, now a
    declarative fraction-budget sweep plus a reduction."""
    from repro.sweep.engine import run_sweep
    from repro.sweep.reduce import capacity_curve_rows
    from repro.sweep.spec import BudgetSpec, SweepSpec

    fractions = [1.0 - step * (0.6 / max(1, args.points - 1))
                 for step in range(args.points)]
    spec = SweepSpec.build(
        name=f"curve-{args.workload}",
        workloads=(args.workload,),
        controllers=(
            "compresso",
            {"name": "tmcc",
             "budgets": [BudgetSpec("fraction", f) for f in fractions]},
        ),
        accesses=args.accesses,
        scale=args.scale,
    )
    run = run_sweep(spec)
    compresso = run.result(
        run.find_jobs(controller="compresso", budget_kind="none")[0])
    print(f"Compresso: {compresso.dram_used_bytes / 2**20:.1f} MB, "
          f"perf {compresso.performance:.1f}/us")
    print(f"{'budget':>10s} {'perf vs Compresso':>18s} {'capacity':>9s}")
    for row in capacity_curve_rows(run, args.workload):
        budget = row["budget_bytes"]
        result = row["result"]
        if result is None:
            error = run.errors.get(row["job_id"], {})
            # The kind every ValueError classifies to -- the same set the
            # pre-engine loop caught around each probe.
            if error.get("error_kind") == ERROR_KIND_CONFIG:
                print(f"{budget / 2**20:7.1f} MB  (below compressible floor)")
            else:
                print(f"{budget / 2**20:7.1f} MB  (failed: "
                      f"{error.get('error', row['status'])})")
            continue
        print(f"{budget / 2**20:7.1f} MB "
              f"{result.performance / compresso.performance:17.2%} "
              f"{result.compression_ratio:8.2f}x")
    return 0


def _cmd_sweep_repair(args: argparse.Namespace) -> int:
    from repro.sweep.store import SweepStore

    counts = SweepStore.repair(args.src, args.out)
    print(f"repaired {args.src} -> {args.out}: "
          f"{counts['jobs_salvaged']} job(s) salvaged, "
          f"{counts['jobs_reset']} reset to pending, "
          f"{counts['metrics']} metric rows, "
          f"{counts['sweeps']} sweep(s)")
    if counts["jobs_reset"]:
        print(f"re-run the sweep against {args.out} to fill the reset "
              f"rows", file=sys.stderr)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.common.errors import ConfigError, ResourceError

    handlers = {
        "run": _cmd_sweep_run,
        "ls": _cmd_sweep_ls,
        "show": _cmd_sweep_show,
        "export": _cmd_sweep_export,
        "curve": _cmd_sweep_curve,
        "repair": _cmd_sweep_repair,
    }
    try:
        return handlers[args.sweep_command](args)
    except ConfigError as error:
        print(f"error (config): {error}", file=sys.stderr)
        return 2
    except ResourceError as error:
        print(f"error (resource): {error}", file=sys.stderr)
        return 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.common.errors import ConfigError
    from repro.reporting import (
        build_run_report,
        compare_runs,
        load_run_document,
        render_comparison,
    )

    try:
        if args.compare:
            path_a, path_b = args.compare
            comparison = compare_runs(
                load_run_document(path_a), load_run_document(path_b),
                label_a=path_a, label_b=path_b,
            )
            text = render_comparison(comparison)
            if args.out:
                from pathlib import Path

                Path(args.out).write_text(text)
                print(f"comparison written to {args.out}")
            else:
                print(text, end="")
            return 0
        if not args.result:
            raise ConfigError(
                "a run document is required unless --compare A B")
        record = load_run_document(args.result)
        spans = None
        if args.trace:
            from repro.sim.tracing import load_spans

            spans = load_spans(args.trace)
        rows = None
        if args.timeseries:
            from repro.sim.timeseries import read_rows

            rows = read_rows(args.timeseries)
        bench_history = None
        if args.bench_history:
            from repro.bench import render_history

            try:
                bench_history = render_history(args.bench_history)
            except ConfigError as error:
                print(f"note: skipping bench history ({error})",
                      file=sys.stderr)
        report = build_run_report(record, spans=spans, timeseries_rows=rows,
                                  top_k=args.top_k,
                                  bench_history=bench_history)
        if args.out:
            html = args.html or args.out.endswith(".html")
            report.write(args.out, html=html)
            print(f"report written to {args.out}")
        elif args.html:
            print(report.to_html())
        else:
            print(report.to_markdown())
        return 0
    except ConfigError as error:
        print(f"error (config): {error}", file=sys.stderr)
        return 2


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        BENCH_WORKLOADS,
        compare_to_baseline,
        default_output_name,
        load_document,
        render_history,
        run_suite,
        write_document,
    )
    from repro.common.errors import ConfigError

    if args.history is not None:
        try:
            print(render_history(args.history))
        except ConfigError as error:
            print(f"error (config): {error}", file=sys.stderr)
            return 2
        return 0
    try:
        if not 0.0 <= args.max_regression < 1.0:
            raise ConfigError(f"--max-regression must be in [0, 1), "
                              f"got {args.max_regression}")
        workloads = tuple(BENCH_WORKLOADS)
        if args.workloads:
            workloads = tuple(name.strip()
                              for name in args.workloads.split(",")
                              if name.strip())
            if not workloads:
                raise ConfigError("--workloads must name at least one "
                                  "workload")
        baseline = load_document(args.baseline) if args.baseline else None

        def show(record) -> None:
            print(f"{record['workload']}/{record['controller']}: "
                  f"{record['accesses_per_s']:,.0f} acc/s", flush=True)

        document = run_suite(accesses=args.accesses, workloads=workloads,
                             seed=args.seed,
                             progress=show)
    except ConfigError as error:
        print(f"error (config): {error}", file=sys.stderr)
        return 2
    out = args.out or default_output_name()
    write_document(document, out)
    print(f"suite: {document['suite_accesses']} accesses in "
          f"{document['suite_elapsed_s']}s = "
          f"{document['suite_accesses_per_s']:,.0f} acc/s")
    if document["peak_rss_mb"] is not None:
        print(f"peak RSS: {document['peak_rss_mb']:,.1f} MB")
    print(f"benchmark document written to {out}")
    if baseline is not None:
        regressions = compare_to_baseline(document, baseline,
                                          args.max_regression)
        if regressions:
            for message in regressions:
                print(f"regression: {message}", file=sys.stderr)
            return 1
        print(f"no regression beyond {args.max_regression:.0%} "
              f"vs {args.baseline}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "convert":
        from repro.common.errors import ConfigError
        from repro.sim.tracing import convert_trace

        try:
            count = convert_trace(args.src, args.dst)
        except ConfigError as error:
            print(f"error (config): {error}", file=sys.stderr)
            return 2
        print(f"converted {count} spans: {args.src} -> {args.dst}")
        return 0

    from repro.workloads.traceio import save_trace, workload_from_trace

    if args.trace_command == "export":
        workload = workload_by_name(args.workload, max_accesses=args.accesses,
                                    scale=args.scale)
        save_trace(workload.trace, args.path)
        print(f"wrote {workload.access_count} accesses "
              f"({workload.footprint_pages} footprint pages) to {args.path}")
        return 0
    # run
    if args.controller == "list":
        for name in _controller_names():
            print(name)
        return 0
    if not _check_controller(args.controller):
        return 2
    if args.path is None:
        print("a trace path is required unless --controller list",
              file=sys.stderr)
        return 2
    from repro.sim.simulator import Simulator

    workload = workload_from_trace(args.path)
    result = Simulator(workload, controller=args.controller).run()
    print(f"{workload.name}: {result.accesses} accesses, "
          f"{result.l3_misses} LLC misses, "
          f"avg miss latency {result.avg_l3_miss_latency_ns:.1f} ns, "
          f"perf {result.performance:.1f}/us, "
          f"capacity {result.compression_ratio:.2f}x")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TMCC (MICRO 2022) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    workloads = commands.add_parser("workloads",
                                    help="list the paper's workloads")
    workloads.add_argument("--json", action="store_true",
                           help="emit the list as JSON")

    deflate = commands.add_parser("deflate", help="compress synthetic pages")
    deflate.add_argument("profile", help="content profile (e.g. graph, mcf)")
    deflate.add_argument("--pages", type=int, default=12)
    deflate.add_argument("--seed", type=int, default=1)

    run = commands.add_parser(
        "run", help="simulate one workload under one controller",
        description="Simulate one workload under one controller.  The "
                    "observers (--trace-out, --trace-events, --interval-ns, "
                    "--profile, checkpoints, the wall-clock watchdog) and "
                    "--faults are hooks on the one replay loop an "
                    "unobserved run takes; observers never change the "
                    "simulated results.  --interval-ns, "
                    "--checkpoint-every, --wall-clock-limit and --profile "
                    "replay the trace in segments, so the front end never "
                    "runs ahead of what they read.")
    run.add_argument("workload", nargs="?",
                     help="workload name (omit with --controller list)")
    run.add_argument("--controller", default="tmcc",
                     help="registered controller name, or 'list'")
    run.add_argument("--accesses", type=int, default=40_000)
    run.add_argument("--scale", type=float, default=0.4)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--cores", type=int, default=1,
                     help=">1 uses the multi-core engine")
    run.add_argument("--breakdown", action="store_true",
                     help="print the per-path per-stage miss-latency table")
    run.add_argument("--emit-json", action="store_true",
                     help="emit the result plus the namespaced metric tree "
                          "(on failure: an error document)")
    run.add_argument("--trace-events", metavar="PATH",
                     help="write instrumentation events as JSONL")
    run.add_argument("--trace-sample", type=int, metavar="N",
                     help="span-trace every Nth access (needs --trace-out)")
    run.add_argument("--trace-buffer", type=int, default=4096, metavar="SPANS",
                     help="max retained spans, head/tail split "
                          "(default: 4096)")
    run.add_argument("--trace-out", metavar="PATH",
                     help="write sampled span traces: .jsonl for span "
                          "lines, anything else for Perfetto/Chrome "
                          "trace JSON (implies --trace-sample 1)")
    run.add_argument("--interval-ns", type=float, metavar="NS",
                     help="record windowed metric deltas every NS of "
                          "simulated time (needs --interval-out)")
    run.add_argument("--interval-out", metavar="PATH",
                     help="write the time series: .csv or JSONL by "
                          "extension")
    run.add_argument("--profile", action="store_true",
                     help="measure host wall-clock self-time of the "
                          "replay's front-end and back-end passes and the "
                          "controller's miss service over the measured "
                          "region (adds profile.* metrics; "
                          "non-deterministic)")
    run.add_argument("--faults", metavar="SPEC",
                     help="inject deterministic faults: comma-separated "
                          "kind[:rate[:burst]][@start-end] "
                          "(see repro.sim.faults for the kinds)")
    run.add_argument("--checkpoint", metavar="PATH",
                     help="checkpoint file to write (with --checkpoint-every "
                          "or on wall-clock truncation)")
    run.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                     help="checkpoint every N accesses (needs --checkpoint)")
    run.add_argument("--resume", metavar="PATH",
                     help="resume a run from a checkpoint file")
    run.add_argument("--wall-clock-limit", type=float, metavar="SECONDS",
                     help="stop gracefully (exit 3, partial result) after "
                          "this much wall-clock time")

    compare = commands.add_parser(
        "compare", help="TMCC vs Compresso at iso-capacity")
    compare.add_argument("workload", choices=PAPER_WORKLOAD_NAMES)
    compare.add_argument("--accesses", type=int, default=40_000)
    compare.add_argument("--scale", type=float, default=0.4)
    compare.add_argument("--emit-json", action="store_true",
                         help="emit per-system results with metric trees")

    sweep = commands.add_parser(
        "sweep", help="declarative sweeps: run a job matrix into a "
                      "result store, inspect it, or plot the legacy "
                      "capacity curve")
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    sweep_run = sweep_sub.add_parser(
        "run", help="run (or resume) a sweep spec against a store")
    sweep_run.add_argument("spec",
                           help="spec file (.toml/.json) or a built-in "
                                "matrix name (fig18, smoke)")
    sweep_run.add_argument("--store", default="sweeps.db", metavar="PATH",
                           help="SQLite result store "
                                "(default: sweeps.db; created on demand)")
    sweep_run.add_argument("-j", "--jobs", type=int, default=1,
                           help="worker processes (default: 1, inline)")
    sweep_run.add_argument("--fresh", action="store_true",
                           help="discard this spec's recorded rows and "
                                "start over instead of resuming")
    sweep_run.add_argument("--max-retries", type=int, default=2,
                           metavar="N",
                           help="retries per job for transient failures "
                                "(worker death, hangs, timeouts, store "
                                "I/O; default: 2, 0 disables)")
    sweep_run.add_argument("--heartbeat-timeout", type=float, default=None,
                           metavar="SECONDS",
                           help="kill and replace a worker silent for this "
                                "long (default: off; worker *death* is "
                                "always detected)")
    sweep_run.add_argument("--timeout", type=float, metavar="SECONDS",
                           help="per-job wall-clock watchdog "
                                "(overrides the spec's job_timeout_s)")

    sweep_ls = sweep_sub.add_parser("ls", help="list recorded sweeps")
    sweep_ls.add_argument("--store", default="sweeps.db", metavar="PATH")

    sweep_show = sweep_sub.add_parser(
        "show", help="show one sweep's job table")
    sweep_show.add_argument("sweep",
                            help="sweep id, id prefix, or sweep name")
    sweep_show.add_argument("--store", default="sweeps.db", metavar="PATH")

    sweep_export = sweep_sub.add_parser(
        "export", help="export one sweep as JSON or CSV")
    sweep_export.add_argument("sweep",
                              help="sweep id, id prefix, or sweep name")
    sweep_export.add_argument("--store", default="sweeps.db",
                              metavar="PATH")
    sweep_export.add_argument("--format", choices=("json", "csv"),
                              default="json")
    sweep_export.add_argument("--out", metavar="PATH",
                              help="write here instead of stdout")
    sweep_export.add_argument("--failures", action="store_true",
                              help="export only failed/quarantined jobs "
                                   "(idx, last error, attempts) instead "
                                   "of the full document")

    sweep_repair = sweep_sub.add_parser(
        "repair", help="salvage completed rows from a damaged store "
                       "into a fresh one")
    sweep_repair.add_argument("src", metavar="DAMAGED",
                              help="path of the damaged store")
    sweep_repair.add_argument("--out", required=True, metavar="PATH",
                              help="path for the repaired store "
                                   "(must not exist)")

    sweep_curve = sweep_sub.add_parser(
        "curve", help="TMCC's performance/capacity trade-off curve "
                      "(also reachable as `repro sweep <workload>`)")
    sweep_curve.add_argument("workload", choices=PAPER_WORKLOAD_NAMES)
    sweep_curve.add_argument("--accesses", type=int, default=40_000)
    sweep_curve.add_argument("--scale", type=float, default=0.4)
    sweep_curve.add_argument("--points", type=int, default=4)

    bench = commands.add_parser(
        "bench", help="run the pinned performance suite "
                      "(accesses/sec per controller)")
    bench.add_argument("--accesses", type=int, default=60_000,
                       help="replay length per configuration "
                            "(default: 60000, the fig18 pin)")
    bench.add_argument("--workloads", metavar="CSV",
                       help="comma-separated subset of the pinned "
                            "workloads (default: all seven)")
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument("--out", metavar="PATH",
                       help="output document "
                            "(default: BENCH_<date>.json)")
    bench.add_argument("--baseline", metavar="PATH",
                       help="committed reference document; exit 1 when "
                            "any configuration regresses beyond "
                            "--max-regression")
    bench.add_argument("--max-regression", type=float, default=0.20,
                       metavar="FRACTION",
                       help="allowed fractional slowdown vs the "
                            "baseline (default: 0.20)")
    bench.add_argument("--history", nargs="?", const="benchmarks/perf",
                       metavar="DIR",
                       help="print the committed BENCH_*.json trajectory "
                            "table (per-controller acc/s, speedup vs the "
                            "seed tree) instead of running the suite "
                            "(default DIR: benchmarks/perf)")

    trace = commands.add_parser(
        "trace", help="export a workload trace / simulate a trace file")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    export = trace_sub.add_parser("export", help="write a .rtrc trace file")
    export.add_argument("workload", choices=PAPER_WORKLOAD_NAMES)
    export.add_argument("path")
    export.add_argument("--accesses", type=int, default=40_000)
    export.add_argument("--scale", type=float, default=0.4)
    trace_run = trace_sub.add_parser("run", help="simulate a trace file")
    trace_run.add_argument("path", nargs="?",
                           help="trace file (omit with --controller list)")
    trace_run.add_argument("--controller", default="tmcc")
    convert = trace_sub.add_parser(
        "convert", help="convert a span trace between JSONL and Perfetto")
    convert.add_argument("src", help="input trace (format sniffed)")
    convert.add_argument("dst",
                         help="output path (.jsonl for span lines, "
                              "anything else for Perfetto JSON)")

    report = commands.add_parser(
        "report", help="render a run report / compare two runs")
    report.add_argument("result", nargs="?",
                        help="a `repro run --emit-json` document")
    report.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="diff two --emit-json documents instead")
    report.add_argument("--out", metavar="PATH",
                        help="write the report here instead of stdout")
    report.add_argument("--html", action="store_true",
                        help="render HTML instead of markdown")
    report.add_argument("--trace", metavar="PATH",
                        help="a --trace-out file: adds the slowest-spans "
                             "section")
    report.add_argument("--timeseries", metavar="PATH",
                        help="an --interval-out file: adds sparklines")
    report.add_argument("--top-k", type=int, default=10,
                        help="slowest spans to list (default: 10)")
    report.add_argument("--bench-history", nargs="?",
                        const="benchmarks/perf", metavar="DIR",
                        help="embed the committed `repro bench` "
                             "trajectory table (default DIR: "
                             "benchmarks/perf; skipped with a note when "
                             "no documents exist)")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Historical spelling: `repro sweep <workload>` predates the sweep
    # subcommands and still means the capacity curve.
    if (len(argv) >= 2 and argv[0] == "sweep"
            and argv[1] in PAPER_WORKLOAD_NAMES):
        argv.insert(1, "curve")
    args = build_parser().parse_args(argv)
    handlers = {
        "workloads": _cmd_workloads,
        "deflate": _cmd_deflate,
        "run": _cmd_run,
        "compare": _cmd_compare,
        "sweep": _cmd_sweep,
        "bench": _cmd_bench,
        "trace": _cmd_trace,
        "report": _cmd_report,
    }
    if args.command != "run":  # run validates inside (for --emit-json)
        issue = _validate_args(args)
        if issue is not None:
            print(f"error: {issue}", file=sys.stderr)
            return 2
    try:
        return handlers[args.command](args)
    except BrokenPipeError:  # e.g. piped into `head`
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
