"""Table rendering, run reports, and run-to-run comparison.

The benchmark harness, the CLI, and ``scripts/reproduce.py`` all present
reproduced tables; this module is the one place that formats them, so the
text output and the markdown report stay consistent.

On top of the table primitives it builds the ``repro report`` subsystem:

- :func:`build_run_report` turns one ``--emit-json`` run document (plus,
  optionally, an exported span trace and a time-series file) into a
  :class:`RunReport` -- configuration, headline metrics, access-path
  fractions, the per-path stage-latency breakdown, the top-k slowest
  spans, and unicode sparklines of the windowed time series -- rendered
  as markdown or a self-contained HTML page.
- :func:`compare_runs` diffs two run documents metric-by-metric
  (absolute and relative deltas); a document missing the run schema's
  required fields raises :class:`~repro.common.errors.ConfigError`, which
  the CLI maps to exit code 2.
"""

from __future__ import annotations

import html as _html
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.common.errors import ConfigError

Cell = Union[str, int, float]

#: Fields a run document must carry to be reportable/comparable; the
#: ``--emit-json`` record always has them.
RUN_SCHEMA_REQUIRED = ("workload", "controller", "metrics")

#: The headline metrics a report leads with (order is presentation
#: order; missing fields are skipped).
HEADLINE_FIELDS = (
    "performance",
    "avg_l3_miss_latency_ns",
    "compression_ratio",
    "tlb_miss_rate",
    "cte_hit_rate",
    "ml2_access_rate",
    "row_hit_rate",
    "bandwidth_utilization",
)

#: Sparkline glyphs, lowest to highest.
_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def render_table(header: Sequence[Cell], rows: Sequence[Sequence[Cell]]) -> str:
    """Align a header + rows into fixed-width text columns."""
    if not header:
        raise ValueError("a table needs a header")
    grid = [[str(c) for c in header]] + [[str(c) for c in row] for row in rows]
    width = len(grid[0])
    if any(len(row) != width for row in grid):
        raise ValueError("all rows must match the header's column count")
    widths = [max(len(row[i]) for row in grid) for i in range(width)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(grid[0], widths))]
    lines.append("-" * len(lines[0]))
    for row in grid[1:]:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


@dataclass
class ReproducedTable:
    """One regenerated table/figure."""

    title: str
    header: Sequence[Cell]
    rows: List[Sequence[Cell]] = field(default_factory=list)

    def add_row(self, *cells: Cell) -> None:
        self.rows.append(cells)

    def render(self) -> str:
        return f"=== {self.title} ===\n{render_table(self.header, self.rows)}"

    def to_markdown(self) -> str:
        head = "| " + " | ".join(str(c) for c in self.header) + " |"
        sep = "|" + "|".join("---" for _ in self.header) + "|"
        body = "\n".join(
            "| " + " | ".join(str(c) for c in row) + " |" for row in self.rows
        )
        return f"## {self.title}\n\n{head}\n{sep}\n{body}\n"


@dataclass
class Report:
    """A collection of reproduced tables, writable as markdown."""

    title: str
    tables: List[ReproducedTable] = field(default_factory=list)

    def add(self, table: ReproducedTable) -> None:
        self.tables.append(table)

    def to_markdown(self) -> str:
        parts = [f"# {self.title}\n"]
        parts += [table.to_markdown() for table in self.tables]
        return "\n".join(parts)

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_markdown())
        return path


# ----------------------------------------------------------------------
# Formatting helpers
# ----------------------------------------------------------------------


def format_value(value: object) -> str:
    """Uniform cell formatting: floats to 4 significant-ish digits."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.4g}"
    return str(value)


def sparkline(values: Sequence[float], width: int = 40) -> str:
    """Render a value series as a fixed-width unicode sparkline.

    Series longer than ``width`` are bucketed (mean per bucket); flat
    series render as a run of the lowest glyph.
    """
    values = [float(v) for v in values]
    if not values:
        return ""
    if len(values) > width:
        bucketed = []
        for i in range(width):
            lo = i * len(values) // width
            hi = max(lo + 1, (i + 1) * len(values) // width)
            chunk = values[lo:hi]
            bucketed.append(sum(chunk) / len(chunk))
        values = bucketed
    low = min(values)
    span = max(values) - low
    if span <= 0:
        return _SPARK_CHARS[0] * len(values)
    top = len(_SPARK_CHARS) - 1
    return "".join(
        _SPARK_CHARS[int((v - low) / span * top + 0.5)] for v in values)


# ----------------------------------------------------------------------
# Run reports (``repro report``)
# ----------------------------------------------------------------------


@dataclass
class ReportSection:
    """One heading plus exactly one body: table, preformatted, or text."""

    heading: str
    table: Optional[ReproducedTable] = None
    preformatted: Optional[str] = None
    text: Optional[str] = None

    def to_markdown(self) -> str:
        parts = [f"## {self.heading}\n"]
        if self.text:
            parts.append(self.text + "\n")
        if self.table is not None:
            # Reuse the table's markdown body without its own heading.
            body = self.table.to_markdown().split("\n", 2)[2]
            parts.append(body)
        if self.preformatted:
            parts.append(f"```\n{self.preformatted}\n```\n")
        return "\n".join(parts)

    def to_html(self) -> str:
        parts = [f"<h2>{_html.escape(self.heading)}</h2>"]
        if self.text:
            parts.append(f"<p>{_html.escape(self.text)}</p>")
        if self.table is not None:
            head = "".join(f"<th>{_html.escape(str(c))}</th>"
                           for c in self.table.header)
            rows = "".join(
                "<tr>" + "".join(f"<td>{_html.escape(str(c))}</td>"
                                 for c in row) + "</tr>"
                for row in self.table.rows
            )
            parts.append(
                f"<table><thead><tr>{head}</tr></thead>"
                f"<tbody>{rows}</tbody></table>")
        if self.preformatted:
            parts.append(f"<pre>{_html.escape(self.preformatted)}</pre>")
        return "\n".join(parts)


@dataclass
class RunReport:
    """A single run's rendered report (markdown or HTML)."""

    title: str
    sections: List[ReportSection] = field(default_factory=list)

    def add(self, section: ReportSection) -> None:
        self.sections.append(section)

    def to_markdown(self) -> str:
        parts = [f"# {self.title}\n"]
        parts += [section.to_markdown() for section in self.sections]
        return "\n".join(parts)

    def to_html(self) -> str:
        body = "\n".join(section.to_html() for section in self.sections)
        return (
            "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
            f"<title>{_html.escape(self.title)}</title>"
            "<style>"
            "body{font-family:sans-serif;margin:2em;max-width:70em}"
            "table{border-collapse:collapse;margin:1em 0}"
            "td,th{border:1px solid #999;padding:0.25em 0.6em;"
            "text-align:left}"
            "pre{background:#f4f4f4;padding:0.8em;overflow-x:auto}"
            "</style></head><body>"
            f"<h1>{_html.escape(self.title)}</h1>\n{body}\n</body></html>"
        )

    def write(self, path: Union[str, Path], html: bool = False) -> Path:
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_html() if html else self.to_markdown())
        return path


def _require_run_schema(record: Mapping[str, object], label: str) -> None:
    missing = [key for key in RUN_SCHEMA_REQUIRED
               if key not in record
               or (key == "metrics"
                   and not isinstance(record.get("metrics"), Mapping))]
    if missing:
        raise ConfigError(
            f"{label} is not a run document (missing {', '.join(missing)}); "
            "expected the output of `repro run --emit-json`")


def load_run_document(path: Union[str, Path]) -> Dict[str, object]:
    """Load and schema-check one ``--emit-json`` run document."""
    path = Path(path)
    try:
        record = json.loads(path.read_text())
    except OSError as error:
        raise ConfigError(
            f"cannot read run document {str(path)!r}: {error}") from error
    except json.JSONDecodeError as error:
        raise ConfigError(
            f"{str(path)!r} is not JSON: {error}") from error
    if not isinstance(record, dict):
        raise ConfigError(f"{str(path)!r} is not a run document")
    _require_run_schema(record, str(path))
    return record


def _flatten_config(config: Mapping[str, object],
                    prefix: str = "") -> List[Sequence[Cell]]:
    rows: List[Sequence[Cell]] = []
    for key in sorted(config):
        value = config[key]
        name = f"{prefix}{key}"
        if isinstance(value, Mapping):
            rows.extend(_flatten_config(value, prefix=f"{name}."))
        else:
            rows.append((name, format_value(value)))
    return rows


def _breakdown_rows(metrics: Mapping[str, object]) -> List[Sequence[Cell]]:
    """Reassemble the per-path stage table from ``controller.breakdown.*``."""
    prefix = "controller.breakdown."
    stages: Dict[tuple, Dict[str, float]] = {}
    for key, value in metrics.items():
        if not key.startswith(prefix):
            continue
        parts = key[len(prefix):].split(".")
        if len(parts) != 3:  # path-level totals have 2 components
            continue
        path, stage, column = parts
        stages.setdefault((path, stage), {})[column] = value
    rows: List[Sequence[Cell]] = []
    for (path, stage) in sorted(stages):
        columns = stages[(path, stage)]
        rows.append((
            path, stage,
            format_value(columns.get("count", 0)),
            format_value(columns.get("mean_ns", 0.0)),
            format_value(columns.get("critical_ns", 0.0)),
            format_value(columns.get("wasted_ns", 0.0)),
        ))
    return rows


def _slowest_span_rows(spans: Sequence[object],
                       top_k: int) -> List[Sequence[Cell]]:
    ranked = sorted(
        (s for s in spans if getattr(s, "category", "") in ("access", "miss")),
        key=lambda s: (-s.duration_ns, s.trace_id, s.span_id),
    )[:top_k]
    rows: List[Sequence[Cell]] = []
    for span in ranked:
        args = getattr(span, "args", {}) or {}
        detail = ", ".join(f"{k}={format_value(v)}"
                           for k, v in sorted(args.items())
                           if k in ("path", "kind", "vaddr", "ppn"))
        rows.append((
            span.trace_id, span.name, span.category,
            format_value(span.start_ns), format_value(span.duration_ns),
            detail,
        ))
    return rows


def _sparkline_sections(rows: Sequence[Mapping[str, float]],
                        max_columns: int = 8) -> str:
    """Sparklines for the windowed columns that actually vary."""
    from repro.sim.timeseries import ROW_META_KEYS

    keys = set()
    for row in rows:
        keys.update(row)
    keys -= set(ROW_META_KEYS)
    varying = []
    for key in sorted(keys):
        values = [float(row.get(key, 0.0)) for row in rows]
        if max(values) != min(values):
            varying.append((key, values))
        if len(varying) >= max_columns:
            break
    if not varying:
        return "(no windowed metric varied)"
    width = max(len(key) for key, _ in varying)
    lines = []
    for key, values in varying:
        lines.append(f"{key.ljust(width)}  {sparkline(values)}  "
                     f"min={format_value(min(values))} "
                     f"max={format_value(max(values))}")
    return "\n".join(lines)


def build_run_report(
    record: Mapping[str, object],
    spans: Optional[Sequence[object]] = None,
    timeseries_rows: Optional[Sequence[Mapping[str, float]]] = None,
    top_k: int = 10,
    bench_history: Optional[str] = None,
) -> RunReport:
    """Assemble a :class:`RunReport` from one run document.

    ``spans`` (from :func:`repro.sim.tracing.load_spans`) adds the
    top-k-slowest-spans section; ``timeseries_rows`` (from
    :func:`repro.sim.timeseries.read_rows`) adds sparklines;
    ``bench_history`` (the :func:`repro.bench.render_history` text) adds
    the performance-trajectory section so every report shows the perf
    trend alongside correctness results.
    """
    _require_run_schema(record, "run document")
    metrics = record["metrics"]
    report = RunReport(
        title=f"Run report: {record['workload']} / {record['controller']}")

    config_table = ReproducedTable("config", ("setting", "value"))
    run_config = record.get("run_config")
    if isinstance(run_config, Mapping):
        config_table.rows.extend(_flatten_config(run_config))
    for key in ("accesses", "elapsed_ns", "truncated", "error"):
        if record.get(key) not in (None, "", False):
            config_table.add_row(key, format_value(record[key]))
    report.add(ReportSection("Configuration", table=config_table))

    headline = ReproducedTable("headline", ("metric", "value"))
    for name in HEADLINE_FIELDS:
        if name in record:
            headline.add_row(name, format_value(record[name]))
    report.add(ReportSection("Headline metrics", table=headline))

    fractions = record.get("path_fractions")
    if isinstance(fractions, Mapping) and fractions:
        paths = ReproducedTable("paths", ("path", "fraction"))
        for name in sorted(fractions):
            paths.add_row(name, f"{float(fractions[name]):.2%}")
        report.add(ReportSection(
            "Access paths", table=paths,
            text="How LLC misses were served (Figure 19's categories)."))

    breakdown = _breakdown_rows(metrics)
    if breakdown:
        table = ReproducedTable(
            "breakdown",
            ("path", "stage", "count", "mean_ns", "critical_ns", "wasted_ns"))
        table.rows.extend(breakdown)
        report.add(ReportSection(
            "Stage-latency breakdown", table=table,
            text="Per-path service-pipeline stages "
                 "(controller.breakdown.* metrics)."))

    if spans:
        table = ReproducedTable(
            "spans",
            ("trace", "name", "category", "start_ns", "duration_ns", "args"))
        table.rows.extend(_slowest_span_rows(spans, top_k))
        report.add(ReportSection(
            f"Slowest spans (top {top_k})", table=table,
            text="Sampled access/miss spans, longest first."))

    if timeseries_rows:
        report.add(ReportSection(
            "Time series",
            preformatted=_sparkline_sections(timeseries_rows),
            text=f"{len(timeseries_rows)} windows; one sparkline per "
                 "varying windowed metric."))

    if bench_history:
        report.add(ReportSection(
            "Performance trajectory",
            preformatted=bench_history,
            text="Committed `repro bench` documents, oldest first "
                 "(suite accesses/sec and speedup vs the seed tree)."))

    return report


# ----------------------------------------------------------------------
# Run comparison (``repro report --compare A.json B.json``)
# ----------------------------------------------------------------------


def compare_runs(a: Mapping[str, object], b: Mapping[str, object],
                 label_a: str = "A", label_b: str = "B",
                 top_k: int = 20) -> Dict[str, object]:
    """Diff two run documents; both must satisfy the run schema.

    Returns ``headline`` delta rows (every field), the ``top_k``
    largest-relative-change ``metrics`` rows, and the metric keys only
    one document has.  Relative deltas are against ``a``'s value
    (``None`` when ``a`` is zero).
    """
    _require_run_schema(a, label_a)
    _require_run_schema(b, label_b)

    def delta_row(key: str, va: float, vb: float) -> Dict[str, object]:
        delta = vb - va
        relative = (delta / va) if va else None
        return {"key": key, "a": va, "b": vb,
                "delta": delta, "relative": relative}

    headline = []
    for name in HEADLINE_FIELDS:
        va, vb = a.get(name), b.get(name)
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            headline.append(delta_row(name, float(va), float(vb)))

    metrics_a: Mapping[str, object] = a["metrics"]
    metrics_b: Mapping[str, object] = b["metrics"]
    shared = []
    for key in sorted(set(metrics_a) & set(metrics_b)):
        va, vb = metrics_a[key], metrics_b[key]
        if not isinstance(va, (int, float)) or isinstance(va, bool):
            continue
        if not isinstance(vb, (int, float)) or isinstance(vb, bool):
            continue
        if va != vb:
            shared.append(delta_row(key, float(va), float(vb)))
    shared.sort(key=lambda row: (
        -(abs(row["relative"]) if row["relative"] is not None
          else float("inf")),
        row["key"],
    ))

    return {
        "label_a": label_a,
        "label_b": label_b,
        "workloads": (a["workload"], b["workload"]),
        "controllers": (a["controller"], b["controller"]),
        "headline": headline,
        "metrics": shared[:top_k],
        "metrics_changed": len(shared),
        "only_in_a": sorted(set(metrics_a) - set(metrics_b)),
        "only_in_b": sorted(set(metrics_b) - set(metrics_a)),
    }


def _relative_cell(row: Mapping[str, object]) -> str:
    relative = row["relative"]
    if relative is None:
        return "n/a"
    return f"{relative:+.2%}"


def render_comparison(comparison: Mapping[str, object]) -> str:
    """Human-readable text for a :func:`compare_runs` result."""
    label_a = comparison["label_a"]
    label_b = comparison["label_b"]
    workloads = comparison["workloads"]
    controllers = comparison["controllers"]
    lines = [
        f"comparing {label_a} ({workloads[0]}/{controllers[0]}) "
        f"vs {label_b} ({workloads[1]}/{controllers[1]})",
        "",
    ]
    if comparison["headline"]:
        rows = [(r["key"], format_value(r["a"]), format_value(r["b"]),
                 format_value(r["delta"]), _relative_cell(r))
                for r in comparison["headline"]]
        lines.append(render_table(
            ("headline metric", label_a, label_b, "delta", "relative"), rows))
        lines.append("")
    if comparison["metrics"]:
        rows = [(r["key"], format_value(r["a"]), format_value(r["b"]),
                 format_value(r["delta"]), _relative_cell(r))
                for r in comparison["metrics"]]
        lines.append(render_table(
            (f"metric (top {len(rows)} of "
             f"{comparison['metrics_changed']} changed)",
             label_a, label_b, "delta", "relative"), rows))
        lines.append("")
    else:
        lines.append("no shared metric changed")
        lines.append("")
    for side, label in (("only_in_a", label_a), ("only_in_b", label_b)):
        keys = comparison[side]
        if keys:
            shown = ", ".join(keys[:8])
            more = f" (+{len(keys) - 8} more)" if len(keys) > 8 else ""
            lines.append(f"only in {label}: {shown}{more}")
    return "\n".join(lines).rstrip() + "\n"
