"""Rendering of experiment results: aligned tables and ratio summaries."""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .harness import ExperimentResult

__all__ = ["format_table", "format_result", "ratio_summary", "ascii_chart", "diff_reports"]


def ascii_chart(
    series: Dict[str, List[tuple]],
    width: int = 72,
    height: int = 14,
    title: str = "",
    markers: str = "*o+x#@",
) -> str:
    """Plot (x, y) series as a text chart — the CLI's stand-in for the
    paper's figures.

    ``series`` maps a label to its [(x, y), ...] points.  Points are
    binned onto a width×height grid; each series gets one marker.
    """
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return f"{title}\n(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for (label, pts), mark in zip(series.items(), markers):
        for x, y in pts:
            col = int((x - x_lo) / x_span * (width - 1))
            row = height - 1 - int((y - y_lo) / y_span * (height - 1))
            grid[row][col] = mark
    y_labels = [f"{y_hi:>10.3g} ", *([" " * 11] * (height - 2)), f"{y_lo:>10.3g} "]
    lines = []
    if title:
        lines.append(title)
    for ylab, row in zip(y_labels, grid):
        lines.append(f"{ylab}|{''.join(row)}")
    lines.append(" " * 11 + "+" + "-" * width)
    lines.append(f"{'':11} {x_lo:<12.6g}{'':^{max(width - 26, 1)}}{x_hi:>12.6g}")
    legend = "   ".join(
        f"{mark}={label}" for (label, _), mark in zip(series.items(), markers)
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)


def format_table(columns: List[str], rows: List[Dict[str, Any]]) -> str:
    """Plain aligned text table."""
    rendered = [[_fmt(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) if rendered else len(col)
        for i, col in enumerate(columns)
    ]
    def line(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    out = [line(columns), line(["-" * w for w in widths])]
    out += [line(r) for r in rendered]
    return "\n".join(out)


def format_result(result: ExperimentResult) -> str:
    """Full report block for one experiment."""
    parts = [
        f"== {result.name}: {result.description}",
        format_table(result.columns, result.rows),
    ]
    if result.notes:
        parts.append("notes:")
        parts.extend(f"  - {n}" for n in result.notes)
    return "\n".join(parts)


def ratio_summary(
    result: ExperimentResult,
    metric: str,
    baseline_system: str,
    group_cols: Optional[Sequence[str]] = None,
) -> str:
    """Speedup of the baseline over each other system per group — the
    'NICE is up to 4.3× faster than ROG' style numbers the paper quotes."""
    group_cols = group_cols or []
    groups: Dict[tuple, Dict[str, float]] = {}
    for row in result.rows:
        key = tuple(row.get(c) for c in group_cols)
        groups.setdefault(key, {})[row["system"]] = row[metric]
    lines = []
    others = sorted(
        {row["system"] for row in result.rows if row["system"] != baseline_system}
    )
    for other in others:
        ratios = [
            vals[other] / vals[baseline_system]
            for vals in groups.values()
            if baseline_system in vals and other in vals and vals[baseline_system]
        ]
        if ratios:
            lines.append(
                f"{baseline_system} vs {other} ({metric}): "
                f"min {min(ratios):.2f}x, max {max(ratios):.2f}x"
            )
    return "\n".join(lines)


def _result_tables(report: dict) -> Dict[str, List[dict]]:
    """The simulated content of a figure, scale or chaos report: each
    experiment's ``rows`` and ``notes`` (Fig 11's failure, rejoin and
    consistent times live only there), a chaos report's ``cases``.
    Wall-clock and cell records and provenance all live outside
    them."""
    tables = {}
    for e in report.get("experiments", []):
        tables[e["name"]] = e["rows"]
        tables[f"{e['name']} notes"] = [{"note": n} for n in e.get("notes", ())]
    if "cases" in report:
        tables["cases"] = report["cases"]
    return tables


def _canon(value: Any) -> str:
    # The JSON text is the identity that matters (and NaN == NaN in it).
    return json.dumps(value, sort_keys=True)


def diff_reports(a: dict, b: dict) -> Tuple[int, List[str]]:
    """Compare the result rows and notes of two reports (``python -m repro.bench
    diff``); a note counts as a row of its experiment's notes table.

    Returns ``(rows compared, one line per difference)``: a table present on
    one side only, a row-count mismatch, or a row naming each field that
    differs.  Bit-identity of two runs is ``diffs == []``.
    """
    tables_a, tables_b = _result_tables(a), _result_tables(b)
    compared = 0
    diffs = []
    for name in list(tables_a) + [n for n in tables_b if n not in tables_a]:
        if name not in tables_a or name not in tables_b:
            diffs.append(f"{name}: only in {'A' if name in tables_a else 'B'}")
            continue
        rows_a, rows_b = tables_a[name], tables_b[name]
        if len(rows_a) != len(rows_b):
            diffs.append(f"{name}: {len(rows_a)} rows != {len(rows_b)} rows")
        for i, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
            compared += 1
            if _canon(row_a) == _canon(row_b):
                continue
            fields = [
                f"{key}: {row_a.get(key)!r} != {row_b.get(key)!r}"
                for key in sorted(set(row_a) | set(row_b))
                if _canon(row_a.get(key)) != _canon(row_b.get(key))
            ]
            diffs.append(f"{name}[{i}]: " + "; ".join(fields))
    return compared, diffs
