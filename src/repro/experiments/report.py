"""Plain-text rendering of experiment results.

The benchmark harness and the CLI print each figure as aligned ASCII
tables — "the same rows/series the paper reports" — followed by the
paper's expected shape so a reader can judge the reproduction at a glance.
"""

from __future__ import annotations

import textwrap
from typing import Sequence

from repro.experiments.figures import FigureResult, Panel, SweepResult, TableResult

__all__ = [
    "format_figure",
    "format_miss_attribution",
    "format_panel",
    "print_figure",
    "sparkline",
]


def _fmt_cell(value) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e12:
            return str(int(value))
        return f"{value:.2f}"
    return str(value)


def _render_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    cells = [[_fmt_cell(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in cells:
        lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


_SPARK_CHARS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 24) -> str:
    """Render a numeric series as a unicode sparkline.

    Values are resampled to ``width`` points and scaled to the series'
    own min/max, so shape (trend, crossover) is visible at a glance in
    CLI output; an all-equal series renders flat.
    """
    if not values:
        return ""
    count = min(width, len(values))
    # Nearest-point resample onto `count` columns.
    resampled = [values[round(i * (len(values) - 1) / max(1, count - 1))] for i in range(count)]
    lo, hi = min(resampled), max(resampled)
    if hi == lo:
        return _SPARK_CHARS[4] * count
    span = hi - lo
    return "".join(
        _SPARK_CHARS[1 + int((v - lo) / span * (len(_SPARK_CHARS) - 2))]
        for v in resampled
    )


def format_miss_attribution(
    causes: dict, total_misses: float = None, title: str = "Miss attribution"
) -> str:
    """Render the eviction-cause miss table (the Fig-7-style "why did
    hit ratio move" report).

    ``causes`` maps cause name → miss count (see
    ``MicroblogSystem.miss_attribution`` and
    ``repro.obs.traceview.miss_cause_table``).  ``total_misses``
    defaults to the table's own sum; pass the registry's per-mode miss
    total to surface attribution gaps.
    """
    parts = [f"-- {title} --"]
    if not causes:
        parts.append("(no attributed misses — run with attribution enabled)")
        return "\n".join(parts)
    total = total_misses if total_misses is not None else sum(causes.values())
    rows = [
        [cause, count, f"{count / total:.1%}" if total else "-"]
        for cause, count in sorted(
            causes.items(), key=lambda item: (-item[1], item[0])
        )
    ]
    parts.append(_render_table(["cause", "misses", "share"], rows))
    parts.append(f"(total attributed: {sum(causes.values())} of {int(total)} misses)")
    return "\n".join(parts)


def format_panel(panel: Panel) -> str:
    """Render one panel (sweep or table) as text."""
    parts = [f"-- {panel.panel_id}: {panel.title} --"]
    if isinstance(panel, SweepResult):
        headers = [panel.x_label] + list(panel.series)
        rows = [
            [x] + [panel.series[name][i] for name in panel.series]
            for i, x in enumerate(panel.xs)
        ]
        parts.append(_render_table(headers, rows))
        parts.append(f"(y = {panel.y_label})")
        for name, values in panel.series.items():
            parts.append(f"  {name:>22s}  {sparkline(values)}")
    elif isinstance(panel, TableResult):
        parts.append(_render_table(panel.headers, panel.rows))
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown panel type: {type(panel)!r}")
    if panel.expectation:
        parts.append(
            textwrap.fill(
                f"paper shape: {panel.expectation}", width=78, subsequent_indent="  "
            )
        )
    return "\n".join(parts)


def format_figure(figure: FigureResult) -> str:
    """Render a whole figure: header plus each panel."""
    header = f"==== {figure.figure_id}: {figure.title} ===="
    body = "\n\n".join(format_panel(panel) for panel in figure.panels)
    return f"{header}\n{body}\n"


def print_figure(figure: FigureResult) -> None:
    print(format_figure(figure))
