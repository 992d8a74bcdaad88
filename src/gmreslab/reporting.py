"""Deterministic serialization of experiment outputs.

Three artifacts: ``report.json`` (full data through the stdlib JSON
encoder: every real in the shortest form that parses back to the same
double, so ``0.1`` and ``0.0``, and a NaN or infinity is refused),
``curves.csv`` (one row per depth, the plotted series as columns, reals
with 17 significant digits), and ``plot.svg`` (a minimal self-contained
log-scale chart, no plotting dependency).  All emitters build plain
strings, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import html
import json
import math
from typing import Sequence

from .bounds import BoundsReport
from .errors import write_text

__all__ = [
    "format_real",
    "dumps_document",
    "write_report_json",
    "write_curves_csv",
    "write_plot_svg",
    "CSV_COLUMNS",
]


def format_real(x: float) -> str:
    """17 significant digits: enough to reproduce any double exactly."""
    return format(float(x), ".17g")


def dumps_document(doc: dict) -> str:
    """Stdlib JSON, two-space indent; a NaN or infinity raises ValueError."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def write_report_json(path, matrix_echo: dict, reports: Sequence[BoundsReport]) -> None:
    doc = {
        "matrix": matrix_echo,
        "reports": [report.to_dict() for report in reports],
    }
    write_text(path, dumps_document(doc))


# ---------------------------------------------------------------------------
# Curves: the columns of curves.csv and the lines of plot.svg, each a
# BoundsReport field
# ---------------------------------------------------------------------------

_SERIES = (
    ("gmres_min", "#9ecae1"),
    ("gmres_median", "#4292c6"),
    ("gmres_max", "#08519c"),
    ("worst_case", "#ff7f0e"),
    ("ideal", "#2ca02c"),
    ("starke_rhs", "#d62728"),
    ("elman_rhs", "#9467bd"),
)

CSV_COLUMNS = ("k", *(name for name, _ in _SERIES))


def write_curves_csv(path, reports: Sequence[BoundsReport]) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for report in reports:
        values = (getattr(report, name) for name, _ in _SERIES)
        cells = ["" if value is None else format_real(value) for value in values]
        lines.append(",".join([str(report.k), *cells]))
    write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# SVG chart
# ---------------------------------------------------------------------------

_WIDTH, _HEIGHT = 760, 480
_LEFT, _RIGHT, _TOP, _BOTTOM = 80, 180, 36, 56

def write_plot_svg(path, reports: Sequence[BoundsReport], title: str = "") -> None:
    """Log-scale chart of every curve column against the depth k, under
    ``title`` with its markup characters escaped."""
    reports = list(reports)
    ks = [report.k for report in reports]
    if not ks:
        write_text(path, "<svg xmlns='http://www.w3.org/2000/svg'/>\n")
        return

    positive = [
        value
        for report in reports
        for name, _ in _SERIES
        if (value := getattr(report, name)) is not None and value > 0.0
    ]
    floor = max(min(positive) / 10.0 if positive else 1e-16, 1e-16)
    log_floor = math.floor(math.log10(floor))
    log_top = 0.0  # every plotted quantity lies in [0, 1]
    span = max(log_top - log_floor, 1.0)

    kmin, kmax = min(ks), max(ks)
    inner_w = _WIDTH - _LEFT - _RIGHT
    inner_h = _HEIGHT - _TOP - _BOTTOM

    def x_of(k: int) -> float:
        if kmax == kmin:
            return _LEFT + inner_w / 2.0
        return _LEFT + (k - kmin) / (kmax - kmin) * inner_w

    def y_of(value: float) -> float:
        clamped = max(value, 10.0**log_floor)
        return _TOP + (log_top - math.log10(clamped)) / span * inner_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<line x1="{_LEFT}" y1="{_TOP}" x2="{_LEFT}" y2="{_HEIGHT - _BOTTOM}" '
        'stroke="black"/>',
        f'<line x1="{_LEFT}" y1="{_HEIGHT - _BOTTOM}" x2="{_WIDTH - _RIGHT}" '
        f'y2="{_HEIGHT - _BOTTOM}" stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_LEFT}" y="20" font-family="monospace" font-size="13">'
            f"{html.escape(title)}</text>"
        )

    decade_step = max(1, int(math.ceil(-log_floor / 8.0)))
    decade = 0
    while decade >= log_floor:
        y = y_of(10.0**decade)
        parts.append(
            f'<line x1="{_LEFT - 4}" y1="{y:.2f}" x2="{_LEFT}" y2="{y:.2f}" '
            'stroke="black"/>'
        )
        parts.append(
            f'<text x="{_LEFT - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">1e{decade}</text>'
        )
        decade -= decade_step
    for k in ks:
        x = x_of(k)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_HEIGHT - _BOTTOM}" x2="{x:.2f}" '
            f'y2="{_HEIGHT - _BOTTOM + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_HEIGHT - _BOTTOM + 18}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{k}</text>'
        )
    parts.append(
        f'<text x="{_LEFT + inner_w / 2:.2f}" y="{_HEIGHT - 12}" '
        'text-anchor="middle" font-family="monospace" font-size="12">k</text>'
    )
    parts.append(
        f'<text x="18" y="{_TOP + inner_h / 2:.2f}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 18 {_TOP + inner_h / 2:.2f})">residual ratio</text>'
    )

    legend_y = _TOP + 6
    for name, color in _SERIES:
        points = [
            (x_of(report.k), y_of(value))
            for report in reports
            if (value := getattr(report, name)) is not None
        ]
        if points:
            path_data = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
            parts.append(
                f'<polyline points="{path_data}" fill="none" stroke="{color}" '
                'stroke-width="1.6"/>'
            )
            for x, y in points:
                parts.append(
                    f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.4" fill="{color}"/>'
                )
        lx = _WIDTH - _RIGHT + 14
        parts.append(
            f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 22}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="2.2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{legend_y + 4}" font-family="monospace" '
            f'font-size="11">{name}</text>'
        )
        legend_y += 18

    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")
