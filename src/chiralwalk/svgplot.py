"""Minimal dependency-free SVG rendering: line plots and heatmap grids."""

from __future__ import annotations

import math

import numpy as np

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]
TICKS = 5  # tick intervals per axis
WIDTH, HEIGHT = 720, 480  # line plot size in pixels
CELL, COLUMNS = 28, 2  # heatmap cell size in pixels, and panels per row


def _ticks(lo: float, hi: float) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    raw = (hi - lo) / TICKS
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s for s in (mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * step:
        out.append(round(t, 12))
        t += step
    return out


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _m4_indices(columns: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Indices of the samples M4 aggregation keeps, in ascending order.

    Within each run of consecutive samples that share a pixel column, the
    first, last, minimum and maximum sample are kept (Jugel et al., "M4: A
    Visualization-Oriented Time Series Data Aggregation", PVLDB 7(10), 2014):
    the polyline through them rasterises like the full one.
    """
    size = ys.size
    if size <= 2:
        return np.arange(size)
    starts = np.flatnonzero(np.concatenate(([True], columns[1:] != columns[:-1])))
    lengths = np.diff(np.append(starts, size))
    run = np.repeat(np.arange(starts.size), lengths)
    index = np.arange(size)
    keep = np.zeros(size, dtype=bool)
    keep[starts] = keep[starts + lengths - 1] = True
    for reduce in (np.minimum, np.maximum):
        extreme = reduce.reduceat(ys, starts)
        # The first sample of each run that attains it; a run whose extreme
        # is NaN has none and keeps only its ends.
        hit = np.minimum.reduceat(np.where(ys == extreme[run], index, size), starts)
        keep[hit[hit < size]] = True
    return np.flatnonzero(keep)


def line_plot(
    series: list[tuple[str, list[float], list[float]]],
    title: str = "",
    xlabel: str = "t",
    ylabel: str = "value",
) -> str:
    """Polyline plot with axes, tick labels and a legend.

    ``series`` is a list of (label, xs, ys) triples sharing one coordinate
    frame; xs and ys are lists or arrays of equal length.  Each polyline
    is drawn through the M4 reduction of its series over the pixel columns
    of the plot area, at most four points per column.
    """
    ml, mr, mt, mb = 64, 16, 36, 48
    pw, ph = WIDTH - ml - mr, HEIGHT - mt - mb
    arrays = [(label, np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
              for label, xs, ys in series]
    if any(xs.shape != ys.shape or xs.ndim != 1 for _, xs, ys in arrays):
        raise ValueError("xs and ys of a series must be 1-d and of equal length")
    if not any(xs.size for _, xs, _ in arrays):
        raise ValueError("nothing to plot")
    xs_all = np.concatenate([xs for _, xs, _ in arrays])
    ys_all = np.concatenate([ys for _, _, ys in arrays])
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    if x1 <= x0:
        x1 = x0 + 1.0
    if y1 <= y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def py(y):
        return mt + ph - (y - y0) / (y1 - y0) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2}" y="{mt - 12}" text-anchor="middle" '
            f'font-size="14">{title}</text>'
        )
    for t in _ticks(x0, x1):
        parts.append(
            f'<line x1="{px(t):.2f}" y1="{mt + ph}" x2="{px(t):.2f}" '
            f'y2="{mt + ph + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(t):.2f}" y="{mt + ph + 18}" text-anchor="middle">{_fmt(t)}</text>'
        )
    for t in _ticks(y0, y1):
        parts.append(
            f'<line x1="{ml - 5}" y1="{py(t):.2f}" x2="{ml}" y2="{py(t):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{py(t):.2f}" text-anchor="end" '
            f'dominant-baseline="middle">{_fmt(t)}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2}" y="{HEIGHT - 10}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{mt + ph / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt + ph / 2})">{ylabel}</text>'
    )
    for idx, (label, xs, ys) in enumerate(arrays):
        color = _COLORS[idx % len(_COLORS)]
        columns = np.clip(np.floor((xs - x0) / (x1 - x0) * pw), 0, pw - 1)
        keep = _m4_indices(columns, ys)
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}"
                       for x, y in zip(xs[keep].tolist(), ys[keep].tolist()))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 16 + 16 * idx
        parts.append(
            f'<line x1="{ml + pw - 120}" y1="{ly}" x2="{ml + pw - 96}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{ml + pw - 90}" y="{ly + 4}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def _shade(value: float) -> str:
    # Linear on [0, 1]: value 1 renders light, value 0 dark.
    v = min(max(value, 0.0), 1.0)
    level = int(round(25 + 230 * v))
    return f"rgb({level},{level},{level})"


def heatmap_grid(matrices: list, labels: list[str], title: str = "") -> str:
    """Grid of square heatmap panels, one per matrix, light = 1 and dark = 0."""
    if not matrices:
        raise ValueError("nothing to plot")
    n = len(matrices[0])
    panel = n * CELL
    gap = 46
    rows = (len(matrices) + COLUMNS - 1) // COLUMNS
    width = COLUMNS * panel + (COLUMNS + 1) * gap
    height = rows * (panel + gap) + gap + (24 if title else 0)
    top0 = 24 if title else 0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2}" y="18" text-anchor="middle" font-size="14">{title}</text>'
        )
    for idx, (mat, label) in enumerate(zip(matrices, labels)):
        gx = gap + (idx % COLUMNS) * (panel + gap)
        gy = top0 + gap + (idx // COLUMNS) * (panel + gap)
        parts.append(
            f'<text x="{gx + panel / 2}" y="{gy - 8}" text-anchor="middle">{label}</text>'
        )
        for r in range(n):
            for c in range(n):
                parts.append(
                    f'<rect x="{gx + c * CELL}" y="{gy + r * CELL}" width="{CELL}" '
                    f'height="{CELL}" fill="{_shade(float(mat[r][c]))}" '
                    f'stroke="#888" stroke-width="0.5"/>'
                )
    parts.append("</svg>")
    return "\n".join(parts)
