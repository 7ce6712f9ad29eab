"""Minimal self-contained SVG line plots for ROC, PR, and learning curves.

The axis transform is exposed as module constants so tests can map data
coordinates to pixel coordinates exactly. Output is deterministic.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .fileio import write_atomic

WIDTH = 640
HEIGHT = 480
MARGIN_LEFT = 70
MARGIN_RIGHT = 30
MARGIN_TOP = 50
MARGIN_BOTTOM = 60

PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def data_to_pixel(
    x: float, y: float, x_range: tuple[float, float], y_range: tuple[float, float]
) -> tuple[float, float]:
    """Map one data point into SVG pixel coordinates."""
    x0, x1 = x_range
    y0, y1 = y_range
    sx = (x - x0) / (x1 - x0) if x1 > x0 else 0.5
    sy = (y - y0) / (y1 - y0) if y1 > y0 else 0.5
    return MARGIN_LEFT + sx * PLOT_W, MARGIN_TOP + (1.0 - sy) * PLOT_H


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".") if v != int(v) else str(int(v))


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def line_plot(
    series: list[tuple[str, np.ndarray, np.ndarray]],
    title: str,
    x_label: str,
    y_label: str,
    x_range: tuple[float, float] | None = None,
    y_range: tuple[float, float] | None = None,
    diagonal: bool = False,
) -> str:
    """Render named (x, y) series to an SVG document string."""
    if not series:
        raise ValueError("line_plot needs at least one series")
    xs = np.concatenate([np.asarray(s[1], dtype=np.float64) for s in series])
    ys = np.concatenate([np.asarray(s[2], dtype=np.float64) for s in series])
    if x_range is None:
        x_range = (float(xs.min()), float(xs.max()) if xs.max() > xs.min() else float(xs.min()) + 1.0)
    if y_range is None:
        lo, hi = float(ys.min()), float(ys.max())
        pad = 0.05 * (hi - lo) if hi > lo else 0.5
        y_range = (lo - pad, hi + pad)

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    parts.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{PLOT_W}" height="{PLOT_H}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{_escape(title)}</text>'
    )
    parts.append(
        f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 14}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif">{_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="18" y="{HEIGHT / 2:.1f}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 18 {HEIGHT / 2:.1f})">{_escape(y_label)}</text>'
    )

    for tx in _ticks(*x_range):
        px, _ = data_to_pixel(tx, y_range[0], x_range, y_range)
        parts.append(
            f'<line x1="{px:.2f}" y1="{MARGIN_TOP + PLOT_H}" x2="{px:.2f}" '
            f'y2="{MARGIN_TOP + PLOT_H + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{MARGIN_TOP + PLOT_H + 20}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{_fmt(tx)}</text>'
        )
    for ty in _ticks(*y_range):
        _, py = data_to_pixel(x_range[0], ty, x_range, y_range)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{py:.2f}" x2="{MARGIN_LEFT}" y2="{py:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 9}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{_fmt(ty)}</text>'
        )

    if diagonal:
        p0 = data_to_pixel(x_range[0], y_range[0], x_range, y_range)
        p1 = data_to_pixel(x_range[1], y_range[1], x_range, y_range)
        parts.append(
            f'<line x1="{p0[0]:.2f}" y1="{p0[1]:.2f}" x2="{p1[0]:.2f}" y2="{p1[1]:.2f}" '
            f'stroke="#999999" stroke-dasharray="5,4"/>'
        )

    for i, (name, sx, sy) in enumerate(series):
        color = SERIES_COLORS[i % len(SERIES_COLORS)]
        pts = " ".join(
            f"{px:.2f},{py:.2f}"
            for px, py in (data_to_pixel(float(a), float(b), x_range, y_range) for a, b in zip(sx, sy))
        )
        if len(np.asarray(sx)) == 1:
            px, py = data_to_pixel(float(np.asarray(sx)[0]), float(np.asarray(sy)[0]), x_range, y_range)
            parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="{color}"/>')
        else:
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        ly = MARGIN_TOP + 16 + 16 * i
        lx = MARGIN_LEFT + PLOT_W - 8
        parts.append(
            f'<text x="{lx}" y="{ly}" text-anchor="end" font-size="12" '
            f'font-family="sans-serif" fill="{color}">{_escape(name)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_svg(content: str, path: str | Path) -> Path:
    return write_atomic(path, (content.encode("utf-8"),))
