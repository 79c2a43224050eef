"""Byte-stable SVG line plots: one polyline per series, star markers at
gold labels, triangle markers at detected peaks. Fixed canvas, no fonts."""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .model import ValidationError

WIDTH = 800
HEIGHT = 400
MARGIN = 30

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#7f7f7f")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _scale(values_min: float, values_max: float, n: int):
    span = values_max - values_min
    if span == 0.0:
        span = 1.0
    x_step = (WIDTH - 2 * MARGIN) / max(n - 1, 1)

    def to_xy(i, v) -> tuple:
        """Canvas coordinates of sentence(s) i at value(s) v."""
        x = MARGIN + i * x_step
        y = HEIGHT - MARGIN - (v - values_min) / span * (HEIGHT - 2 * MARGIN)
        return x, y

    return to_xy


def _star(cx: float, cy: float, r: float = 6.0) -> str:
    points = []
    for i in range(10):
        radius = r if i % 2 == 0 else r * 0.4
        angle = -math.pi / 2 + i * math.pi / 5
        points.append(f"{_fmt(cx + radius * math.cos(angle))},"
                      f"{_fmt(cy + radius * math.sin(angle))}")
    return f'<polygon points="{" ".join(points)}" fill="#f0c420" stroke="#806000"/>'


def _triangle(cx: float, cy: float, r: float = 6.0) -> str:
    points = (f"{_fmt(cx)},{_fmt(cy - r)} {_fmt(cx - r)},{_fmt(cy + r)} "
              f"{_fmt(cx + r)},{_fmt(cy + r)}")
    return f'<polygon points="{points}" fill="none" stroke="#333333" stroke-width="1.5"/>'


def render_svg(series: Mapping[str, Sequence[float]],
               gold_indices: Sequence[int] = (),
               peak_indices: Sequence[int] = ()) -> str:
    """SVG document for a set of equal-length per-sentence curves."""
    if not series:
        raise ValidationError("nothing to plot")
    lengths = {len(v) for v in series.values()}
    if len(lengths) != 1:
        raise ValidationError("all plotted series must share one length")
    n = lengths.pop()
    all_values = np.concatenate([np.asarray(v, float) for v in series.values()])
    if not np.all(np.isfinite(all_values)):
        raise ValidationError("cannot plot non-finite values")
    to_xy = _scale(float(all_values.min()), float(all_values.max()), n)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#cccccc"/>',
    ]
    names = sorted(series)
    base = np.asarray(series[names[0]], float)
    with np.errstate(over="ignore", invalid="ignore"):  # as float arithmetic, silently
        x, ys = to_xy(np.arange(n), np.array([series[name] for name in names], float))
    x_text = list(map("{:.2f},".format, x.tolist()))  # shared by every series
    for pos, y in enumerate(ys.tolist()):
        pts = " ".join(map("{}{:.2f}".format, x_text, y))
        color = PALETTE[pos % len(PALETTE)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
    for marker, indices in ((_star, gold_indices), (_triangle, peak_indices)):
        for idx in sorted(set(int(i) for i in indices)):
            if 0 <= idx < n:
                parts.append(marker(*to_xy(idx, float(base[idx]))))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
