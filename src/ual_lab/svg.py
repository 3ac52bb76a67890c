"""Minimal self-contained SVG line charts.

Diagnostic plots only: axes, decade ticks on a log y scale, one polyline
per series with an optional shaded band, and a legend. A band value at or
below zero has no place on the log axis: it does not set the y range, and
its band point is drawn on the frame's bottom edge. No external
references, fonts, or scripts, so the files are valid standalone SVG 1.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from html import escape
from typing import Optional, Sequence

import numpy as np

__all__ = ["Series", "line_chart"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_FLOOR = 1e-12  # log-scale guard for near-zero error values
_WIDTH, _HEIGHT = 640, 420


@dataclass(frozen=True)
class Series:
    name: str
    xs: Sequence[float]
    ys: Sequence[float]
    band_low: Optional[Sequence[float]] = None
    band_high: Optional[Sequence[float]] = None


def line_chart(
    title: str,
    x_label: str,
    y_label: str,
    series: Sequence[Series],
) -> str:
    """Render series as an SVG document string, with a log y axis."""
    if not series:
        raise ValueError("need at least one series")
    title, x_label, y_label = (escape(t, quote=False) for t in (title, x_label, y_label))
    margin_l, margin_r, margin_t, margin_b = 64, 16, 36, 46
    plot_w = _WIDTH - margin_l - margin_r
    plot_h = _HEIGHT - margin_t - margin_b

    def ty(v: float) -> float:
        return math.log10(max(v, _FLOOR))

    xs_all = [x for s in series for x in s.xs]
    ys_all = [ty(y) for s in series for y in s.ys]
    for s in series:
        for band in (s.band_low, s.band_high):
            if band is not None:
                ys_all.extend(ty(v) for v in band if v > 0)
    x_min, x_max = min(xs_all), max(xs_all)
    y_min, y_max = min(ys_all), max(ys_all)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    def px(xs) -> np.ndarray:
        return margin_l + (np.asarray(xs, dtype=float) - x_min) / (x_max - x_min) * plot_w

    def points(xs, ys) -> list[str]:  # only a band point can fall outside the frame
        t = np.array([ty(y) for y in ys], dtype=float)
        py = np.minimum(np.maximum(margin_t + (y_max - t) / (y_max - y_min) * plot_h, margin_t),
                        margin_t + plot_h)
        return list(map("{:.2f},{:.2f}".format, px(xs).tolist(), py.tolist()))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    # frame
    parts.append(
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    # y ticks: one per decade
    for val in range(math.ceil(y_min), math.floor(y_max) + 1):
        y_pix = margin_t + (y_max - val) / (y_max - y_min) * plot_h
        parts.append(
            f'<line x1="{margin_l - 4}" y1="{y_pix:.1f}" x2="{margin_l}" y2="{y_pix:.1f}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{margin_l - 8}" y="{y_pix + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">1e{val}</text>'
        )
    # x ticks: five even steps
    for i in range(6):
        x_val = x_min + i * (x_max - x_min) / 5.0
        x_pix = px(x_val)
        parts.append(
            f'<line x1="{x_pix:.1f}" y1="{margin_t + plot_h}" x2="{x_pix:.1f}" '
            f'y2="{margin_t + plot_h + 4}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x_pix:.1f}" y="{margin_t + plot_h + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{x_val:.3g}</text>'
        )
    parts.append(
        f'<text x="{margin_l + plot_w / 2:.1f}" y="{_HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{margin_t + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {margin_t + plot_h / 2:.1f})">{y_label}</text>'
    )
    # series
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        if s.band_low is not None and s.band_high is not None:
            backward = points(list(s.xs)[::-1], list(s.band_low)[::-1])
            parts.append(
                f'<polygon points="{" ".join(points(s.xs, s.band_high) + backward)}" '
                f'fill="{color}" fill-opacity="0.15" stroke="none"/>'
            )
        line = " ".join(points(s.xs, s.ys))
        parts.append(f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.5"/>')
    # legend
    legend_x = margin_l + 10
    legend_y = margin_t + 14
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        y_pix = legend_y + 16 * i
        parts.append(
            f'<line x1="{legend_x}" y1="{y_pix - 4}" x2="{legend_x + 18}" y2="{y_pix - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 24}" y="{y_pix}" font-family="sans-serif" '
            f'font-size="11">{escape(s.name, quote=False)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
