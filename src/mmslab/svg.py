"""Minimal self-contained SVG polyline charts for report series."""
from __future__ import annotations

import math
from typing import Sequence

__all__ = ["line_chart"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 32, 48


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 5
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-12 * step:
        out.append(round(v, 12))
        v += step
    return out


def line_chart(
    path: str,
    series: dict[str, Sequence[tuple[float, float]]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """Write a polyline chart of the (x, y) series to an SVG file."""
    pts = [(x, y) for s in series.values() for x, y in s if math.isfinite(y)]
    if not pts:
        pts = [(0.0, 0.0), (1.0, 1.0)]
    xs, ys = zip(*pts)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(x: float) -> float:
        return _ML + (x - x0) / (x1 - x0) * (_W - _ML - _MR)

    def sy(y: float) -> float:
        return _H - _MB - (y - y0) / (y1 - y0) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W/2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    ax = f'stroke="#333" stroke-width="1"'
    out.append(f'<line x1="{_ML}" y1="{_H-_MB}" x2="{_W-_MR}" y2="{_H-_MB}" {ax}/>')
    out.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H-_MB}" {ax}/>')
    for t in _ticks(x0, x1):
        X = sx(t)
        out.append(f'<line x1="{X:.1f}" y1="{_H-_MB}" x2="{X:.1f}" y2="{_H-_MB+5}" {ax}/>')
        out.append(f'<text x="{X:.1f}" y="{_H-_MB+18}" text-anchor="middle">{t:g}</text>')
    for t in _ticks(y0, y1):
        Y = sy(t)
        out.append(f'<line x1="{_ML-5}" y1="{Y:.1f}" x2="{_ML}" y2="{Y:.1f}" {ax}/>')
        out.append(f'<text x="{_ML-8}" y="{Y+4:.1f}" text-anchor="end">{t:g}</text>')
    if xlabel:
        out.append(f'<text x="{(_ML+_W-_MR)/2:.0f}" y="{_H-10}" text-anchor="middle">{xlabel}</text>')
    if ylabel:
        out.append(f'<text x="16" y="{(_MT+_H-_MB)/2:.0f}" text-anchor="middle" '
                   f'transform="rotate(-90 16 {(_MT+_H-_MB)/2:.0f})">{ylabel}</text>')
    for k, (name, s) in enumerate(series.items()):
        color = _COLORS[k % len(_COLORS)]
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in s if math.isfinite(y))
        if coords:
            out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MT + 14 + 16 * k
        out.append(f'<line x1="{_W-_MR-120}" y1="{ly-4}" x2="{_W-_MR-96}" y2="{ly-4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_W-_MR-90}" y="{ly}">{name}</text>')
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out))
