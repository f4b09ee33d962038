"""Minimal static SVG line plots (no display server needed)."""

from __future__ import annotations

import numpy as np

from ._kernels import _per_block

__all__ = ["line_plot"]

_W, _H = 800, 500
_ML, _MR, _MT, _MB = 70, 20, 30, 50
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _ticks(lo: float, hi: float, n: int = 6):
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / n
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    start = np.ceil(lo / step) * step
    return list(np.arange(start, hi + 0.5 * step, step))


def line_plot(path, curves, title="", xlabel="", ylabel=""):
    """Write a polyline plot; curves is a list of (label, x, y) triples."""
    xs = np.concatenate([np.asarray(x, dtype=float) for _, x, _ in curves])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, _, y in curves])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(x):
        return _ML + (x - x0) / (x1 - x0) * pw

    def py(y):
        return _MT + (y1 - y) / (y1 - y0) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    for t in _ticks(x0, x1):
        parts.append(f'<line x1="{px(t):.2f}" y1="{_MT}" x2="{px(t):.2f}" '
                     f'y2="{_H - _MB}" stroke="#ddd"/>')
        parts.append(f'<text x="{px(t):.2f}" y="{_H - _MB + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{t:.6g}</text>')
    for t in _ticks(y0, y1):
        parts.append(f'<line x1="{_ML}" y1="{py(t):.2f}" x2="{_W - _MR}" '
                     f'y2="{py(t):.2f}" stroke="#ddd"/>')
        parts.append(f'<text x="{_ML - 6}" y="{py(t) + 4:.2f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{t:.6g}</text>')
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
                 'fill="none" stroke="black"/>')
    tail = [
        f'<text x="{_W / 2:.1f}" y="{_H - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{_H / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_H / 2:.1f})">{ylabel}</text>',
        "</svg>",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
        for i, (label, x, y) in enumerate(curves):
            color = _COLORS[i % len(_COLORS)]
            u = px(np.asarray(x, dtype=float))
            v = py(np.asarray(y, dtype=float))
            fh.write('\n<polyline points="')
            step = _per_block(128)   # a point's two Python floats and text
            for lo in range(0, u.size, step):
                pts = np.stack([u[lo:lo + step], v[lo:lo + step]], axis=1)
                fh.write((" " if lo else "") + " ".join(
                    ["%.2f,%.2f"] * len(pts)) % tuple(pts.ravel().tolist()))
            fh.write(f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n'
                     f'<text x="{_W - _MR - 8}" y="{_MT + 18 + 16 * i}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="12" fill="{color}">{label}</text>')
        fh.write("\n" + "\n".join(tail) + "\n")
