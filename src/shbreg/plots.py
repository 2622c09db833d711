"""Minimal SVG line plots for error traces (presentation only)."""

import math

__all__ = ["line_plot_svg"]

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]

_WIDTH, _HEIGHT = 760, 480
_XLABEL, _YLABEL = "iteration", "mean squared relative error"
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 30, 45


def _ticks(lo, hi, count=5):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + k * step for k in range(count)]


def line_plot_svg(path, curves, title=""):
    """Write one SVG with a polyline per curve.

    ``curves`` is an iterable of (label, x, y).  The y values are plotted on
    a log10 axis; nonpositive values are dropped.
    """
    curves = [(str(label), [(float(x), math.log10(y)) for x, y in zip(xs, map(float, ys))
                            if y > 0])
              for label, xs, ys in curves]
    pts = [pt for _, points in curves for pt in points]
    if not pts:
        raise ValueError("nothing to plot")
    x_lo = min(p[0] for p in pts)
    x_hi = max(p[0] for p in pts)
    y_lo = min(p[1] for p in pts)
    y_hi = max(p[1] for p in pts)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def to_px(x, v):
        px = _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w
        py = _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h
        return px, py

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
           f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>']
    if title:
        out.append(f'<text x="{_WIDTH / 2}" y="20" text-anchor="middle" '
                   f'font-size="14" font-family="sans-serif">{title}</text>')
    # frame
    out.append(f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
               'fill="none" stroke="#333"/>')
    for xt in _ticks(x_lo, x_hi):
        px, _ = to_px(xt, y_lo)
        out.append(f'<line x1="{px:.1f}" y1="{_MARGIN_T + plot_h}" x2="{px:.1f}" '
                   f'y2="{_MARGIN_T + plot_h + 4}" stroke="#333"/>')
        out.append(f'<text x="{px:.1f}" y="{_MARGIN_T + plot_h + 18}" text-anchor="middle" '
                   f'font-size="11" font-family="sans-serif">{xt:.0f}</text>')
    for yt in _ticks(y_lo, y_hi):
        _, py = to_px(x_lo, yt)
        out.append(f'<line x1="{_MARGIN_L - 4}" y1="{py:.1f}" x2="{_MARGIN_L}" '
                   f'y2="{py:.1f}" stroke="#333"/>')
        out.append(f'<text x="{_MARGIN_L - 8}" y="{py + 4:.1f}" text-anchor="end" '
                   f'font-size="11" font-family="sans-serif">1e{yt:.1f}</text>')
    out.append(f'<text x="{_MARGIN_L + plot_w / 2}" y="{_HEIGHT - 8}" text-anchor="middle" '
               f'font-size="12" font-family="sans-serif">{_XLABEL}</text>')
    out.append(f'<text x="16" y="{_MARGIN_T + plot_h / 2}" text-anchor="middle" '
               f'font-size="12" font-family="sans-serif" '
               f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2})">{_YLABEL}</text>')

    for k, (label, points) in enumerate(curves):
        color = _COLORS[k % len(_COLORS)]
        coords = [f"{px:.1f},{py:.1f}" for px, py in (to_px(x, v) for x, v in points)]
        if coords:
            out.append(f'<polyline points="{" ".join(coords)}" fill="none" '
                       f'stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_T + 16 + 16 * k
        lx = _MARGIN_L + plot_w - 150
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-size="11" '
                   f'font-family="sans-serif">{label}</text>')
    out.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(out) + "\n")
