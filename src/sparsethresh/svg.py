"""Minimal deterministic SVG emitters for experiment artifacts.

Fixed canvas geometry, fixed palette, fixed number formatting, and no
timestamps or external references: identical inputs yield byte-identical
files, which keeps plots diffable in CI alongside the CSV they illustrate.

The chart frame (canvas, title, axes, labels, ticks, closing tag) has one
home, ``_document``: each emitter supplies only its marks and its ticks.
"""

from __future__ import annotations

__all__ = ["histogram_svg", "bars_svg", "line_chart_svg", "heatmap_svg"]

WIDTH = 640
HEIGHT = 420
MARGIN_L = 70
MARGIN_R = 20
MARGIN_T = 46
MARGIN_B = 54

PALETTE = ("#33658a", "#f26419", "#55862c", "#9a4f96", "#b3a125", "#767676")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _esc(text: str) -> str:
    return (
        str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _x_pos(frac: float) -> float:
    return MARGIN_L + frac * (WIDTH - MARGIN_L - MARGIN_R)

def _y_pos(frac: float) -> float:
    return HEIGHT - MARGIN_B - frac * (HEIGHT - MARGIN_T - MARGIN_B)


def _even(lo: float, span: float) -> list[tuple[float, str]]:
    """Five evenly spaced ticks labelled lo, ..., lo + span."""
    return [(i / 4, f"{lo + span * i / 4:.3g}") for i in range(5)]


def _rect(x0: float, x1: float, y0: float, y1: float, style: str) -> str:
    """A rectangle over plot fractions [x0, x1] x [y0, y1], y0 at the bottom."""
    x = _x_pos(x0)
    y = _y_pos(y1)
    return (
        f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(_x_pos(x1) - x)}" '
        f'height="{_fmt(_y_pos(y0) - y)}" {style}/>'
    )


def _text(x, y, body, size=11, before=' text-anchor="middle"', after="") -> str:
    """A monospace label at (x, y); ``before`` and ``after`` are the attributes around the font."""
    return (
        f'<text x="{x}" y="{y}"{before} font-family="monospace" font-size="{size}"{after}>'
        f"{_esc(body)}</text>"
    )


def _document(title, x_label, y_label, marks, x_ticks, y_ticks) -> str:
    """The chart frame around ``marks``; each tick list holds (fraction, label) pairs."""
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    x1, y1 = WIDTH - MARGIN_R, MARGIN_T
    mid_y = f"{(y0 + y1) / 2:.0f}"
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        _text(f"{WIDTH / 2:.0f}", 24, title, 15),
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="#000000"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="#000000"/>',
        _text(f"{(x0 + x1) / 2:.0f}", HEIGHT - 14, x_label, 12),
        _text(18, mid_y, y_label, 12, after=f' transform="rotate(-90 18 {mid_y})"'),
        *marks,
    ]
    for frac, label in x_ticks:
        x = _fmt(_x_pos(frac))
        parts.append(f'<line x1="{x}" y1="{y0}" x2="{x}" y2="{y0 + 5}" stroke="#000000"/>')
        parts.append(_text(x, y0 + 20, label))
    for frac, label in y_ticks:
        y = _y_pos(frac)
        parts.append(
            f'<line x1="{x0 - 5}" y1="{_fmt(y)}" x2="{x0}" y2="{_fmt(y)}" stroke="#000000"/>'
        )
        parts.append(_text(x0 - 9, _fmt(y + 4), label, before=' text-anchor="end"'))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def histogram_svg(counts, edges, title: str, x_label: str, y_label: str = "count") -> str:
    counts = [int(c) for c in counts]
    edges = [float(e) for e in edges]
    top = max(max(counts), 1)
    span = edges[-1] - edges[0] or 1.0
    style = f'fill="{PALETTE[0]}" stroke="#ffffff" stroke-width="0.5"'
    marks = [
        _rect((edges[i] - edges[0]) / span, (edges[i + 1] - edges[0]) / span, 0.0, c / top, style)
        for i, c in enumerate(counts) if c != 0
    ]
    return _document(title, x_label, y_label, marks, _even(edges[0], span), _even(0, top))


def bars_svg(pairs, title: str, y_label: str) -> str:
    """Categorical bars; ``pairs`` is a sequence of (label, value)."""
    values = [float(p[1]) for p in pairs]
    top = max(max(values), 1e-12)
    n = len(values)
    marks = []
    for i, v in enumerate(values):
        fx0 = (i + 0.15) / n
        fx1 = (i + 0.85) / n
        marks.append(_rect(fx0, fx1, 0.0, v / top, f'fill="{PALETTE[i % len(PALETTE)]}"'))
        x = _x_pos(fx0)
        w = _x_pos(fx1) - x
        marks.append(_text(_fmt(x + w / 2), _fmt(_y_pos(v / top) - 6), f"{v:.4g}"))
    x_ticks = [((i + 0.5) / n, p[0]) for i, p in enumerate(pairs)]
    return _document(title, "", y_label, marks, x_ticks, _even(0, top))


def line_chart_svg(xs, series: dict, title: str, x_label: str, y_label: str) -> str:
    """One polyline per entry of ``series`` (name -> y values over ``xs``)."""
    xs = [float(x) for x in xs]
    x_lo, x_hi = min(xs), max(xs)
    x_span = (x_hi - x_lo) or 1.0
    all_y = [float(v) for ys in series.values() for v in ys]
    y_hi = max(max(all_y), 1e-12) if all_y else 1.0
    marks = []
    for idx, (name, ys) in enumerate(series.items()):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(
            f"{_fmt(_x_pos((x - x_lo) / x_span))},{_fmt(_y_pos(float(y) / y_hi))}"
            for x, y in zip(xs, ys)
        )
        ly = MARGIN_T + 16 * idx + 8
        marks += [
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>',
            f'<rect x="{WIDTH - 190}" y="{ly - 9}" width="12" height="12" fill="{color}"/>',
            _text(WIDTH - 172, ly + 2, name, before=""),
        ]
    return _document(title, x_label, y_label, marks, _even(x_lo, x_span), _even(0, y_hi))


def heatmap_svg(values, x_ticks, y_ticks, title: str, x_label: str, y_label: str) -> str:
    """Grid of cells colored by value in [0, 1]; rows follow ``y_ticks`` order."""
    rows = [[float(v) for v in row] for row in values]
    n_rows = max(len(rows), 1)
    n_cols = max(len(rows[0]) if rows else 0, 1)
    marks = []
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            v = min(max(v, 0.0), 1.0)
            # light blue (low) to deep blue (high)
            r = int(235 - 184 * v)
            g = int(242 - 141 * v)
            b = int(250 - 112 * v)
            style = f'fill="rgb({r},{g},{b})" stroke="#ffffff" stroke-width="0.5"'
            marks.append(_rect(j / n_cols, (j + 1) / n_cols, i / n_rows, (i + 1) / n_rows, style))
    x_at = [((j + 0.5) / n_cols, t) for j, t in enumerate(x_ticks)]
    y_at = [((i + 0.5) / n_rows, t) for i, t in enumerate(y_ticks)]
    return _document(title, x_label, y_label, marks, x_at, y_at)
