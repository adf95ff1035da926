"""Standalone SVG rendering for effect curves and simulation sweeps.

The emitter is deliberately hand-rolled: every coordinate is formatted
with a fixed precision and elements are written in a fixed order, so a
given input always produces byte-identical output.  That keeps plots
usable as golden files and makes repeated pipeline runs diff-clean.

Partial-effect curves are drawn with a shaded pointwise confidence band
and can overlay a dashed reference line for the corresponding linear
model coefficient.  Each renderer takes the records the analysis
returns (a tuple of curves, a grid's ``SimReport``s, a selection
sweep) and returns the SVG text; names from the data are escaped so
the document stays well-formed XML.
"""

from __future__ import annotations

import math

from .exceptions import DataError
from .inference import ALPHA

WIDTH = 640.0
HEIGHT = 420.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 62.0, 18.0, 36.0, 46.0

_SERIES_COLORS = ("#303030", "#b03030", "#3060a8", "#308050")
_BAND_COLORS = ("#d4d4d4", "#ecc6c6", "#c9d7ec", "#c6e2cf")
_REFERENCE_COLOR = "#3050c8"


def _c(v: float) -> str:
    """Fixed-precision coordinate, the unit of byte stability."""
    return f"{v:.2f}"


def _text(s: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG text content."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float, target: int = 5):
    """Round tick positions covering [lo, hi] with a 1-2-5 step."""
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for m in (1.0, 2.0, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    first = math.ceil(lo / step - 1e-9)
    last = math.floor(hi / step + 1e-9)
    return [round(i * step, 10) for i in range(first, last + 1)]


def _pad_range(lo: float, hi: float):
    if hi < lo:
        lo, hi = hi, lo
    if hi == lo:
        pad = 0.5 if lo == 0.0 else abs(lo) * 0.1
        return lo - pad, hi + pad
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


class _Panel:
    """Maps data coordinates into one rectangular drawing region."""

    def __init__(self, x0, y0, width, height, xlim, ylim):
        self.x0, self.y0 = x0, y0
        self.width, self.height = width, height
        self.xlim, self.ylim = xlim, ylim

    def sx(self, x: float) -> float:
        lo, hi = self.xlim
        return self.x0 + (x - lo) / (hi - lo) * self.width

    def sy(self, y: float) -> float:
        lo, hi = self.ylim
        return self.y0 + self.height - (y - lo) / (hi - lo) * self.height

    def frame(self, xlabel: str, ylabel: str):
        parts = [f'<rect x="{_c(self.x0)}" y="{_c(self.y0)}" '
                 f'width="{_c(self.width)}" height="{_c(self.height)}" '
                 'fill="none" stroke="#202020" stroke-width="1"/>']
        y_base = self.y0 + self.height
        for t in _ticks(*self.xlim):
            x = self.sx(t)
            parts.append(f'<line x1="{_c(x)}" y1="{_c(y_base)}" '
                         f'x2="{_c(x)}" y2="{_c(y_base + 5)}" '
                         'stroke="#202020" stroke-width="1"/>')
            parts.append(f'<text x="{_c(x)}" y="{_c(y_base + 18)}" '
                         'font-family="sans-serif" font-size="11" '
                         f'text-anchor="middle">{t:g}</text>')
        for t in _ticks(*self.ylim):
            y = self.sy(t)
            parts.append(f'<line x1="{_c(self.x0 - 5)}" y1="{_c(y)}" '
                         f'x2="{_c(self.x0)}" y2="{_c(y)}" '
                         'stroke="#202020" stroke-width="1"/>')
            parts.append(f'<text x="{_c(self.x0 - 8)}" y="{_c(y + 4)}" '
                         'font-family="sans-serif" font-size="11" '
                         f'text-anchor="end">{t:g}</text>')
        parts.append(
            f'<text x="{_c(self.x0 + self.width / 2)}" '
            f'y="{_c(y_base + 34)}" font-family="sans-serif" '
            f'font-size="12" text-anchor="middle">{_text(xlabel)}</text>')
        mid_y = self.y0 + self.height / 2
        parts.append(
            f'<text x="{_c(self.x0 - 44)}" y="{_c(mid_y)}" '
            'font-family="sans-serif" font-size="12" text-anchor="middle" '
            f'transform="rotate(-90 {_c(self.x0 - 44)} {_c(mid_y)})">'
            f'{_text(ylabel)}</text>')
        return parts

    def polyline(self, xs, ys, color, dash=None, width=1.5):
        pts = " ".join(f"{_c(self.sx(x))},{_c(self.sy(y))}"
                       for x, y in zip(xs, ys))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="{width}"{dash_attr}/>')

    def polygon(self, xs, ys, fill):
        pts = " ".join(f"{_c(self.sx(x))},{_c(self.sy(y))}"
                       for x, y in zip(xs, ys))
        return f'<polygon points="{pts}" fill="{fill}" stroke="none"/>'

    def marker(self, x, y, color):
        return (f'<circle cx="{_c(self.sx(x))}" cy="{_c(self.sy(y))}" '
                f'r="3" fill="{color}"/>')


def _document(body, title) -> str:
    head = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{WIDTH:g}" height="{HEIGHT:g}" '
        f'viewBox="0 0 {WIDTH:g} {HEIGHT:g}">',
        f'<rect x="0" y="0" width="{WIDTH:g}" height="{HEIGHT:g}" '
        'fill="white"/>',
        f'<text x="{_c(WIDTH / 2)}" y="22" font-family="sans-serif" '
        f'font-size="14" text-anchor="middle">{_text(title)}</text>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _legend(panel, entries):
    parts = []
    y = panel.y0 + 16
    for label, color, dash in entries:
        x0 = panel.x0 + panel.width - 150
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(f'<line x1="{_c(x0)}" y1="{_c(y - 4)}" '
                     f'x2="{_c(x0 + 26)}" y2="{_c(y - 4)}" '
                     f'stroke="{color}" stroke-width="2"{dash_attr}/>')
        parts.append(f'<text x="{_c(x0 + 32)}" y="{_c(y)}" '
                     'font-family="sans-serif" font-size="11" '
                     f'text-anchor="start">{_text(label)}</text>')
        y += 16
    return parts


def pce_plot_svg(curves, linear_beta: float | None = None) -> str:
    """Partial-effect curves with shaded confidence bands.

    ``curves`` is the tuple ``pce_curve`` returns: one curve, or the
    conditioned curves of one covariate; ``linear_beta`` overlays a
    dashed horizontal reference (the matching coefficient from a linear
    model).
    """
    if not curves:
        raise DataError("no curves to plot")
    xs_all = [pt.x for c in curves for pt in c.points]
    ys_all = [v for c in curves for pt in c.points for v in (pt.lo, pt.hi)]
    if linear_beta is not None:
        ys_all.append(float(linear_beta))
    xlim = _pad_range(min(xs_all), max(xs_all))
    ylim = _pad_range(min(ys_all), max(ys_all))
    panel = _Panel(MARGIN_L, MARGIN_T, WIDTH - MARGIN_L - MARGIN_R,
                   HEIGHT - MARGIN_T - MARGIN_B, xlim, ylim)
    first = curves[0]
    body = panel.frame(xlabel=f"{first.covariate} ({first.scale} scale)",
                       ylabel=f"effect of a {first.d:g}-unit increase")
    for i, curve in enumerate(curves):
        band = _BAND_COLORS[i % len(_BAND_COLORS)]
        xs = [pt.x for pt in curve.points]
        if len(curve.points) >= 2:
            body.append(panel.polygon(
                xs + xs[::-1],
                [pt.lo for pt in curve.points]
                + [pt.hi for pt in reversed(curve.points)], band))
    if linear_beta is not None:
        body.append(panel.polyline(list(panel.xlim), [linear_beta] * 2,
                                   _REFERENCE_COLOR, dash="6 4"))
    legend = []
    for i, curve in enumerate(curves):
        color = _SERIES_COLORS[i % len(_SERIES_COLORS)]
        xs = [pt.x for pt in curve.points]
        ys = [pt.beta_hat for pt in curve.points]
        if len(curve.points) == 1:
            body.append(panel.marker(xs[0], ys[0], color))
        else:
            body.append(panel.polyline(xs, ys, color))
        if curve.condition_label:
            legend.append((curve.condition_label, color, None))
    if linear_beta is not None:
        legend.append(("linear model", _REFERENCE_COLOR, "6 4"))
    body.extend(_legend(panel, legend))
    return _document(body, f"partial effect: {first.covariate}")


def power_plot_svg(reports) -> str:
    """Rejection rate against effect size for both test variants.

    ``reports`` holds one ``SimReport`` per effect cell of a grid.
    """
    if not reports:
        raise DataError("empty power sweep")
    xs = [rep.effect for rep in reports]
    xlim = _pad_range(min(xs), max(xs))
    ylim = (-0.02, 1.05)
    panel = _Panel(MARGIN_L, MARGIN_T, WIDTH - MARGIN_L - MARGIN_R,
                   HEIGHT - MARGIN_T - MARGIN_B, xlim, ylim)
    body = panel.frame(xlabel="true weight value", ylabel="rejection rate")
    body.append(panel.polyline(list(panel.xlim), [ALPHA, ALPHA], "#909090",
                               dash="2 4", width=1.0))
    body.append(panel.polyline(xs, [rep.sp_rate(2, 1) for rep in reports],
                               _SERIES_COLORS[0]))
    body.append(panel.polyline(xs, [rep.mp_rate(2) for rep in reports],
                               _SERIES_COLORS[1], dash="7 3"))
    body.extend(_legend(panel, [
        ("single-parameter", _SERIES_COLORS[0], None),
        ("multiple-parameter", _SERIES_COLORS[1], "7 3"),
    ]))
    return _document(body, "rejection rate vs effect size")


def selection_plot_svg(sweep) -> str:
    """Two stacked panels: BIC and cross-validated RMSE against width."""
    series = (
        ("BIC", [(e.q, e.bic, None) for e in sweep.entries
                 if e.bic is not None]),
        ("CV RMSE", [(e.q, e.cv_rmse, e.cv_se) for e in sweep.entries
                     if e.cv_rmse is not None]))
    panels = [(label, color, pts) for (label, pts), color
              in zip(series, _SERIES_COLORS) if pts]
    if not panels:
        raise DataError("sweep has no scored candidates to plot")
    inner_h = (HEIGHT - MARGIN_T - MARGIN_B - 30.0 * (len(panels) - 1))
    inner_h /= len(panels)
    y_cursor = MARGIN_T
    body = []
    qs = [e.q for e in sweep.entries]
    xlim = _pad_range(min(qs), max(qs))
    for label, color, pts in panels:
        ylim = _pad_range(min(v - (s or 0.0) for _, v, s in pts),
                          max(v + (s or 0.0) for _, v, s in pts))
        panel = _Panel(MARGIN_L, y_cursor, WIDTH - MARGIN_L - MARGIN_R,
                       inner_h, xlim, ylim)
        body.extend(panel.frame(xlabel="hidden nodes (0 = linear)",
                                ylabel=label))
        body.append(panel.polyline([q for q, _, _ in pts],
                                   [v for _, v, _ in pts], color))
        for q, v, s in pts:
            body.append(panel.marker(q, v, color))
            if s:
                x = panel.sx(q)
                body.append(f'<line x1="{_c(x)}" y1="{_c(panel.sy(v - s))}" '
                            f'x2="{_c(x)}" y2="{_c(panel.sy(v + s))}" '
                            f'stroke="{color}" stroke-width="1"/>')
        y_cursor += inner_h + 30.0
    return _document(body, "model selection sweep")
