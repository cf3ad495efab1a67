"""Deterministic SVG rendering of a chord fan and its parity-shaded sectors.

Output is a standalone SVG 1.1 document on a fixed 800x800 viewport with the
circle scaled to 90% of it.  Element order, styling constants, and the
6-decimal coordinate precision are all fixed, so identical inputs yield
byte-identical documents.
"""

from __future__ import annotations

import math

from .geometry import TWO_PI, AreaReport, CircleConfig, SectorPartition, radial_distance

_VIEW = 800
_CIRCLE_RADIUS = 0.9 * _VIEW / 2.0

_ODD_FILL = "#4e79a7"
_EVEN_FILL = "#f28e2b"
_OUTLINE = "#30333a"
_CHORD = "#30333a"
_CENTER_MARK = "#c03028"
_FILL_OPACITY = "0.60"


def _num(value: float) -> str:
    return f"{value:.6f}"


def render_svg(cfg: CircleConfig, partition: SectorPartition, report: AreaReport) -> str:
    """Render the configuration as a standalone SVG document string."""
    boundaries = partition.boundaries
    n = len(boundaries) // 2
    scale = _CIRCLE_RADIUS / cfg.a
    # Pole-frame coordinates of the circle centre.
    ccx = cfg.r0 * math.cos(cfg.theta0)
    ccy = cfg.r0 * math.sin(cfg.theta0)

    def to_screen(px: float, py: float) -> tuple[float, float]:
        return (_VIEW / 2.0 + scale * (px - ccx), _VIEW / 2.0 - scale * (py - ccy))

    def rim_point(theta: float) -> tuple[float, float]:
        r = radial_distance(cfg, theta)
        return (r * math.cos(theta), r * math.sin(theta))

    pole_x, pole_y = to_screen(0.0, 0.0)
    center_x, center_y = to_screen(ccx, ccy)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_VIEW}" height="{_VIEW}" viewBox="0 0 {_VIEW} {_VIEW}">',
        f'<rect x="0" y="0" width="{_VIEW}" height="{_VIEW}" fill="#ffffff"/>',
    ]

    for i, (lo, hi) in enumerate(partition.sectors):
        px_lo, py_lo = rim_point(lo)
        px_hi, py_hi = rim_point(hi)
        # Central angle swept between the two rim points decides the arc flag.
        phi_lo = math.atan2(py_lo - ccy, px_lo - ccx)
        phi_hi = math.atan2(py_hi - ccy, px_hi - ccx)
        swept = (phi_hi - phi_lo) % TWO_PI
        large_arc = 1 if swept > math.pi else 0
        x_lo, y_lo = to_screen(px_lo, py_lo)
        x_hi, y_hi = to_screen(px_hi, py_hi)
        fill = _ODD_FILL if i % 2 == 0 else _EVEN_FILL
        lines.append(
            f'<path d="M {_num(pole_x)} {_num(pole_y)} L {_num(x_lo)} {_num(y_lo)} '
            f'A {_num(_CIRCLE_RADIUS)} {_num(_CIRCLE_RADIUS)} 0 {large_arc} 0 '
            f'{_num(x_hi)} {_num(y_hi)} Z" fill="{fill}" '
            f'fill-opacity="{_FILL_OPACITY}" stroke="none"/>'
        )

    lines.append(
        f'<circle cx="{_num(center_x)}" cy="{_num(center_y)}" r="{_num(_CIRCLE_RADIUS)}" '
        f'fill="none" stroke="{_OUTLINE}" stroke-width="2"/>'
    )

    for i in range(n):
        px_a, py_a = rim_point(boundaries[i])
        px_b, py_b = rim_point(boundaries[i + n])
        x_a, y_a = to_screen(px_a, py_a)
        x_b, y_b = to_screen(px_b, py_b)
        lines.append(
            f'<line x1="{_num(x_a)}" y1="{_num(y_a)}" x2="{_num(x_b)}" y2="{_num(y_b)}" '
            f'stroke="{_CHORD}" stroke-width="2"/>'
        )

    lines.append(f'<circle cx="{_num(pole_x)}" cy="{_num(pole_y)}" r="5" fill="#000000"/>')
    lines.append(
        f'<path d="M {_num(center_x - 7)} {_num(center_y)} H {_num(center_x + 7)} '
        f'M {_num(center_x)} {_num(center_y - 7)} V {_num(center_y + 7)}" '
        f'stroke="{_CENTER_MARK}" stroke-width="2" fill="none"/>'
    )

    legend = (
        ("odd sum", _ODD_FILL, report.odd_sum),
        ("even sum", _EVEN_FILL, report.even_sum),
    )
    for row, (label, color, value) in enumerate(legend):
        y = 24 + 24 * row
        lines.append(
            f'<rect x="16" y="{y - 13}" width="14" height="14" fill="{color}" '
            f'fill-opacity="{_FILL_OPACITY}"/>'
        )
        lines.append(
            f'<text x="38" y="{y}" font-family="monospace" font-size="16" '
            f'fill="#000000">{label} = {value:.9g}</text>'
        )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
