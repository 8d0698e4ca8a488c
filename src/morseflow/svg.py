"""Flow-portrait rendering: boundary curves, critical glyphs, orbit polylines.

Write-only SVG 1.1 with a fixed 800x800 viewport; figures are inspection aids.
"""
from __future__ import annotations

import numpy as np

from .critical import BOUNDARY_D, BOUNDARY_N
from .geometry import deck_reduce

VIEW = 800.0
MARGIN = 40.0


class _Mapper:
    def __init__(self, chart):
        (x0, x1), (y0, y1) = chart.box if chart.dim == 2 else (chart.box[0], (0, 1))
        span = max(x1 - x0, y1 - y0)
        self.scale = (VIEW - 2 * MARGIN) / span
        self.x0, self.y0 = x0, y0
        self.y1 = y1

    def pt(self, xy) -> tuple[float, float]:
        sx = MARGIN + (float(xy[0]) - self.x0) * self.scale
        sy = MARGIN + (self.y1 - float(xy[1])) * self.scale
        return round(sx, 2), round(sy, 2)


def _color(value: float, lo: float, hi: float) -> str:
    """Value-graded color from cold (low) to warm (high)."""
    if hi <= lo:
        t = 0.5
    else:
        t = (value - lo) / (hi - lo)
    r = int(40 + 200 * t)
    b = int(240 - 200 * t)
    return f"rgb({r},60,{b})"


def _split_segments(chart, points: np.ndarray) -> list[np.ndarray]:
    """Canonicalize a polyline and break it where it crosses the gluing seam."""
    if chart.deck is None:
        return [points]
    period = chart.deck.period
    canon = deck_reduce(chart, points)
    pieces = []
    start = 0
    for i in range(1, len(canon)):
        if abs(canon[i, 0] - canon[i - 1, 0]) > 0.5 * period:
            pieces.append(canon[start:i])
            start = i
    pieces.append(canon[start:])
    return [p for p in pieces if len(p) >= 2]


def _polyline(mapper: _Mapper, piece: np.ndarray, style: str) -> str:
    """A polyline through every step-th point of piece, step = len // 300 (at
    least 1), and its last point, so that a loop closes and an orbit ends at
    its sink."""
    step = max(1, len(piece) // 300)
    rows = np.unique(np.r_[0:len(piece):step, len(piece) - 1])
    coords = " ".join(f"{x},{y}" for x, y in (mapper.pt(p) for p in piece[rows]))
    return f'<polyline points="{coords}" fill="none" {style}/>'


def render(entry, package, path: str) -> None:
    """Write the flow portrait of a two-dimensional analysis to an SVG file."""
    chart = entry.chart
    if chart.dim != 2:
        raise ValueError("portraits are only drawn for two-dimensional entries")
    mapper = _Mapper(chart)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{int(VIEW)}" height="{int(VIEW)}" '
        f'viewBox="0 0 {int(VIEW)} {int(VIEW)}">',
        f'<rect width="{int(VIEW)}" height="{int(VIEW)}" fill="white"/>',
    ]

    # the analysis's wall trace, loop by loop, each closed; on a strip the
    # closing segment crosses the seam, where `_split_segments` drops it
    for loop in np.split(package.sample.wall, package.sample.ends[:-1]):
        for piece in _split_segments(chart, np.concatenate([loop, loop[:1]])):
            parts.append(_polyline(mapper, piece, 'stroke="black" stroke-width="2"'))
    if chart.deck is not None:
        # the seams u = 0 and u = period
        (u0, u1), (v0, v1) = chart.box
        for p, q in ((mapper.pt((u0, v0)), mapper.pt((u0, v1))),
                     (mapper.pt((u1, v0)), mapper.pt((u1, v1)))):
            parts.append(f'<line x1="{p[0]}" y1="{p[1]}" x2="{q[0]}" y2="{q[1]}" '
                         f'stroke="gray" stroke-width="1" stroke-dasharray="6,4"/>')

    values = [cp.value for cp in package.crit.points]
    lo, hi = min(values), max(values)
    for side, style in (("N", "none"), ("D", "4,3")):
        for inc in package.incidences[side].values():
            for orbit in inc.orbits:
                # f, not the side's objective: the D side descends -f
                color = _color(float(entry.field.value(orbit.trajectory.points[0])),
                               lo, hi)
                dash = "" if style == "none" else f' stroke-dasharray="{style}"'
                for piece in _split_segments(chart, orbit.trajectory.points):
                    parts.append(_polyline(mapper, piece,
                                           f'stroke="{color}" stroke-width="1.5"{dash}'))
                mid = orbit.trajectory.points[len(orbit.trajectory.points) // 2]
                mx, my = mapper.pt(_split_segments(chart, np.array([mid, mid]))[0][0])
                label = "+" if orbit.sign > 0 else "−"
                parts.append(f'<text x="{mx + 4}" y="{my - 4}" font-size="16" '
                             f'fill="black">{label}</text>')

    for cp in package.crit.points:
        x, y = mapper.pt(cp.coords)
        if cp.kind == BOUNDARY_N:
            parts.append(f'<circle cx="{x}" cy="{y}" r="7" fill="#1f6f1f" '
                         f'stroke="black"/>')
        elif cp.kind == BOUNDARY_D:
            parts.append(f'<rect x="{x - 6}" y="{y - 6}" width="12" height="12" '
                         f'fill="white" stroke="#8b2020" stroke-width="2"/>')
        else:
            parts.append(f'<polygon points="{x},{y - 8} {x + 8},{y} {x},{y + 8} '
                         f'{x - 8},{y}" fill="#27408b" stroke="black"/>')
        letter = {BOUNDARY_N: "N", BOUNDARY_D: "D"}.get(cp.kind, "C")
        parts.append(f'<text x="{x + 9}" y="{y + 14}" font-size="13" '
                     f'fill="black">{cp.id}:{letter}{cp.grading}</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(parts) + "\n")
