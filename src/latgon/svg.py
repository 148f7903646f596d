"""Deterministic SVG 1.1 rendering of polygons, lattices, and reduction traces.

Coordinates are integers end to end: the world box is padded by one lattice
unit and scaled by a fixed pixel factor, with the y axis flipped for screen
orientation.  Segments that split the drawn polygon come out thick, the other
defining segments thin, and forbidden lines dotted.
"""

from __future__ import annotations

from .lattice import Lattice2, contains, scaled_lattice
from .polygon import LatticePolygon, splits_by_segment, transform
from .typeclass import ReductionTrace, defining_geometry

SCALE = 24


def _panel(P: LatticePolygon, lattice: Lattice2 | None, tag: str | None,
           n: int | None, caption: str) -> tuple[list[str], int, int]:
    """Render one panel; returns (svg fragments, width, height) in pixels."""
    segs, lines = defining_geometry(tag, n) if tag and n else ((), ())
    xs = [v[0] for v in P.vertices] + [s.a[0] for s in segs] + [s.b[0] for s in segs]
    ys = [v[1] for v in P.vertices] + [s.a[1] for s in segs] + [s.b[1] for s in segs]
    for axis, c in lines:  # x = c for axis 0, y = c for axis 1
        (ys if axis else xs).append(c)
    if n:
        xs.append(0)
        ys.append(0)
    wx0, wx1 = min(xs) - 1, max(xs) + 1
    wy0, wy1 = min(ys) - 1, max(ys) + 1

    def sx(x: int) -> int:
        return SCALE * (x - wx0)

    def sy(y: int) -> int:
        return SCALE * (wy1 - y)

    width = SCALE * (wx1 - wx0)
    height = SCALE * (wy1 - wy0) + 20  # caption strip
    out: list[str] = []
    # Background integer grid.
    for x in range(wx0, wx1 + 1):
        for y in range(wy0, wy1 + 1):
            out.append(
                f'<circle cx="{sx(x)}" cy="{sy(y)}" r="1" fill="#c8c8c8"/>'
            )
    # Forbidden lines, dotted.
    for axis, c in lines:
        if axis == 0:
            out.append(
                f'<line x1="{sx(c)}" y1="{sy(wy0)}" x2="{sx(c)}" y2="{sy(wy1)}" '
                f'stroke="#888888" stroke-width="2" stroke-dasharray="3,5"/>'
            )
        else:
            out.append(
                f'<line x1="{sx(wx0)}" y1="{sy(c)}" x2="{sx(wx1)}" y2="{sy(c)}" '
                f'stroke="#888888" stroke-width="2" stroke-dasharray="3,5"/>'
            )
    # The polygon.
    pts = " ".join(f"{sx(x)},{sy(y)}" for x, y in P.vertices)
    out.append(
        f'<polygon points="{pts}" fill="#9db8dd" fill-opacity="0.45" '
        f'stroke="#1f3d66" stroke-width="2"/>'
    )
    # Defining segments: thick when splitting, thin otherwise.
    for seg in segs:
        wide = 5 if splits_by_segment(P, seg) else 2
        out.append(
            f'<line x1="{sx(seg.a[0])}" y1="{sy(seg.a[1])}" '
            f'x2="{sx(seg.b[0])}" y2="{sy(seg.b[1])}" '
            f'stroke="#111111" stroke-width="{wide}" stroke-linecap="round"/>'
        )
    # Lattice dots on top.
    if lattice is not None:
        for x in range(wx0, wx1 + 1):
            for y in range(wy0, wy1 + 1):
                if contains(lattice, (x, y)):
                    out.append(
                        f'<circle cx="{sx(x)}" cy="{sy(y)}" r="4" '
                        f'fill="#b03030"/>'
                    )
    out.append(
        f'<text x="4" y="{height - 6}" font-family="monospace" '
        f'font-size="12" fill="#333333">{caption}</text>'
    )
    return out, width, height


def _document(panels: list[tuple[list[str], int, int]]) -> str:
    gap = 16
    total_w = sum(w for _, w, _ in panels) + gap * (len(panels) - 1)
    total_h = max(h for _, _, h in panels)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{total_w}" height="{total_h}" '
        f'viewBox="0 0 {total_w} {total_h}">',
        f'<rect width="{total_w}" height="{total_h}" fill="#ffffff"/>',
    ]
    offset = 0
    for frags, w, _h in panels:
        parts.append(f'<g transform="translate({offset},0)">')
        parts.extend(frags)
        parts.append("</g>")
        offset += w + gap
    parts.append("</svg>")
    return "\n".join(parts)


def render_polygon_svg(P: LatticePolygon, n: int | None = None,
                       tag: str | None = None,
                       lattice: Lattice2 | None = None) -> str:
    """A single-panel SVG of the polygon, optionally with type decorations."""
    if lattice is None and n:
        lattice = scaled_lattice(n)
    caption = f"type {tag}, n={n}" if tag else (f"n={n}" if n else "polygon")
    return _document([_panel(P, lattice, tag, n, caption)])


def render_trace_svg(trace: ReductionTrace) -> str:
    """A multi-panel SVG: the source polygon, then the state after each step."""
    lattice = scaled_lattice(trace.n)
    panels = [_panel(trace.source, lattice, None, trace.n, "source")]
    cur = trace.source
    for i, step in enumerate(trace.steps, start=1):
        cur = transform(cur, step.map)
        label = step.label if step.shear is None else f"{step.label} a={step.shear}"
        tag = None
        if i == len(trace.steps):
            tag = trace.result_type.tag
            label = f"{label} -> {tag}"
        panels.append(_panel(cur, lattice, tag, trace.n, f"{i}: {label}"))
    return _document(panels)
