"""Convex lattice polygons with exact integer predicates.

A polygon is stored as the canonical tuple of its vertices: strictly convex
(no three collinear), counterclockwise, starting at the lexicographically
smallest vertex.  Chord endpoints are compared by integer cross-multiplication;
nothing here touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .lattice import AffineMap, Lattice2, Vec


def _cross(o: Vec, a: Vec, b: Vec) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@dataclass(frozen=True)
class Segment:
    """Closed segment between two distinct integer points."""

    a: Vec
    b: Vec

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError(f"degenerate segment at {self.a}")


@dataclass(frozen=True)
class LatticePolygon:
    """Strictly convex integer polygon in canonical vertex order."""

    vertices: tuple[Vec, ...]

    def __post_init__(self) -> None:
        vs = self.vertices
        if len(vs) < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        if min(vs) != vs[0]:
            raise ValueError("vertices must start at the lexicographic minimum")
        # One pass over the edge vectors.  Each turn (vs[i], vs[i+1],
        # vs[i+2]), cyclically in order of i, must be strictly to the left,
        # and the error names the first that is not.  Left turns alone also
        # admit cycles that wind around more than once, such as a pentagram.
        # Started at the least vertex, a cycle that winds once has edges
        # with dx >= 0 and then edges with dx <= 0, so it turns from west
        # back to east once, at the wrap to the first edge; one that winds
        # more turns back before that.
        (bx, by), (cx, cy) = vs[0], vs[1]
        ux, uy = cx - bx, cy - by
        westward, eastings = False, 0
        for dx, dy in vs[2:] + vs[:2]:
            vx, vy = dx - cx, dy - cy
            if ux * vy - uy * vx <= 0:
                raise ValueError(
                    "vertices must be strictly convex counterclockwise: "
                    f"{(cx - ux, cy - uy)}, {(cx, cy)}, {(dx, dy)}"
                )
            if vx < 0:
                westward = True
            elif vx > 0 and westward:
                westward = False
                eastings += 1
            cx, cy, ux, uy = dx, dy, vx, vy
        if eastings > 1:
            raise ValueError(
                "vertices must be strictly convex counterclockwise: "
                "the cycle winds around more than once")

    def __len__(self) -> int:
        return len(self.vertices)

    def bounding_box(self) -> tuple[int, int, int, int]:
        """(x_min, x_max, y_min, y_max)."""
        return _box(self.vertices)

    def __str__(self) -> str:
        return "Polygon[" + ", ".join(map(str, self.vertices)) + "]"


def _box(vs: tuple[Vec, ...]) -> tuple[int, int, int, int]:
    """(x_min, x_max, y_min, y_max) of vertices in canonical order, whose
    first vertex is the least, so its x is the least x."""
    ys = [y for _x, y in vs]
    return vs[0][0], max(vs)[0], min(ys), max(ys)


def _trusted(vertices: tuple[Vec, ...]) -> LatticePolygon:
    """A polygon from vertices already in canonical order, left unchecked.

    Only for images of a polygon under a unimodular affine map, which are
    strictly convex again; the caller puts the vertices in canonical order.
    """
    P = object.__new__(LatticePolygon)
    object.__setattr__(P, "vertices", vertices)
    return P


def from_points(points) -> LatticePolygon:
    """Convex hull with collinear points dropped, in canonical order.

    Raises ValueError unless the hull has at least 3 vertices and positive
    area (i.e. the input is not empty, a point, or collinear).
    """
    pts = sorted({(int(x), int(y)) for x, y in points})
    if len(pts) < 3:
        raise ValueError(f"need at least 3 distinct points, got {len(pts)}")
    lower: list[Vec] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Vec] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise ValueError("points are collinear")
    return LatticePolygon(tuple(hull))


def contains_point(P: LatticePolygon, point: Vec) -> str:
    """Exact location of an integer point: 'interior', 'boundary', 'outside'."""
    px, py = point
    on_edge = False
    ax, ay = P.vertices[-1]
    for bx, by in P.vertices:
        c = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        if c < 0:
            return "outside"
        if c == 0:
            on_edge = True
        ax, ay = bx, by
    return "boundary" if on_edge else "interior"


def _chord_within(P: LatticePolygon, a: Vec, d: Vec) -> bool:
    """True iff the line a + t*d splits P and its chord lies at 0 <= t <= 1.

    One pass computes each vertex's side s = cross(d, v - a).  A vertex on
    the line is a chord endpoint at t = w / |d|^2, w the projection of v - a
    on d; an edge crossing the line strictly meets it at t = cross(v0 - a,
    v1 - a) / (s1 - s0).  Each endpoint is compared by cross-multiplication
    as it is met, and the first one out of range ends the pass.
    """
    dx, dy = d
    ax, ay = a
    c = dx * ay - dy * ax
    neg = pos = False
    x0, y0 = P.vertices[-1]
    s0 = dx * y0 - dy * x0 - c
    for x1, y1 in P.vertices:
        s1 = dx * y1 - dy * x1 - c
        if s1 == 0:
            w = dx * (x1 - ax) + dy * (y1 - ay)
            if w < 0 or w > dx * dx + dy * dy:
                return False
        elif s1 < 0:
            neg = True
            if s0 > 0:
                num = (x1 - ax) * (y0 - ay) - (x0 - ax) * (y1 - ay)
                if num < 0 or num > s0 - s1:
                    return False
        else:
            pos = True
            if s0 < 0:
                num = (x0 - ax) * (y1 - ay) - (x1 - ax) * (y0 - ay)
                if num < 0 or num > s1 - s0:
                    return False
        x0, y0, s0 = x1, y1, s1
    return neg and pos


def splits_by_segment(P: LatticePolygon, seg: Segment) -> bool:
    """True iff the segment's line splits P and the chord lies inside the segment.

    The chord P ∩ line is located exactly by integer cross-multiplication in
    one pass over the vertices; the test is containment of the closed chord
    in the closed segment.
    """
    d = (seg.b[0] - seg.a[0], seg.b[1] - seg.a[1])
    return _chord_within(P, seg.a, d)


def is_free_of(P: LatticePolygon, L: Lattice2) -> bool:
    """True iff no point of L lies in the polygon, boundary included.

    The polygon is walked column by column, east, and the walk stops at the
    first point of L.  On each lattice column x = i*p the polygon is an
    exact interval [lo, hi], and the class y = i*q (mod r) is read off it.
    The polygon is counterclockwise from vertices[0], its lexicographically
    least vertex, so its lower chain runs east from there forwards, up to
    the first vertex that is not east of the one before, and its upper chain
    runs east from there backwards (past a vertical west edge).  Each column
    takes the edge of either chain that spans it: lo is the ceiling of the
    lower edge's height at x and hi the floor of the upper edge's, both by
    integer floor division.  Columns go east, so each chain is walked once.
    """
    vs = P.vertices
    p, q, r = L.p, L.q, L.r
    lax, lay = vs[0]
    i = -(-lax // p)  # first i with i*p >= x_min
    x, iq = i * p, i * q
    up = -1 if vs[-1][0] == lax else 0
    (uax, uay), (ubx, uby) = vs[up], vs[up - 1]
    for lbx, lby in vs[1:]:
        if lbx <= lax:
            break
        while x <= lbx:
            while ubx < x:
                up -= 1
                uax, uay, (ubx, uby) = ubx, uby, vs[up - 1]
            lo = lay - (lay - lby) * (x - lax) // (lbx - lax)
            hi = uay + (uby - uay) * (x - uax) // (ubx - uax)
            y = lo + (iq - lo) % r  # first y >= lo in the class
            if y <= hi:
                return False
            x += p
            iq += q
        lax, lay = lbx, lby
    return True


def area2_and_pick(P: LatticePolygon) -> tuple[int, int, int]:
    """(twice the area, interior point count, boundary point count).

    The area comes from the shoelace sum and the boundary count from edge
    gcds; the interior count is an independent scan of the bounding box, so
    the three values can be cross-checked against each other.
    """
    vs = P.vertices
    n = len(vs)
    area2 = 0
    boundary = 0
    for i in range(n):
        x0, y0 = vs[i]
        x1, y1 = vs[(i + 1) % n]
        area2 += x0 * y1 - x1 * y0
        boundary += gcd(abs(x1 - x0), abs(y1 - y0))
    x_min, x_max, y_min, y_max = P.bounding_box()
    interior = 0
    for x in range(x_min + 1, x_max):
        for y in range(y_min + 1, y_max):
            if contains_point(P, (x, y)) == "interior":
                interior += 1
    return area2, interior, boundary


def _image(vs: tuple[Vec, ...], a: int, b: int, c: int, d: int, sx: int,
           sy: int) -> tuple[Vec, ...]:
    """Canonical vertices of the image of canonical vertices `vs` under
    (x, y) -> (a*x + b*y + sx, c*x + d*y + sy), a unimodular affine map.

    A unimodular map keeps the polygon strictly convex; it reverses the
    orientation exactly when its determinant is -1.  So reversing the image
    in that case and rotating it to its least vertex gives the canonical
    form, and the convexity check is skipped.
    """
    img = [(a * x + b * y + sx, c * x + d * y + sy) for x, y in vs]
    if a * d - b * c < 0:
        img.reverse()
    k = img.index(min(img))
    return tuple(img[k:] + img[:k])


def transform(P: LatticePolygon, m: AffineMap) -> LatticePolygon:
    """Image polygon under an affine unimodular map, re-canonicalized."""
    (a, b), (c, d) = m.linear.rows
    return _trusted(_image(P.vertices, a, b, c, d, *m.shift))

