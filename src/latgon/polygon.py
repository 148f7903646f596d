"""Convex lattice polygons with exact integer predicates.

A polygon is stored as the canonical tuple of its vertices: strictly convex
(no three collinear), counterclockwise, starting at the lexicographically
smallest vertex.  Chord endpoints are compared by integer cross-multiplication;
nothing here touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .lattice import AffineMap, Lattice2, Vec, contains

#: Integer line a*x + b*y = c, stored as (a, b, c) with (a, b) != (0, 0).
Line = tuple[int, int, int]


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

    def line(self) -> Line:
        """The supporting line as integer coefficients (a, b, c)."""
        dx = self.b[0] - self.a[0]
        dy = self.b[1] - self.a[1]
        return (-dy, dx, -dy * self.a[0] + dx * self.a[1])


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
        n = len(vs)
        for i in range(n):
            if _cross(vs[i], vs[(i + 1) % n], vs[(i + 2) % n]) <= 0:
                raise ValueError(
                    "vertices must be strictly convex counterclockwise: "
                    f"{vs[i]}, {vs[(i + 1) % n]}, {vs[(i + 2) % n]}"
                )

    def __len__(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[tuple[Vec, Vec]]:
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    def bounding_box(self) -> tuple[int, int, int, int]:
        """(x_min, x_max, y_min, y_max)."""
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return (min(xs), max(xs), min(ys), max(ys))

    def translate(self, shift: Vec) -> "LatticePolygon":
        dx, dy = shift
        return _trusted(tuple((x + dx, y + dy) for x, y in self.vertices))

    def __str__(self) -> str:
        return "Polygon[" + ", ".join(map(str, self.vertices)) + "]"


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


@dataclass(frozen=True)
class CardinalProfile:
    """Extremes of a polygon and the marker points on its extreme lines.

    north/south/west/east are the extreme coordinate values.  For each
    extreme line the lo/hi pair gives the smallest and largest value of the
    *other* coordinate attained on that line; the pair collapses to a single
    point exactly when the corresponding duplication flag m_k is 0.
    Flag order follows the compass walk: m1 south, m2 east, m3 north, m4 west.
    """

    north: int
    south: int
    west: int
    east: int
    south_lo: int
    south_hi: int
    east_lo: int
    east_hi: int
    north_lo: int
    north_hi: int
    west_lo: int
    west_hi: int

    @property
    def m1(self) -> int:
        return 0 if self.south_lo == self.south_hi else 1

    @property
    def m2(self) -> int:
        return 0 if self.east_lo == self.east_hi else 1

    @property
    def m3(self) -> int:
        return 0 if self.north_lo == self.north_hi else 1

    @property
    def m4(self) -> int:
        return 0 if self.west_lo == self.west_hi else 1


def cardinal_profile(P: LatticePolygon) -> CardinalProfile:
    xs = [v[0] for v in P.vertices]
    ys = [v[1] for v in P.vertices]
    north, south = max(ys), min(ys)
    west, east = min(xs), max(xs)
    on_south = [x for x, y in P.vertices if y == south]
    on_north = [x for x, y in P.vertices if y == north]
    on_west = [y for x, y in P.vertices if x == west]
    on_east = [y for x, y in P.vertices if x == east]
    return CardinalProfile(
        north=north, south=south, west=west, east=east,
        south_lo=min(on_south), south_hi=max(on_south),
        east_lo=min(on_east), east_hi=max(on_east),
        north_lo=min(on_north), north_hi=max(on_north),
        west_lo=min(on_west), west_hi=max(on_west),
    )


def contains_point(P: LatticePolygon, point: Vec) -> str:
    """Exact location of an integer point: 'interior', 'boundary', 'outside'."""
    on_edge = False
    vs = P.vertices
    n = len(vs)
    for i in range(n):
        c = _cross(vs[i], vs[(i + 1) % n], point)
        if c < 0:
            return "outside"
        if c == 0:
            on_edge = True
    return "boundary" if on_edge else "interior"


def line_side_range(P: LatticePolygon, line: Line) -> tuple[int, int]:
    """Range (min, max) of a*x + b*y - c over the vertices."""
    a, b, c = line
    if a == 0 and b == 0:
        raise ValueError("degenerate line")
    vals = [a * x + b * y - c for x, y in P.vertices]
    return min(vals), max(vals)


def splits_by_line(P: LatticePolygon, line: Line) -> bool:
    """True iff the polygon has vertices strictly on both sides of the line."""
    lo, hi = line_side_range(P, line)
    return lo < 0 < hi


def meets_line(P: LatticePolygon, line: Line) -> bool:
    """True iff the polygon (including its boundary) meets the line."""
    lo, hi = line_side_range(P, line)
    return lo <= 0 <= hi


def _chord_params(P: LatticePolygon, a: Vec, d: Vec) -> list[tuple[int, int]] | None:
    """Chord P ∩ {a + t*d} as parameters t = num/den with den > 0.

    None when the line does not split P.  Otherwise the list holds t for each
    vertex on the line and for each edge crossing it strictly, so its minimum
    and maximum are the chord's endpoints.  With s the signed distance from
    the line and w the projection on d (both scaled by |d|), an edge crossing
    from (s0, w0) to (s1, w1) meets the line at t = (s0*w1 - s1*w0) /
    (|d|^2 * (s0 - s1)).
    """
    dx, dy = d
    ax, ay = a
    dd = dx * dx + dy * dy
    sides = []
    dots = []
    for x, y in P.vertices:
        rx, ry = x - ax, y - ay
        sides.append(dx * ry - dy * rx)
        dots.append(dx * rx + dy * ry)
    if not min(sides) < 0 < max(sides):
        return None
    params = []
    s0, w0 = sides[-1], dots[-1]
    for s1, w1 in zip(sides, dots):
        if s1 == 0:
            params.append((w1, dd))
        elif s0 > 0 > s1:
            params.append((s0 * w1 - s1 * w0, dd * (s0 - s1)))
        elif s0 < 0 < s1:
            params.append((s1 * w0 - s0 * w1, dd * (s1 - s0)))
        s0, w0 = s1, w1
    return params


def splits_by_segment(P: LatticePolygon, seg: Segment) -> bool:
    """True iff the segment's line splits P and the chord lies inside the segment.

    The chord P ∩ line is located exactly by integer cross-multiplication;
    the test is containment of the closed chord in the closed segment.
    """
    d = (seg.b[0] - seg.a[0], seg.b[1] - seg.a[1])
    chord = _chord_params(P, seg.a, d)
    return chord is not None and all(0 <= num <= den for num, den in chord)


def splits_by_ray(P: LatticePolygon, origin: Vec, direction: Vec) -> bool:
    """Like splits_by_segment for the half-line origin + t*direction, t >= 0."""
    if direction == (0, 0):
        raise ValueError("zero direction")
    chord = _chord_params(P, origin, direction)
    return chord is not None and all(num >= 0 for num, _den in chord)


def _points_of(P: LatticePolygon, L: Lattice2):
    """Points of L inside or on the polygon, column by column (x, then y)."""
    x_min, x_max, y_min, y_max = P.bounding_box()
    p, q, r = L.p, L.q, L.r
    i = -(-x_min // p)  # first i with i*p >= x_min
    while i * p <= x_max:
        x = i * p
        y0 = i * q
        y = y0 + -((y0 - y_min) // r) * r  # first y >= y_min in the class
        while y <= y_max:
            if contains_point(P, (x, y)) != "outside":
                yield (x, y)
            y += r
        i += 1


def is_free_of(P: LatticePolygon, L: Lattice2) -> bool:
    """True iff no point of L lies in the polygon, boundary included."""
    return next(_points_of(P, L), None) is None


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


def is_minimal(P: LatticePolygon) -> bool:
    """True iff every edge vector is primitive (no interior boundary points)."""
    for (x0, y0), (x1, y1) in P.edges():
        if gcd(abs(x1 - x0), abs(y1 - y0)) != 1:
            return False
    return True


def transform(P: LatticePolygon, m: AffineMap) -> LatticePolygon:
    """Image polygon under an affine unimodular map, re-canonicalized.

    A unimodular map keeps the polygon strictly convex; it reverses the
    orientation exactly when its determinant is -1.  So reversing the image
    in that case and rotating it to its least vertex gives the canonical
    form, and the convexity check is skipped.
    """
    (a, b), (c, d) = m.linear.rows
    sx, sy = m.shift
    vs = [(a * x + b * y + sx, c * x + d * y + sy) for x, y in P.vertices]
    if a * d - b * c < 0:
        vs.reverse()
    k = vs.index(min(vs))
    return _trusted(tuple(vs[k:] + vs[:k]))


def lattice_points_in(P: LatticePolygon, L: Lattice2) -> list[Vec]:
    """All points of L inside or on the polygon, in scan order."""
    return list(_points_of(P, L))
