"""Convex polygon construction, predicates, counts, and transforms."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    box_scan_oracle,
    classify_point_oracle,
    hull_oracle,
    random_polygon,
    side_range,
)
from latgon import (
    AffineMap,
    Lattice2,
    LatticePolygon,
    SearchRegion,
    Segment,
    UnimodularMap,
    area2_and_pick,
    cardinal_profile,
    contains,
    contains_point,
    enumerate_convex_polygons,
    from_points,
    is_free_of,
    scaled_lattice,
    splits_by_ray,
    splits_by_segment,
    transform,
)

TRIANGLE = from_points([(-2, -1), (-1, 2), (1, 1)])
DIAMOND = from_points([(0, 1), (1, 0), (2, 1), (1, 2)])


def clip_halfplane(pts, a, b, c):
    """Exact Sutherland-Hodgman clip of a convex cycle to a*x + b*y >= c."""
    out = []
    k = len(pts)
    for i in range(k):
        p, q = pts[i], pts[(i + 1) % k]
        sp = a * p[0] + b * p[1] - c
        sq = a * q[0] + b * q[1] - c
        if sp >= 0:
            out.append(p)
        if sp > 0 > sq or sp < 0 < sq:
            t = Fraction(sp, sp - sq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def meets_quadrant(P, o, sx, sy):
    """True iff P meets the closed quadrant at o with signs (sx, sy)."""
    pts = clip_halfplane(list(P.vertices), sx, 0, sx * o[0])
    if not pts:
        return False
    return bool(clip_halfplane(pts, 0, sy, sy * o[1]))


# ---------------------------------------------------------------------------
# Construction


def test_from_points_triangle():
    P = from_points([(0, 0), (1, 0), (0, 1)])
    assert P.vertices == ((0, 0), (1, 0), (0, 1))


def test_from_points_drops_edge_point():
    P = from_points([(0, 0), (2, 0), (1, 0), (0, 2)])
    assert P.vertices == ((0, 0), (2, 0), (0, 2))


def test_from_points_drops_interior_point():
    P = from_points([(0, 1), (1, 0), (2, 1), (1, 2), (1, 1)])
    assert P == DIAMOND
    assert len(P) == 4


@pytest.mark.parametrize("points", [
    [],
    [(0, 0)],
    [(0, 0), (3, 1)],
    [(0, 0), (1, 1), (2, 2), (5, 5)],
])
def test_from_points_rejects_degenerate(points):
    with pytest.raises(ValueError):
        from_points(points)


def test_from_points_idempotent_on_vertices():
    for P in (TRIANGLE, DIAMOND):
        assert from_points(P.vertices) == P


@pytest.mark.parametrize("vertices", [
    ((0, 0), (0, 1), (1, 0)),          # clockwise
    ((1, 0), (0, 1), (0, 0)),          # not starting at the lex minimum
    ((0, 0), (1, 0), (2, 0), (0, 1)),  # collinear run
])
def test_polygon_rejects_non_canonical(vertices):
    with pytest.raises(ValueError):
        LatticePolygon(vertices)


def reference_convexity_error(vs):
    """The message of the first triple (vs[i], vs[i+1], vs[i+2]) that is not
    strictly convex counterclockwise, scanning i = 0, 1, ..., or None."""
    n = len(vs)
    for i in range(n):
        a, b, c = vs[i], vs[(i + 1) % n], vs[(i + 2) % n]
        if (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) <= 0:
            return ("vertices must be strictly convex counterclockwise: "
                    f"{a}, {b}, {c}")
    return None


def _from_least(vs):
    k = vs.index(min(vs))
    return tuple(vs[k:] + vs[:k])


def test_polygon_convexity_error_names_first_failing_triple(rng):
    """Clockwise, collinear and non-convex vertex cycles, each started at its
    least vertex, raise the message of the first failing triple."""
    kinds = {"clockwise": 0, "collinear": 0, "non-convex": 0}
    for _ in range(600):
        vs = list(random_polygon(rng, max_points=9).vertices)
        kind = rng.choice(sorted(kinds))
        if kind == "clockwise":
            vs.reverse()
        elif kind == "collinear":
            i = rng.randrange(len(vs))
            (x0, y0), (x1, y1) = vs[i - 1], vs[i]
            vs.insert(i, (2 * x1 - x0, 2 * y1 - y0) if rng.random() < 0.5
                      else (x0 + x1, y0 + y1))
        else:
            i, j = rng.sample(range(len(vs)), 2)
            vs[i], vs[j] = vs[j], vs[i]
        vs = _from_least(vs)
        expected = reference_convexity_error(vs)
        if expected is None:
            assert LatticePolygon(vs).vertices == vs
            continue
        kinds[kind] += 1
        with pytest.raises(ValueError) as exc:
            LatticePolygon(vs)
        assert str(exc.value) == expected
    assert min(kinds.values()) > 100, kinds


#: Every turn is to the left, but the cycle winds around twice.
PENTAGRAM = ((-1, 2), (3, 0), (2, 4), (0, 0), (4, 2))


def test_polygon_rejects_a_cycle_that_winds_twice():
    assert reference_convexity_error(PENTAGRAM) is None
    with pytest.raises(ValueError, match="winds around more than once"):
        LatticePolygon(PENTAGRAM)


def _accepted(vs):
    try:
        LatticePolygon(vs)
    except ValueError:
        return False
    return True


def _is_own_hull(vs):
    try:
        return from_points(vs).vertices == vs
    except ValueError:
        return False


def test_polygon_accepts_exactly_its_own_hull(rng):
    """A vertex cycle started at its least vertex is accepted exactly when
    it equals from_points of its own points.  The cycles are convex hulls,
    their reversals and shuffles, star orderings of them (every k-th vertex
    with 2k < m: each turn is to the left, and the cycle winds k times), and
    random points in random order, repeats included."""
    counts = Counter()
    for _ in range(20_000):
        hull = list(random_polygon(rng, max_points=14).vertices)
        m = len(hull)
        kind = rng.choice(("hull", "reversed", "shuffled", "star", "points"))
        steps = [k for k in range(2, (m + 1) // 2) if gcd(k, m) == 1]
        if kind == "star" and steps:
            k = rng.choice(steps)
            vs = [hull[i * k % m] for i in range(m)]
        elif kind == "reversed":
            vs = hull[::-1]
        elif kind == "shuffled":
            vs = rng.sample(hull, m)
        elif kind == "points":
            vs = [(rng.randint(-3, 3), rng.randint(-3, 3))
                  for _ in range(rng.randint(3, 8))]
        else:
            vs = hull
        vs = _from_least(vs)
        expected = _is_own_hull(vs)
        assert _accepted(vs) is expected, vs
        counts[kind, expected] += 1
    assert counts["hull", True] > 3000, counts
    assert counts["star", False] > 1000, counts
    assert counts["shuffled", False] > 1000, counts
    assert counts["points", False] > 1000, counts


@given(st.lists(st.tuples(st.integers(-7, 7), st.integers(-7, 7)),
                min_size=3, max_size=12))
def test_from_points_matches_gift_wrapping(points):
    expected = hull_oracle(points)
    if expected is None:
        with pytest.raises(ValueError):
            from_points(points)
    else:
        assert from_points(points).vertices == expected


def test_polygon_helpers():
    assert TRIANGLE.bounding_box() == (-2, 1, -1, 2)
    assert len(TRIANGLE) == 3


# ---------------------------------------------------------------------------
# Cardinal extremes


def test_cardinal_profile_square():
    c = cardinal_profile(from_points([(1, 1), (2, 1), (2, 2), (1, 2)]))
    assert (c.north, c.south, c.west, c.east) == (2, 1, 1, 2)
    assert (c.m1, c.m2, c.m3, c.m4) == (1, 1, 1, 1)


def test_cardinal_profile_tilted_triangle():
    c = cardinal_profile(from_points([(0, 0), (2, 1), (1, 2)]))
    assert (c.north, c.south) == (2, 0)
    assert c.north_lo == c.north_hi == 1
    assert c.south_lo == c.south_hi == 0
    assert (c.m1, c.m2, c.m3, c.m4) == (0, 0, 0, 0)


def test_cardinal_profile_axis_triangle():
    c = cardinal_profile(from_points([(0, 0), (3, 0), (0, 3)]))
    assert (c.south_lo, c.south_hi) == (0, 3)
    assert (c.west_lo, c.west_hi) == (0, 3)
    assert (c.m1, c.m2, c.m3, c.m4) == (1, 0, 0, 1)


def test_cardinal_profile_against_point_scan(rng):
    for _ in range(60):
        P = random_polygon(rng)
        pts = box_scan_oracle(P, Lattice2(1, 0, 1))
        c = cardinal_profile(P)
        assert c.north == max(y for _, y in pts)
        assert c.south == min(y for _, y in pts)
        assert c.west == min(x for x, _ in pts)
        assert c.east == max(x for x, _ in pts)
        assert c.north_lo == min(x for x, y in pts if y == c.north)
        assert c.north_hi == max(x for x, y in pts if y == c.north)
        assert c.south_lo == min(x for x, y in pts if y == c.south)
        assert c.south_hi == max(x for x, y in pts if y == c.south)
        assert c.east_lo == min(y for x, y in pts if x == c.east)
        assert c.east_hi == max(y for x, y in pts if x == c.east)
        assert c.west_lo == min(y for x, y in pts if x == c.west)
        assert c.west_hi == max(y for x, y in pts if x == c.west)
        extremes = {(c.south_lo, c.south), (c.south_hi, c.south),
                    (c.north_lo, c.north), (c.north_hi, c.north),
                    (c.east, c.east_lo), (c.east, c.east_hi),
                    (c.west, c.west_lo), (c.west, c.west_hi)}
        assert extremes <= set(P.vertices)


# ---------------------------------------------------------------------------
# Containment


@pytest.mark.parametrize("point, expected", [
    ((1, 1), "interior"),
    ((0, 1), "boundary"),
    ((3, 3), "outside"),
    ((0, 0), "boundary"),
    ((2, 2), "boundary"),
    ((-1, 0), "outside"),
])
def test_contains_point_square(point, expected):
    square = from_points([(0, 0), (2, 0), (2, 2), (0, 2)])
    assert contains_point(square, point) == expected


def test_contains_point_random(rng):
    for _ in range(50):
        P = random_polygon(rng)
        for _ in range(30):
            p = (rng.randint(-10, 10), rng.randint(-10, 10))
            assert contains_point(P, p) == classify_point_oracle(P.vertices, p)


def test_contains_point_on_vertices_and_boundary(rng):
    """Every point of the bounding box, grown by one, of random polygons:
    vertices and edge points included."""
    where = {"interior": 0, "boundary": 0, "outside": 0}
    for _ in range(60):
        P = random_polygon(rng, lo=-5, hi=5)
        x_min, x_max, y_min, y_max = P.bounding_box()
        for v in P.vertices:
            assert contains_point(P, v) == "boundary"
        for x in range(x_min - 1, x_max + 2):
            for y in range(y_min - 1, y_max + 2):
                got = contains_point(P, (x, y))
                assert got == classify_point_oracle(P.vertices, (x, y))
                where[got] += 1
    assert min(where.values()) > 300, where


# ---------------------------------------------------------------------------
# Lines and splitting


def test_splits_by_segment_chords():
    assert splits_by_segment(TRIANGLE, Segment((0, 0), (-3, 0)))
    assert splits_by_segment(TRIANGLE, Segment((0, 0), (0, 3)))
    # Chord of y = 0 is [-5/3, -1/2]: cutting the reach short fails.
    assert not splits_by_segment(TRIANGLE, Segment((0, 0), (-1, 0)))
    assert splits_by_segment(TRIANGLE, Segment((-2, 0), (0, 0)))


def test_splits_by_segment_respects_extent():
    assert splits_by_segment(DIAMOND, Segment((0, 0), (2, 2)))
    assert not splits_by_segment(DIAMOND, Segment((0, 0), (1, 1)))
    assert splits_by_ray(DIAMOND, (0, 0), (1, 1))
    assert not splits_by_ray(DIAMOND, (2, 2), (1, 1))
    assert splits_by_ray(DIAMOND, (2, 2), (-1, -1))


def test_splits_by_segment_polygon_off_the_line():
    right = from_points([(1, 1), (2, 1), (1, 2)])
    assert not splits_by_segment(right, Segment((0, 0), (-3, 0)))
    straddling = from_points([(1, -1), (2, 1), (1, 1)])
    lo, hi = side_range(straddling, (0, 1, 0))
    assert lo < 0 < hi
    assert not splits_by_segment(straddling, Segment((0, 0), (-3, 0)))


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment((1, 1), (1, 1))
    with pytest.raises(ValueError):
        splits_by_ray(DIAMOND, (0, 0), (0, 0))


def test_segment_split_implies_line_split(rng):
    hits = 0
    for _ in range(400):
        P = random_polygon(rng)
        a = (rng.randint(-9, 9), rng.randint(-9, 9))
        b = (rng.randint(-9, 9), rng.randint(-9, 9))
        if a == b:
            continue
        if splits_by_segment(P, Segment(a, b)):
            hits += 1
            dx, dy = b[0] - a[0], b[1] - a[1]
            lo, hi = side_range(P, (-dy, dx, -dy * a[0] + dx * a[1]))
            assert lo < 0 < hi
    assert hits > 20  # the property was actually exercised


def chord_oracle(P, a, d):
    """Rational chord [lo, hi] of P along a + t*d, or None if the line misses.

    The reference for the integer chord kernel: every crossing point is built
    as a Fraction and projected back onto the line.
    """
    line = (-d[1], d[0], -d[1] * a[0] + d[0] * a[1])
    lo, hi = side_range(P, line)
    if not lo < 0 < hi:
        return None
    A, B, C = line
    dd = d[0] * d[0] + d[1] * d[1]
    vs = P.vertices
    n = len(vs)
    params = []
    for i in range(n):
        u, v = vs[i], vs[(i + 1) % n]
        s0 = A * u[0] + B * u[1] - C
        s1 = A * v[0] + B * v[1] - C
        if s0 == 0:
            params.append(Fraction((u[0] - a[0]) * d[0] + (u[1] - a[1]) * d[1], dd))
        elif (s0 > 0 > s1) or (s0 < 0 < s1):
            alpha = Fraction(s0, s0 - s1)
            px = u[0] + alpha * (v[0] - u[0])
            py = u[1] + alpha * (v[1] - u[1])
            params.append(((px - a[0]) * d[0] + (py - a[1]) * d[1]) / dd)
    return min(params), max(params)


def random_line_through_polygon(rng, P):
    """A point and a nonzero direction, often through a vertex or along an edge."""
    kind = rng.randrange(3)
    if kind == 0:
        a = (rng.randint(-9, 9), rng.randint(-9, 9))
        d = (rng.randint(-6, 6), rng.randint(-6, 6))
    elif kind == 1:  # the line passes through a vertex
        v = rng.choice(P.vertices)
        d = (rng.randint(-4, 4), rng.randint(-4, 4))
        s = rng.randint(-3, 2)
        a = (v[0] + s * d[0], v[1] + s * d[1])
    else:  # the line carries an edge
        i = rng.randrange(len(P))
        u, v = P.vertices[i], P.vertices[(i + 1) % len(P)]
        s = rng.randint(-2, 1)
        d = (v[0] - u[0], v[1] - u[1])
        a = (u[0] + s * d[0], u[1] + s * d[1])
        if rng.randrange(2):
            d = (-d[0], -d[1])
    return a, d


#: The directions of the type_shape segments: axis-parallel and diagonal.
TYPE_DIRECTIONS = ((1, 0), (-1, 0), (0, 1), (0, -1),
                   (1, 1), (-1, -1), (1, -1), (-1, 1))


def test_splits_by_segment_and_ray_match_rational_chords(rng):
    cases = []  # (family, P, a, d, k): the segment runs from a to a + k*d
    for _ in range(3000):
        P = random_polygon(rng)
        a, d = random_line_through_polygon(rng, P)
        if d != (0, 0):
            cases.append(("random", P, a, d, rng.randint(1, 3)))
    # Segments of length n between points of nZ^2, like the type_shape ones.
    for _ in range(3000):
        P = random_polygon(rng)
        n = rng.randint(2, 5)
        ux, uy = rng.choice(TYPE_DIRECTIONS)
        a = (n * rng.randint(-8 // n, 8 // n), n * rng.randint(-8 // n, 8 // n))
        cases.append(("nZ2", P, a, (n * ux, n * uy), 1))
    outcomes = {(family, kind): set()
                for family in ("random", "nZ2") for kind in ("segment", "ray")}
    for family, P, a, d, k in cases:
        chord = chord_oracle(P, a, d)
        b = (a[0] + k * d[0], a[1] + k * d[1])
        seg_expected = chord is not None and chord[0] >= 0 and chord[1] <= k
        assert splits_by_segment(P, Segment(a, b)) == seg_expected, (P, a, b)
        ray_expected = chord is not None and chord[0] >= 0
        assert splits_by_ray(P, a, d) == ray_expected, (P, a, d)
        outcomes[family, "segment"].add(seg_expected)
        outcomes[family, "ray"].add(ray_expected)
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes


# ---------------------------------------------------------------------------
# Lattice freeness


def test_is_free_of_examples():
    assert is_free_of(DIAMOND, scaled_lattice(2))
    assert is_free_of(TRIANGLE, scaled_lattice(3))
    origin_square = from_points([(0, 0), (2, 0), (2, 2), (0, 2)])
    assert not is_free_of(origin_square, scaled_lattice(2))
    assert not is_free_of(origin_square, scaled_lattice(5))


def test_is_free_of_boundary_counts():
    # A 2Z^2 point on the boundary already breaks freeness.
    P = from_points([(0, 0), (1, -1), (2, 0), (1, 1)])
    assert contains_point(P, (0, 0)) == "boundary"
    assert not is_free_of(P, scaled_lattice(2))


def test_is_free_of_matches_brute_force(rng):
    for _ in range(80):
        P = random_polygon(rng, lo=-6, hi=6)
        k = rng.randint(2, 4)
        x_min, x_max, y_min, y_max = P.bounding_box()
        brute = all(
            classify_point_oracle(P.vertices, (x, y)) == "outside"
            for x in range(x_min, x_max + 1)
            for y in range(y_min, y_max + 1)
            if x % k == 0 and y % k == 0)
        assert is_free_of(P, scaled_lattice(k)) == brute


def test_is_free_of_sheared_lattices_matches_brute_force(rng):
    """Lattices with q != 0, whose columns are not those of the box."""
    checked = {True: 0, False: 0}
    for _ in range(200):
        P = random_polygon(rng, lo=-4, hi=4, max_points=5)
        r = rng.randint(2, 7)
        L = Lattice2(rng.randint(1, 5), rng.randint(1, r - 1), r)
        x_min, x_max, y_min, y_max = P.bounding_box()
        brute = all(
            classify_point_oracle(P.vertices, (x, y)) == "outside"
            for x in range(x_min, x_max + 1)
            for y in range(y_min, y_max + 1)
            if contains(L, (x, y)))
        assert is_free_of(P, L) is brute, (P, L)
        checked[brute] += 1
    assert min(checked.values()) > 20, checked


def test_lattice_points_in_matches_box_scan(rng):
    """The column walk finds a point of L in P exactly when the box scan
    lists one."""
    nonempty = sheared = 0
    for _ in range(1500):
        P = random_polygon(rng, lo=-7, hi=7)
        r = rng.randint(1, 6)
        L = Lattice2(rng.randint(1, 5), rng.randrange(r), r)
        expected = box_scan_oracle(P, L)
        assert is_free_of(P, L) == (not expected), (P, L)
        nonempty += bool(expected)
        sheared += L.q != 0
    assert nonempty > 500 and sheared > 500, (nonempty, sheared)


@pytest.mark.parametrize("points, lattice, expected", [
    # Vertical west and east edges, both on lattice columns.
    ([(0, 0), (3, 1), (3, 5), (0, 4)], Lattice2(3, 1, 2),
     [(0, 0), (0, 2), (0, 4), (3, 1), (3, 3), (3, 5)]),
    ([(-2, -3), (2, -1), (2, 2), (-2, 1)], Lattice2(2, 0, 3),
     [(-2, -3), (-2, 0), (0, 0), (2, 0)]),
    # Narrower than one column: no column meets the polygon.
    ([(1, 0), (2, 1), (1, 2)], scaled_lattice(3), []),
    ([(-2, -5), (-1, 4), (-2, 7)], scaled_lattice(3), []),
    ([(4, 0), (5, 3), (4, 1)], Lattice2(3, 2, 5), []),
    # Points of L exactly on slanted edges: (2, 1) lies on the lower edge of
    # the first and on the upper edge of the second, whose other column ends
    # fall strictly between integers.
    ([(0, 0), (4, 2), (0, 6)], Lattice2(2, 1, 2),
     [(0, 0), (0, 2), (0, 4), (0, 6), (2, 1), (2, 3), (4, 2)]),
    ([(-3, 1), (3, -2), (1, 4)], Lattice2(2, 0, 1),
     [(-2, 1), (0, 0), (0, 1), (0, 2), (0, 3), (2, -1), (2, 0), (2, 1)]),
])
def test_lattice_points_in_edge_cases(points, lattice, expected):
    """The lattice points of P, listed by the box scan; P is free of the
    lattice exactly when there are none."""
    P = from_points(points)
    assert box_scan_oracle(P, lattice) == expected
    assert is_free_of(P, lattice) == (not expected)


def test_lattice_points_match_pick_counts(rng):
    """All integer points of P are its interior plus its boundary points."""
    for _ in range(300):
        P = random_polygon(rng, lo=-9, hi=9)
        _, interior, boundary = area2_and_pick(P)
        assert len(box_scan_oracle(P, Lattice2(1, 0, 1))) \
            == interior + boundary, P


# ---------------------------------------------------------------------------
# Area and Pick counts


@pytest.mark.parametrize("points, expected", [
    ([(0, 0), (1, 0), (0, 1)], (1, 0, 3)),
    ([(0, 0), (2, 0), (2, 2), (0, 2)], (8, 1, 8)),
    ([(0, 0), (6, 0), (0, 2)], (12, 2, 10)),
    ([(-2, -1), (-1, 2), (1, 1)], (7, 3, 3)),
])
def test_area2_and_pick_examples(points, expected):
    assert area2_and_pick(from_points(points)) == expected


def test_pick_identity_up_to_five():
    checked = 0
    for P in enumerate_convex_polygons(SearchRegion(0, 5, 0, 5)):
        area2, interior, boundary = area2_and_pick(P)
        assert area2 == 2 * interior + boundary - 2
        checked += 1
    assert checked == 349228


# ---------------------------------------------------------------------------
# Affine images


def test_transform_identity():
    assert transform(DIAMOND, AffineMap.identity()) == DIAMOND


def test_transform_antidiagonal_reflection():
    image = transform(from_points([(0, 0), (1, 0), (0, 1)]),
                      AffineMap(UnimodularMap(((0, -1), (-1, 0)))))
    assert set(image.vertices) == {(0, 0), (0, -1), (-1, 0)}


def test_transform_skew_reflection():
    skew = AffineMap(UnimodularMap(((-1, 1), (0, 1))), (3, 0))
    image = transform(from_points([(1, 1), (2, 1), (2, 2)]), skew)
    assert set(image.vertices) == {(3, 1), (2, 1), (3, 2)}


def test_transform_preserves_count_and_freeness(rng):
    for _ in range(1000):
        P = random_polygon(rng)
        k = rng.randint(2, 4)
        u = UnimodularMap.identity()
        for _ in range(3):
            kind = rng.randrange(3)
            s = rng.randint(-2, 2)
            if kind == 0:
                u = u.compose(UnimodularMap(((1, s), (0, 1))))
            elif kind == 1:
                u = u.compose(UnimodularMap(((1, 0), (s, 1))))
            else:
                u = u.compose(UnimodularMap(((0, -1), (1, 0))))
        shift = (k * rng.randint(-2, 2), k * rng.randint(-2, 2))
        m = AffineMap(u, shift)
        image = transform(P, m)
        assert len(image) == len(P)
        assert is_free_of(P, scaled_lattice(k)) \
            == is_free_of(image, scaled_lattice(k))


def test_transform_matches_hull_of_image(rng):
    generators = (
        UnimodularMap(((1, 1), (0, 1))),
        UnimodularMap(((1, 0), (-1, 1))),
        UnimodularMap(((0, -1), (1, 0))),
        UnimodularMap(((1, 0), (0, -1))),
        UnimodularMap(((0, 1), (1, 0))),
    )
    dets = set()
    for _ in range(1000):
        P = random_polygon(rng)
        u = UnimodularMap.identity()
        for _ in range(rng.randint(0, 4)):
            u = u.compose(rng.choice(generators))
        m = AffineMap(u, (rng.randint(-5, 5), rng.randint(-5, 5)))
        assert transform(P, m) == from_points(m.apply(v) for v in P.vertices)
        (a, b), (c, d) = u.rows
        dets.add(a * d - b * c)
    assert dets == {1, -1}


def test_unchecked_images_pass_the_checked_constructor(rng):
    """transform skips the convexity check; its results must be exactly
    what the checked constructor accepts."""
    signed_perms = [UnimodularMap(rows) for rows in (
        ((0, 1), (1, 0)), ((0, -1), (1, 0)), ((0, 1), (-1, 0)),
        ((-1, 0), (0, 1)), ((1, 0), (0, -1)), ((-1, 0), (0, -1)))]
    dets = set()
    for _ in range(2000):
        P = random_polygon(rng, max_points=9)
        m = AffineMap.identity()
        for _ in range(rng.randint(1, 5)):
            kind = rng.randrange(3)
            if kind == 0:
                a = rng.choice([-3, -2, -1, 1, 2, 3])
                g = AffineMap(UnimodularMap(
                    ((1, a), (0, 1)) if rng.random() < 0.5 else ((1, 0), (a, 1))))
            elif kind == 1:
                g = AffineMap(rng.choice(signed_perms))
            else:
                g = AffineMap.translation((rng.randint(-9, 9), rng.randint(-9, 9)))
            m = g.compose(m)
        (a, b), (c, d) = m.linear.rows
        dets.add(a * d - b * c)
        image = transform(P, m)
        assert LatticePolygon(image.vertices) == image
    assert dets == {1, -1}


# ---------------------------------------------------------------------------
# The four-quadrant containment lemma


def test_quadrant_lemma_handcrafted():
    P = from_points([(3, -1), (-1, 3), (-3, -3)])
    assert all(meets_quadrant(P, (0, 0), sx, sy)
               for sx in (1, -1) for sy in (1, -1))
    assert contains_point(P, (0, 0)) != "outside"
    shifted = from_points([(1, 0), (3, 1), (1, 3)])
    assert not meets_quadrant(shifted, (0, 0), -1, 1)


def test_quadrant_lemma_random(rng):
    nontrivial = 0
    for _ in range(1000):
        P = random_polygon(rng)
        x_min, x_max, y_min, y_max = P.bounding_box()
        o = (rng.randint(x_min - 1, x_max + 1),
             rng.randint(y_min - 1, y_max + 1))
        if all(meets_quadrant(P, o, sx, sy)
               for sx in (1, -1) for sy in (1, -1)):
            assert contains_point(P, o) != "outside"
        elif contains_point(P, o) == "outside":
            nontrivial += 1
    assert nontrivial > 100  # both branches were exercised
