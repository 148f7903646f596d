"""Convex polygon construction, predicates, counts, and transforms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import classify_point_oracle, hull_oracle, random_polygon
from latgon import (
    AffineMap,
    LatticePolygon,
    SearchRegion,
    Segment,
    UnimodularMap,
    area2_and_pick,
    cardinal_profile,
    contains_point,
    enumerate_convex_polygons,
    from_points,
    is_free_of,
    is_minimal,
    lattice_points_in,
    line_side_range,
    meets_line,
    scaled_lattice,
    splits_by_line,
    splits_by_ray,
    splits_by_segment,
    standard_lattice,
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
    moved = TRIANGLE.translate((2, 1))
    assert moved.vertices == ((0, 0), (3, 2), (1, 3))
    assert set(TRIANGLE.edges()) == {
        ((-2, -1), (1, 1)), ((1, 1), (-1, 2)), ((-1, 2), (-2, -1))}


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
        pts = lattice_points_in(P, standard_lattice())
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


# ---------------------------------------------------------------------------
# Lines and splitting


def test_splits_by_line_misses():
    square = from_points([(1, 1), (2, 1), (2, 2), (1, 2)])
    assert not splits_by_line(square, (1, 0, 3))
    assert not meets_line(square, (1, 0, 3))


def test_splits_by_line_hits():
    wide = from_points([(1, 1), (4, 1), (4, 2), (1, 2)])
    assert splits_by_line(wide, (1, 0, 3))
    assert splits_by_line(from_points([(0, 0), (2, 1), (1, 2)]), (1, -1, 0))


def test_meets_without_splitting():
    square = from_points([(1, 1), (2, 1), (2, 2), (1, 2)])
    assert meets_line(square, (1, 0, 2))
    assert not splits_by_line(square, (1, 0, 2))


def test_line_side_range_rejects_degenerate():
    with pytest.raises(ValueError):
        line_side_range(DIAMOND, (0, 0, 1))


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
    assert splits_by_line(straddling, (0, 1, 0))
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
        seg = Segment(a, b)
        if splits_by_segment(P, seg):
            hits += 1
            assert splits_by_line(P, seg.line())
    assert hits > 20  # the property was actually exercised


def chord_oracle(P, a, d):
    """Rational chord [lo, hi] of P along a + t*d, or None if the line misses.

    The reference for the integer chord kernel: every crossing point is built
    as a Fraction and projected back onto the line.
    """
    line = (-d[1], d[0], -d[1] * a[0] + d[0] * a[1])
    if not splits_by_line(P, line):
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


def test_splits_by_segment_and_ray_match_rational_chords(rng):
    outcomes = {"segment": set(), "ray": set()}
    for _ in range(3000):
        P = random_polygon(rng)
        a, d = random_line_through_polygon(rng, P)
        if d == (0, 0):
            continue
        chord = chord_oracle(P, a, d)
        k = rng.randint(1, 3)
        b = (a[0] + k * d[0], a[1] + k * d[1])
        seg_expected = chord is not None and chord[0] >= 0 and chord[1] <= k
        assert splits_by_segment(P, Segment(a, b)) == seg_expected, (P, a, b)
        ray_expected = chord is not None and chord[0] >= 0
        assert splits_by_ray(P, a, d) == ray_expected, (P, a, d)
        outcomes["segment"].add(seg_expected)
        outcomes["ray"].add(ray_expected)
    assert outcomes == {"segment": {True, False}, "ray": {True, False}}


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
# Minimality


@pytest.mark.parametrize("points, expected", [
    ([(0, 0), (1, 0), (0, 1)], True),
    ([(0, 0), (2, 0), (0, 1)], False),
    ([(0, 1), (1, 0), (2, 1), (1, 2)], True),
])
def test_is_minimal(points, expected):
    assert is_minimal(from_points(points)) == expected


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
        dets.add(u.det)
    assert dets == {1, -1}


def test_unchecked_images_pass_the_checked_constructor(rng):
    """transform and translate skip the convexity check; their results
    must be exactly what the checked constructor accepts."""
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
        dets.add(m.linear.det)
        image = transform(P, m)
        assert LatticePolygon(image.vertices) == image
        shift = (rng.randint(-20, 20), rng.randint(-20, 20))
        moved = P.translate(shift)
        assert LatticePolygon(moved.vertices) == moved
        assert moved == transform(P, AffineMap.translation(shift))
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
