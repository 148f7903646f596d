"""Tests for position types, the lift normalization, and the reduction pipelines.

Expected traces and images below were worked out by hand, applying the maps
to the vertex lists step by step, before being frozen into assertions.
"""

import json
import random
import re
from collections import Counter, deque
from functools import partial

import pytest

from conftest import random_polygon, run_python, side_range
from latgon import (
    TAG_ORDER,
    AffineMap,
    InvariantViolation,
    PolygonType,
    SearchRegion,
    UnimodularMap,
    area2_and_pick,
    classify,
    enumerate_convex_polygons,
    from_points,
    is_free_of,
    lift,
    polygon_types,
    reduce_type_iv,
    reduce_type_v,
    reduce_type_vi,
    scaled_lattice,
    splits_by_segment,
    transform,
    type_predicate,
)
from latgon import typeclass
from latgon.polygon import Segment, _chord_within
from latgon.svg import SCALE, render_polygon_svg
from latgon.typeclass import (
    _has_type,
    _west_split_limit,
    type_shape,
)

SQUARE = from_points([(1, 1), (2, 1), (2, 2), (1, 2)])
TRIANGLE = from_points([(-2, -1), (-1, 2), (1, 1)])
# Diamond wrapping the interior of [0,3]^2 while dodging its corners.
DIAMOND_II = from_points([(-1, 1), (2, -1), (4, 2), (1, 4)])
EIGHT_GON = from_points(
    [(-3, -2), (-2, -2), (-1, -1), (3, 4), (2, 4), (-1, 2), (-2, 1), (-3, -1)]
)
# Type IV at n=4, which no 3Z^2-free polygon of [-2,4]^2 carries at n=3.
IV_TRIANGLE = from_points([(-1, 1), (3, -2), (6, 5)])
IV_PENTAGON = from_points([(-1, 1), (2, -1), (6, 2), (7, 5), (2, 3)])


def west_segment(n):
    return Segment((0, 0), (-n, 0))


def north_segment(n):
    return Segment((0, 0), (0, n))


@pytest.fixture(scope="module")
def pool3():
    """All 3Z^2-free polygons with vertices in [-2,4]^2: every tag but IV
    occurs here."""
    region = SearchRegion(-2, 4, -2, 4)
    return tuple(enumerate_convex_polygons(region, avoid=scaled_lattice(3)))


# ---------------------------------------------------------------------------
# type predicates


def reference_type_predicate(P, n, tag):
    """The type of a polygon free of nZ^2, by definition and with no box
    gate: I lies in a slab between neighbouring lines of nZ^2, Va in the
    triangle with corners (0,0), (2n,0) and (0,2n), and II to VI are split
    by every segment, split by no `unsplit` line and meet no `unmet` line of
    their `type_shape`, each (axis, c) taken as the general line
    (1 - axis, axis, c) and read on the vertices' side values."""
    if tag == "I":
        west, east, south, north = P.bounding_box()
        return (-(-east // n) - west // n <= 1
                or -(-north // n) - south // n <= 1)
    if tag == "Va":
        return all(x >= 0 and y >= 0 and x + y <= 2 * n
                   for x, y in P.vertices)
    shape = type_shape(tag, n)
    unsplit = [(1 - axis, axis, c) for axis, c in shape.unsplit]
    unmet = [(1 - axis, axis, c) for axis, c in shape.unmet]
    return (all(splits_by_segment(P, seg) for seg in shape.segments)
            and not any(lo < 0 < hi for lo, hi in
                        (side_range(P, line) for line in unsplit))
            and not any(lo <= 0 <= hi for lo, hi in
                        (side_range(P, line) for line in unmet)))


@pytest.mark.parametrize(
    "vertices, n, tag, expected",
    [
        # off-lattice unit square: fits in a slab, and in the corner triangle
        pytest.param([(1, 1), (2, 1), (2, 2), (1, 2)], 3, "I", True,
                     id="vertices0-3-I-True"),
        pytest.param([(1, 1), (2, 1), (2, 2), (1, 2)], 3, "Va", True,
                     id="vertices1-3-Va-True"),
        pytest.param([(1, 1), (2, 1), (2, 2), (1, 2)], 3, "II", False,
                     id="vertices2-3-II-False"),
        pytest.param([(1, 1), (2, 1), (2, 2), (1, 2)], 3, "V", False,
                     id="vertices3-3-V-False"),
        # triangle straddling the origin: west and north splits only
        pytest.param([(-2, -1), (-1, 2), (1, 1)], 3, "V", True,
                     id="vertices4-3-V-True"),
        pytest.param([(-2, -1), (-1, 2), (1, 1)], 3, "I", False,
                     id="vertices5-3-I-False"),
        pytest.param([(-2, -1), (-1, 2), (1, 1)], 3, "VI", False,
                     id="vertices6-3-VI-False"),
        pytest.param([(-2, -1), (-1, 2), (1, 1)], 3, "Va", False,
                     id="vertices7-3-Va-False"),
        # diamond around the scaled unit square: all four sides split
        pytest.param([(-1, 1), (2, -1), (4, 2), (1, 4)], 3, "II", True,
                     id="vertices8-3-II-True"),
        pytest.param([(-1, 1), (2, -1), (4, 2), (1, 4)], 3, "I", False,
                     id="vertices9-3-I-False"),
        # tall polygon reaching over the top edge
        pytest.param([(-3, -2), (-2, -2), (-1, -1), (3, 4), (2, 4), (-1, 2),
                      (-2, 1), (-3, -1)], 3, "VI", True,
                     id="vertices10-3-VI-True"),
        pytest.param([(-3, -2), (-2, -2), (-1, -1), (3, 4), (2, 4), (-1, 2),
                      (-2, 1), (-3, -1)], 3, "V", False,
                     id="vertices11-3-V-False"),
        # wide triangle between the lines x = -4 and x = 8
        pytest.param([(-1, 1), (3, -2), (6, 5)], 4, "IV", True,
                     id="vertices12-4-IV-True"),
        pytest.param([(-1, 1), (3, -2), (6, 5)], 4, "III", False,
                     id="vertices13-4-III-False"),
        # east-south triangle: no tag applies where it sits
        pytest.param([(2, 1), (1, -2), (-1, -1)], 3, "I", False,
                     id="vertices14-3-I-False"),
        pytest.param([(2, 1), (1, -2), (-1, -1)], 3, "V", False,
                     id="vertices15-3-V-False"),
        # split by IV's four segments, but meets its line x = 8
        pytest.param([(-3, 2), (2, -1), (8, 5)], 4, "IV", False,
                     id="vertices16-4-IV-False"),
        # a type III triangle and a type Va triangle
        pytest.param([(1, -1), (4, 1), (1, 4)], 3, "III", True,
                     id="vertices17-3-III-True"),
        pytest.param([(1, 2), (4, 1), (2, 4)], 3, "Va", True,
                     id="vertices18-3-Va-True"),
    ],
)
def test_type_predicate_examples(vertices, n, tag, expected):
    assert type_predicate(from_points(vertices), n, tag) is expected


def test_polygon_types_examples():
    assert polygon_types(SQUARE, 3) == ("I", "Va")
    assert polygon_types(TRIANGLE, 3) == ("V",)
    assert polygon_types(DIAMOND_II, 3) == ("II",)
    assert polygon_types(EIGHT_GON, 3) == ("VI",)
    assert polygon_types(from_points([(2, 1), (1, -2), (-1, -1)]), 3) == ()


@pytest.mark.parametrize("n", [0, 1])
def test_polygon_types_checks_its_scale(n):
    with pytest.raises(ValueError,
                       match=f"type scale must be at least 2, got {n}"):
        polygon_types(SQUARE, n)


def test_polygon_types_follows_tag_order():
    assert TAG_ORDER == ("I", "II", "III", "IV", "V", "VI", "Va")
    tags = polygon_types(SQUARE, 3)
    assert list(tags) == [t for t in TAG_ORDER if t in tags]


def test_not_free_means_no_type():
    P = from_points([(-1, -1), (1, 0), (0, 1)])  # contains the origin
    assert not is_free_of(P, scaled_lattice(3))
    for tag in TAG_ORDER:
        assert type_predicate(P, 3, tag) is False
    assert polygon_types(P, 3) == ()


def test_type_predicate_validation():
    with pytest.raises(ValueError):
        type_predicate(SQUARE, 3, "VII")
    with pytest.raises(ValueError):
        type_predicate(SQUARE, 1, "I")
    with pytest.raises(ValueError):
        polygon_types(SQUARE, 0)


def test_polygon_types_agrees_with_predicate(rng, pool3):
    """Both public routes give the reference's tags, and none to a polygon
    that is not free of 3Z^2."""
    cases = rng.sample(pool3, 250) + [random_polygon(rng) for _ in range(100)]
    for P in cases:
        tags = polygon_types(P, 3)
        assert tags == tuple(t for t in TAG_ORDER if type_predicate(P, 3, t))
        free = is_free_of(P, scaled_lattice(3))
        assert tags == tuple(t for t in TAG_ORDER
                             if free and reference_type_predicate(P, 3, t))


# ---------------------------------------------------------------------------
# drawing the defining geometry

_SEGMENT_LINE = re.compile(
    r'<line x1="(-?\d+)" y1="(-?\d+)" x2="(-?\d+)" y2="(-?\d+)" '
    r'stroke="#111111" stroke-width="(\d+)"')
_DASHED_LINE = re.compile(
    r'<line x1="(-?\d+)" y1="(-?\d+)" x2="(-?\d+)" y2="(-?\d+)" '
    r'stroke="#888888" stroke-width="2" stroke-dasharray="3,5"/>')


def _expected_geometry(tag, n):
    if tag == "I":
        return (), ()
    if tag == "Va":
        a, b, c = (0, 0), (2 * n, 0), (0, 2 * n)
        return (Segment(a, b), Segment(b, c), Segment(c, a)), ()
    shape = type_shape(tag, n)
    return shape.segments, shape.unsplit + shape.unmet


@pytest.fixture(scope="module")
def pool3_by_tag(pool3):
    by_tag = {tag: [] for tag in TAG_ORDER}
    for P in pool3:
        for tag in polygon_types(P, 3):
            by_tag[tag].append(P)
    return by_tag


@pytest.mark.parametrize("tag", TAG_ORDER)
def test_svg_draws_each_defining_segment_and_line(tag, rng, pool3,
                                                  pool3_by_tag):
    """One black line per defining segment, thick exactly when the segment
    splits the polygon, and one dashed line per defining line."""
    typed = pool3_by_tag[tag]
    at3 = ([SQUARE, TRIANGLE, DIAMOND_II, EIGHT_GON]
           + rng.sample(typed, min(len(typed), 25)) + rng.sample(pool3, 25))
    for P in (IV_TRIANGLE, IV_PENTAGON):
        assert type_predicate(P, 4, "IV")
    for P, n in [(P, 3) for P in at3] + [(IV_TRIANGLE, 4), (IV_PENTAGON, 4)]:
        segs, lines = _expected_geometry(tag, n)
        svg = render_polygon_svg(P, n=n, tag=tag)
        drawn = _SEGMENT_LINE.findall(svg)
        assert len(drawn) == len(segs)
        for seg, (x1, y1, x2, y2, width) in zip(segs, drawn):
            # Pixels grow with x and shrink with y, SCALE per lattice unit.
            assert int(x2) - int(x1) == SCALE * (seg.b[0] - seg.a[0])
            assert int(y1) - int(y2) == SCALE * (seg.b[1] - seg.a[1])
            assert (width == "5") is splits_by_segment(P, seg)
        dashed = _DASHED_LINE.findall(svg)
        assert len(dashed) == len(lines)
        for (axis, c), (x1, y1, x2, y2) in zip(lines, dashed):
            x0, y0 = int(drawn[0][0]), int(drawn[0][1])  # pixel of segs[0].a
            if axis == 0:  # x = c, vertical
                assert x1 == x2
                assert int(x1) - x0 == SCALE * (c - segs[0].a[0])
            else:  # y = c, horizontal
                assert axis == 1 and y1 == y2
                assert y0 - int(y1) == SCALE * (c - segs[0].a[1])


# ---------------------------------------------------------------------------
# lift


def test_lift_example():
    P = from_points([(-2, -4), (1, 3), (-2, 1)])
    a0, lifted, m = lift(P, 5)
    assert a0 == 1
    assert lifted.vertices == ((-2, -2), (1, 2), (-2, 3))
    assert m.linear.rows == ((1, 0), (-1, 1))
    assert m.shift == (0, 0)
    assert transform(P, m) == lifted


def test_lift_identity_when_already_lifted():
    a0, lifted, m = lift(TRIANGLE, 3)
    assert a0 == 0
    assert lifted == TRIANGLE
    assert m == AffineMap.identity()


@pytest.mark.parametrize(
    "vertices, n, message",
    [
        pytest.param([(1, 1), (2, 1), (2, 2)], 3, "west segment",
                     id="vertices0-3-west segment"),
        pytest.param([(-2, -1), (-1, 2), (1, 1)], 2, "n >= 3",
                     id="vertices1-2-n >= 3"),
        pytest.param([(-1, -1), (1, 0), (0, 1)], 3, "not free",
                     id="vertices2-3-not free"),
        pytest.param([(-2, -1), (-1, 1), (-1, -1)], 3,
                     "north segment does not split", id="north-segment"),
    ],
)
def test_lift_rejects_bad_input(vertices, n, message):
    with pytest.raises(ValueError, match=message):
        lift(from_points(vertices), n)


def _shear_map(a):
    return AffineMap(UnimodularMap(((1, 0), (-a, 1))), (0, 0))


def test_lift_properties(rng, pool3):
    """a0 is the largest shear keeping the west split; invariants carry over."""
    n = 3
    lattice = scaled_lattice(n)
    west, north = west_segment(n), north_segment(n)
    liftable = [
        P
        for P in pool3
        if splits_by_segment(P, west) and splits_by_segment(P, north)
    ]
    assert len(liftable) > 1000
    for P in rng.sample(liftable, 80):
        a0, lifted, m = lift(P, n)
        assert a0 >= 0
        assert lifted == transform(P, _shear_map(a0))
        assert len(lifted) == len(P)
        assert area2_and_pick(lifted)[0] == area2_and_pick(P)[0]
        assert is_free_of(lifted, lattice)
        assert splits_by_segment(lifted, west)
        assert splits_by_segment(lifted, north)
        # one more shear kills the west split: a0 was maximal
        assert not splits_by_segment(transform(P, _shear_map(a0 + 1)), west)


def reference_lift(P, n):
    """The lift of a liftable polygon that builds every sheared image and
    splits it by the west segment, in its sweep and in its revival probe."""
    west, north = west_segment(n), north_segment(n)
    _west, _east, south, north_y = P.bounding_box()
    upper = Segment((0, n), (n, 2 * n))
    upper_split_before = splits_by_segment(P, upper)
    a0, a = 0, 1
    while splits_by_segment(transform(P, _shear_map(a)), west):
        a0 = a
        a += 1
    lifted = transform(P, _shear_map(a0))
    for extra in range(a + 1, a + n + (north_y - south) + 4):
        if splits_by_segment(transform(P, _shear_map(extra)), west):
            raise InvariantViolation(
                f"west split revives at shear {extra}: bug or counterexample")
    if not splits_by_segment(lifted, north):
        raise InvariantViolation("lift lost the north split")
    if splits_by_segment(lifted, Segment((0, 0), (-n, -n))):
        raise InvariantViolation(
            "lift is split by the descending diagonal segment")
    if not upper_split_before and splits_by_segment(lifted, upper):
        raise InvariantViolation(
            "lift created an upper-segment split that was absent before")
    if a0 == 0 and lifted != P:
        raise InvariantViolation("the identity shear moved the polygon")
    if a0 > 0 and lifted.bounding_box()[2] <= south:
        raise InvariantViolation("lift did not raise the south extreme")
    return a0, lifted, _shear_map(a0)


@pytest.fixture(scope="module")
def liftable3(pool3):
    """The polygons of pool3 and of the 3Z^2-free corpus of [-3,3]^2 that
    both the west and the north segment split."""
    square = enumerate_convex_polygons(SearchRegion(-3, 3, -3, 3),
                                       avoid=scaled_lattice(3))
    return [P for P in (*pool3, *square)
            if splits_by_segment(P, west_segment(3))
            and splits_by_segment(P, north_segment(3))]


def _random_liftable_past_west_line(rng, count):
    """(P, n) with P free of nZ^2, split by the west and the north segment
    and reaching past the line x = -n, so that edges cross it: random hulls
    of one point west of x = -n and two or three near the origin, each also
    under a random shear (x, y) -> (x, y + b*x) that keeps it liftable."""
    found = []
    while len(found) < count:
        n = rng.randint(3, 6)
        pts = [(rng.randint(-3 * n, -n - 1), rng.randint(-3 * n, n))]
        pts += [(rng.randint(-n, n), rng.randint(-2 * n, n))
                for _ in range(rng.randint(2, 3))]
        try:
            P = transform(from_points(pts), _shear_map(-rng.randint(0, 3)))
        except ValueError:
            continue
        if (splits_by_segment(P, west_segment(n))
                and splits_by_segment(P, north_segment(n))
                and is_free_of(P, scaled_lattice(n))):
            found.append((P, n))
    return found


def test_lift_matches_reference(liftable3, corpus4, rng):
    """lift equals reference_lift, whose bounded probe finds no revival, and
    the closed form of the split shears equals the sweep's a0: on every
    liftable polygon of liftable3, on the V and VI images of the n = 4
    corpus, and on random liftable polygons whose edges cross x = -n (which
    no polygon of the other two does)."""
    images4 = [transform(P, m) for P, m, t in corpus4 if t.tag in ("V", "VI")]
    assert len(liftable3) > 3000 and len(images4) == 2900 + 913
    lifted = Counter()
    for P, n in ([(P, 3) for P in liftable3] + [(P, 4) for P in images4]
                 + _random_liftable_past_west_line(rng, 600)):
        got = reference_lift(P, n)
        assert lift(P, n) == got, (P, n)
        assert _west_split_limit(P, n) == got[0], (P, n)
        lifted[n, got[0]] += 1
    assert sum(k for (_n, a0), k in lifted.items() if a0 > 0) > 1000
    assert {n for (n, a0) in lifted if a0 > 1} >= {3, 4, 5, 6}, lifted


def test_west_scan_matches_sheared_image(liftable3, rng):
    """The split of P by the west segment's preimage [0, (-n, -a*n)] under
    each shear a, as lift tests it, against splits_by_segment on the sheared
    image: up to past the revival probe on the liftable polygons, and on
    random polygons, which may touch the segment's ends, for small a of
    either sign."""
    n = 3
    west = west_segment(n)
    for P in liftable3:
        a0 = lift(P, n)[0]
        for a in range(a0 + n + 8):
            assert (_chord_within(P, (0, 0), (-n, -a * n))
                    == splits_by_segment(transform(P, _shear_map(a)), west)
                    ), (P, a)
    for _ in range(400):
        P = random_polygon(rng, lo=-6, hi=6)
        n = rng.randint(1, 5)
        for a in range(-3, 4):
            assert (_chord_within(P, (0, 0), (-n, -a * n))
                    == splits_by_segment(transform(P, _shear_map(a)),
                                         west_segment(n))), (P, n, a)


# ---------------------------------------------------------------------------
# reduction pipelines


def _assert_trace_shape(trace, source, n):
    assert trace.source == source
    assert trace.n == n
    assert transform(trace.source, trace.composed_map()) == trace.result
    m = trace.composed_map()
    (a, b), (c, d) = m.linear.rows
    assert a * d - b * c in (1, -1)
    assert m.is_automorphism_of(scaled_lattice(n))
    for step in trace.steps:
        assert (step.shear is not None) == (step.label == "lift")
        if step.label == "lift":
            assert step.map == _shear_map(step.shear)
        if step.label == "translate":
            assert step.map == AffineMap.translation((n, 0))
    assert type_predicate(trace.result, n, trace.result_type.tag)
    assert len(trace.result) == len(source)
    assert area2_and_pick(trace.result)[0] == area2_and_pick(source)[0]


@pytest.mark.parametrize(
    "vertices, labels, tag, result_vertices",
    [
        pytest.param(TRIANGLE.vertices, ["reflect", "flip"], "Va",
                     ((1, 2), (4, 1), (2, 4)),
                     id="vertices0-labels0-Va-result_vertices0"),
        pytest.param(
            [(-2, -2), (-1, -2), (1, 3), (-2, 2)],
            ["lift", "translate"],
            "III",
            ((1, 0), (2, -1), (4, 2), (1, 4)),
            id="vertices1-labels1-III-result_vertices1",
        ),
        # Paths that reflect before they lift, and lift again after a reflection.
        pytest.param(
            [(-3, -1), (2, 1), (-2, 3)],
            ["reflect", "lift", "translate"],
            "III",
            ((0, 5), (2, -1), (4, 2)),
            id="vertices2-labels2-III-result_vertices2",
        ),
        pytest.param(
            [(-3, -4), (2, 3), (-2, 1)],
            ["lift", "reflect", "lift", "translate"],
            "III",
            ((0, 5), (2, -1), (4, 2)),
            id="vertices3-labels3-III-result_vertices3",
        ),
        pytest.param(
            [(-3, -4), (2, 3), (-2, -1)],
            ["lift", "reflect", "lift", "reflect", "reflect", "flip"],
            "Va",
            ((2, 0), (4, 1), (2, 4)),
            id="vertices4-labels4-Va-result_vertices4",
        ),
    ],
)
def test_reduce_type_v_examples(vertices, labels, tag, result_vertices):
    P = from_points(vertices)
    trace = reduce_type_v(P, 3)
    assert [s.label for s in trace.steps] == labels
    assert trace.result_type == PolygonType(tag, 3)
    assert trace.result.vertices == result_vertices
    _assert_trace_shape(trace, P, 3)


def test_reduce_type_v_composed_map():
    trace = reduce_type_v(TRIANGLE, 3)
    assert trace.composed_map().linear.rows == ((0, -1), (1, 0))
    assert trace.composed_map().shift == (3, 3)


def test_reduction_scans_each_image_for_freeness_once(monkeypatch):
    """A reduction scans its source once (for its type) and each recorded
    step's image once; a lift's input is already proven, and finishing
    scans nothing more: TRIANGLE's two steps make three scans."""
    scans = []
    real = typeclass.is_free_of
    monkeypatch.setattr(typeclass, "is_free_of",
                        lambda P, L: scans.append(P) or real(P, L))
    trace = reduce_type_v(TRIANGLE, 3)
    assert [s.label for s in trace.steps] == ["reflect", "flip"]
    assert len(scans) == 3
    assert scans[0] == TRIANGLE and scans[-1] == trace.result


@pytest.mark.parametrize("flags", [(), ("-O",)],
                         ids=["asserts-on", "asserts-off"])
def test_a_step_off_the_lattice_fails_where_it_is_recorded(flags):
    """A reflection shifted off nZ^2 is caught when the V pipeline records
    it, and the error names that step, with asserts on or off."""
    code = "\n".join([
        "import json, sys",
        "import latgon.typeclass as typeclass",
        "from latgon import (AffineMap, InvariantViolation, UnimodularMap,",
        "                    from_points)",
        "typeclass._REFLECT_ANTIDIAGONAL = AffineMap(",
        "    UnimodularMap(((0, -1), (-1, 0))), (1, 0))",
        "P = from_points([(-2, -1), (-1, 2), (1, 1)])",
        "try:",
        "    typeclass.reduce_type_v(P, 3)",
        "    error = None",
        "except InvariantViolation as exc:",
        "    error = str(exc)",
        "print(json.dumps({'optimize': sys.flags.optimize, 'error': error}))",
    ])
    proc = run_python(code, *flags)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["optimize"] == len(flags)
    assert out["error"].startswith("step reflect is not an automorphism")


@pytest.mark.parametrize(
    "vertices, labels, tag, result_vertices",
    [
        pytest.param(
            [(-3, -2), (-2, -2), (-1, -1), (3, 4), (2, 4), (-1, 2), (-2, 1), (-3, -1)],
            ["center", "skew-reflect"],
            "I",
            ((0, 1), (1, -1), (2, -1), (3, 4), (3, 5), (2, 5), (1, 4), (0, 2)),
            id="vertices0-labels0-I-result_vertices0",
        ),
        pytest.param(
            [(-2, -2), (-1, -1), (3, 4), (-2, 2)],
            ["center", "skew-reflect"],
            "III",
            ((0, 4), (1, -1), (4, 1), (0, 5)),
            id="vertices1-labels1-III-result_vertices1",
        ),
        pytest.param(
            [(-2, -2), (-1, -2), (2, 5), (1, 4), (-2, 0)],
            ["lift"],
            "V",
            ((-2, 0), (-1, -1), (2, 3), (1, 3), (-2, 2)),
            id="vertices2-labels2-V-result_vertices2",
        ),
        pytest.param(
            [(-2, -2), (-1, -2), (2, 5), (1, 5)],
            ["lift", "center", "skew-reflect"],
            "I",
            ((0, -1), (2, 0), (3, 4), (1, 3)),
            id="vertices3-labels3-I-result_vertices3",
        ),
        # The close-out to II, the unshifted skew to III, and the translate
        # exit of each stage.
        pytest.param(
            [(-3, -1), (2, 1), (3, 4), (-2, 2)],
            ["center", "skew-reflect"],
            "II",
            ((-1, 1), (2, -1), (4, 2), (1, 4)),
            id="vertices4-labels4-II-result_vertices4",
        ),
        pytest.param(
            [(-2, -1), (3, 2), (2, 4)],
            ["center", "skew-reflect"],
            "III",
            ((1, -1), (4, 1), (2, 4)),
            id="vertices5-labels5-III-result_vertices5",
        ),
        pytest.param(
            [(-3, -2), (-1, -3), (1, 4)],
            ["lift", "translate"],
            "III",
            ((0, 4), (2, -1), (4, 2)),
            id="vertices6-labels6-III-result_vertices6",
        ),
        pytest.param(
            [(-2, -2), (2, 3), (3, 10)],
            ["center", "lift", "translate"],
            "III",
            ((0, -1), (5, 1), (1, 4)),
            id="vertices7-labels7-III-result_vertices7",
        ),
    ],
)
def test_reduce_type_vi_examples(vertices, labels, tag, result_vertices):
    P = from_points(vertices)
    trace = reduce_type_vi(P, 3)
    assert [s.label for s in trace.steps] == labels
    assert trace.result_type == PolygonType(tag, 3)
    assert trace.result.vertices == result_vertices
    _assert_trace_shape(trace, P, 3)


def test_reduce_type_iv_terminal():
    P = IV_TRIANGLE
    trace = reduce_type_iv(P, 4)
    assert trace.steps == ()
    assert trace.result == P
    assert trace.result_type == PolygonType("IV", 4)
    _assert_trace_shape(trace, P, 4)


def test_reduce_type_iv_skew():
    P = IV_PENTAGON
    trace = reduce_type_iv(P, 4)
    assert [s.label for s in trace.steps] == ["skew-reflect"]
    assert trace.result_type == PolygonType("III", 4)
    assert trace.result.vertices == ((0, 2), (1, -1), (6, 1), (5, 3), (2, 5))
    _assert_trace_shape(trace, P, 4)


@pytest.mark.parametrize(
    "reducer, vertices, n",
    [
        pytest.param(reduce_type_v, [(1, 1), (2, 1), (2, 2), (1, 2)], 3,
                     id="reduce_type_v-vertices0-3"),
        pytest.param(reduce_type_vi, [(-2, -1), (-1, 2), (1, 1)], 3,
                     id="reduce_type_vi-vertices1-3"),
        pytest.param(reduce_type_iv, [(1, 1), (2, 1), (2, 2), (1, 2)], 4,
                     id="reduce_type_iv-vertices2-4"),
    ],
)
def test_reducers_reject_wrong_type(reducer, vertices, n):
    with pytest.raises(ValueError, match="not of type"):
        reducer(from_points(vertices), n)


@pytest.mark.parametrize(
    "reducer, n, min_scale",
    [
        pytest.param(reduce_type_v, 2, 3, id="reduce_type_v"),
        pytest.param(reduce_type_vi, 2, 3, id="reduce_type_vi"),
        pytest.param(reduce_type_iv, 1, 2, id="reduce_type_iv"),
    ],
)
def test_reducers_reject_small_scale(reducer, n, min_scale):
    """The scale is checked before the type."""
    with pytest.raises(ValueError, match=f"reductions need scale "
                                         f"n >= {min_scale}, got {n}"):
        reducer(TRIANGLE, n)


def test_reductions_on_random_instances(rng, pool3):
    """Every sampled V or VI instance reduces to an allowed target."""
    n = 3
    seen_v = seen_vi = 0
    order = list(pool3)
    rng.shuffle(order)
    for P in order:
        tags = polygon_types(P, n)
        if "V" in tags and seen_v < 40:
            trace = reduce_type_v(P, n)
            assert trace.result_type.tag in ("III", "Va")
            _assert_trace_shape(trace, P, n)
            seen_v += 1
        if "VI" in tags and seen_vi < 40:
            trace = reduce_type_vi(P, n)
            assert trace.result_type.tag in ("I", "II", "III", "V")
            _assert_trace_shape(trace, P, n)
            seen_vi += 1
        if seen_v >= 40 and seen_vi >= 40:
            break
    assert seen_v == 40
    assert seen_vi == 40


# ---------------------------------------------------------------------------
# classify


def test_classify_square_in_place():
    m, t = classify(SQUARE, 3)
    assert t == PolygonType("I", 3)
    assert m == AffineMap.identity()


def test_classify_undoes_translation():
    moved = transform(DIAMOND_II, AffineMap.translation((3, 0)))
    m, t = classify(moved, 3)
    assert t == PolygonType("II", 3)
    assert m.linear == UnimodularMap.identity()
    assert m.shift == (-3, 0)
    assert transform(moved, m) == DIAMOND_II


def test_classify_needs_a_move():
    P = from_points([(2, 1), (1, -2), (-1, -1)])
    assert polygon_types(P, 3) == ()
    m, t = classify(P, 3)
    assert t == PolygonType("V", 3)
    assert m.linear.rows == ((0, 1), (1, 0))
    image = transform(P, m)
    assert image.vertices == ((-2, 1), (-1, -1), (1, 2))
    assert type_predicate(image, 3, "V")


def test_classify_exhausted_bound():
    P = from_points([(2, 1), (1, -2), (-1, -1)])
    with pytest.raises(RuntimeError, match="no position type reachable"):
        classify(P, 3, search_bound=0)


def test_classify_state_limit(monkeypatch):
    monkeypatch.setattr(typeclass, "_STATE_LIMIT", 0)
    with pytest.raises(RuntimeError, match="state limit 0 exceeded"):
        classify(SQUARE, 3)


def test_classify_validation():
    with pytest.raises(ValueError, match="not free"):
        classify(from_points([(-1, -1), (1, 0), (0, 1)]), 3)
    with pytest.raises(ValueError):
        classify(SQUARE, 1)


def test_classify_is_deterministic():
    P = from_points([(2, 1), (1, -2), (-1, -1)])
    assert classify(P, 3) == classify(P, 3)


def test_classify_random_instances(rng, pool3):
    """The returned map is a lattice automorphism and its image has the tag."""
    n = 3
    lattice = scaled_lattice(n)
    for P in rng.sample(pool3, 120):
        m, t = classify(P, n)
        assert t.n == n and t.tag in TAG_ORDER
        assert m.is_automorphism_of(lattice)
        image = transform(P, m)
        assert type_predicate(image, n, t.tag)
        assert area2_and_pick(image)[0] == area2_and_pick(P)[0]


_SIGNED_PERMS = (
    ((0, 1), (1, 0)),
    ((0, -1), (1, 0)),
    ((0, 1), (-1, 0)),
    ((0, -1), (-1, 0)),
    ((-1, 0), (0, 1)),
    ((1, 0), (0, -1)),
    ((-1, 0), (0, -1)),
)


def reference_generators(P, n, bound):
    """classify's generators for P as AffineMap objects, in search order: the
    recentering translation (when P's box corner is not in [0, n)^2), the
    signed permutations, the shears and the unit translations."""
    west, _east, south, _north = P.bounding_box()
    recenter = (-n * (west // n), -n * (south // n))
    gens = [AffineMap.translation(recenter)] if recenter != (0, 0) else []
    gens += [AffineMap(UnimodularMap(rows)) for rows in _SIGNED_PERMS]
    for a in range(1, bound + 1):
        gens.append(AffineMap(UnimodularMap(((1, 0), (-a, 1)))))
        gens.append(AffineMap(UnimodularMap(((1, 0), (a, 1)))))
        gens.append(AffineMap(UnimodularMap(((1, -a), (0, 1)))))
        gens.append(AffineMap(UnimodularMap(((1, a), (0, 1)))))
    for shift in ((n, 0), (-n, 0), (0, n), (0, -n)):
        gens.append(AffineMap.translation(shift))
    return gens


def reference_classify(P, n, search_bound=6, state_limit=20000):
    """The breadth-first search on polygon and map objects that tests each
    state, every tag's reference predicate in turn, when it is popped."""
    seen = {P.vertices}
    queue = deque([(P, AffineMap.identity())])
    explored = 0
    shift_bound = search_bound * n
    while queue:
        cur, m = queue.popleft()
        explored += 1
        if explored > state_limit:
            raise RuntimeError(
                f"classification state limit {state_limit} exceeded")
        for tag in TAG_ORDER:
            if reference_type_predicate(cur, n, tag):
                return m, PolygonType(tag, n)
        for g in reference_generators(cur, n, search_bound):
            nm = g.compose(m)
            if nm.linear.max_entry() > search_bound:
                continue
            if max(abs(nm.shift[0]), abs(nm.shift[1])) > shift_bound:
                continue
            np = transform(cur, g)
            if np.vertices in seen:
                continue
            seen.add(np.vertices)
            queue.append((np, nm))
    raise RuntimeError(f"no position type reachable within bound {search_bound}")


def _outcome(search, P, n=3, **kwargs):
    """(map rows, shift, tag) of a classification, or the error it raised."""
    try:
        m, t = search(P, n, **kwargs)
    except RuntimeError as exc:
        return str(exc)
    return m.linear.rows, m.shift, t.tag


@pytest.fixture(scope="module")
def reduce_corpus():
    """The 3Z^2-free polygons of [-2,4]x[-2,1]: types I, V, VI and Va."""
    region = SearchRegion(-2, 4, -2, 1)
    return tuple(enumerate_convex_polygons(region, avoid=scaled_lattice(3)))


@pytest.fixture(scope="module")
def corpus4():
    """The 4Z^2-free polygons of [-3,5]x[-2,1], each with its classification
    map and tag."""
    region = SearchRegion(-3, 5, -2, 1)
    return tuple((P,) + classify(P, 4) for P in
                 enumerate_convex_polygons(region, avoid=scaled_lattice(4)))


def test_classify_matches_reference_search(reduce_corpus):
    assert len(reduce_corpus) == 4557
    for P in reduce_corpus:
        assert _outcome(classify, P) == _outcome(reference_classify, P), P


def test_classify_matches_reference_search_at_scale_4(corpus4):
    """Off the benchmark's region and scale: the n = 4 corpus, whose tally
    is pinned, and a seeded sample of it against the object search."""
    tally = Counter(t.tag for _P, _m, t in corpus4)
    assert tally == {"I": 14614, "V": 2900, "VI": 913, "Va": 1066}
    by_tag = {tag: [P for P, _m, t in corpus4 if t.tag == tag]
              for tag in tally}
    sample = random.Random(14)
    for tag, polygons in sorted(by_tag.items()):
        for P in sample.sample(polygons, 300):
            assert (_outcome(classify, P, 4)
                    == _outcome(reference_classify, P, 4)), P


@pytest.mark.parametrize("state_limit", [0, 1, 2, 5, 25])
def test_classify_state_limit_matches_reference(reduce_corpus, state_limit,
                                                monkeypatch):
    """Both searches raise, or both return the same, at every limit."""
    sample = random.Random(6).sample(reduce_corpus, 300)
    identity = (((1, 0), (0, 1)), (0, 0))
    moved_va = [r for r in map(partial(_outcome, classify), sample)
                if r[2] == "Va" and r[:2] != identity]
    assert len(moved_va) >= 5  # the sample reaches depth 1
    monkeypatch.setattr(typeclass, "_STATE_LIMIT", state_limit)
    for P in sample:
        assert (_outcome(classify, P)
                == _outcome(reference_classify, P, state_limit=state_limit)), P


def test_type_shape_segments_are_axis_parallel():
    """The type test reads each segment's line, and each unsplit or unmet
    line, on the box as x = c or y = c."""
    for n in (2, 3, 4, 7):
        for tag in ("II", "III", "IV", "V", "VI"):
            shape = type_shape(tag, n)
            for seg in shape.segments:
                assert seg.a[0] == seg.b[0] or seg.a[1] == seg.b[1], seg
            for axis, _c in shape.unsplit + shape.unmet:
                assert axis in (0, 1)


# (straddle, unsplit, unmet) of each type_shape row, worked out by hand,
# each line as (axis, c) with axis 0 for x = c and 1 for y = c: II's square
# [0,n]^2 has no other line; III adds the unsplit x = 0; IV's unmet lines
# are x = -n and x = 2n; V's unsplit lines are x = -n and y = n; VI's are
# x = -n and x = n.
BOX_READS = {
    3: {"II": ((0, 3, 0, 3), (), ()),
        "III": ((3, 3, 0, 3), ((0, 0),), ()),
        "IV": ((0, 3, 0, 3), (), ((0, -3), (0, 6))),
        "V": ((0, 0, 0, 0), ((0, -3), (1, 3)), ()),
        "VI": ((0, 0, 0, 3), ((0, -3), (0, 3)), ())},
    4: {"II": ((0, 4, 0, 4), (), ()),
        "III": ((4, 4, 0, 4), ((0, 0),), ()),
        "IV": ((0, 4, 0, 4), (), ((0, -4), (0, 8))),
        "V": ((0, 0, 0, 0), ((0, -4), (1, 4)), ()),
        "VI": ((0, 0, 0, 4), ((0, -4), (0, 4)), ())},
    6: {"II": ((0, 6, 0, 6), (), ()),
        "III": ((6, 6, 0, 6), ((0, 0),), ()),
        "IV": ((0, 6, 0, 6), (), ((0, -6), (0, 12))),
        "V": ((0, 0, 0, 0), ((0, -6), (1, 6)), ()),
        "VI": ((0, 0, 0, 6), ((0, -6), (0, 6)), ())},
}


@pytest.mark.parametrize("n", sorted(BOX_READS))
def test_box_gates_match_hand_worked_bounds(n):
    rows = {tag: type_shape(tag, n) for tag in BOX_READS[n]}
    assert {tag: (row.straddle, row.unsplit, row.unmet)
            for tag, row in rows.items()} == BOX_READS[n]


def criterion_8_sample(seed=8, rate=0.02):
    """A seeded sample of the 3Z^2-free polygons of criterion 8's region,
    [-3,6]^2, drawn from the stream without keeping the whole corpus."""
    sample = random.Random(seed)
    return [P for P in enumerate_convex_polygons(
        SearchRegion(-3, 6, -3, 6), avoid=scaled_lattice(3))
        if sample.random() < rate]


def test_box_gate_keeps_the_first_tag(pool3, corpus4, rng):
    """The gated tag test equals the ungated reference for every tag, on
    free polygons at scales 3 and 4, on a sample of criterion 8's region,
    and on their images under one or two random maps of classify's
    generators."""
    cases = ([(P, 3) for P in pool3] + [(P, 4) for P, _m, _t in corpus4]
             + [(P, 3) for P in criterion_8_sample()])
    images = []
    for P, n in rng.sample(cases, 6000):
        for _ in range(rng.choice((1, 2))):
            P = transform(P, rng.choice(reference_generators(P, n, 2)))
        images.append((P, n))
    for P, n in cases + images:
        box = P.bounding_box()
        for tag in TAG_ORDER:
            assert (_has_type(P.vertices, box, n, tag)
                    is reference_type_predicate(P, n, tag)), (P, n, tag)


def test_box_gate_matches_reference_where_type_iv_occurs():
    """_has_type equals the reference for every tag on the 4Z^2-free
    polygons of [-1,6]x[-1,5], where every tag occurs, IV included, as in no
    other pool here: on every polygon split by both [(0,0),(4,0)] and
    [(4,0),(4,4)], as each of type II, III or IV is, and on a seeded sample
    of the rest."""
    n = 4
    south_seg, east_seg = Segment((0, 0), (n, 0)), Segment((n, 0), (n, n))
    sample = random.Random(17)
    total, tally = 0, Counter()
    for P in enumerate_convex_polygons(SearchRegion(-1, 6, -1, 5),
                                       avoid=scaled_lattice(n)):
        total += 1
        split = (splits_by_segment(P, south_seg)
                 and splits_by_segment(P, east_seg))
        if not split and sample.random() >= 0.02:
            continue
        box = P.bounding_box()
        for tag in TAG_ORDER:
            expected = reference_type_predicate(P, n, tag)
            assert _has_type(P.vertices, box, n, tag) is expected, (P, tag)
            tally[tag] += expected
    assert total == 364083
    assert (tally["II"], tally["III"], tally["IV"]) == (899, 5399, 26)
    assert all(tally[tag] for tag in TAG_ORDER), tally
