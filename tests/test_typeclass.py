"""Tests for position types, the lift normalization, and the reduction pipelines.

Expected traces and images below were worked out by hand, applying the maps
to the vertex lists step by step, before being frozen into assertions.
"""

import random
import re
from collections import deque
from functools import partial

import pytest

from conftest import random_polygon
from latgon import (
    TAG_ORDER,
    AffineMap,
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
from latgon.polygon import Segment
from latgon.svg import SCALE, render_polygon_svg
from latgon.typeclass import _PREDICATES, _generators, type_shape

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


@pytest.mark.parametrize(
    "vertices, n, tag, expected",
    [
        # off-lattice unit square: fits in a slab, and in the corner triangle
        ([(1, 1), (2, 1), (2, 2), (1, 2)], 3, "I", True),
        ([(1, 1), (2, 1), (2, 2), (1, 2)], 3, "Va", True),
        ([(1, 1), (2, 1), (2, 2), (1, 2)], 3, "II", False),
        ([(1, 1), (2, 1), (2, 2), (1, 2)], 3, "V", False),
        # triangle straddling the origin: west and north splits only
        ([(-2, -1), (-1, 2), (1, 1)], 3, "V", True),
        ([(-2, -1), (-1, 2), (1, 1)], 3, "I", False),
        ([(-2, -1), (-1, 2), (1, 1)], 3, "VI", False),
        ([(-2, -1), (-1, 2), (1, 1)], 3, "Va", False),
        # diamond around the scaled unit square: all four sides split
        ([(-1, 1), (2, -1), (4, 2), (1, 4)], 3, "II", True),
        ([(-1, 1), (2, -1), (4, 2), (1, 4)], 3, "I", False),
        # tall polygon reaching over the top edge
        ([(-3, -2), (-2, -2), (-1, -1), (3, 4), (2, 4), (-1, 2), (-2, 1), (-3, -1)], 3, "VI", True),
        ([(-3, -2), (-2, -2), (-1, -1), (3, 4), (2, 4), (-1, 2), (-2, 1), (-3, -1)], 3, "V", False),
        # wide triangle between the lines x = -4 and x = 8
        ([(-1, 1), (3, -2), (6, 5)], 4, "IV", True),
        ([(-1, 1), (3, -2), (6, 5)], 4, "III", False),
        # east-south triangle: no tag applies where it sits
        ([(2, 1), (1, -2), (-1, -1)], 3, "I", False),
        ([(2, 1), (1, -2), (-1, -1)], 3, "V", False),
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
    for P in rng.sample(pool3, 250):
        tags = polygon_types(P, 3)
        assert tags == tuple(t for t in TAG_ORDER if type_predicate(P, 3, t))
    # also on arbitrary polygons, free of 3Z^2 or not
    for _ in range(100):
        P = random_polygon(rng)
        assert polygon_types(P, 3) == tuple(
            t for t in TAG_ORDER if type_predicate(P, 3, t)
        )


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
        for (a, b, c), (x1, y1, x2, y2) in zip(lines, dashed):
            x0, y0 = int(drawn[0][0]), int(drawn[0][1])  # pixel of segs[0].a
            if a:  # x = c, vertical
                assert (a, b) == (1, 0) and x1 == x2
                assert int(x1) - x0 == SCALE * (c - segs[0].a[0])
            else:  # y = c, horizontal
                assert (a, b) == (0, 1) and y1 == y2
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
        ([(1, 1), (2, 1), (2, 2)], 3, "west segment"),
        ([(-2, -1), (-1, 2), (1, 1)], 2, "n >= 3"),
        ([(-1, -1), (1, 0), (0, 1)], 3, "not free"),
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


# ---------------------------------------------------------------------------
# reduction pipelines


def _assert_trace_shape(trace, source, n):
    assert trace.source == source
    assert trace.n == n
    assert transform(trace.source, trace.composed_map()) == trace.result
    m = trace.composed_map()
    assert m.linear.det in (1, -1)
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
        (TRIANGLE.vertices, ["reflect", "flip"], "Va", ((1, 2), (4, 1), (2, 4))),
        (
            [(-2, -2), (-1, -2), (1, 3), (-2, 2)],
            ["lift", "translate"],
            "III",
            ((1, 0), (2, -1), (4, 2), (1, 4)),
        ),
        # Paths that reflect before they lift, and lift again after a reflection.
        (
            [(-3, -1), (2, 1), (-2, 3)],
            ["reflect", "lift", "translate"],
            "III",
            ((0, 5), (2, -1), (4, 2)),
        ),
        (
            [(-3, -4), (2, 3), (-2, 1)],
            ["lift", "reflect", "lift", "translate"],
            "III",
            ((0, 5), (2, -1), (4, 2)),
        ),
        (
            [(-3, -4), (2, 3), (-2, -1)],
            ["lift", "reflect", "lift", "reflect", "reflect", "flip"],
            "Va",
            ((2, 0), (4, 1), (2, 4)),
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


@pytest.mark.parametrize(
    "vertices, labels, tag, result_vertices",
    [
        (
            [(-3, -2), (-2, -2), (-1, -1), (3, 4), (2, 4), (-1, 2), (-2, 1), (-3, -1)],
            ["center", "skew-reflect"],
            "I",
            ((0, 1), (1, -1), (2, -1), (3, 4), (3, 5), (2, 5), (1, 4), (0, 2)),
        ),
        (
            [(-2, -2), (-1, -1), (3, 4), (-2, 2)],
            ["center", "skew-reflect"],
            "III",
            ((0, 4), (1, -1), (4, 1), (0, 5)),
        ),
        (
            [(-2, -2), (-1, -2), (2, 5), (1, 4), (-2, 0)],
            ["lift"],
            "V",
            ((-2, 0), (-1, -1), (2, 3), (1, 3), (-2, 2)),
        ),
        (
            [(-2, -2), (-1, -2), (2, 5), (1, 5)],
            ["lift", "center", "skew-reflect"],
            "I",
            ((0, -1), (2, 0), (3, 4), (1, 3)),
        ),
        # The close-out to II, the unshifted skew to III, and the translate
        # exit of each stage.
        (
            [(-3, -1), (2, 1), (3, 4), (-2, 2)],
            ["center", "skew-reflect"],
            "II",
            ((-1, 1), (2, -1), (4, 2), (1, 4)),
        ),
        (
            [(-2, -1), (3, 2), (2, 4)],
            ["center", "skew-reflect"],
            "III",
            ((1, -1), (4, 1), (2, 4)),
        ),
        (
            [(-3, -2), (-1, -3), (1, 4)],
            ["lift", "translate"],
            "III",
            ((0, 4), (2, -1), (4, 2)),
        ),
        (
            [(-2, -2), (2, 3), (3, 10)],
            ["center", "lift", "translate"],
            "III",
            ((0, -1), (5, 1), (1, 4)),
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
        (reduce_type_v, [(1, 1), (2, 1), (2, 2), (1, 2)], 3),
        (reduce_type_vi, [(-2, -1), (-1, 2), (1, 1)], 3),
        (reduce_type_iv, [(1, 1), (2, 1), (2, 2), (1, 2)], 4),
    ],
)
def test_reducers_reject_wrong_type(reducer, vertices, n):
    with pytest.raises(ValueError, match="not of type"):
        reducer(from_points(vertices), n)


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
    m, t = classify(DIAMOND_II.translate((3, 0)), 3)
    assert t == PolygonType("II", 3)
    assert m.linear == UnimodularMap.identity()
    assert m.shift == (-3, 0)
    assert transform(DIAMOND_II.translate((3, 0)), m) == DIAMOND_II


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


def test_classify_state_limit():
    with pytest.raises(RuntimeError, match="state limit"):
        classify(SQUARE, 3, state_limit=0)


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


def reference_classify(P, n, search_bound=6, state_limit=20000):
    """The breadth-first search that tests each state when it is popped."""
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
            if _PREDICATES[tag](cur, n):
                return m, PolygonType(tag, n)
        for g in _generators(cur, n, search_bound):
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


def _outcome(search, P, **kwargs):
    """(map rows, shift, tag) of a classification, or the error it raised."""
    try:
        m, t = search(P, 3, **kwargs)
    except RuntimeError as exc:
        return str(exc)
    return m.linear.rows, m.shift, t.tag


@pytest.fixture(scope="module")
def reduce_corpus():
    """The 3Z^2-free polygons of [-2,4]x[-2,1]: types I, V, VI and Va."""
    region = SearchRegion(-2, 4, -2, 1)
    return tuple(enumerate_convex_polygons(region, avoid=scaled_lattice(3)))


def test_classify_matches_reference_search(reduce_corpus):
    assert len(reduce_corpus) == 4557
    for P in reduce_corpus:
        assert _outcome(classify, P) == _outcome(reference_classify, P), P


@pytest.mark.parametrize("state_limit", [0, 1, 2, 5, 25])
def test_classify_state_limit_matches_reference(reduce_corpus, state_limit):
    """Both searches raise, or both return the same, at every limit."""
    sample = random.Random(6).sample(reduce_corpus, 300)
    identity = (((1, 0), (0, 1)), (0, 0))
    moved_va = [r for r in map(partial(_outcome, classify), sample)
                if r[2] == "Va" and r[:2] != identity]
    assert len(moved_va) >= 5  # the sample reaches depth 1
    for P in sample:
        assert (_outcome(classify, P, state_limit=state_limit)
                == _outcome(reference_classify, P, state_limit=state_limit)), P
