"""Position types of sublattice-free polygons and reductions between them.

Fix a scale n >= 2 and the lattice nZ^2.  A polygon free of nZ^2 falls into
one of a handful of position types (I, II, III, IV, V, VI, plus the terminal
triangle form Va), distinguished by which short segments between neighbouring
lattice points it splits and which lattice lines it avoids.  The reductions
move a polygon of one type to a simpler type through automorphisms of nZ^2,
recording every step in a replayable trace; `classify` searches the
automorphism group breadth-first for *some* type.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

from .lattice import (  # InvariantViolation is re-exported from here
    AffineMap, InvariantViolation, UnimodularMap, Vec, scaled_lattice)
from .polygon import (
    LatticePolygon,
    Segment,
    _box,
    _chord_within,
    _image,
    _trusted,
    is_free_of,
    splits_by_segment,
    transform,
)

TAG_ORDER = ("I", "II", "III", "IV", "V", "VI", "Va")


def _check_scale(n: int) -> None:
    if n < 2:
        raise ValueError(f"type scale must be at least 2, got {n}")


@dataclass(frozen=True)
class PolygonType:
    tag: str
    n: int

    def __post_init__(self) -> None:
        if self.tag not in TAG_ORDER:
            raise ValueError(f"unknown type tag {self.tag!r}")
        _check_scale(self.n)


@dataclass(frozen=True)
class ReductionStep:
    """One recorded automorphism application; a step carries a shear a
    exactly when it is a lift, by (x, y) -> (x, y - a*x) with a >= 1."""

    label: str
    map: AffineMap
    shear: int | None = None

    def __post_init__(self) -> None:
        a = self.shear
        if self.label != "lift" or a is None or a < 1:
            valid = self.label != "lift" and a is None
        else:
            valid = self.map == AffineMap(UnimodularMap(((1, 0), (-a, 1))))
        if not valid:
            raise ValueError(f"step {self.label!r} has shear {a}: only a lift "
                             f"by ((1, 0), (-a, 1)), a >= 1, carries one")


@dataclass(frozen=True)
class ReductionTrace:
    """A replayable reduction: apply the steps in order to `source`."""

    source: LatticePolygon
    n: int
    steps: tuple[ReductionStep, ...]
    result: LatticePolygon
    result_type: PolygonType

    def composed_map(self) -> AffineMap:
        m = AffineMap.identity()
        for step in self.steps:
            m = step.map.compose(m)
        return m


@dataclass(frozen=True)
class TypeShape:
    """The lattice geometry that defines one position type at one scale.

    A free polygon has the type when every segment splits it, no line of
    `unsplit` splits it and no line of `unmet` meets it.  Every segment is
    axis-parallel, and a line (axis, c) is x = c for axis 0, y = c for axis
    1.  `straddle` = (x_lo, x_hi, y_lo, y_hi), worked out from the segments,
    holds the least and largest c of the lines x = c and y = c they lie on.
    """

    segments: tuple[Segment, ...]
    unsplit: tuple[tuple[int, int], ...] = ()
    unmet: tuple[tuple[int, int], ...] = ()
    straddle: tuple[int, int, int, int] = field(init=False)

    def __post_init__(self) -> None:
        xs = [s.a[0] for s in self.segments if s.a[1] != s.b[1]]
        ys = [s.a[1] for s in self.segments if s.a[1] == s.b[1]]
        object.__setattr__(self, "straddle",
                           (min(xs), max(xs), min(ys), max(ys)))


@lru_cache(maxsize=64)
def type_shape(tag: str, n: int) -> TypeShape | None:
    """The defining segments and lines of type `tag` (II to VI) at scale n."""
    return {
        "II": TypeShape((Segment((0, 0), (n, 0)), Segment((n, 0), (n, n)),
                         Segment((0, n), (n, n)), Segment((0, 0), (0, n)))),
        "III": TypeShape((Segment((0, 0), (n, 0)), Segment((n, 0), (n, n)),
                          Segment((n, n), (0, n))),
                         unsplit=((0, 0),)),
        "IV": TypeShape((Segment((0, 0), (0, n)), Segment((0, 0), (n, 0)),
                         Segment((n, 0), (n, n)), Segment((n, n), (2 * n, n))),
                        unmet=((0, -n), (0, 2 * n))),
        "V": TypeShape((Segment((0, 0), (-n, 0)), Segment((0, 0), (0, n))),
                       unsplit=((0, -n), (1, n))),
        "VI": TypeShape((Segment((0, 0), (-n, 0)), Segment((0, 0), (0, n)),
                         Segment((0, n), (n, n))),
                        unsplit=((0, -n), (0, n))),
    }.get(tag)


def _va_triangle(n: int) -> tuple[Vec, Vec, Vec]:
    """The corners of the Va triangle: its right angle, then the ends of its
    hypotenuse x + y = 2n."""
    return (0, 0), (2 * n, 0), (0, 2 * n)


def _rules_out(box: tuple[int, int, int, int], n: int, tag: str) -> bool:
    """Can no polygon whose bounding box contains `box`, with the same west,
    have type `tag` at scale n?

    The rules read the box alone.  I is ruled out once a multiple of n lies
    strictly inside both [west, east] and [south, north].  II to VI are ruled
    out once west >= the least x of the straddle, or the box splits a line
    of `unsplit` (west < c < east for x = c, south and north for y = c), or
    it meets a line of `unmet` (<= in place of <).  Va is ruled out once the
    box leaves the quadrant x, y >= 0 of its triangle's right angle, or
    reaches east or north past 2n, where its hypotenuse ends (the corners
    of _va_triangle).  A box that contains `box`, with the same west, has
    east and north no smaller and south no larger, so each rule that holds
    at a box holds at every such larger box.
    """
    west, east, south, north = box
    if tag == "I":
        return ((west // n + 1) * n < east
                and (south // n + 1) * n < north)
    if tag == "Va":
        (cx, cy), (ex, _), (_, ny) = _va_triangle(n)
        return west < cx or south < cy or east > ex or north > ny
    shape = type_shape(tag, n)
    if west >= shape.straddle[0]:
        return True
    for axis, c in shape.unsplit:
        if box[2 * axis] < c < box[2 * axis + 1]:
            return True
    for axis, c in shape.unmet:
        if box[2 * axis] <= c <= box[2 * axis + 1]:
            return True
    return False


def _has_type(vs: tuple[Vec, ...], box: tuple[int, int, int, int], n: int,
              tag: str) -> bool:
    """Does the polygon with canonical vertices `vs` and bounding box `box`,
    known to be free of nZ^2, have type `tag` at scale n?

    The box is read first: a box's extremes along an axis are its
    polygon's, so P splits x = c exactly when west < c < east and meets it
    exactly when west <= c <= east (y = c reads south and north).
    _rules_out settles I.  A segment on y = c splits P only if south < c <
    north, so a box of II to VI must lie across the whole `straddle`, the
    part that _rules_out does not read tested first, as it is the cheaper;
    only then is the polygon built and every segment tested.  Va needs
    every vertex on or below the hypotenuse too.
    """
    if tag == "I":
        return not _rules_out(box, n, tag)
    if tag == "Va":
        if _rules_out(box, n, tag):
            return False
        _, (hx, hy), _ = _va_triangle(n)
        return all(x + y <= hx + hy for x, y in vs)
    shape = type_shape(tag, n)
    _x_lo, x_hi, y_lo, y_hi = shape.straddle
    if (not (x_hi < box[1] and box[2] < y_lo and y_hi < box[3])
            or _rules_out(box, n, tag)):
        return False
    P = _trusted(vs)
    for seg in shape.segments:
        if not splits_by_segment(P, seg):
            return False
    return True


def defining_geometry(tag: str, n: int) -> tuple[tuple[Segment, ...],
                                                  tuple[tuple[int, int], ...]]:
    """The segments and lines that define a type, for drawing.

    Types II to VI give their `type_shape` segments and (axis, c) lines, Va
    the edges of its triangle, and I nothing.
    """
    if tag == "Va":
        a, b, c = _va_triangle(n)
        return (Segment(a, b), Segment(b, c), Segment(c, a)), ()
    shape = type_shape(tag, n)
    return (shape.segments, shape.unsplit + shape.unmet) if shape else ((), ())


def type_predicate(P: LatticePolygon, n: int, tag: str) -> bool:
    """Does the polygon have the given position type at scale n?

    A polygon that is not free of nZ^2 has no type (False for every tag).
    Otherwise _has_type decides: the box settles I and every `unsplit` and
    `unmet` line, and only then are the type's segments tested.  The
    reduction corpus calls _has_type without this freeness test, as its
    enumerator has already re-checked every polygon it emits against nZ^2;
    a tagged search calls it on the closed chains its fan-triangle test
    found free, and re-checks only those of the type.
    """
    _check_scale(n)
    if tag not in TAG_ORDER:
        raise ValueError(f"unknown type tag {tag!r}")
    if not is_free_of(P, scaled_lattice(n)):
        return False
    return _has_type(P.vertices, P.bounding_box(), n, tag)


def polygon_types(P: LatticePolygon, n: int) -> tuple[str, ...]:
    """All tags matching the polygon, in canonical tag order."""
    _check_scale(n)
    if not is_free_of(P, scaled_lattice(n)):
        return ()
    vs, box = P.vertices, P.bounding_box()
    return tuple(tag for tag in TAG_ORDER if _has_type(vs, box, n, tag))


# ---------------------------------------------------------------------------
# Lift

def _west_split_limit(P: LatticePolygon, n: int) -> int:
    """The largest integer a whose segment [0, (-n, -a*n)] splits P, given
    that a = 0 does, P is free of nZ^2 and [0, (0, n)] splits P.

    Both ends of the segment lie in nZ^2, outside P, so it splits P exactly
    when its open part meets int P: when a is the slope y/x of a point of
    int P with -n < x < 0.  That set is convex and y/x is continuous on it,
    so these slopes form an open interval, which holds 0; the splitting
    integers a >= 0 are 0, ..., ceil(sup) - 1.  The supremum is the largest
    y/x over the corners of P ∩ {-n <= x <= 0} off x = 0: the vertices with
    -n <= x < 0 and the edges' crossings of x = -n.  (P meets x = 0 only
    above the origin, as the north segment splits it, so y/x falls without
    bound there.)  Slopes are compared by cross-multiplication.
    """
    num, den = None, 1
    x0, y0 = P.vertices[-1]
    for x1, y1 in P.vertices:
        if -n <= x1 < 0 and (num is None or -y1 * den > num * -x1):
            num, den = -y1, -x1
        if (x0 + n) * (x1 + n) < 0:
            # y/x at the crossing (-n, (y0*(x1+n) - y1*(x0+n)) / (x1-x0))
            cn, cd = y1 * (x0 + n) - y0 * (x1 + n), n * (x1 - x0)
            if cd < 0:
                cn, cd = -cn, -cd
            if num is None or cn * den > num * cd:
                num, den = cn, cd
        x0, y0 = x1, y1
    return -(-num // den) - 1


def lift(P: LatticePolygon, n: int) -> tuple[int, LatticePolygon, AffineMap]:
    """Shear (x, y) -> (x, y - a*x) as far as the west segment stays split.

    Requires n >= 3, P free of nZ^2, and both [0,(-n,0)] and [0,(0,n)]
    splitting P.  Returns (a0, lifted polygon, the applied map), where a0 is
    the largest shear amount under which the west segment still splits.
    The shear has determinant 1, so its image splits by [0,(-n,0)] exactly
    when P splits by the preimage [0,(-n,-a*n)]: the sweep tests that on P
    itself with the chord kernel, and only the lifted image is built.  The
    sweep stops at the first shear that does not split; _west_split_limit
    gives every splitting shear in closed form, and the two must agree, so
    no shear past the first failure splits again.
    """
    if n < 3:
        raise ValueError(f"lift needs scale n >= 3, got {n}")
    if not is_free_of(P, scaled_lattice(n)):
        raise ValueError("polygon is not free of the scaled lattice")
    return _lift(P, n)


def _lift(P: LatticePolygon, n: int
          ) -> tuple[int, LatticePolygon, AffineMap]:
    """`lift` of a polygon already proven free of nZ^2, at a scale n >= 3."""
    west_seg, north_seg = type_shape("V", n).segments
    if not splits_by_segment(P, west_seg):
        raise ValueError("west segment does not split the polygon")
    if not splits_by_segment(P, north_seg):
        raise ValueError("north segment does not split the polygon")
    south = P.bounding_box()[2]
    upper_seg = Segment((0, n), (n, 2 * n))
    upper_split_before = splits_by_segment(P, upper_seg)

    a0 = 0
    while _chord_within(P, (0, 0), (-n, -(a0 + 1) * n)):
        a0 += 1
    limit = _west_split_limit(P, n)
    if limit != a0:
        raise InvariantViolation(
            f"the west segment splits up to shear {limit} in closed form, "
            f"but the sweep stops at {a0}: bug or counterexample")
    applied = AffineMap(UnimodularMap(((1, 0), (-a0, 1))))
    lifted = transform(P, applied)

    if not splits_by_segment(lifted, north_seg):
        raise InvariantViolation("lift lost the north split")
    if splits_by_segment(lifted, Segment((0, 0), (-n, -n))):
        raise InvariantViolation(
            "lift is split by the descending diagonal segment")
    if not upper_split_before and splits_by_segment(lifted, upper_seg):
        raise InvariantViolation(
            "lift created an upper-segment split that was absent before")
    if a0 == 0 and lifted != P:
        raise InvariantViolation("the identity shear moved the polygon")
    if a0 > 0 and lifted.bounding_box()[2] <= south:
        raise InvariantViolation("lift did not raise the south extreme")
    return a0, lifted, applied


# ---------------------------------------------------------------------------
# Reductions

def _proven_image(cur: LatticePolygon, step: ReductionStep, n: int,
                  image: LatticePolygon | None = None) -> LatticePolygon:
    """`cur`'s image under `step`, proven: the map is an automorphism of
    nZ^2, and the image (built here unless given) is free of nZ^2 with as
    many vertices as `cur`."""
    lat = scaled_lattice(n)
    if not step.map.is_automorphism_of(lat):
        raise InvariantViolation(
            f"step {step.label} is not an automorphism of {lat}")
    if image is None:
        image = transform(cur, step.map)
    if not is_free_of(image, lat):
        raise InvariantViolation(f"freeness lost after step {step.label}")
    if len(image) != len(cur):
        raise InvariantViolation(f"step {step.label} changed the vertex count")
    return image


def _check_result(trace: ReductionTrace) -> None:
    """The composed map carries the source to the result, which has its
    type; the result's freeness is already proven, step by step."""
    if transform(trace.source, trace.composed_map()) != trace.result:
        raise InvariantViolation("composed map misses the result")
    result, tag = trace.result, trace.result_type.tag
    if not _has_type(result.vertices, result.bounding_box(), trace.n, tag):
        raise InvariantViolation(f"result fails the {tag} predicate")


def _check_trace(trace: ReductionTrace) -> None:
    """Prove a decoded trace: its source is free of nZ^2, and its steps are
    replayed through _proven_image before _check_result closes it."""
    if not is_free_of(trace.source, scaled_lattice(trace.n)):
        raise InvariantViolation("trace source is not free of the lattice")
    cur = trace.source
    for step in trace.steps:
        cur = _proven_image(cur, step, trace.n)
    _check_result(trace)


class _Recorder:
    """One reduction in progress: its source, its steps and where they lead.

    The constructor checks the scale and the source type (so its freeness);
    each step is proven through _proven_image as it is recorded, and
    `finish` closes the trace with _check_result.
    """

    def __init__(self, P: LatticePolygon, n: int, tag: str,
                 min_scale: int) -> None:
        if n < min_scale:
            raise ValueError(
                f"reductions need scale n >= {min_scale}, got {n}")
        if not type_predicate(P, n, tag):
            raise ValueError(f"polygon is not of type {tag}")
        self.source = self.cur = P
        self.n = n
        self.steps: list[ReductionStep] = []

    def apply(self, label: str, m: AffineMap, shear: int | None = None,
              image: LatticePolygon | None = None) -> None:
        step = ReductionStep(label, m, shear)
        self.cur = _proven_image(self.cur, step, self.n, image)
        self.steps.append(step)

    def lift(self) -> int:
        """Lift the current polygon and return a0; only a0 > 0 is recorded.

        The polygon is the reduction's own and proven free, so `_lift`
        skips that scan, and a failed precondition here is a broken law.
        """
        try:
            a0, lifted, m = _lift(self.cur, self.n)
        except ValueError as exc:
            raise InvariantViolation(f"lift: {exc}") from exc
        if a0 > 0:
            self.apply("lift", m, a0, lifted)
        return a0

    def finish(self, tag: str) -> ReductionTrace:
        trace = ReductionTrace(self.source, self.n, tuple(self.steps),
                               self.cur, PolygonType(tag, self.n))
        _check_result(trace)
        return trace


_REFLECT_ANTIDIAGONAL = AffineMap(UnimodularMap(((0, -1), (-1, 0))))


def reduce_type_v(P: LatticePolygon, n: int) -> ReductionTrace:
    """Reduce a type V polygon to type III or to the terminal triangle form Va.

    Alternates lifts with reflections across the falling diagonal.  Two
    consecutive identity lifts mean the polygon sits inside the fixed
    triangle {x >= -n, y <= n, x <= y}, which a final flip carries onto the
    Va triangle; otherwise the upper-west segment eventually splits and a
    translation lands in type III.
    """
    rec = _Recorder(P, n, "V", 3)
    identity_lifts = 0
    for _ in range(2 * (abs(P.bounding_box()[2]) + n) + 16):
        identity_lifts = 0 if rec.lift() else identity_lifts + 1
        if splits_by_segment(rec.cur, Segment((-n, n), (0, n))):
            rec.apply("translate", AffineMap.translation((n, 0)))
            return rec.finish("III")
        if identity_lifts >= 2:
            rec.apply("flip",
                      AffineMap(UnimodularMap(((1, 0), (0, -1))), (n, n)))
            return rec.finish("Va")
        rec.apply("reflect", _REFLECT_ANTIDIAGONAL)
    raise InvariantViolation("type V reduction exceeded its termination guard")


def reduce_type_vi(P: LatticePolygon, n: int) -> ReductionTrace:
    """Reduce a type VI polygon to one of the types I, II, III, or V.

    At most two lift stages, separated by a point reflection through the
    center of the north segment; the second stage closes with a skew
    reflection picked by which diagonal segments split.
    """
    rec = _Recorder(P, n, "VI", 3)
    for stage in range(2):
        if stage:
            rec.apply("center",
                      AffineMap(UnimodularMap(((-1, 0), (0, -1))), (0, n)))
        rec.lift()
        _, _, south, north = rec.cur.bounding_box()
        if not south < n < north:  # y = n does not split the polygon
            return rec.finish("V")
        if splits_by_segment(rec.cur, Segment((-n, n), (0, n))):
            rec.apply("translate", AffineMap.translation((n, 0)))
            return rec.finish("III")
    rising = splits_by_segment(rec.cur, Segment((-n, 0), (0, n)))
    diagonal = splits_by_segment(rec.cur, Segment((0, 0), (n, n)))
    if diagonal and not rising:
        rec.apply("skew-reflect",
                  AffineMap(UnimodularMap(((1, -1), (0, 1))), (n, 0)))
        return rec.finish("III")
    rec.apply("skew-reflect", AffineMap(UnimodularMap(((-1, 1), (0, 1)))))
    return rec.finish("II" if diagonal else "III" if rising else "I")


def reduce_type_iv(P: LatticePolygon, n: int) -> ReductionTrace:
    """Resolve a type IV polygon: terminal, or skew-reflect into II or III.

    A polygon split by the falling segment [(0,-n),(n,0)] is already the
    terminal type IV shape (empty trace).  Otherwise the involution
    (x, y) -> (-x + y + n, y) lands in type II or type III; any other outcome
    is a bug or a counterexample.
    """
    rec = _Recorder(P, n, "IV", 2)
    if splits_by_segment(P, Segment((0, -n), (n, 0))):
        return rec.finish("IV")
    rec.apply("skew-reflect",
              AffineMap(UnimodularMap(((-1, 1), (0, 1))), (n, 0)))
    vs, box = rec.cur.vertices, rec.cur.bounding_box()
    for tag in ("II", "III"):
        if _has_type(vs, box, n, tag):
            return rec.finish(tag)
    raise InvariantViolation(
        "type IV image is neither II nor III: bug or counterexample")


#: The reduction pipeline of each type that has one, in the order a caller
#: picks among them.
PIPELINES = {"V": reduce_type_v, "VI": reduce_type_vi, "IV": reduce_type_iv}


# ---------------------------------------------------------------------------
# Breadth-first classification
#
# The search runs on integer maps: (a, b, c, d, sx, sy) is the affine map
# (x, y) -> (a*x + b*y + sx, c*x + d*y + sy).  Only the returned state is
# built as an AffineMap and a PolygonType.

#: classify's default search bound, and its state limit, read at each call.
_SEARCH_BOUND = 6
_STATE_LIMIT = 20000

_SIGNED_PERMS = (
    (0, 1, 1, 0, 0, 0),
    (0, -1, 1, 0, 0, 0),
    (0, 1, -1, 0, 0, 0),
    (0, -1, -1, 0, 0, 0),
    (-1, 0, 0, 1, 0, 0),
    (1, 0, 0, -1, 0, 0),
    (-1, 0, 0, -1, 0, 0),
)


@lru_cache(maxsize=32)
def _fixed_generators(n: int, bound: int) -> tuple[tuple[int, ...], ...]:
    """The generators that do not depend on the polygon, in search order."""
    gens = list(_SIGNED_PERMS)
    for a in range(1, bound + 1):
        gens += [(1, 0, -a, 1, 0, 0), (1, 0, a, 1, 0, 0),
                 (1, -a, 0, 1, 0, 0), (1, a, 0, 1, 0, 0)]
    gens += [(1, 0, 0, 1, n, 0), (1, 0, 0, 1, -n, 0),
             (1, 0, 0, 1, 0, n), (1, 0, 0, 1, 0, -n)]
    return tuple(gens)


def _images(P: LatticePolygon, n: int, bound: int):
    """(vertices, box, map) for P and its images under compositions of the
    generators, each image once, in breadth-first order.

    The generators of a state are the fixed ones, preceded by the translation
    by a multiple of n that moves its box's south-west corner into [0, n)^2
    when it is not there already.  Compositions with a matrix entry above
    `bound` or a shift component above bound*n are pruned.  A state is
    yielded as soon as it is queued, so a caller that stops at the first
    match builds none of its later siblings.
    """
    fixed = _fixed_generators(n, bound)
    shift_bound = bound * n
    start = (P.vertices, P.bounding_box(), (1, 0, 0, 1, 0, 0))
    yield start
    seen = {P.vertices}
    queue = deque([start])
    while queue:
        vs, (west, _east, south, _north), (ma, mb, mc, md, mx, my) = \
            queue.popleft()
        rx, ry = -n * (west // n), -n * (south // n)
        gens = fixed if rx == ry == 0 else ((1, 0, 0, 1, rx, ry),) + fixed
        for ga, gb, gc, gd, gx, gy in gens:
            a, b = ga * ma + gb * mc, ga * mb + gb * md
            c, d = gc * ma + gd * mc, gc * mb + gd * md
            if max(abs(a), abs(b), abs(c), abs(d)) > bound:
                continue
            sx, sy = ga * mx + gb * my + gx, gc * mx + gd * my + gy
            if abs(sx) > shift_bound or abs(sy) > shift_bound:
                continue
            img = _image(vs, ga, gb, gc, gd, gx, gy)
            if img in seen:
                continue
            seen.add(img)
            state = (img, _box(img), (a, b, c, d, sx, sy))
            yield state
            queue.append(state)


def _classify_core(P: LatticePolygon, n: int,
                   search_bound: int = _SEARCH_BOUND
                   ) -> tuple[str, tuple[Vec, ...], tuple[int, ...]]:
    """(tag, image vertices, integer map) of the first state of classify's
    search that has a type, and its first tag in TAG_ORDER, for a polygon
    the caller knows is free of nZ^2.

    The map (a, b, c, d, sx, sy) is (x, y) -> (a*x + b*y + sx,
    c*x + d*y + sy), and the vertices are the image's, in canonical order.
    Raises RuntimeError as classify does.
    """
    for tested, (vs, box, m) in enumerate(_images(P, n, search_bound), 1):
        if tested > _STATE_LIMIT:
            raise RuntimeError(
                f"classification state limit {_STATE_LIMIT} exceeded"
            )
        for tag in TAG_ORDER:
            if _has_type(vs, box, n, tag):
                return tag, vs, m
    raise RuntimeError(
        f"no position type reachable within bound {search_bound}"
    )


def classify(P: LatticePolygon, n: int, search_bound: int = _SEARCH_BOUND
             ) -> tuple[AffineMap, PolygonType]:
    """Find an nZ^2-automorphism carrying P into some position type.

    Breadth-first search over compositions of a fixed generator family
    (recentering translation, signed permutations, shears and unit
    translations), pruning maps whose matrix entries exceed search_bound or
    whose shift components exceed search_bound*n.  Returns the first
    (map, type) found, testing tags in canonical order; raises RuntimeError
    when more than _STATE_LIMIT states (P included) would be tested or the
    bounded search is exhausted.
    """
    _check_scale(n)
    if not is_free_of(P, scaled_lattice(n)):
        raise ValueError("polygon is not free of the scaled lattice")
    tag, _vs, (a, b, c, d, sx, sy) = _classify_core(P, n, search_bound)
    return (AffineMap(UnimodularMap(((a, b), (c, d))), (sx, sy)),
            PolygonType(tag, n))
