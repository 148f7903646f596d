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
from dataclasses import dataclass
from functools import lru_cache, partial

from .lattice import (  # InvariantViolation is re-exported from here
    AffineMap, InvariantViolation, UnimodularMap, scaled_lattice)
from .polygon import (
    Line,
    LatticePolygon,
    Segment,
    cardinal_profile,
    is_free_of,
    meets_line,
    splits_by_line,
    splits_by_segment,
    transform,
)

TAG_ORDER = ("I", "II", "III", "IV", "V", "VI", "Va")


@dataclass(frozen=True)
class PolygonType:
    tag: str
    n: int

    def __post_init__(self) -> None:
        if self.tag not in TAG_ORDER:
            raise ValueError(f"unknown type tag {self.tag!r}")
        if self.n < 2:
            raise ValueError(f"type scale must be at least 2, got {self.n}")


@dataclass(frozen=True)
class ReductionStep:
    """One recorded automorphism application; `shear` is set on lift steps."""

    label: str
    map: AffineMap
    shear: int | None = None


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


def _no_multiple_strictly_between(lo: int, hi: int, n: int) -> bool:
    return (lo // n + 1) * n >= hi


def _pred_i(P: LatticePolygon, n: int) -> bool:
    prof = cardinal_profile(P)
    return (_no_multiple_strictly_between(prof.west, prof.east, n)
            or _no_multiple_strictly_between(prof.south, prof.north, n))


@dataclass(frozen=True)
class TypeShape:
    """The lattice geometry that defines one position type at one scale.

    A free polygon has the type when every segment splits it, no line of
    `unsplit` splits it and no line of `unmet` meets it.  A line (a, b, c)
    is {a*x + b*y = c}.
    """

    segments: tuple[Segment, ...]
    unsplit: tuple[Line, ...] = ()
    unmet: tuple[Line, ...] = ()


@lru_cache(maxsize=64)
def type_shape(tag: str, n: int) -> TypeShape | None:
    """The defining segments and lines of type `tag` (II to VI) at scale n."""
    return {
        "II": TypeShape((Segment((0, 0), (n, 0)), Segment((n, 0), (n, n)),
                         Segment((0, n), (n, n)), Segment((0, 0), (0, n)))),
        "III": TypeShape((Segment((0, 0), (n, 0)), Segment((n, 0), (n, n)),
                          Segment((n, n), (0, n))),
                         unsplit=((1, 0, 0),)),
        "IV": TypeShape((Segment((0, 0), (0, n)), Segment((0, 0), (n, 0)),
                         Segment((n, 0), (n, n)), Segment((n, n), (2 * n, n))),
                        unmet=((1, 0, -n), (1, 0, 2 * n))),
        "V": TypeShape((Segment((0, 0), (-n, 0)), Segment((0, 0), (0, n))),
                       unsplit=((1, 0, -n), (0, 1, n))),
        "VI": TypeShape((Segment((0, 0), (-n, 0)), Segment((0, 0), (0, n)),
                         Segment((0, n), (n, n))),
                        unsplit=((1, 0, -n), (1, 0, n))),
    }.get(tag)


def _pred_shape(P: LatticePolygon, n: int, tag: str) -> bool:
    shape = type_shape(tag, n)
    return (all(splits_by_segment(P, s) for s in shape.segments)
            and not any(splits_by_line(P, line) for line in shape.unsplit)
            and not any(meets_line(P, line) for line in shape.unmet))


def _pred_va(P: LatticePolygon, n: int) -> bool:
    """Inside the triangle whose corners `defining_geometry` draws."""
    return all(x >= 0 and y >= 0 and x + y <= 2 * n for x, y in P.vertices)


_PREDICATES = {
    "I": _pred_i,
    "II": partial(_pred_shape, tag="II"),
    "III": partial(_pred_shape, tag="III"),
    "IV": partial(_pred_shape, tag="IV"),
    "V": partial(_pred_shape, tag="V"),
    "VI": partial(_pred_shape, tag="VI"),
    "Va": _pred_va,
}


def defining_geometry(tag: str, n: int
                      ) -> tuple[tuple[Segment, ...], tuple[Line, ...]]:
    """The segments and lines that define a type, for drawing.

    Types II to VI give their `type_shape` segments and lines, Va the edges
    of its triangle, and I nothing.
    """
    if tag == "Va":
        a, b, c = (0, 0), (2 * n, 0), (0, 2 * n)
        return (Segment(a, b), Segment(b, c), Segment(c, a)), ()
    shape = type_shape(tag, n) or TypeShape(())
    return shape.segments, shape.unsplit + shape.unmet


def type_predicate(P: LatticePolygon, n: int, tag: str) -> bool:
    """Does the polygon have the given position type at scale n?

    A polygon that is not free of nZ^2 has no type (False for every tag).
    """
    if n < 2:
        raise ValueError(f"type scale must be at least 2, got {n}")
    if tag not in TAG_ORDER:
        raise ValueError(f"unknown type tag {tag!r}")
    if not is_free_of(P, scaled_lattice(n)):
        return False
    return _PREDICATES[tag](P, n)


def polygon_types(P: LatticePolygon, n: int) -> tuple[str, ...]:
    """All tags matching the polygon, in canonical tag order."""
    if not is_free_of(P, scaled_lattice(n)):
        return ()
    return tuple(tag for tag in TAG_ORDER if _PREDICATES[tag](P, n))


# ---------------------------------------------------------------------------
# Lift

def lift(P: LatticePolygon, n: int) -> tuple[int, LatticePolygon, AffineMap]:
    """Shear (x, y) -> (x, y - a*x) as far as the west segment stays split.

    Requires n >= 3, P free of nZ^2, and both [0,(-n,0)] and [0,(0,n)]
    splitting P.  Returns (a0, lifted polygon, the applied map), where a0 is
    the largest shear amount under which the west segment still splits.
    """
    if n < 3:
        raise ValueError(f"lift needs scale n >= 3, got {n}")
    if not is_free_of(P, scaled_lattice(n)):
        raise ValueError("polygon is not free of the scaled lattice")
    west_seg, north_seg = type_shape("V", n).segments
    if not splits_by_segment(P, west_seg):
        raise ValueError("west segment does not split the polygon")
    if not splits_by_segment(P, north_seg):
        raise ValueError("north segment does not split the polygon")
    prof = cardinal_profile(P)
    upper_seg = Segment((0, n), (n, 2 * n))
    upper_split_before = splits_by_segment(P, upper_seg)

    def sheared(a: int) -> LatticePolygon:
        m = AffineMap(UnimodularMap(((1, 0), (-a, 1))))
        return transform(P, m)

    a0 = 0
    a = 1
    while splits_by_segment(sheared(a), west_seg):
        a0 = a
        a += 1
    lifted = sheared(a0)
    # The split set must be the initial segment {0, ..., a0}: probe beyond the
    # first failure far enough that a revival would be caught.
    for extra in range(a + 1, a + n + (prof.north - prof.south) + 4):
        if splits_by_segment(sheared(extra), west_seg):
            raise InvariantViolation(
                f"west split revives at shear {extra}: bug or counterexample")
    applied = AffineMap(UnimodularMap(((1, 0), (-a0, 1))))

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
    if a0 > 0 and cardinal_profile(lifted).south <= prof.south:
        raise InvariantViolation("lift did not raise the south extreme")
    return a0, lifted, applied


# ---------------------------------------------------------------------------
# Reductions

def _check_trace(trace: ReductionTrace) -> None:
    lat = scaled_lattice(trace.n)
    cur = trace.source
    if not is_free_of(cur, lat):
        raise InvariantViolation("trace source is not free of the lattice")
    for step in trace.steps:
        if not step.map.is_automorphism_of(lat):
            raise InvariantViolation(
                f"step {step.label} is not an automorphism of {lat}")
        cur = transform(cur, step.map)
        if not is_free_of(cur, lat):
            raise InvariantViolation(f"freeness lost after step {step.label}")
        if len(cur) != len(trace.source):
            raise InvariantViolation("vertex count changed")
    if cur != trace.result:
        raise InvariantViolation("trace does not replay to its result")
    if transform(trace.source, trace.composed_map()) != trace.result:
        raise InvariantViolation("composed map misses the result")
    if not type_predicate(trace.result, trace.n, trace.result_type.tag):
        raise InvariantViolation(
            f"result fails the {trace.result_type.tag} predicate")


_REFLECT_ANTIDIAGONAL = AffineMap(UnimodularMap(((0, -1), (-1, 0))))


def reduce_type_v(P: LatticePolygon, n: int) -> ReductionTrace:
    """Reduce a type V polygon to type III or to the terminal triangle form Va.

    Alternates lifts with reflections across the falling diagonal.  Two
    consecutive identity lifts mean the polygon sits inside the fixed
    triangle {x >= -n, y <= n, x <= y}, which a final flip carries onto the
    Va triangle; otherwise the upper-west segment eventually splits and a
    translation lands in type III.
    """
    if n < 3:
        raise ValueError(f"reductions need scale n >= 3, got {n}")
    if not type_predicate(P, n, "V"):
        raise ValueError("polygon is not of type V")
    steps: list[ReductionStep] = []
    cur = P
    identity_lifts = 0
    guard = 2 * (abs(cardinal_profile(P).south) + n) + 16
    result_tag = None
    for _ in range(guard):
        a0, lifted, m = lift(cur, n)
        if a0 > 0:
            steps.append(ReductionStep("lift", m, a0))
            cur = lifted
            identity_lifts = 0
        else:
            identity_lifts += 1
        if splits_by_segment(cur, Segment((-n, n), (0, n))):
            shift = AffineMap.translation((n, 0))
            steps.append(ReductionStep("translate", shift))
            cur = cur.translate((n, 0))
            result_tag = "III"
            break
        if identity_lifts >= 2:
            flip = AffineMap(UnimodularMap(((1, 0), (0, -1))), (n, n))
            steps.append(ReductionStep("flip", flip))
            cur = transform(cur, flip)
            result_tag = "Va"
            break
        steps.append(ReductionStep("reflect", _REFLECT_ANTIDIAGONAL))
        cur = transform(cur, _REFLECT_ANTIDIAGONAL)
    if result_tag is None:
        raise InvariantViolation(
            "type V reduction exceeded its termination guard")
    trace = ReductionTrace(P, n, tuple(steps), cur, PolygonType(result_tag, n))
    _check_trace(trace)
    return trace


def reduce_type_vi(P: LatticePolygon, n: int) -> ReductionTrace:
    """Reduce a type VI polygon to one of the types I, II, III, or V.

    At most two lift stages, separated by a point reflection through the
    center of the north segment; the second stage closes with one of four
    skew reflections picked by which diagonal segments split.
    """
    if n < 3:
        raise ValueError(f"reductions need scale n >= 3, got {n}")
    if not type_predicate(P, n, "VI"):
        raise ValueError("polygon is not of type VI")
    steps: list[ReductionStep] = []
    cur = P

    def do_lift() -> LatticePolygon:
        a0, lifted, m = lift(cur, n)
        if a0 > 0:
            steps.append(ReductionStep("lift", m, a0))
        return lifted

    def stage_exit() -> str | None:
        if not splits_by_line(cur, (0, 1, n)):
            return "V"
        if splits_by_segment(cur, Segment((-n, n), (0, n))):
            shift = AffineMap.translation((n, 0))
            steps.append(ReductionStep("translate", shift))
            return "III"
        return None

    cur = do_lift()
    result_tag = stage_exit()
    if result_tag == "III":
        cur = cur.translate((n, 0))
    elif result_tag is None:
        center = AffineMap(UnimodularMap(((-1, 0), (0, -1))), (0, n))
        steps.append(ReductionStep("center", center))
        cur = transform(cur, center)
        cur = do_lift()
        result_tag = stage_exit()
        if result_tag == "III":
            cur = cur.translate((n, 0))
        elif result_tag is None:
            rising = splits_by_segment(cur, Segment((-n, 0), (0, n)))
            diagonal = splits_by_segment(cur, Segment((0, 0), (n, n)))
            unskew = AffineMap(UnimodularMap(((-1, 1), (0, 1))))
            unskew_shift = AffineMap(UnimodularMap(((1, -1), (0, 1))), (n, 0))
            if not rising and not diagonal:
                result_tag, m = "I", unskew
            elif rising and diagonal:
                result_tag, m = "II", unskew
            elif rising:
                result_tag, m = "III", unskew
            else:
                result_tag, m = "III", unskew_shift
            steps.append(ReductionStep("skew-reflect", m))
            cur = transform(cur, m)
    trace = ReductionTrace(P, n, tuple(steps), cur, PolygonType(result_tag, n))
    _check_trace(trace)
    return trace


def reduce_type_iv(P: LatticePolygon, n: int) -> ReductionTrace:
    """Resolve a type IV polygon: terminal, or skew-reflect into II or III.

    A polygon split by the falling segment [(0,-n),(n,0)] is already the
    terminal type IV shape (empty trace).  Otherwise the involution
    (x, y) -> (-x + y + n, y) lands in type II or type III; any other outcome
    is a bug or a counterexample.
    """
    if n < 2:
        raise ValueError(f"type scale must be at least 2, got {n}")
    if not type_predicate(P, n, "IV"):
        raise ValueError("polygon is not of type IV")
    if splits_by_segment(P, Segment((0, -n), (n, 0))):
        trace = ReductionTrace(P, n, (), P, PolygonType("IV", n))
        _check_trace(trace)
        return trace
    skew = AffineMap(UnimodularMap(((-1, 1), (0, 1))), (n, 0))
    cur = transform(P, skew)
    if type_predicate(cur, n, "II"):
        tag = "II"
    elif type_predicate(cur, n, "III"):
        tag = "III"
    else:
        raise InvariantViolation(
            "type IV image is neither II nor III: bug or counterexample")
    trace = ReductionTrace(
        P, n, (ReductionStep("skew-reflect", skew),), cur, PolygonType(tag, n)
    )
    _check_trace(trace)
    return trace


#: The reduction pipeline of each type that has one, in the order a caller
#: picks among them.
PIPELINES = {"V": reduce_type_v, "VI": reduce_type_vi, "IV": reduce_type_iv}


# ---------------------------------------------------------------------------
# Breadth-first classification

_SIGNED_PERMS = (
    ((0, 1), (1, 0)),
    ((0, -1), (1, 0)),
    ((0, 1), (-1, 0)),
    ((0, -1), (-1, 0)),
    ((-1, 0), (0, 1)),
    ((1, 0), (0, -1)),
    ((-1, 0), (0, -1)),
)


@lru_cache(maxsize=32)
def _fixed_generators(n: int, bound: int) -> tuple[AffineMap, ...]:
    """The generators that do not depend on the polygon, in search order."""
    gens = [AffineMap(UnimodularMap(rows)) for rows in _SIGNED_PERMS]
    for a in range(1, bound + 1):
        gens.append(AffineMap(UnimodularMap(((1, 0), (-a, 1)))))
        gens.append(AffineMap(UnimodularMap(((1, 0), (a, 1)))))
        gens.append(AffineMap(UnimodularMap(((1, -a), (0, 1)))))
        gens.append(AffineMap(UnimodularMap(((1, a), (0, 1)))))
    for shift in ((n, 0), (-n, 0), (0, n), (0, -n)):
        gens.append(AffineMap.translation(shift))
    return tuple(gens)


def _generators(P: LatticePolygon, n: int, bound: int) -> tuple[AffineMap, ...]:
    """Candidate nZ^2-automorphisms to move P, in deterministic order."""
    west, _east, south, _north = P.bounding_box()
    recenter = (-n * (west // n), -n * (south // n))
    if recenter != (0, 0):
        return (AffineMap.translation(recenter),) + _fixed_generators(n, bound)
    return _fixed_generators(n, bound)


def _states(P: LatticePolygon, n: int, bound: int):
    """(image, map) pairs reachable from P, each once, in breadth-first order.

    A state is yielded as soon as it is queued, so a caller that stops at the
    first match builds none of its later siblings.
    """
    identity = AffineMap.identity()
    yield P, identity
    seen = {P.vertices}
    queue = deque([(P, identity)])
    shift_bound = bound * n
    while queue:
        cur, m = queue.popleft()
        for g in _generators(cur, n, bound):
            nm = g.compose(m)
            if nm.linear.max_entry() > bound:
                continue
            if max(abs(nm.shift[0]), abs(nm.shift[1])) > shift_bound:
                continue
            np = transform(cur, g)
            if np.vertices in seen:
                continue
            seen.add(np.vertices)
            yield np, nm
            queue.append((np, nm))


def classify(P: LatticePolygon, n: int, search_bound: int = 6,
             state_limit: int = 20000) -> tuple[AffineMap, PolygonType]:
    """Find an nZ^2-automorphism carrying P into some position type.

    Breadth-first search over compositions of a fixed generator family
    (recentering translation, signed permutations, shears and unit
    translations), pruning maps whose matrix entries exceed search_bound or
    whose shift components exceed search_bound*n.  Returns the first
    (map, type) found, testing tags in canonical order; raises RuntimeError
    when more than state_limit states (P included) would be tested or the
    bounded search is exhausted.
    """
    if n < 2:
        raise ValueError(f"type scale must be at least 2, got {n}")
    if not is_free_of(P, scaled_lattice(n)):
        raise ValueError("polygon is not free of the scaled lattice")
    for tested, (cur, m) in enumerate(_states(P, n, search_bound), 1):
        if tested > state_limit:
            raise RuntimeError(
                f"classification state limit {state_limit} exceeded"
            )
        for tag in TAG_ORDER:
            if _PREDICATES[tag](cur, n):
                return m, PolygonType(tag, n)
    raise RuntimeError(
        f"no position type reachable within bound {search_bound}"
    )
