"""Slopes: convex chains read in a signed coordinate basis.

A slope is a chain of integer points whose consecutive differences, expressed
in a basis of two signed axes, have positive first and negative second
coordinate and turn counterclockwise.  The four maximal slopes of a convex
polygon are the arcs between its extreme points; the split machinery decides
when a frame (an origin plus a signed basis) splits a slope, and the witness
searches certify the edge-count bounds that make the classification theorems
quantitative.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cmp_to_key
from itertools import accumulate
from math import gcd

from .lattice import (SIGNED_AXES, InvariantViolation, Lattice2, Vec,
                      contains, scaled_lattice, span_of_points, step_profile)
from .polygon import LatticePolygon

#: All eight signed bases (ordered pairs of perpendicular signed axes).
ALL_SIGNED_BASES: tuple[tuple[Vec, Vec], ...] = tuple(
    (f1, f2)
    for f1 in SIGNED_AXES
    for f2 in SIGNED_AXES
    if f1[0] * f2[0] + f1[1] * f2[1] == 0
)


class SlopeError(ValueError):
    """An invalid slope; `violated` names the broken rule."""

    def __init__(self, message: str, violated: str):
        super().__init__(message)
        self.violated = violated


class WitnessNotFound(InvariantViolation):
    """No witness exists in the search region: a refutation or a bug, so a
    broken law like any other InvariantViolation."""


@dataclass(frozen=True)
class SignedBasis:
    """An ordered pair of perpendicular signed coordinate axes."""

    f1: Vec
    f2: Vec

    def __post_init__(self) -> None:
        if self.f1 not in SIGNED_AXES or self.f2 not in SIGNED_AXES:
            raise ValueError(f"not signed axes: {self.f1}, {self.f2}")
        if self.f1[0] * self.f2[0] + self.f1[1] * self.f2[1] != 0:
            raise ValueError(f"axes are not perpendicular: {self.f1}, {self.f2}")

    def coords(self, point: Vec) -> Vec:
        """Coordinates of an integer point in this basis."""
        x, y = point
        return (x * self.f1[0] + y * self.f1[1], x * self.f2[0] + y * self.f2[1])

    def point(self, coords: Vec) -> Vec:
        """Inverse of coords()."""
        u, w = coords
        return (u * self.f1[0] + w * self.f2[0], u * self.f1[1] + w * self.f2[1])

    def swapped(self) -> "SignedBasis":
        return SignedBasis(self.f2, self.f1)


@dataclass(frozen=True)
class Slope:
    """A convex chain of integer points, monotone in a signed basis.

    In basis coordinates, each difference of consecutive vertices has first
    coordinate > 0 and second coordinate < 0, and consecutive differences
    have positive determinant (a strict counterclockwise turn).  A single
    point is a valid slope with no edges.
    """

    basis: SignedBasis
    vertices: tuple[Vec, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise SlopeError("a slope needs at least one vertex", "empty")
        steps = self.steps()
        for i, a in enumerate(steps, 1):
            if a[0] <= 0:
                raise SlopeError(
                    f"edge {i} has non-increasing first coordinate: {a}",
                    "first-coord-not-increasing",
                )
            if a[1] >= 0:
                raise SlopeError(
                    f"edge {i} has non-decreasing second coordinate: {a}",
                    "second-coord-not-decreasing",
                )
        for i in range(1, len(steps)):
            a, b = steps[i - 1], steps[i]
            if a[0] * b[1] - a[1] * b[0] <= 0:
                raise SlopeError(
                    f"edges {i} and {i + 1} do not turn counterclockwise: {a}, {b}",
                    "not-convex",
                )

    @property
    def edge_count(self) -> int:
        return len(self.vertices) - 1

    def steps(self) -> list[Vec]:
        """Edge vectors in basis coordinates."""
        vs = self.vertices
        return [self.basis.coords((b[0] - a[0], b[1] - a[1]))
                for a, b in zip(vs, vs[1:])]

    def total_step(self) -> Vec:
        """Sum of the edge vectors in basis coordinates."""
        first = self.basis.coords(self.vertices[0])
        last = self.basis.coords(self.vertices[-1])
        return (last[0] - first[0], last[1] - first[1])


@dataclass(frozen=True)
class Frame:
    """An origin together with a signed basis."""

    origin: Vec
    basis: SignedBasis

    def coords(self, point: Vec) -> Vec:
        return self.basis.coords((point[0] - self.origin[0], point[1] - self.origin[1]))


@dataclass(frozen=True)
class MaximalSlopes:
    """The four maximal slopes of a polygon, which make up its boundary.

    q1..q4 sit between consecutive extreme markers, numbered by the quadrant
    of their basis: q1 south-to-east in basis (e2, -e1), q2 east-to-north in
    (-e1, -e2), q3 north-to-west in (-e2, e1), q4 west-to-south in (e1, e2).
    The slopes' endpoints are the markers: on each extreme line, the least
    and the largest vertex in lexicographic order.
    """

    q1: Slope
    q2: Slope
    q3: Slope
    q4: Slope

    def slopes(self) -> tuple[Slope, Slope, Slope, Slope]:
        return (self.q1, self.q2, self.q3, self.q4)

    def edge_counts(self) -> tuple[int, int, int, int]:
        return tuple(s.edge_count for s in self.slopes())

    def marker_flags(self) -> tuple[int, int, int, int]:
        """m1 (south), m2 (east), m3 (north), m4 (west): 1 exactly when the
        slopes that meet on that extreme line end at distinct markers, that
        is, when the line holds an edge of the polygon."""
        q1, q2, q3, q4 = self.slopes()
        return tuple(int(a.vertices[-1] != b.vertices[0])
                     for a, b in ((q4, q1), (q1, q2), (q2, q3), (q3, q4)))


#: Slope bases by quadrant index 1..4 (index 0 unused).
QUADRANT_BASES = (
    None,
    SignedBasis((0, 1), (-1, 0)),
    SignedBasis((-1, 0), (0, -1)),
    SignedBasis((0, -1), (1, 0)),
    SignedBasis((1, 0), (0, 1)),
)


def maximal_slopes(P: LatticePolygon) -> MaximalSlopes:
    """Decompose the boundary into four maximal slopes.

    The markers are read off the vertices on the box's four lines and the
    slopes are the chains between them, so the identity checked here, edge
    count of the polygon = the slopes' edge counts plus the marker flags,
    compares the extremes with the chains' lengths.
    """
    vs = P.vertices
    n = len(vs)
    index = {v: i for i, v in enumerate(vs)}

    def markers(axis: int, c: int) -> tuple[Vec, Vec]:
        """The least and largest vertex on the line x = c (axis 0) or y = c."""
        on = sorted(v for v in vs if v[axis] == c)
        return on[0], on[-1]

    def chain(a: Vec, b: Vec) -> tuple[Vec, ...]:
        i, j = index[a], index[b]
        out = [vs[i]]
        while i != j:
            i = (i + 1) % n
            out.append(vs[i])
        return tuple(out)

    west, east, south, north = P.bounding_box()
    w_lo, w_hi = markers(0, west)
    s_lo, s_hi = markers(1, south)
    e_lo, e_hi = markers(0, east)
    n_lo, n_hi = markers(1, north)
    ms = MaximalSlopes(Slope(QUADRANT_BASES[1], chain(s_hi, e_lo)),
                       Slope(QUADRANT_BASES[2], chain(e_hi, n_hi)),
                       Slope(QUADRANT_BASES[3], chain(n_lo, w_hi)),
                       Slope(QUADRANT_BASES[4], chain(w_lo, s_lo)))
    total = sum(ms.edge_counts()) + sum(ms.marker_flags())
    if total != n:
        raise InvariantViolation(
            f"boundary decomposition miscounts: {total} != {n}")
    return ms


def _oriented_frame_coords(f: Frame, q: Slope) -> list[Vec]:
    """Frame coordinates of the slope's vertices, ordered so u increases.

    The slope's basis must be the frame's basis or its swap; with the swap
    the traversal reverses.
    """
    if q.basis not in (f.basis, f.basis.swapped()):
        raise ValueError(
            f"slope basis {q.basis} matches neither the frame basis nor its swap"
        )
    ordered = q.vertices if q.basis == f.basis else reversed(q.vertices)
    return [f.coords(v) for v in ordered]


def _split_crossing(f: Frame, q: Slope) -> tuple[list[Vec], int] | None:
    """Oriented frame coordinates and crossing index, or None if no split.

    The crossing index i is that of the first vertex with w <= 0, so the
    chain meets the ray w=0 on the edge from vertex i-1 to vertex i.
    """
    uw = _oriented_frame_coords(f, q)
    first, last = uw[0], uw[-1]
    if not (first[0] < 0 < first[1] and last[1] < 0 < last[0]):
        return None
    # w decreases strictly along the chain, from first[1] > 0 to last[1] < 0.
    i = next(i for i, (_, w) in enumerate(uw) if w <= 0)
    (u0, w0), (u1, w1) = uw[i - 1], uw[i]
    # The crossing is at u0 + (u1-u0)*w0/(w0-w1) with w0 > 0 >= w1; the
    # denominator is positive, so u > 0 is an integer test.
    if u1 * w0 - u0 * w1 <= 0:
        return None
    return uw, i


def frame_splits(f: Frame, q: Slope) -> bool:
    """Does the slope cross both frame rays with a point between them?

    True iff, in frame coordinates, the chain runs from (u<0, w>0) to
    (u>0, w<0) and its unique crossing of the ray w=0 happens at u > 0.
    """
    return _split_crossing(f, q) is not None


def _small_angle(uw: list[Vec], i: int) -> bool:
    """Does the crossing at index i (see _split_crossing) form a small angle?"""

    def shallow(j: int) -> bool:
        return uw[j][0] - uw[j - 1][0] + uw[j][1] - uw[j - 1][1] >= 0

    # A crossing on vertex i may realize the small angle on either edge.
    return shallow(i) or (uw[i][1] == 0 and shallow(i + 1))


def forms_small_angle(f: Frame, q: Slope) -> bool:
    """Does the slope cross the ray w=0 at 45 degrees or shallower?

    Defined only when frame_splits(f, q) holds.  When the crossing lands on a
    vertex, either incident edge may realize the small angle; exactly 45
    degrees counts.
    """
    split = _split_crossing(f, q)
    if split is None:
        raise ValueError("slope does not split the frame")
    return _small_angle(*split)


def check_slp_witness(q: Slope, vertex_lattice: Lattice2 | None = None,
                      shear: tuple[int, int] | None = None) -> int:
    """Smallest s in [0, N] with 2N <= |b1| + s and |b2| >= the s-th bound.

    b is the slope's total step and N its edge count.  Without refinements
    the bound is s(s+1)/2.  With `shear` = (a, m), 1 <= a <= m, the slope's
    vertices must lie in span{f1 - a*f2, m*f2} and the bound tightens to
    a*s + m*s*(s-1)/2.  With `vertex_lattice` given (vertices checked against
    it), a small f1-step above 1 forces the witness s = 0.
    Raises WitnessNotFound when no s works — a refutation or a bug.
    """
    N = q.edge_count
    b1, b2 = q.total_step()
    # (a, m) = (1, 1) is Z^2 itself, whose bound a*s + m*s*(s-1)/2 is s(s+1)/2.
    a, m = (1, 1) if shear is None else shear
    if not 1 <= a <= m:
        raise ValueError(f"shear parameters need 1 <= a <= m, got {shear}")
    for v in q.vertices:
        alpha, beta = q.basis.coords(v)
        if (beta + a * alpha) % m:
            raise ValueError(
                f"vertex {v} is not in the shear lattice with (a, m) = {shear}"
            )
    if vertex_lattice is not None:
        for v in q.vertices:
            if not contains(vertex_lattice, v):
                raise ValueError(f"vertex {v} is not in {vertex_lattice}")
        small = step_profile(vertex_lattice, q.basis.f1).small
        if small > 1:
            if 2 * N <= b1:
                return 0
            raise WitnessNotFound(
                f"2N <= |b1| fails ({2 * N} > {b1}) despite small step {small}"
            )
    for s in range(N + 1):
        if 2 * N <= b1 + s and -b2 >= a * s + m * s * (s - 1) // 2:
            return s
    raise WitnessNotFound(f"no witness in [0, {N}] for slope with b=({b1},{b2})")


def check_th36_witness(f: Frame, q: Slope) -> tuple[int, int]:
    """Smallest (s, t) certifying the split edge-count bound for this frame.

    Requires frame_splits(f, q).  Writing (v1, v2) and (w1, w2) for the frame
    coordinates of the first and last vertex and N for the edge count, the
    witness satisfies, for 0 <= s <= t <= v2 + w1:

      * v2 - s >= 0,
      * -v1 < t*s - (s^2 - s)/2 + (v2 - s)*(t + 1),
      * 2N <= v2 + w1 - t + s, strengthened by an extra
        -ceil(-w2/2) + 1 term when the crossing forms a small angle.

    The derived bounds 2N <= v2 + w1 (small angle: minus ceil(-w2/2) - 1),
    and 2N <= v2 + w1 - 1 when the vertices relative to the frame origin
    span a proper subgroup of Z^2, are checked on the way out; a failure
    raises WitnessNotFound, as does a missing witness.
    """
    split = _split_crossing(f, q)
    if split is None:
        raise ValueError("slope does not split the frame")
    uw, i = split
    (v1, v2), (w1, w2) = uw[0], uw[-1]
    N = q.edge_count
    # The small-angle term ceil(-w2/2) - 1 is >= 0 since w2 < 0.
    cut = (-w2 + 1) // 2 - 1 if _small_angle(uw, i) else 0
    limit = v2 + w1
    found = next(((s, t) for s in range(min(v2, limit) + 1)
                  for t in range(s, limit + 1)
                  if -v1 < t * s - (s * s - s) // 2 + (v2 - s) * (t + 1)
                  and 2 * N <= limit - t + s - cut), None)
    coords = f"N={N}, v=({v1},{v2}), w=({w1},{w2})"
    if found is None:
        raise WitnessNotFound(
            f"no witness with 0 <= s <= t <= {limit} for {coords}")
    rel = [(x - f.origin[0], y - f.origin[1]) for x, y in q.vertices]
    if 2 * N > limit - cut or (span_of_points(rel) != 1 and 2 * N > limit - 1):
        raise WitnessNotFound(f"a derived bound fails for {coords}")
    return found


# ---------------------------------------------------------------------------
# Random instance generators (used by the fuzz suites and the CLI).

def _random_chain(rng, basis: SignedBasis, max_edges: int, tries: int,
                  step_box, start_box, a: int = 0, m: int = 1) -> Slope:
    """A slope of up to max_edges steps drawn from step_box, from start_box.

    A box ((x_lo, x_hi), (y_lo, y_hi)) yields (x, -a*x + m*y) for uniform
    x and y, drawn in that order; (a, m) = (0, 1) keeps (x, y).  At most
    `tries` steps are drawn; a step with non-negative second coordinate is
    dropped, and of steps with one direction the first stays.
    """
    def draw(box) -> Vec:
        (x_lo, x_hi), (y_lo, y_hi) = box
        x = rng.randint(x_lo, x_hi)
        return (x, -a * x + m * rng.randint(y_lo, y_hi))

    n_edges = rng.randint(0, max_edges)
    by_direction: dict[Vec, Vec] = {}
    for _ in range(tries):
        if len(by_direction) >= n_edges:
            break
        a1, a2 = draw(step_box)
        if a2 < 0:
            g = gcd(a1, -a2)
            by_direction.setdefault((a1 // g, a2 // g), (a1, a2))
    # With a1 > 0, increasing ratio a2/a1 is exactly a counterclockwise turn.
    steps = sorted(by_direction.values(),
                   key=cmp_to_key(lambda p, r: p[1] * r[0] - r[1] * p[0]))
    coords = accumulate(steps, lambda c, d: (c[0] + d[0], c[1] + d[1]),
                        initial=draw(start_box))
    return Slope(basis, tuple(basis.point(c) for c in coords))


def random_slope(rng, basis: SignedBasis | None = None, max_edges: int = 5,
                 coord_range: int = 12) -> Slope:
    """A random valid slope with up to max_edges edges."""
    if basis is None:
        basis = SignedBasis(*rng.choice(ALL_SIGNED_BASES))
    box = (-coord_range, coord_range)
    return _random_chain(rng, basis, max_edges, 200, ((1, 9), (-9, -1)), (box, box))


def random_shear_slope(rng) -> tuple[Slope, tuple[int, int]]:
    """A random slope of up to 4 edges whose vertices lie in
    span{f1 - a*f2, m*f2}; returns (a, m)."""
    basis = SignedBasis(*rng.choice(ALL_SIGNED_BASES))
    m = rng.randint(1, 3)
    a = rng.randint(1, m)
    return _random_chain(rng, basis, 4, 300, ((1, 4), (-4, 0)),
                         ((-3, 3), (-3, 3)), a, m), (a, m)


def _slp_laws(q: Slope, s: int, a: int = 1, m: int = 1) -> list[tuple[str, bool]]:
    """(law, holds) for each law a check_slp_witness result s must obey."""
    N = q.edge_count
    b1, b2 = q.total_step()

    def works(r: int) -> bool:
        return 2 * N <= b1 + r and -b2 >= a * r + m * r * (r - 1) // 2

    return [("0 <= s <= N", 0 <= s <= N),
            ("2N <= |b1| + s", 2 * N <= b1 + s),
            ("|b2| >= a*s + m*s*(s-1)/2", -b2 >= a * s + m * s * (s - 1) // 2),
            ("s is minimal", not any(works(r) for r in range(s)))]


def _th36_laws(f: Frame, q: Slope, st: tuple[int, int],
               small_angle: bool) -> list[tuple[str, bool]]:
    """(law, holds) for each law a check_th36_witness result (s, t) must obey."""
    uw = _oriented_frame_coords(f, q)
    (v1, v2), (w1, w2) = uw[0], uw[-1]
    N = q.edge_count
    s, t = st
    cut = (-w2 + 1) // 2 - 1 if small_angle else 0
    return [("0 <= s <= t <= v2 + w1", 0 <= s <= t <= v2 + w1),
            ("v2 - s >= 0", v2 - s >= 0),
            ("-v1 < t*s - (s^2 - s)/2 + (v2 - s)*(t + 1)",
             -v1 < t * s - (s * s - s) // 2 + (v2 - s) * (t + 1)),
            ("2N <= v2 + w1 - t + s, minus ceil(-w2/2) - 1 at a small angle",
             2 * N <= v2 + w1 - t + s - cut)]


def run_fuzz_suite(seed: int, slope_count: int, split_count: int) -> dict:
    """Randomized law checking for slopes, witnesses, and frame splits.

    Uses random.Random(seed) (the stdlib Mersenne Twister) so failures replay
    byte-for-byte across runs.  Returns {"seed", "counts", "failures"}; each
    failure artifact records the offending instance as plain JSON-ready data,
    and its "detail" names the broken laws, or says why no witness was found.
    The laws are plain tests, so they are checked under python -O too.
    """
    import random

    rng = random.Random(seed)
    counts = {"slopes": 0, "witnesses": 0, "shear_witnesses": 0,
              "lattice_witnesses": 0, "splits": 0, "split_witnesses": 0,
              "small_angles": 0}
    failures: list[dict] = []

    def check(key: str, failure, witness, laws) -> bool:
        """Count `key` if the witness obeys every law; else record a failure.

        `failure()` builds the record, so instances that pass are never
        copied into one."""
        try:
            found = witness()
        except WitnessNotFound as exc:
            failures.append({**failure(), "detail": str(exc)})
            return False
        broken = [law for law, holds in laws(found) if not holds]
        if broken:
            failures.append({**failure(), "detail":
                             f"witness {found} breaks: {'; '.join(broken)}"})
            return False
        counts[key] += 1
        return True

    for _ in range(slope_count):
        q = random_slope(rng)
        counts["slopes"] += 1
        check("witnesses",
              lambda: {"kind": "edge-count-witness", "slope": asdict(q)},
              lambda: check_slp_witness(q), lambda s: _slp_laws(q, s))
        # Doubling all vertices puts them in 2Z^2, whose small step forces s=0.
        doubled = Slope(q.basis, tuple((2 * x, 2 * y) for x, y in q.vertices))
        check("lattice_witnesses",
              lambda: {"kind": "coarse-lattice-witness", "slope": asdict(doubled)},
              lambda: check_slp_witness(doubled, vertex_lattice=scaled_lattice(2)),
              lambda s: [("a small step above 1 forces s = 0", s == 0)])
        qs, (a, m) = random_shear_slope(rng)
        check("shear_witnesses",
              lambda: {"kind": "shear-witness", "slope": asdict(qs), "shear": [a, m]},
              lambda: check_slp_witness(qs, shear=(a, m)),
              lambda s: _slp_laws(qs, s, a, m))

    for _ in range(split_count):
        f, q = random_split_config(rng)
        counts["splits"] += 1
        small = forms_small_angle(f, q)
        if check("split_witnesses",
                 lambda: {"kind": "split-witness", "frame": asdict(f),
                          "slope": asdict(q)},
                 lambda: check_th36_witness(f, q),
                 lambda st: _th36_laws(f, q, st, small)) and small:
            counts["small_angles"] += 1

    return {"seed": seed, "counts": counts, "failures": failures}


def random_split_config(rng) -> tuple[Frame, Slope]:
    """A random (frame, slope) pair with frame_splits guaranteed."""
    coord_range = 10
    for _ in range(500):
        basis = SignedBasis(*rng.choice(ALL_SIGNED_BASES))
        origin = (rng.randint(-5, 5), rng.randint(-5, 5))
        f = Frame(origin, basis)
        slope_basis = basis if rng.random() < 0.5 else basis.swapped()
        q = random_slope(rng, basis=slope_basis, coord_range=coord_range)
        if q.edge_count == 0:
            continue
        # Re-anchor so the chain starts at u < 0 and ends at w < 0, then
        # rejection-test the remaining split conditions.
        uw = _oriented_frame_coords(f, q)
        du = -uw[0][0] - rng.randint(1, coord_range)
        dw = -uw[-1][1] - rng.randint(1, coord_range)
        shift = basis.point((du, dw))
        q = Slope(slope_basis, tuple(
            (x + shift[0], y + shift[1]) for x, y in q.vertices))
        if frame_splits(f, q):
            return f, q
    # Deterministic fallback: a single-edge slope through the positive quadrant.
    basis = SignedBasis((1, 0), (0, 1))
    return Frame((0, 0), basis), Slope(basis, ((-1, 2), (3, -1)))
