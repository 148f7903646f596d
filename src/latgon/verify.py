"""Exhaustive enumeration of convex lattice polygons and bound campaigns.

The enumerator builds every convex lattice polygon in a rectangular region by
composing primitive edge vectors in strict angular order (a closed convex
chain whose edge vectors sum to zero), anchored at the polygon's
lexicographically smallest vertex.  When a lattice to avoid is given, a
partial chain is cut as soon as its hull picks up a forbidden point, and
polygons are emitted once per translation class.  The campaign drivers wrap
the enumerator into reports on the vertex-count bounds, the point-capture
bound, sharpness witnesses, and the reduction pipelines.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cmp_to_key, lru_cache
from math import gcd
from multiprocessing import Pool
from typing import Iterator

from .lattice import (
    InvariantFactors,
    Lattice2,
    Vec,
    contains,
    scaled_lattice,
    shear_lattice,
)
from .polygon import LatticePolygon, is_free_of, lattice_points_in, transform
from .typeclass import (
    PolygonType,
    polygon_types,
    classify,
    reduce_type_iv,
    reduce_type_v,
    reduce_type_vi,
)

#: Default chain-prefix node budget for a single campaign.
DEFAULT_NODE_BUDGET = 10 ** 8


def node_budget() -> int:
    """The configured node budget (LATGON_BUDGET overrides the default)."""
    raw = os.environ.get("LATGON_BUDGET")
    if raw is None or raw == "":
        return DEFAULT_NODE_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"LATGON_BUDGET must be an integer, got {raw!r}") from None


class BudgetExceededError(RuntimeError):
    """The node budget ran out; carries partial-progress statistics."""

    def __init__(self, nodes: int, polygons_seen: int):
        super().__init__(
            f"node budget exhausted after {nodes} nodes "
            f"({polygons_seen} polygons seen)"
        )
        self.nodes = nodes
        self.polygons_seen = polygons_seen

    def __reduce__(self):
        # Pool workers pickle the error back to the parent; the default
        # reduction passes only the message to __init__.
        return (type(self), (self.nodes, self.polygons_seen))


@dataclass(frozen=True)
class SearchRegion:
    """Closed integer rectangle [x_min, x_max] x [y_min, y_max]."""

    x_min: int
    x_max: int
    y_min: int
    y_max: int

    def __post_init__(self) -> None:
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError(f"region needs positive width and height: {self}")

    @property
    def width(self) -> int:
        return self.x_max - self.x_min

    @property
    def height(self) -> int:
        return self.y_max - self.y_min

    def points(self) -> Iterator[Vec]:
        for x in range(self.x_min, self.x_max + 1):
            for y in range(self.y_min, self.y_max + 1):
                yield (x, y)

    @staticmethod
    def parse(text: str) -> "SearchRegion":
        parts = text.split(",")
        if len(parts) != 4:
            raise ValueError(f"region must be 'xmin,xmax,ymin,ymax', got {text!r}")
        x0, x1, y0, y1 = (int(p) for p in parts)
        return SearchRegion(x0, x1, y0, y1)


#: Named search regions.  Each type preset starts from the definitional slab
#: of that type at n=3 and is widened by a safety margin of n on every side.
REGION_PRESETS: dict[str, SearchRegion] = {
    # Type III sits in x >= 0 with its east reach bounded by ~2n.
    "type-iii-n3": SearchRegion(0, 9, -3, 6),
    # Type IV is confined to -n < x < 2n.
    "type-iv-n3": SearchRegion(-5, 8, -6, 6),
    # Type V stays in x >= -n, y <= n.
    "type-v-n3": SearchRegion(-3, 6, -6, 3),
    # Type VI is pinned between the lines x = -n and x = n.
    "type-vi-n3": SearchRegion(-6, 6, -6, 6),
    # Desk-scale square for the small-scale vertex-count and capture bounds.
    "square-n3": SearchRegion(-3, 6, -3, 6),
    # Pentagon capture at scale 2.
    "square-n2": SearchRegion(0, 6, 0, 6),
}


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound-checking campaign."""

    bound_name: str
    n: int
    delta: int
    region: SearchRegion
    max_vertices_found: int
    witness: LatticePolygon | None
    counterexamples: tuple[LatticePolygon, ...]
    exhaustive: bool
    nodes_explored: int

    @property
    def upheld(self) -> bool:
        return not self.counterexamples


# ---------------------------------------------------------------------------
# Edge directions

def _dir_half(d: Vec) -> int:
    # 0 for angles in (-pi/2, pi/2], 1 for (pi/2, 3pi/2].
    return 0 if (d[0] > 0 or (d[0] == 0 and d[1] > 0)) else 1


def _dir_cmp(a: Vec, b: Vec) -> int:
    ha, hb = _dir_half(a), _dir_half(b)
    if ha != hb:
        return ha - hb
    cr = a[0] * b[1] - a[1] * b[0]
    return -1 if cr > 0 else (1 if cr < 0 else 0)


@lru_cache(maxsize=None)
def primitive_directions(max_dx: int, max_dy: int) -> tuple[Vec, ...]:
    """Primitive integer vectors within the box, in increasing angular order.

    Angles are measured in (-pi/2, 3pi/2], so the steepest down-right
    direction comes first and straight down comes last; comparisons are exact
    cross-product tests, never floating point.
    """
    dirs = [
        (dx, dy)
        for dx in range(-max_dx, max_dx + 1)
        for dy in range(-max_dy, max_dy + 1)
        if (dx, dy) != (0, 0) and gcd(abs(dx), abs(dy)) == 1
    ]
    dirs.sort(key=cmp_to_key(_dir_cmp))
    return tuple(dirs)


def _lattice_step(L: Lattice2, d: Vec) -> int:
    """Least k >= 1 with k*d in L."""
    k1 = L.p // gcd(d[0], L.p)
    c = k1 * d[0] // L.p
    rem = k1 * d[1] - c * L.q
    return k1 * (L.r // gcd(rem, L.r))


# ---------------------------------------------------------------------------
# Forbidden-point tests (closed triangles and segments)

def _segment_has_point(L: Lattice2, a: Vec, b: Vec) -> bool:
    """Does the closed segment [a, b] contain a point of L?"""
    x_min, x_max = min(a[0], b[0]), max(a[0], b[0])
    y_min, y_max = min(a[1], b[1]), max(a[1], b[1])
    dx, dy = b[0] - a[0], b[1] - a[1]
    p, q, r = L.p, L.q, L.r
    i = -(-x_min // p)
    while i * p <= x_max:
        x = i * p
        y0 = i * q
        y = y0 + -((y0 - y_min) // r) * r
        while y <= y_max:
            if dx * (y - a[1]) == dy * (x - a[0]):
                return True
            y += r
        i += 1
    return False


def _triangle_has_point(L: Lattice2, a: Vec, b: Vec, c: Vec) -> bool:
    """Does the closed triangle (a, b, c) contain a point of L?

    Degenerate (collinear) triangles reduce to their covering segment.
    """
    orient = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if orient == 0:
        lo = min(a, b, c)
        hi = max(a, b, c)
        if lo == hi:
            return contains(L, lo)
        return _segment_has_point(L, lo, hi)
    if orient < 0:
        b, c = c, b
    x_min = min(a[0], b[0], c[0])
    x_max = max(a[0], b[0], c[0])
    y_min = min(a[1], b[1], c[1])
    y_max = max(a[1], b[1], c[1])
    p, q, r = L.p, L.q, L.r
    i = -(-x_min // p)
    while i * p <= x_max:
        x = i * p
        y0 = i * q
        y = y0 + -((y0 - y_min) // r) * r
        while y <= y_max:
            if ((b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0]) >= 0
                    and (c[0] - b[0]) * (y - b[1]) - (c[1] - b[1]) * (x - b[0]) >= 0
                    and (a[0] - c[0]) * (y - c[1]) - (a[1] - c[1]) * (x - c[0]) >= 0):
                return True
            y += r
        i += 1
    return False


# ---------------------------------------------------------------------------
# Translation classes

def _canonical_corner(bbox: tuple[int, int, int, int], L: Lattice2,
                      region: SearchRegion) -> Vec:
    """Lex-least bounding-box corner among the L-translates inside the region."""
    bx0, bx1, by0, by1 = bbox
    w, h = bx1 - bx0, by1 - by0
    p, q, r = L.p, L.q, L.r
    i = -((bx0 - region.x_min) // p)
    while bx0 + i * p + w <= region.x_max:
        ybase = by0 + i * q
        j = -((ybase - region.y_min) // r)
        ny0 = ybase + j * r
        if ny0 + h <= region.y_max:
            return (bx0 + i * p, ny0)
        i += 1
    raise AssertionError("no feasible translate, yet the polygon itself fits")


# ---------------------------------------------------------------------------
# The enumerator core

def _iter_from_anchor(anchor: Vec, region: SearchRegion, min_vertices: int,
                      avoid: Lattice2 | None, dedup: bool,
                      steps: tuple[Vec, ...], counter: list[int],
                      budget: int, first_dir: int | None = None,
                      ) -> Iterator[LatticePolygon]:
    ax, ay = anchor
    x_min, x_max = region.x_min, region.x_max
    y_min, y_max = region.y_min, region.y_max
    n_dirs = len(steps)
    halves = tuple(_dir_half(d) for d in steps)
    past_pi = tuple(1 if (d[1] < 0 and d[0] <= 0) else 0 for d in steps)
    emit_min = max(3, min_vertices)
    verts: list[Vec] = [anchor]

    def rec(last: int, cx: int, cy: int) -> Iterator[LatticePolygon]:
        lo = last + 1 if last >= 0 else (first_dir if first_dir is not None else 0)
        hi = n_dirs if last >= 0 or first_dir is None else first_dir + 1
        for j in range(lo, hi):
            dx, dy = steps[j]
            px, py = cx, cy
            nx, ny = cx + dx, cy + dy
            while x_min <= nx <= x_max and y_min <= ny <= y_max:
                counter[0] += 1
                if counter[0] > budget:
                    raise BudgetExceededError(counter[0], counter[1])
                if avoid is not None and _triangle_has_point(
                        avoid, anchor, (px, py), (nx, ny)):
                    break
                if nx == ax and ny == ay:
                    if len(verts) >= emit_min:
                        poly = LatticePolygon(tuple(verts))
                        counter[1] += 1
                        bx0, _bx1, by0, _by1 = poly.bounding_box()
                        if avoid is None or not dedup or (
                                _canonical_corner(poly.bounding_box(), avoid,
                                                  region) == (bx0, by0)):
                            if avoid is not None:
                                assert is_free_of(poly, avoid)
                            yield poly
                    break
                if halves[j] and nx < ax:
                    break
                if past_pi[j] and ny <= ay:
                    break
                verts.append((nx, ny))
                yield from rec(j, nx, ny)
                verts.pop()
                px, py = nx, ny
                nx += dx
                ny += dy

    yield from rec(-1, ax, ay)


def _anchor_columns(region: SearchRegion, avoid: Lattice2 | None,
                    dedup: bool) -> int:
    """Anchor x-extent: canonical placements keep the west edge near x_min."""
    if avoid is not None and dedup and avoid.q == 0:
        return min(region.x_max, region.x_min + avoid.p - 1)
    return region.x_max


def _anchors(region: SearchRegion, avoid: Lattice2 | None, dedup: bool,
             vertex_lattice: Lattice2 | None) -> list[Vec]:
    out = []
    for x in range(region.x_min, _anchor_columns(region, avoid, dedup) + 1):
        for y in range(region.y_min, region.y_max + 1):
            if avoid is not None and contains(avoid, (x, y)):
                continue
            if vertex_lattice is not None and not contains(vertex_lattice, (x, y)):
                continue
            out.append((x, y))
    return out


def _direction_steps(region: SearchRegion,
                     vertex_lattice: Lattice2 | None) -> tuple[Vec, ...]:
    dirs = primitive_directions(region.width, region.height)
    if vertex_lattice is None:
        return dirs
    out = []
    for d in dirs:
        k = _lattice_step(vertex_lattice, d)
        sx, sy = k * d[0], k * d[1]
        if abs(sx) <= region.width and abs(sy) <= region.height:
            out.append((sx, sy))
    return tuple(out)


def _enumerate(region: SearchRegion, min_vertices: int = 3,
               avoid: Lattice2 | None = None, dedup: bool = True,
               vertex_lattice: Lattice2 | None = None,
               counter: list[int] | None = None,
               budget: int | None = None) -> Iterator[LatticePolygon]:
    if counter is None:
        counter = [0, 0]
    if budget is None:
        budget = node_budget()
    steps = _direction_steps(region, vertex_lattice)
    for anchor in _anchors(region, avoid, dedup, vertex_lattice):
        yield from _iter_from_anchor(anchor, region, min_vertices, avoid,
                                     dedup, steps, counter, budget)


def enumerate_convex_polygons(region: SearchRegion, min_vertices: int = 3,
                              avoid: Lattice2 | None = None,
                              budget: int | None = None,
                              ) -> Iterator[LatticePolygon]:
    """Stream every convex lattice polygon in the region, in canonical form.

    With `avoid` given, only polygons free of that lattice appear, one
    representative per translation class within the region (the translate
    whose bounding-box corner is lex-least).  Raises BudgetExceededError when
    the chain-prefix node budget runs out.
    """
    yield from _enumerate(region, min_vertices, avoid, dedup=True,
                          budget=budget)


# ---------------------------------------------------------------------------
# Worker-pool plumbing: tasks are (anchor, first-direction) subtrees.

_POOL_STATE: dict = {}


def _pool_init(region_tuple, min_vertices, avoid_triple, dedup,
               vertex_triple, budget):
    _POOL_STATE["region"] = SearchRegion(*region_tuple)
    _POOL_STATE["min_vertices"] = min_vertices
    _POOL_STATE["avoid"] = Lattice2(*avoid_triple) if avoid_triple else None
    _POOL_STATE["dedup"] = dedup
    _POOL_STATE["vertex_lattice"] = (
        Lattice2(*vertex_triple) if vertex_triple else None
    )
    _POOL_STATE["budget"] = budget


def _pool_task(anchor: Vec) -> tuple[list[tuple[Vec, ...]], int, int]:
    region = _POOL_STATE["region"]
    counter = [0, 0]
    steps = _direction_steps(region, _POOL_STATE["vertex_lattice"])
    found = [
        poly.vertices
        for poly in _iter_from_anchor(
            anchor, region, _POOL_STATE["min_vertices"], _POOL_STATE["avoid"],
            _POOL_STATE["dedup"], steps, counter, _POOL_STATE["budget"])
    ]
    return found, counter[0], counter[1]


def _enumerate_parallel(region: SearchRegion, min_vertices: int,
                        avoid: Lattice2 | None, dedup: bool,
                        vertex_lattice: Lattice2 | None,
                        counter: list[int], budget: int,
                        workers: int) -> Iterator[LatticePolygon]:
    """Partitioned enumeration, merged in deterministic anchor order."""
    anchors = _anchors(region, avoid, dedup, vertex_lattice)
    avoid_triple = (avoid.p, avoid.q, avoid.r) if avoid else None
    vertex_triple = (
        (vertex_lattice.p, vertex_lattice.q, vertex_lattice.r)
        if vertex_lattice else None
    )
    init_args = ((region.x_min, region.x_max, region.y_min, region.y_max),
                 min_vertices, avoid_triple, dedup, vertex_triple, budget)
    with Pool(workers, initializer=_pool_init, initargs=init_args) as pool:
        for found, nodes, seen in pool.map(_pool_task, anchors):
            counter[0] += nodes
            counter[1] += seen
            if counter[0] > budget:
                raise BudgetExceededError(counter[0], counter[1])
            for verts in found:
                yield LatticePolygon(verts)


def _stream(region: SearchRegion, min_vertices: int, avoid: Lattice2 | None,
            dedup: bool, vertex_lattice: Lattice2 | None,
            counter: list[int], budget: int,
            workers: int) -> Iterator[LatticePolygon]:
    if workers > 1:
        return _enumerate_parallel(region, min_vertices, avoid, dedup,
                                   vertex_lattice, counter, budget, workers)
    return _enumerate(region, min_vertices, avoid, dedup, vertex_lattice,
                      counter, budget)


# ---------------------------------------------------------------------------
# Campaign drivers

def capture_threshold(delta: int, n: int) -> int:
    """Vertex count from which every polygon must contain a lattice point."""
    return 2 * n + 2 * min(delta, 3) - 3


def _lattice_family(delta: int, n: int) -> list[Lattice2]:
    """Canonical lattices with invariant factors (delta, n): all shear residues."""
    if delta < 1 or n < 1 or n % delta:
        raise ValueError(f"invalid invariant factors ({delta}, {n})")
    return [shear_lattice(r, n // delta, scale=delta) for r in range(n // delta)]


def _vertex_bound(n: int, factors: InvariantFactors | None) -> int:
    if factors is None:
        return 2 * n + 2
    if (factors.delta, factors.n) == (1, n):
        return 2 * n - 2
    if n % 2 == 0 and (factors.delta, factors.n) == (1, n // 2):
        return 2 * n
    raise ValueError(
        f"no vertex bound clause for factors ({factors.delta}, {factors.n}) "
        f"at scale {n}"
    )


def check_vertex_bound(n: int, tag: str, vertex_lattice: InvariantFactors | None,
                       region: SearchRegion, budget: int | None = None,
                       workers: int = 1) -> BoundReport:
    """Search the region for polygons beating the vertex-count bound.

    Enumerates polygons free of nZ^2 (with vertices confined to each canonical
    lattice of the given invariant factors, all shear residues, when
    `vertex_lattice` is supplied), keeps those carrying the requested type tag
    ("any" for no constraint), and reports the maximum vertex count seen plus
    any polygon exceeding the applicable bound.
    """
    if n < 3:
        raise ValueError(f"vertex bounds need scale n >= 3, got {n}")
    if tag != "any":
        PolygonType(tag, n)  # validates the tag
    if budget is None:
        budget = node_budget()
    bound = _vertex_bound(n, vertex_lattice)
    if vertex_lattice is None:
        name = f"vertex-count<={bound}"
        families: list[Lattice2 | None] = [None]
    else:
        name = (f"vertex-count<={bound}[factors=({vertex_lattice.delta},"
                f"{vertex_lattice.n})]")
        families = list(_lattice_family(vertex_lattice.delta, vertex_lattice.n))
    avoid = scaled_lattice(n)
    dedup = tag == "any"
    counter = [0, 0]
    best: LatticePolygon | None = None
    max_found = 0
    counterexamples: list[LatticePolygon] = []
    exhaustive = True
    try:
        for vlat in families:
            for poly in _stream(region, 3, avoid, dedup, vlat, counter,
                                budget, workers):
                if tag != "any" and tag not in polygon_types(poly, n):
                    continue
                if len(poly) > max_found:
                    max_found = len(poly)
                    best = poly
                if len(poly) > bound:
                    counterexamples.append(poly)
    except BudgetExceededError:
        exhaustive = False
    counterexamples = [p for p in counterexamples if _reverify(p, avoid, n, tag)]
    return BoundReport(
        bound_name=name, n=n,
        delta=vertex_lattice.delta if vertex_lattice else 1,
        region=region, max_vertices_found=max_found, witness=best,
        counterexamples=tuple(counterexamples), exhaustive=exhaustive,
        nodes_explored=counter[0],
    )


def _reverify(poly: LatticePolygon, avoid: Lattice2, n: int, tag: str) -> bool:
    """Independent re-check of a counterexample before it is reported."""
    LatticePolygon(poly.vertices)  # convexity / canonical form
    if not is_free_of(poly, avoid):
        return False
    if tag != "any":
        return tag in polygon_types(poly, n)
    return True


def check_main_theorem(delta: int, n: int, region: SearchRegion,
                       budget: int | None = None,
                       workers: int = 1) -> BoundReport:
    """Verify that polygons at the capture threshold contain lattice points.

    For every canonical lattice with invariant factors (delta, n), enumerates
    the lattice-free polygons of the region up to lattice translation; any
    free polygon reaching capture_threshold(delta, n) vertices refutes the
    claim and is reported (after independent re-verification).
    """
    if delta < 1 or n % delta or delta * n < 2:
        raise ValueError(f"need delta | n and delta*n >= 2, got ({delta}, {n})")
    if budget is None:
        budget = node_budget()
    nu = capture_threshold(delta, n)
    counter = [0, 0]
    max_found = 0
    best = None
    counterexamples: list[LatticePolygon] = []
    exhaustive = True
    try:
        for lat in _lattice_family(delta, n):
            for poly in _stream(region, 3, lat, True, None, counter,
                                budget, workers):
                if len(poly) > max_found:
                    max_found = len(poly)
                    best = poly
                if len(poly) >= nu and is_free_of(poly, lat):
                    counterexamples.append(poly)
    except BudgetExceededError:
        exhaustive = False
    return BoundReport(
        bound_name=f"capture-at-{nu}-vertices", n=n, delta=delta,
        region=region, max_vertices_found=max_found, witness=best,
        counterexamples=tuple(counterexamples), exhaustive=exhaustive,
        nodes_explored=counter[0],
    )


def find_sharpness_witness(delta: int, n: int, region: SearchRegion,
                           budget: int | None = None,
                           workers: int = 1) -> LatticePolygon | None:
    """A polygon with capture_threshold - 1 vertices avoiding delta*Z x n*Z.

    Returns None when the threshold leaves no room for a polygon (fewer than
    3 vertices) or when the region holds no witness; neither is a refutation.
    """
    if delta < 1 or n % delta or delta * n < 2:
        raise ValueError(f"need delta | n and delta*n >= 2, got ({delta}, {n})")
    if budget is None:
        budget = node_budget()
    target = capture_threshold(delta, n) - 1
    if target < 3:
        return None
    lat = _lattice_family(delta, n)[0]
    counter = [0, 0]
    for poly in _stream(region, target, lat, True, None, counter, budget,
                        workers):
        if len(poly) == target:
            assert is_free_of(poly, lat)
            return poly
    return None


def verify_reduction_corpus(n: int, region: SearchRegion,
                            budget: int | None = None, workers: int = 1,
                            search_bound: int = 6,
                            ) -> tuple[BoundReport, dict[str, int]]:
    """Classify every nZ^2-free polygon of the region and run its reductions.

    Every enumerated polygon must classify within the default search bound;
    whenever the classification lands on type V or VI (or the terminal IV),
    the classified image is pushed through its reduction pipeline, whose own
    assertions re-verify each result.  Returns the report plus a tally of
    classified tags and pipeline runs.
    """
    if n not in (3, 4):
        raise ValueError(f"the reduction corpus runs at desk scale (3 or 4), got {n}")
    if budget is None:
        budget = node_budget()
    avoid = scaled_lattice(n)
    counter = [0, 0]
    tally: dict[str, int] = {tag: 0 for tag in
                             ("I", "II", "III", "IV", "V", "VI", "Va")}
    tally.update(total=0, reduced_v=0, reduced_vi=0, reduced_iv=0)
    pipelines = {"V": reduce_type_v, "VI": reduce_type_vi,
                 "IV": reduce_type_iv}
    failures: list[LatticePolygon] = []
    max_found = 0
    exhaustive = True
    try:
        for poly in _stream(region, 3, avoid, True, None, counter, budget,
                            workers):
            tally["total"] += 1
            max_found = max(max_found, len(poly))
            try:
                m, ptype = classify(poly, n, search_bound=search_bound)
                tally[ptype.tag] += 1
                if ptype.tag in pipelines:
                    pipelines[ptype.tag](transform(poly, m), n)
                    tally["reduced_" + ptype.tag.lower()] += 1
            except (RuntimeError, AssertionError):
                failures.append(poly)
    except BudgetExceededError:
        exhaustive = False
    report = BoundReport(
        bound_name="reduction-coverage", n=n, delta=n, region=region,
        max_vertices_found=max_found, witness=None,
        counterexamples=tuple(failures), exhaustive=exhaustive,
        nodes_explored=counter[0],
    )
    return report, tally


# ---------------------------------------------------------------------------
# Residue-class pigeonhole

def empty_residue_classes(P: LatticePolygon, m: int) -> list[Vec]:
    """Residue classes (i1, i2) mod m containing no integer point of P.

    A polygon with fewer than m*m integer points always leaves a class empty,
    and shifting P by minus any such class representative makes it free of
    m*Z^2 — the counting step behind the large-scale capture argument,
    realized as an explicit scan.
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    hit = {(x % m, y % m)
           for x, y in lattice_points_in(P, Lattice2(1, 0, 1))}
    return [(i1, i2) for i1 in range(m) for i2 in range(m)
            if (i1, i2) not in hit]
