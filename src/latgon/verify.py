"""Exhaustive enumeration of convex lattice polygons and bound campaigns.

The enumerator builds every convex lattice polygon in a rectangular region by
composing primitive edge vectors in strict angular order (a closed convex
chain whose edge vectors sum to zero), anchored at the polygon's
lexicographically smallest vertex.  When a lattice to avoid is given, a
partial chain is cut as soon as its hull picks up a forbidden point, and
polygons are emitted once per translation class.

Every campaign (the vertex-count bounds, the point-capture bound, sharpness
witnesses, the reduction pipelines) runs through one driver.  Each anchor
subtree is a task whose polygons the campaign's kernel folds into a small
summary, in this process or in a pool worker; summaries merge in anchor
order, and a pool task that ran past the budget left is run again with it,
so no report depends on the worker count.
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
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
    PIPELINES,
    InvariantViolation,
    PolygonType,
    classify,
    type_predicate,
)

#: Default chain-prefix node budget for a single campaign.
DEFAULT_NODE_BUDGET = 10 ** 8


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
        # The default reduction passes only the message to __init__.  Pool
        # workers never send this error (_run_task catches it), but it stays
        # picklable like any exception.
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
# Forbidden-point test (closed triangles)

def _triangle_has_point(L: Lattice2, a: Vec, b: Vec, c: Vec) -> bool:
    """Does the closed triangle (a, b, c) contain a point of L?

    A collinear triangle needs no branch of its own: its three edge functions
    sum to zero, so they are all >= 0 only on its line, and the bounding box
    clips that line to the covering segment.
    """
    orient = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
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

def _is_canonical(poly: LatticePolygon, L: Lattice2,
                  region: SearchRegion) -> bool:
    """Is the polygon the L-translate inside the region whose bounding-box
    corner is lex-least?"""
    bx0, bx1, by0, by1 = poly.bounding_box()
    w, h = bx1 - bx0, by1 - by0
    p, q, r = L.p, L.q, L.r
    i = -((bx0 - region.x_min) // p)
    while bx0 + i * p + w <= region.x_max:
        ybase = by0 + i * q
        j = -((ybase - region.y_min) // r)
        ny0 = ybase + j * r
        if ny0 + h <= region.y_max:
            return (bx0 + i * p, ny0) == (bx0, by0)
        i += 1
    raise InvariantViolation(
        "no feasible translate, yet the polygon itself fits")


# ---------------------------------------------------------------------------
# The enumerator core

@dataclass(frozen=True)
class _Search:
    """Polygons of `region` with >= `min_vertices` vertices, free of `avoid`
    (one per translation class if `dedup`), vertices on `vertex_lattice`."""

    region: SearchRegion
    min_vertices: int
    avoid: Lattice2 | None
    dedup: bool
    vertex_lattice: Lattice2 | None


def _iter_from_anchor(anchor: Vec, search: _Search, counter: list[int],
                      budget: int) -> Iterator[LatticePolygon]:
    region, avoid, dedup = search.region, search.avoid, search.dedup
    ax, ay = anchor
    x_min, x_max = region.x_min, region.x_max
    y_min, y_max = region.y_min, region.y_max
    steps = _direction_steps(region, search.vertex_lattice)
    n_dirs = len(steps)
    halves = tuple(_dir_half(d) for d in steps)
    past_pi = tuple(1 if (d[1] < 0 and d[0] <= 0) else 0 for d in steps)
    emit_min = max(3, search.min_vertices)
    verts: list[Vec] = [anchor]

    def rec(last: int, cx: int, cy: int) -> Iterator[LatticePolygon]:
        for j in range(last + 1, n_dirs):
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
                        if avoid is None or not dedup or _is_canonical(
                                poly, avoid, region):
                            if avoid is not None and not is_free_of(poly, avoid):
                                raise InvariantViolation(
                                    f"{poly.vertices} meets {avoid}")
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


def _anchors(search: _Search) -> list[Vec]:
    region, avoid, vlat = search.region, search.avoid, search.vertex_lattice
    x_max = region.x_max
    if avoid is not None and search.dedup and avoid.q == 0:
        # Canonical placements keep the west edge near x_min.
        x_max = min(x_max, region.x_min + avoid.p - 1)
    out = []
    for x in range(region.x_min, x_max + 1):
        for y in range(region.y_min, region.y_max + 1):
            if avoid is not None and contains(avoid, (x, y)):
                continue
            if vlat is not None and not contains(vlat, (x, y)):
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
    if budget is None:
        budget = DEFAULT_NODE_BUDGET
    search = _Search(region, min_vertices, avoid, True, None)
    counter = [0, 0]
    for anchor in _anchors(search):
        yield from _iter_from_anchor(anchor, search, counter, budget)


# ---------------------------------------------------------------------------
# The campaign driver: one task per (search, anchor) subtree, whose polygons
# kernel(polygons, search, *args) folds into a summary.

def _run_task(task: tuple) -> tuple:
    """(summary, nodes, polygons seen, budget exhausted) for one task.

    Running out of budget ends the kernel's input; it does not raise.
    """
    kernel, args, search, anchor, budget = task
    counter = [0, 0]
    exhausted = False

    def polygons() -> Iterator[LatticePolygon]:
        nonlocal exhausted
        try:
            yield from _iter_from_anchor(anchor, search, counter, budget)
        except BudgetExceededError:
            exhausted = True

    summary = kernel(polygons(), search, *args)
    return summary, counter[0], counter[1], exhausted


def _campaign(kernel, args: tuple, searches: list[_Search],
              budget: int | None, workers: int) -> Iterator[tuple]:
    """Yield (summary, nodes, polygons seen, exhausted) per task, in order.

    Nodes and polygons seen are running totals, and the task that exhausts
    the budget is the last.  A serial task gets the budget that is left.
    Pool tasks run ahead with the whole budget; the one whose nodes cross
    what is left is run again here with what is left.  So every worker count
    yields what workers=1 yields.
    """
    if budget is None:
        budget = DEFAULT_NODE_BUDGET
    tasks = [(kernel, args, search, anchor)
             for search in searches for anchor in _anchors(search)]
    nodes = seen = 0
    with (Pool(workers) if workers > 1 else nullcontext()) as pool:
        if pool is None:
            # map is lazy: each task is built after the one before it merged.
            results = map(_run_task,
                          (task + (budget - nodes,) for task in tasks))
        else:
            results = pool.imap(_run_task, [task + (budget,) for task in tasks])
        for task, (summary, t_nodes, t_seen, exhausted) in zip(tasks, results):
            if pool is not None and nodes and t_nodes > budget - nodes:
                summary, t_nodes, t_seen, exhausted = _run_task(
                    task + (budget - nodes,))
            nodes += t_nodes
            seen += t_seen
            yield summary, nodes, seen, exhausted
            if exhausted:
                return


# ---------------------------------------------------------------------------
# Campaigns

def capture_threshold(delta: int, n: int) -> int:
    """Vertex count from which every polygon must contain a lattice point."""
    return 2 * n + 2 * min(delta, 3) - 3


def _lattice_family(delta: int, n: int) -> list[Lattice2]:
    """Canonical lattices with invariant factors (delta, n): all shear residues."""
    if delta < 1 or n % delta or delta * n < 2:
        raise ValueError(f"need delta | n and delta*n >= 2, got ({delta}, {n})")
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


def _max_kernel(polygons: Iterator[LatticePolygon], search: _Search, n: int,
                tag: str, limit: int):
    """The first largest polygon carrying `tag`, and every re-verified one
    with more than `limit` vertices."""
    best, over = None, []
    for poly in polygons:
        if tag != "any" and not type_predicate(poly, n, tag):
            continue
        if best is None or len(poly) > len(best):
            best = poly
        if len(poly) > limit and _reverify(poly, search.avoid, n, tag):
            over.append(poly)
    return best, over


def _max_report(bound_name: str, n: int, delta: int, region: SearchRegion,
                searches: list[_Search], kernel_args: tuple,
                budget: int | None, workers: int) -> BoundReport:
    """Merge the _max_kernel summaries of the searches, in task order."""
    best, over, nodes, exhausted = None, [], 0, False
    for (task_best, task_over), nodes, _seen, exhausted in _campaign(
            _max_kernel, kernel_args, searches, budget, workers):
        if task_best is not None and (best is None
                                      or len(task_best) > len(best)):
            best = task_best
        over += task_over
    return BoundReport(
        bound_name=bound_name, n=n, delta=delta, region=region,
        max_vertices_found=len(best) if best else 0, witness=best,
        counterexamples=tuple(over), exhaustive=not exhausted,
        nodes_explored=nodes,
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
    bound = _vertex_bound(n, vertex_lattice)
    if vertex_lattice is None:
        name = f"vertex-count<={bound}"
        families: list[Lattice2 | None] = [None]
    else:
        name = (f"vertex-count<={bound}[factors=({vertex_lattice.delta},"
                f"{vertex_lattice.n})]")
        families = list(_lattice_family(vertex_lattice.delta, vertex_lattice.n))
    searches = [_Search(region, 3, scaled_lattice(n), tag == "any", vlat)
                for vlat in families]
    return _max_report(name, n,
                       vertex_lattice.delta if vertex_lattice else 1, region,
                       searches, (n, tag, bound), budget, workers)


def _reverify(poly: LatticePolygon, avoid: Lattice2, n: int, tag: str) -> bool:
    """Independent re-check of a counterexample before it is reported."""
    LatticePolygon(poly.vertices)  # convexity / canonical form
    if not is_free_of(poly, avoid):
        return False
    if tag != "any":
        return type_predicate(poly, n, tag)
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
    searches = [_Search(region, 3, lat, True, None)
                for lat in _lattice_family(delta, n)]
    nu = capture_threshold(delta, n)
    return _max_report(f"capture-at-{nu}-vertices", n, delta, region,
                       searches, (n, "any", nu - 1), budget, workers)


def _first_kernel(polygons: Iterator[LatticePolygon], search: _Search,
                  size: int) -> LatticePolygon | None:
    """The first polygon with exactly `size` vertices, if any."""
    for poly in polygons:
        if len(poly) == size:
            if not is_free_of(poly, search.avoid):
                raise InvariantViolation(
                    f"witness {poly.vertices} meets {search.avoid}")
            return poly
    return None


def find_sharpness_witness(delta: int, n: int, region: SearchRegion,
                           budget: int | None = None,
                           workers: int = 1) -> LatticePolygon | None:
    """A polygon with capture_threshold - 1 vertices avoiding delta*Z x n*Z.

    Returns None when the threshold leaves no room for a polygon (fewer than
    3 vertices) or when the region holds no witness; neither is a refutation.
    Raises BudgetExceededError when the budget runs out before a witness.
    """
    avoid = _lattice_family(delta, n)[0]
    target = capture_threshold(delta, n) - 1
    if target < 3:
        return None
    search = _Search(region, target, avoid, True, None)
    for found, nodes, seen, exhausted in _campaign(
            _first_kernel, (target,), [search], budget, workers):
        if found is not None:
            return found
        if exhausted:
            raise BudgetExceededError(nodes, seen)
    return None


def _corpus_kernel(polygons: Iterator[LatticePolygon], search: _Search,
                   n: int):
    """Classify each polygon and run its reduction pipeline.

    Returns the tally, the polygons that failed, and the largest size seen.
    """
    tally: Counter[str] = Counter()
    failures: list[LatticePolygon] = []
    max_found = 0
    for poly in polygons:
        tally["total"] += 1
        max_found = max(max_found, len(poly))
        try:
            m, ptype = classify(poly, n)
            tally[ptype.tag] += 1
            if ptype.tag in PIPELINES:
                PIPELINES[ptype.tag](transform(poly, m), n)
                tally["reduced_" + ptype.tag.lower()] += 1
        except (RuntimeError, InvariantViolation):
            failures.append(poly)
    return tally, failures, max_found


def verify_reduction_corpus(n: int, region: SearchRegion,
                            budget: int | None = None, workers: int = 1
                            ) -> tuple[BoundReport, dict[str, int]]:
    """Classify every nZ^2-free polygon of the region and run its reductions.

    Every enumerated polygon must classify within the default search bound;
    whenever the classification lands on type V or VI (or the terminal IV),
    the classified image is pushed through its reduction pipeline, whose own
    checks re-verify each result (also under -O).  A polygon whose
    classification or pipeline fails is a counterexample.  Returns the report
    plus a tally of classified tags and pipeline runs.
    """
    if n not in (3, 4):
        raise ValueError(f"the reduction corpus runs at desk scale (3 or 4), got {n}")
    search = _Search(region, 3, scaled_lattice(n), True, None)
    tally = dict.fromkeys(("I", "II", "III", "IV", "V", "VI", "Va", "total",
                           "reduced_v", "reduced_vi", "reduced_iv"), 0)
    failures: list[LatticePolygon] = []
    max_found, nodes, exhausted = 0, 0, False
    for (part, part_failures, part_max), nodes, _seen, exhausted in _campaign(
            _corpus_kernel, (n,), [search], budget, workers):
        for key, count in part.items():
            tally[key] += count
        failures += part_failures
        max_found = max(max_found, part_max)
    report = BoundReport(
        bound_name="reduction-coverage", n=n, delta=n, region=region,
        max_vertices_found=max_found, witness=None,
        counterexamples=tuple(failures), exhaustive=not exhausted,
        nodes_explored=nodes,
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
