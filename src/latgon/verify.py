"""Exhaustive enumeration of convex lattice polygons and bound campaigns.

The enumerator builds every convex lattice polygon in a rectangular region by
composing primitive edge vectors in strict angular order (a closed convex
chain whose edge vectors sum to zero), anchored at the polygon's
lexicographically smallest vertex.  When a lattice to avoid is given, a
partial chain is cut as soon as its hull picks up a forbidden point, and
polygons are emitted once per translation class.

The moves from a point do not depend on the chain that reached it, only on
the anchor.  So each anchor's search keeps a ray table: the first time a
chain reaches a point, every ray from it whose first step stays in the
region (the search lists those directions once per point, when a chain
first reaches it) is walked once, through the region, the two angular
cut-offs (which cannot cut at the anchor itself), the fan-triangle
freeness test and the closing test, and each row records the points that
extend the chain and whether one more node is counted there and closes the
polygon.  The cut-offs come first because each costs one comparison; the
order does not change the rows, since a step that any of the three tests
rejects is a stop, whichever test rejects it.
The moves from a state, a point and the direction that reached it, do not
depend on the chain either.  So the first time a chain enters a state, its
rows are compiled into an event program, kept in the table: each event
counts a run of nodes and then descends to a point, closes at the anchor or
ends the state.  A run merges the nodes that yield nothing before the
descent or closing (the stops between rows and the extension points that
no row can go on from) with the node that ends it.  The depth-first search
replays the programs, checking the budget after each run, and a run that
crosses the budget stops at the node that crosses it; so node counts,
budget stops and the emitted stream are those of walking every ray afresh
at every node.  A program stops compiling where its replay must cross the
budget, so the budget bounds all of a search's work, not only its nodes.
A state's subtree does not depend on the chain either, so the table also
keeps each replayed state's totals: its nodes, its closed chains seen and
its longest completion.  A descent to a state whose longest completion
stays under the vertex floor, and whose nodes fit in the budget, adds the
totals in one step instead of replaying the subtree; the floor never falls
within a search, so node counts, budget stops and the stream are unchanged.
The search carries each chain's bounding box down with it.  A closed chain
is counted as seen, then tested, before it is built, against the vertex
floor (the least vertex count its consumer can still use) and for
dedup on that box, each box's verdict computed once per anchor; only the
polygons that pass both are built as checked polygons and re-checked
against the lattice by the column scan of `is_free_of`, a route apart from
the fan-triangle test.  That is the one re-check: no campaign kernel
repeats it or the constructor's.  `enumerate_convex_polygons` holds the
floor at its `min_vertices`, and the sharpness witness search is the first
polygon of that stream at its target size; the bound kernel raises the
floor past the sizes that can no longer change its report, and the
reduction corpus builds every polygon.

Every campaign (the vertex-count bounds, the point-capture bound, the
reduction pipelines) runs through one driver.  Each anchor subtree is a
task whose polygons the campaign's kernel folds into a small summary, in
this process or in a pool worker; summaries merge in anchor order, and a
pool task that ran past the budget left is run again with it, so no report
depends on the worker count.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cmp_to_key, lru_cache
from math import gcd, inf
from typing import Iterator

from .lattice import (
    InvariantFactors,
    Lattice2,
    Vec,
    _lattice_step,
    contains,
    scaled_lattice,
    shear_lattice,
)
from .polygon import LatticePolygon, _trusted, is_free_of
from .typeclass import (
    PIPELINES,
    TAG_ORDER,
    InvariantViolation,
    PolygonType,
    _classify_core,
    _has_type,
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


# ---------------------------------------------------------------------------
# Forbidden-point test (closed triangles)

def _triangle_has_point(L: Lattice2, a: Vec, b: Vec, c: Vec) -> bool:
    """Does the closed triangle (a, b, c) contain a point of L?

    A collinear triangle needs no branch of its own: its three edge functions
    sum to zero, so they are all >= 0 only on its line, and the bounding box
    clips that line to the covering segment.
    """
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) < 0:
        bx, by, cx, cy = cx, cy, bx, by
    x_min, x_max = (bx, cx) if bx < cx else (cx, bx)
    if ax < x_min:
        x_min = ax
    elif ax > x_max:
        x_max = ax
    y_min, y_max = (by, cy) if by < cy else (cy, by)
    if ay < y_min:
        y_min = ay
    elif ay > y_max:
        y_max = ay
    p, q, r = L.p, L.q, L.r
    i = -(-x_min // p)
    while i * p <= x_max:
        x = i * p
        y0 = i * q
        y = y0 + -((y0 - y_min) // r) * r
        while y <= y_max:
            if ((bx - ax) * (y - ay) - (by - ay) * (x - ax) >= 0
                    and (cx - bx) * (y - by) - (cy - by) * (x - bx) >= 0
                    and (ax - cx) * (y - cy) - (ay - cy) * (x - cx) >= 0):
                return True
            y += r
        i += 1
    return False


# ---------------------------------------------------------------------------
# Translation classes

def _is_canonical(box: tuple[int, int, int, int], L: Lattice2,
                  region: SearchRegion) -> bool:
    """Is the polygon with bounding box `box` the L-translate inside the
    region whose bounding-box corner is lex-least?"""
    bx0, bx1, by0, by1 = box
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
    """Polygons of `region` free of `avoid` (one per translation class if
    `dedup`), vertices on `vertex_lattice`."""

    region: SearchRegion
    avoid: Lattice2 | None
    dedup: bool
    vertex_lattice: Lattice2 | None


def _iter_from_anchor(anchor: Vec, search: _Search, counter: list[int],
                      budget: int, floor: list[int]
                      ) -> Iterator[LatticePolygon]:
    """The polygons whose lex-least vertex is `anchor`, in DFS order, less
    those with fewer than floor[0] vertices.

    counter[0] counts nodes (chain prefixes, plus the node where a ray stops)
    and counter[1] the polygons seen, every closed chain of 3 or more
    vertices, those under the floor included;
    BudgetExceededError is raised at the node that takes counter[0] past
    `budget`.  floor[0] is read at each closed chain and each descent, so a
    consumer may raise it between polygons; it must never lower it.

    A state's totals, kept once its replay ends, are the nodes and the
    polygons seen in its subtree and its longest completion: the most
    vertices a closed chain in the subtree has past the state's own chain
    (-inf when it holds none).  The subtree does not depend on the chain
    that reached the state, and neither do its totals.  A closing at depth
    2 is not seen, but no state entered at depth 2 is ever entered deeper:
    it is (p, j) with p = anchor + t*d_j, and d_j points into the right
    half-plane, because every ray from the anchor into the left one is cut
    at its first step.  A deeper chain would reach p - s*d_j from the anchor
    by directions before j, each clockwise of d_j by less than a half turn,
    so their sum is not parallel to d_j.  A descent to a state with totals
    therefore adds them in one step, instead of replaying the state, when
    no closed chain in the subtree reaches the floor and the budget has
    room for all its nodes: the counters, the budget stop and the stream
    are the replay's.  That relies on the floor never falling within a
    task, so that a subtree that emits nothing under the floor it is
    skipped at emits nothing under any later floor either.
    `enumerate_convex_polygons` holds the floor fixed, and `_max_kernel`
    only raises it.
    """
    region, avoid, dedup = search.region, search.avoid, search.dedup
    ax, ay = anchor
    x_min, x_max = region.x_min, region.x_max
    y_min, y_max = region.y_min, region.y_max
    steps = _direction_steps(region, search.vertex_lattice)
    first = _first_steps(region, search.vertex_lattice)
    halves = tuple(_dir_half(d) for d in steps)
    past_pi = tuple(1 if (d[1] < 0 and d[0] <= 0) else 0 for d in steps)
    verts: list[Vec] = [anchor]
    # One tuple per region point, shared by every row that reaches it.
    shared = {p: p for p in region.points()}
    table: dict[Vec, tuple] = {}
    verdicts: dict[tuple[int, int, int, int], bool] = {}

    def rays(c: Vec) -> tuple:
        """(js, rows, stops, top, programs, totals) for the rays from c that
        enter the region.

        Along a ray the chain may extend to each point in turn (its
        extensions); after them the ray may end at one more point of the
        region, a node of its own.  That node closes the polygon when it is
        the anchor, reached through a free fan triangle; otherwise the ray
        stops there.  `stops` holds, in increasing order, the direction
        index j of each ray that stops.  A ray with extensions, or that
        closes, has a row (j, k, extensions, closes), where k counts the
        stops before j; a last row, with j past every direction, counts the
        stops after them.  `js` holds the j of each row, and `top` the
        largest j of a ray with a row (-1 if none).  `programs` maps each
        direction index that c has been reached by to its event program,
        and `totals` each one whose state was replayed to its end to that
        state's totals (see rec).
        """
        rows, stops = [], []
        cx, cy = c
        firsts = first.get(c)
        if firsts is None:
            firsts = first[c] = tuple(
                j for j, (dx, dy) in enumerate(steps)
                if x_min <= cx + dx <= x_max and y_min <= cy + dy <= y_max)
        for j in firsts:
            dx, dy = steps[j]
            px, py = cx, cy
            nx, ny = cx + dx, cy + dy
            ext: list[Vec] = []
            stop, closes = True, False
            while x_min <= nx <= x_max and y_min <= ny <= y_max:
                if halves[j] and nx < ax:
                    break
                at_anchor = nx == ax and ny == ay
                if past_pi[j] and ny <= ay and not at_anchor:
                    break
                if avoid is not None and _triangle_has_point(
                        avoid, anchor, (px, py), (nx, ny)):
                    break
                if at_anchor:
                    stop, closes = False, True
                    break
                ext.append(shared[nx, ny])
                px, py = nx, ny
                nx += dx
                ny += dy
            else:
                stop = False
            if ext or closes:
                rows.append((j, len(stops), tuple(ext), closes))
            if stop:
                stops.append(j)
        top = rows[-1][0] if rows else -1
        rows.append((len(steps), len(stops), (), False))
        return (tuple(row[0] for row in rows), tuple(rows), tuple(stops),
                top, {}, {})

    def program(entry: tuple, last: int) -> tuple:
        """The event program of the state reached by direction index `last`
        at a point with table entry `entry`, compiled and kept in the entry.

        An event (count, nxt, j, sub) counts `count` nodes and then descends
        to the point nxt, whose table entry is sub, by direction index j.
        When sub is None, nxt is the anchor, which the event's last node
        closes at, or None for the run of nodes after the last descent or
        closing.  The nodes before a descent or closing yield nothing: the
        stops between rows, a row's own stop among them, and each extension
        point with no row past the direction that reaches it (a leaf), with
        its stops.  So an event's count merges them with the node that ends
        it.  A state that is descended into has a row past the direction,
        so its program is not empty.

        Once the compiled events and run count more nodes than the budget
        has left, the replay crosses the budget inside them, so compiling
        stops there.  Each extension point counts at least one node, so at
        most one more of them than the budget has nodes left has its rays
        walked.  A program cut short is not kept.
        """
        js, rows, stops, _top, programs, _totals = entry
        events = []
        done = bisect_right(stops, last)
        run = 0
        # The nodes the budget has left, less those the events count; at
        # least 0 to start with, so a program cut short counts a node.
        left = max(budget - counter[0], 0)
        whole = True
        for j, k, ext, closes in rows[bisect_right(js, last):]:
            run += k - done
            done = k
            for nxt in ext:
                sub = table.get(nxt) or table.setdefault(nxt, rays(nxt))
                if sub[3] > j:
                    events.append((run + 1, nxt, j, sub))
                    left -= run + 1
                    run = 0
                else:
                    run += 1 + len(sub[2]) - bisect_right(sub[2], j)
                if run > left:
                    break
            if run > left:
                whole = False
                break
            if closes:
                events.append((run + 1, anchor, j, None))
                left -= run + 1
                run = 0
        if run:
            events.append((run, None, -1, None))
        prog = tuple(events)
        if whole:
            programs[last] = prog
        return prog

    def overrun(run: int) -> None:
        """The last `run` nodes counted, which yield nothing, took counter[0]
        past the budget: raise at the first of them that did."""
        counter[0] = max(counter[0] - run, budget) + 1
        raise BudgetExceededError(counter[0], counter[1])

    def rec(prog: tuple, x_hi: int, y_lo: int,
            y_hi: int) -> Iterator[LatticePolygon]:
        """Replay the event program `prog` of the state a chain ends in, and
        return the state's totals: (nodes, seen, longest).

        The chain's bounding box is (ax, x_hi, y_lo, y_hi): it starts at the
        anchor, its least x.  A closed chain under the floor is counted and
        dropped; any other is tested for dedup on its box, and each box's
        verdict is kept.  A descent that its state's totals rule out, as
        the docstring above says, adds them instead of replaying the state.
        """
        size = len(verts)
        nodes, seen, longest = counter[0], counter[1], -inf
        for count, nxt, j, sub in prog:
            counter[0] += count
            if counter[0] > budget:
                overrun(count)
            if sub is not None:
                done = sub[5].get(j)
                if (done is None or size + 1 + done[2] >= floor[0]
                        or counter[0] + done[0] > budget):
                    verts.append(nxt)
                    nx, ny = nxt
                    done = sub[5][j] = yield from rec(
                        sub[4].get(j) or program(sub, j),
                        nx if nx > x_hi else x_hi,
                        ny if ny < y_lo else y_lo,
                        ny if ny > y_hi else y_hi)
                    verts.pop()
                else:
                    counter[0] += done[0]
                    if done[1]:
                        counter[1] += done[1]
                if done[2] >= longest:
                    longest = done[2] + 1
            elif nxt is not None:
                if longest < 0:
                    longest = 0
                if size < 3:
                    continue
                counter[1] += 1
                if size < floor[0]:
                    continue
                if avoid is not None and dedup:
                    box = (ax, x_hi, y_lo, y_hi)
                    canonical = verdicts.get(box)
                    if canonical is None:
                        canonical = verdicts[box] = _is_canonical(
                            box, avoid, region)
                    if not canonical:
                        continue
                poly = LatticePolygon(tuple(verts))
                if avoid is not None and not is_free_of(poly, avoid):
                    raise InvariantViolation(f"{poly.vertices} meets {avoid}")
                yield poly
        return counter[0] - nodes, counter[1] - seen, longest

    # rec refers to itself, and the programs refer to table entries that
    # hold programs in turn, so both are reference cycles: clearing the
    # programs, the totals and the table frees them now, not at the next
    # full collection, which keeps one anchor's table in memory at a time.
    try:
        yield from rec(program(rays(anchor), -1), ax, ay, ay)
    finally:
        for entry in table.values():
            entry[4].clear()
            entry[5].clear()
        table.clear()
        verdicts.clear()


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


@lru_cache(maxsize=8)
def _first_steps(region: SearchRegion, vertex_lattice: Lattice2 | None
                 ) -> dict[Vec, tuple[int, ...]]:
    """For each point of the region that a chain has reached, in increasing
    order, the indices j of the direction steps whose first step from it
    stays in the region.

    The lists are cached by (region, vertex lattice), for up to 8 pairs and
    for the life of the process: every anchor of every search and campaign
    on that pair reads the same lists, and adds a point's list when a chain
    first reaches it, so a search cut short by its budget lists only the
    points that it, or an earlier search on the pair, reached.
    """
    return {}


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
    the chain-prefix node budget runs out; where it runs out does not depend
    on `min_vertices`, the stream's vertex floor.
    """
    if budget is None:
        budget = DEFAULT_NODE_BUDGET
    search = _Search(region, avoid, True, None)
    counter = [0, 0]
    for anchor in _anchors(search):
        yield from _iter_from_anchor(anchor, search, counter, budget,
                                     [min_vertices])


# ---------------------------------------------------------------------------
# The campaign driver: one task per (search, anchor) subtree, whose polygons
# kernel(polygons, search, floor, *args) folds into a summary.  The kernel
# may raise floor[0], the least vertex count it can still use; the
# enumerator builds no polygon under it.

def _run_task(task: tuple) -> tuple:
    """(summary, nodes, budget exhausted) for one task.

    Running out of budget ends the kernel's input; it does not raise.  The
    task's vertex floor starts at 0 on every run, so it is the same at any
    worker count.
    """
    kernel, args, search, anchor, budget = task
    counter, floor = [0, 0], [0]
    exhausted = False

    def polygons() -> Iterator[LatticePolygon]:
        nonlocal exhausted
        try:
            yield from _iter_from_anchor(anchor, search, counter, budget,
                                         floor)
        except BudgetExceededError:
            exhausted = True

    summary = kernel(polygons(), search, floor, *args)
    return summary, counter[0], exhausted


def _campaign(kernel, args: tuple, searches: list[_Search],
              budget: int | None, workers: int) -> Iterator[tuple]:
    """Yield (summary, nodes, exhausted) per task, in order.

    Nodes are a running total, and the task that exhausts the budget is
    the last.  A serial task gets the budget that is left.  Pool tasks run
    ahead with the whole budget; the one whose nodes cross what is left is
    run again here with what is left.  So every worker count yields what
    workers=1 yields.  No more workers start than there are tasks.
    """
    if budget is None:
        budget = DEFAULT_NODE_BUDGET
    tasks = [(kernel, args, search, anchor)
             for search in searches for anchor in _anchors(search)]
    nodes = 0
    workers = min(workers, len(tasks))
    if workers > 1:
        # A one-worker campaign never loads multiprocessing.
        from multiprocessing import Pool
    with (Pool(workers) if workers > 1 else nullcontext()) as pool:
        if pool is None:
            # map is lazy: each task is built after the one before it merged.
            results = map(_run_task,
                          (task + (budget - nodes,) for task in tasks))
        else:
            results = pool.imap(_run_task, [task + (budget,) for task in tasks])
        for task, (summary, t_nodes, exhausted) in zip(tasks, results):
            if pool is not None and nodes and t_nodes > budget - nodes:
                summary, t_nodes, exhausted = _run_task(
                    task + (budget - nodes,))
            nodes += t_nodes
            yield summary, nodes, exhausted
            if exhausted:
                return


# ---------------------------------------------------------------------------
# Campaigns

def capture_threshold(delta: int, n: int) -> int:
    """Vertex count from which every polygon must contain a lattice point."""
    return 2 * n + 2 * min(delta, 3) - 3


def _lattice_family(delta: int, n: int) -> list[Lattice2]:
    """The n/delta shear lattices delta * span{(1, r), (0, n/delta)}, for
    r = 0 .. n/delta - 1.

    Each has invariant factors (delta, n), but they are not every lattice
    with those factors: psi(n/delta) lattices have them (Dedekind psi), for
    example 4 at (1, 3), where this lists 3.
    """
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


def _max_kernel(polygons: Iterator[LatticePolygon], search: _Search,
                floor: list[int], n: int, tag: str, limit: int):
    """The first largest polygon carrying `tag`, and every one with more
    than `limit` vertices.

    A polygon no larger than the best so far and than `limit` can change
    neither, so its type is never decided.  Whenever the best grows, the
    floor rises to one past the smaller of its size and `limit`, so the
    enumerator does not build such a polygon either; the size test stays,
    so the summary is the same on any iterable.  A tagged search avoids nZ^2, checked once,
    up front, and every other polygon is tested with typeclass._has_type,
    without a freeness test.
    """
    tagged = tag != "any"
    if tagged and search.avoid != scaled_lattice(n):
        raise InvariantViolation(
            f"a search tagged {tag} avoids {search.avoid}, not {n}Z^2")
    best, best_size, over = None, 0, []
    for poly in polygons:
        vs = poly.vertices
        size = len(vs)
        if size <= best_size and size <= limit:
            continue
        if tagged and not _has_type(vs, poly.bounding_box(), n, tag):
            continue
        if size > best_size:
            best, best_size = poly, size
            floor[0] = min(size, limit) + 1
        if size > limit:
            over.append(poly)
    return best, over


def _max_report(bound_name: str, n: int, delta: int, region: SearchRegion,
                searches: list[_Search], kernel_args: tuple,
                budget: int | None, workers: int) -> BoundReport:
    """Merge the _max_kernel summaries of the searches, in task order."""
    best, over, nodes, exhausted = None, [], 0, False
    for (task_best, task_over), nodes, exhausted in _campaign(
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

    Enumerates polygons free of nZ^2, keeps those carrying the requested
    type tag ("any" for no constraint), and reports the maximum vertex count
    seen plus any polygon exceeding the applicable bound.  When
    `vertex_lattice` is supplied, the vertices are confined in turn to each
    shear lattice of _lattice_family: those have the given invariant
    factors, but they are not every lattice that has them.
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
    searches = [_Search(region, scaled_lattice(n), tag == "any", vlat)
                for vlat in families]
    return _max_report(name, n,
                       vertex_lattice.delta if vertex_lattice else 1, region,
                       searches, (n, tag, bound), budget, workers)


def check_main_theorem(delta: int, n: int, region: SearchRegion,
                       budget: int | None = None,
                       workers: int = 1) -> BoundReport:
    """Verify that polygons at the capture threshold contain lattice points.

    For each shear lattice delta * span{(1, r), (0, n/delta)} of
    _lattice_family, enumerates the lattice-free polygons of the region up
    to lattice translation; any free polygon reaching
    capture_threshold(delta, n) vertices refutes the claim and is reported.
    Those lattices have invariant factors (delta, n), but they are not every
    lattice that has them.
    """
    searches = [_Search(region, lat, True, None)
                for lat in _lattice_family(delta, n)]
    nu = capture_threshold(delta, n)
    return _max_report(f"capture-at-{nu}-vertices", n, delta, region,
                       searches, (n, "any", nu - 1), budget, workers)


def find_sharpness_witness(delta: int, n: int, region: SearchRegion,
                           budget: int | None = None) -> LatticePolygon | None:
    """A polygon with capture_threshold - 1 vertices avoiding delta*Z x n*Z.

    The first polygon of that size in enumerate_convex_polygons' stream.
    Returns None when the threshold leaves no room for a polygon (fewer than
    3 vertices) or when the region holds no witness; neither is a refutation.
    Raises BudgetExceededError when the budget runs out before a witness.
    """
    avoid = _lattice_family(delta, n)[0]
    target = capture_threshold(delta, n) - 1
    if target < 3:
        return None
    return next((poly for poly in enumerate_convex_polygons(
        region, target, avoid, budget) if len(poly) == target), None)


# Bounded, so a corpus larger than any of the acceptance campaigns keeps a
# flat memory footprint; criterion 8's region meets 10,031 distinct images.
@lru_cache(maxsize=1 << 14)
def _reduces(tag: str, vs: tuple[Vec, ...], n: int) -> bool:
    """Does the pipeline of `tag` reduce the polygon with canonical vertices
    `vs` at scale n, every check of its trace holding?

    The pipeline is a pure function of its input, so each distinct
    classified image is reduced once per campaign and its outcome shared.
    A law broken inside the pipeline fails the reduction.
    """
    try:
        PIPELINES[tag](_trusted(vs), n)
    except InvariantViolation:
        return False
    return True


def _corpus_kernel(polygons: Iterator[LatticePolygon], search: _Search,
                   floor: list[int], n: int):
    """Classify each polygon and run its reduction pipeline.  The floor is
    never raised: every polygon is built and classified.

    The search avoids nZ^2, checked once up front, so each polygon goes to
    classify's search core without classify's own freeness test, and only
    its classified image, not the map, is kept.  Each distinct image of
    type V, VI or IV is reduced once, through _reduces, and every polygon
    classified to it gets that outcome.

    Returns the tally, the polygons that failed, and the largest size seen.
    """
    if search.avoid != scaled_lattice(n):
        raise InvariantViolation(
            f"the reduction corpus avoids {search.avoid}, not {n}Z^2")
    tally: Counter[str] = Counter()
    failures: list[LatticePolygon] = []
    max_found = 0
    for poly in polygons:
        tally["total"] += 1
        max_found = max(max_found, len(poly))
        try:
            tag, vs, _m = _classify_core(poly, n)
        except RuntimeError:
            failures.append(poly)
            continue
        tally[tag] += 1
        if tag in PIPELINES:
            if _reduces(tag, vs, n):
                tally["reduced_" + tag.lower()] += 1
            else:
                failures.append(poly)
    return tally, failures, max_found


def verify_reduction_corpus(n: int, region: SearchRegion,
                            budget: int | None = None, workers: int = 1
                            ) -> tuple[BoundReport, dict[str, int]]:
    """Classify every nZ^2-free polygon of the region and run its reductions.

    Every enumerated polygon must classify within the default search bound;
    whenever the classification lands on type V or VI (or the terminal IV),
    the classified image is pushed through its reduction pipeline, which
    proves each step as it records it (also under -O).  Each distinct image
    is reduced once and its outcome shared by every polygon classified to it;
    the cache that holds those outcomes is cleared here, before any pool
    worker starts, so a campaign never reads an outcome computed before it
    began.  A polygon whose classification or pipeline fails is a
    counterexample.  Returns the report plus a tally of classified tags and
    pipeline runs.
    """
    if n not in (3, 4):
        raise ValueError(f"the reduction corpus runs at desk scale (3 or 4), got {n}")
    _reduces.cache_clear()
    search = _Search(region, scaled_lattice(n), True, None)
    tally = dict.fromkeys((*TAG_ORDER, "total",
                           *("reduced_" + t.lower() for t in PIPELINES)), 0)
    failures: list[LatticePolygon] = []
    max_found, nodes, exhausted = 0, 0, False
    for (part, part_failures, part_max), nodes, exhausted in _campaign(
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

