"""Tests for the enumeration engine and the bound-checking campaigns.

The streaming enumerator is checked against the two brute-force oracles from
conftest (powerset filter and convex-position DFS), which share no code with
it.  Campaign results on small regions are frozen after hand inspection.
"""

import json
import pickle
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import pytest

from conftest import (convex_polygons_dfs, convex_polygons_powerset,
                      fail_lift_on_call, reference_type_predicate, run_python)
from latgon import (
    REGION_PRESETS,
    AffineMap,
    BoundReport,
    BudgetExceededError,
    InvariantFactors,
    TAG_ORDER,
    InvariantViolation,
    Lattice2,
    LatticePolygon,
    PolygonType,
    SearchRegion,
    capture_threshold,
    check_main_theorem,
    check_vertex_bound,
    contains,
    enumerate_convex_polygons,
    find_sharpness_witness,
    from_points,
    is_free_of,
    scaled_lattice,
    transform,
    type_predicate,
    verify_reduction_corpus,
)
from latgon import verify
from latgon.typeclass import PIPELINES, _classify_core
from latgon.verify import (
    _anchors,
    _campaign,
    _corpus_kernel,
    _dir_half,
    _direction_steps,
    _is_canonical,
    _iter_from_anchor,
    _lattice_family,
    _max_kernel,
    _reduces,
    _run_task,
    _Search,
    _triangle_has_point,
)


def region_points(region):
    return list(region.points())


# ---------------------------------------------------------------------------
# SearchRegion


def test_region_parse_and_shape():
    r = SearchRegion.parse("0,6,-1,3")
    assert r == SearchRegion(0, 6, -1, 3)
    assert (r.width, r.height) == (6, 4)
    assert len(region_points(r)) == 7 * 5
    assert region_points(SearchRegion(0, 1, 0, 1)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize("text", ["0,6", "0,6,0", "a,b,c,d", "3,0,0,3", "0,3,3,3"])
def test_region_rejects_bad_input(text):
    with pytest.raises(ValueError):
        SearchRegion.parse(text)


def test_region_presets():
    assert set(REGION_PRESETS) == {
        "type-iii-n3", "type-iv-n3", "type-v-n3", "type-vi-n3",
        "square-n3", "square-n2",
    }
    assert REGION_PRESETS["square-n2"] == SearchRegion(0, 6, 0, 6)
    assert REGION_PRESETS["type-iii-n3"].x_min == 0


# ---------------------------------------------------------------------------
# enumeration against the independent oracles


def test_enumerator_matches_oracles_small():
    region = SearchRegion(0, 2, 0, 2)
    got = sorted(p.vertices for p in enumerate_convex_polygons(region))
    pts = region_points(region)
    assert got == sorted(convex_polygons_powerset(pts))
    assert got == sorted(convex_polygons_dfs(pts))
    assert len(got) == 168


def test_enumerator_matches_dfs_oracle_medium():
    region = SearchRegion(0, 3, 0, 3)
    got = sorted(p.vertices for p in enumerate_convex_polygons(region))
    assert got == sorted(convex_polygons_dfs(region_points(region)))
    assert len(got) == 2719


def test_enumerator_matches_dfs_oracle_large(corpus_04):
    oracle = sorted(convex_polygons_dfs(region_points(SearchRegion(0, 4, 0, 4))))
    assert sorted(p.vertices for p in corpus_04) == oracle
    assert len(oracle) == 33041


def test_enumerator_yields_canonical_polygons(corpus_04):
    region = SearchRegion(0, 4, 0, 4)
    seen = set()
    for P in corpus_04:
        assert P.vertices not in seen
        seen.add(P.vertices)
        assert from_points(P.vertices).vertices == P.vertices
        assert all((x, y) in set(region_points(region)) for x, y in P.vertices)


def test_enumerator_min_vertices():
    region = SearchRegion(0, 2, 0, 2)
    quads = [p.vertices for p in enumerate_convex_polygons(region, min_vertices=4)]
    oracle = [v for v in convex_polygons_dfs(region_points(region)) if len(v) >= 4]
    assert sorted(quads) == sorted(oracle)
    assert all(len(v) >= 4 for v in quads)


def test_enumerator_empty_when_region_too_small():
    assert list(enumerate_convex_polygons(SearchRegion(0, 1, 0, 1), min_vertices=5)) == []


def test_enumerator_avoid_two_keeps_inscribed_diamond():
    polys = list(
        enumerate_convex_polygons(
            SearchRegion(0, 4, 0, 4), avoid=scaled_lattice(2), min_vertices=4
        )
    )
    assert len(polys) == 33
    assert any(P.vertices == ((0, 1), (1, 0), (2, 1), (1, 2)) for P in polys)


def test_enumerator_avoid_filters_and_dedups():
    """With avoid=3Z^2, output is free of it, one per 3Z^2-translation class."""
    region = SearchRegion(0, 5, 0, 5)
    lat = scaled_lattice(3)
    polys = list(enumerate_convex_polygons(region, avoid=lat))
    for P in polys:
        assert is_free_of(P, lat)
    # Unit squares: a position (x,y) is free iff x = 1 or y = 1 (mod 3), so
    # five residue classes survive; each must appear exactly once even though
    # the region holds several translates of each (e.g. (1,1) and (4,1)).
    corners = sorted(
        P.vertices[0] for P in polys
        if len(P) == 4
        and sorted((x - P.vertices[0][0], y - P.vertices[0][1])
                   for x, y in P.vertices) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    )
    assert corners == [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)]


def test_enumerator_budget():
    with pytest.raises(BudgetExceededError) as exc:
        list(enumerate_convex_polygons(SearchRegion(0, 5, 0, 5), budget=100))
    assert exc.value.nodes == 101
    assert exc.value.polygons_seen == 19
    assert "node budget exhausted" in str(exc.value)


def test_budget_error_pickles():
    err = BudgetExceededError(20001, 7)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is BudgetExceededError
    assert (back.nodes, back.polygons_seen) == (20001, 7)
    assert str(back) == str(err)


# ---------------------------------------------------------------------------
# the ray-table enumerator against the per-node walk it replaces


def reference_iter_from_anchor(anchor, search, counter, budget, floor):
    """The enumerator that walks every ray afresh at every node: a closed
    chain of 3 or more vertices is seen, and emitted from floor[0] up."""
    region, avoid, dedup = search.region, search.avoid, search.dedup
    ax, ay = anchor
    x_min, x_max = region.x_min, region.x_max
    y_min, y_max = region.y_min, region.y_max
    steps = _direction_steps(region, search.vertex_lattice)
    n_dirs = len(steps)
    halves = tuple(_dir_half(d) for d in steps)
    past_pi = tuple(1 if (d[1] < 0 and d[0] <= 0) else 0 for d in steps)
    verts = [anchor]

    def rec(last, cx, cy):
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
                    if len(verts) >= 3:
                        counter[1] += 1
                    if len(verts) >= max(3, floor[0]):
                        poly = LatticePolygon(tuple(verts))
                        if avoid is None or not dedup or _is_canonical(
                                poly.bounding_box(), avoid, region):
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


def _per_task(enumerate_from, search, floor=0):
    """(polygons, nodes, polygons seen) of each anchor task under the vertex
    floor; each polygon comes with the counters at the moment it is
    yielded."""
    out = []
    for anchor in _anchors(search):
        counter = [0, 0]
        polys = [(P.vertices, *counter) for P in enumerate_from(
            anchor, search, counter, 10 ** 9, [floor])]
        out.append((anchor, polys, counter[0], counter[1]))
    return out


def _under_budget(enumerate_from, search, budget):
    """The stream over all anchors under one budget, and where it stopped."""
    counter, polys = [0, 0], []
    try:
        for anchor in _anchors(search):
            polys += [P.vertices for P in enumerate_from(
                anchor, search, counter, budget, [0])]
    except BudgetExceededError as exc:
        return polys, (exc.nodes, exc.polygons_seen), counter
    return polys, None, counter


REFERENCE_SEARCHES = {
    "no-avoid": _Search(SearchRegion(0, 3, 0, 3), None, True, None),
    "no-avoid-min5": _Search(SearchRegion(-1, 2, 0, 3), None, True, None),
    "3Z2-dedup": _Search(SearchRegion(-2, 3, -2, 3), scaled_lattice(3),
                         True, None),
    "3Z2-dedup-small": _Search(SearchRegion(-2, 2, -2, 2),
                               scaled_lattice(3), True, None),
    "2Z2-tagged": _Search(SearchRegion(-3, 3, -2, 2), scaled_lattice(2),
                          False, None),
    # A sheared lattice: here a translate's fit, so the dedup verdict,
    # depends on the box's height, not only on its corner and width.
    "sheared-dedup": _Search(SearchRegion(-2, 3, -2, 3),
                             _lattice_family(1, 3)[1], True, None),
}
REFERENCE_SEARCHES.update(
    (f"factors-1-3-residue-{r}",
     _Search(SearchRegion(-3, 6, -3, 6), scaled_lattice(3), True, vlat))
    for r, vlat in enumerate(_lattice_family(1, 3)))
#: The vertex floor a search's stream is compared at, where it is not 0.
REFERENCE_FLOORS = {"no-avoid-min5": 5}


@pytest.mark.parametrize("name", sorted(REFERENCE_SEARCHES))
def test_enumerator_matches_per_node_walk(name):
    search, floor = REFERENCE_SEARCHES[name], REFERENCE_FLOORS.get(name, 0)
    got = _per_task(_iter_from_anchor, search, floor)
    assert got == _per_task(reference_iter_from_anchor, search, floor)
    assert sum(len(polys) for _, polys, _, _ in got) > 0


def test_enumerator_budget_sweep_matches_per_node_walk(rng):
    search = REFERENCE_SEARCHES["3Z2-dedup-small"]
    total = sum(nodes for _, _, nodes, _ in _per_task(_iter_from_anchor, search))
    budgets = [0, 1, 2, total - 1, total] + rng.sample(range(3, total - 1), 20)
    for budget in budgets:
        got = _under_budget(_iter_from_anchor, search, budget)
        assert got == _under_budget(reference_iter_from_anchor, search,
                                    budget), budget
        assert (got[1] is None) == (budget >= total)


class _CountLog(list):
    """A [nodes, polygons seen] counter that logs each change of the node
    count as (old, new) and the node count at each polygon seen."""

    def __init__(self):
        super().__init__([0, 0])
        self.node_steps = []
        self.seen_at = []

    def __setitem__(self, i, value):
        if i == 0:
            self.node_steps.append((self[0], value))
        else:
            self.seen_at.append(self[0])
        super().__setitem__(i, value)


@pytest.mark.parametrize("name", ["3Z2-dedup-small", "3Z2-dedup"])
def test_enumerator_budget_window_matches_per_node_walk(name):
    """Every budget of a window around the first chain that dedup rejects.

    Under budget b the search stops at node b + 1.  The window holds stops
    on rejected chains, and stops inside runs of nodes that the enumerator
    counts in one step, away from either end of the run.
    """
    search = REFERENCE_SEARCHES[name]
    log, yielded_at = _CountLog(), set()
    for anchor in _anchors(search):
        for _ in _iter_from_anchor(anchor, search, log, 10 ** 9, [0]):
            yielded_at.add(log[0])
    rejected = sorted(set(log.seen_at) - yielded_at)
    inside_runs = {node for old, new in log.node_steps
                   for node in range(old + 2, new)}
    window = range(rejected[0] - 4, rejected[0] + 12)
    assert sum(b + 1 in rejected for b in window) >= 2
    assert sum(b + 1 in inside_runs for b in window) >= 2
    for budget in window:
        got = _under_budget(_iter_from_anchor, search, budget)
        assert got == _under_budget(reference_iter_from_anchor, search,
                                    budget), budget
        assert got[1] == (budget + 1, got[2][1])


def test_enumerator_budget_stop_in_first_run():
    """A search whose first four nodes are counted as one run, ended by a
    descent: every stop in it and just past it, under a negative budget
    too, is the per-node walk's."""
    search = REFERENCE_SEARCHES["factors-1-3-residue-1"]
    log = _CountLog()
    list(_iter_from_anchor(_anchors(search)[0], search, log, 10 ** 9, [0]))
    assert log.node_steps[0] == (0, 4)
    for budget in range(-3, 5):
        got = _under_budget(_iter_from_anchor, search, budget)
        assert got == _under_budget(reference_iter_from_anchor, search,
                                    budget), budget
        assert got[1] == (max(budget, 0) + 1, 0)


def _kernel_task(enumerate_from, search, anchor, counter, budget, limit,
                 log):
    """Stream one task into _max_kernel, which raises the task's floor, and
    log each polygon with the counters at the moment it is yielded; return
    the kernel's summary."""
    floor = [0]

    def stream():
        for P in enumerate_from(anchor, search, counter, budget, floor):
            log.append((P.vertices, *counter))
            yield P

    return _max_kernel(stream(), search, floor, limit)


def _kernel_under_budget(enumerate_from, search, budget, limit,
                         counter=None):
    """The tasks of the search under one budget: the polygon log, the
    summaries of the tasks that ended, where the search stopped, and the
    counters."""
    counter = [0, 0] if counter is None else counter
    log, summaries = [], []
    try:
        for anchor in _anchors(search):
            summaries.append(_kernel_task(enumerate_from, search, anchor,
                                          counter, budget, limit, log))
    except BudgetExceededError as exc:
        return log, summaries, (exc.nodes, exc.polygons_seen), list(counter)
    return log, summaries, None, list(counter)


def _limits(search):
    """Limit 8, and one below the largest polygon of the search, where the
    floor rises past every size but the largest."""
    largest = max(len(P) for _, polys, _, _ in _per_task(_iter_from_anchor,
                                                        search)
                  for P, *_ in polys)
    return 8, largest - 1


def _kernel_per_task(enumerate_from, search, limit):
    """Each task's polygon log, summary and counters, without a budget."""
    out = []
    for anchor in _anchors(search):
        counter, log = [0, 0], []
        summary = _kernel_task(enumerate_from, search, anchor, counter,
                               10 ** 9, limit, log)
        out.append((anchor, log, summary, counter))
    return out


@pytest.mark.parametrize("name", sorted(REFERENCE_SEARCHES))
def test_subtree_skip_matches_per_node_walk(name):
    """Under a consumer that raises the floor, so that subtrees are skipped,
    each task's polygons, the counters at each, its summary and its totals
    are the per-node walk's."""
    search = REFERENCE_SEARCHES[name]
    for limit in _limits(search):
        assert _kernel_per_task(_iter_from_anchor, search, limit) == (
            _kernel_per_task(reference_iter_from_anchor, search, limit)), limit


@pytest.mark.parametrize("name", ["3Z2-dedup-small", "factors-1-3-residue-2"])
def test_subtree_skip_budget_window_matches_per_node_walk(name):
    """Every budget of a window around the first skipped subtree that holds
    a closed chain, under a consumer that raises the floor.

    A replayed event closes at its last node only, so a step of the node
    counter with a closing strictly inside it is a skipped subtree.  Under
    a budget that stops inside the subtree, it is walked, and the stop is
    the per-node walk's.
    """
    search = REFERENCE_SEARCHES[name]
    limit = _limits(search)[1]
    ours, ref = _CountLog(), _CountLog()
    _kernel_under_budget(_iter_from_anchor, search, 10 ** 9, limit, ours)
    _kernel_under_budget(reference_iter_from_anchor, search, 10 ** 9, limit,
                         ref)
    old, new = next((old, new) for old, new in ours.node_steps
                    if any(old < node < new for node in ref.seen_at))
    assert new - old >= 2
    for budget in range(old - 3, new + 3):
        got = _kernel_under_budget(_iter_from_anchor, search, budget, limit)
        assert got == _kernel_under_budget(reference_iter_from_anchor,
                                           search, budget, limit), budget
        assert got[2] == (budget + 1, got[3][1])


def test_bound_task_skips_subtrees_under_its_floor():
    """The benchmark's untagged campaign adds the totals of the subtrees
    its floor rules out in one step each: its node counter is written
    36,994 times, against 109,143 when every subtree is replayed, for the
    same 618,802 nodes."""
    search = _Search(SearchRegion(-3, 3, -3, 3), scaled_lattice(3), True,
                     None)
    log = _CountLog()
    _kernel_under_budget(_iter_from_anchor, search, 10 ** 9, 8, log)
    assert list(log) == [618802, 35381]
    assert len(log.node_steps) < 109143 // 2


def with_tag(search, n, tag):
    """The search restricted to the polygons of `tag` at scale n, or the
    search itself for "any"."""
    if tag == "any":
        return search
    return replace(search, tag=PolygonType(tag, n))


@lru_cache(maxsize=None)
def reference_has_type(vertices, n, tag):
    """Does the polygon have the tag ("any" for every polygon), by
    reference_type_predicate; kept for the tests of every tag."""
    return tag == "any" or reference_type_predicate(LatticePolygon(vertices),
                                                    n, tag)


#: Searches as tagged campaigns search them, without dedup, as (region, n,
#: vertex lattice).  Their polygons carry I, V and Va; I, V, VI and Va;
#: every tag but IV; and I, VI and Va on a vertex lattice.
TAGGED_SEARCHES = {
    "2Z2": (SearchRegion(-3, 3, -2, 2), 2, None),
    "2Z2-east": (SearchRegion(-1, 5, -1, 3), 2, None),
    "3Z2": (SearchRegion(-1, 4, -1, 4), 3, None),
    "factors-1-3-residue-1": (SearchRegion(-3, 6, -3, 6), 3,
                              _lattice_family(1, 3)[1]),
}


def tagged_search(name, tag):
    region, n, vlat = TAGGED_SEARCHES[name]
    return with_tag(_Search(region, scaled_lattice(n), False, vlat), n, tag)


@lru_cache(maxsize=None)
def reference_tasks(name):
    """_per_task of the per-node walk on the untagged search."""
    return _per_task(reference_iter_from_anchor, tagged_search(name, "any"))


@pytest.mark.parametrize("tag", TAG_ORDER)
def test_tagged_enumerator_matches_filtered_per_node_walk(tag):
    """A tagged search yields the polygons of the untagged per-node walk
    that have the tag by the reference, each with the walk's counters at
    the moment it is yielded; each task's nodes and polygons seen are the
    walk's, though the subtrees whose box rules the tag out are added in
    one step."""
    found = 0
    for name, (_region, n, _vlat) in TAGGED_SEARCHES.items():
        expected = [(anchor, [entry for entry in polys
                              if reference_has_type(entry[0], n, tag)],
                     nodes, seen)
                    for anchor, polys, nodes, seen in reference_tasks(name)]
        got = _per_task(_iter_from_anchor, tagged_search(name, tag))
        assert got == expected, name
        found += sum(len(polys) for _, polys, _, _ in got)
    assert (found > 0) is (tag != "IV")


@pytest.mark.parametrize("tag", TAG_ORDER)
def test_tagged_budget_window_matches_filtered_per_node_walk(tag):
    """Every budget of windows at both ends of the first subtree that the
    tag's rules skip: the stream, the budget stop and the counters are the
    untagged per-node walk's, its stream filtered by the reference.

    At floor 0, a subtree that the floor skips holds no closed chain; so a
    step of the node counter with a closing strictly inside it is a subtree
    that the tag's rules skip.  Under a budget that stops inside it, it is
    walked, and the stop is the per-node walk's.
    """
    n = TAGGED_SEARCHES["2Z2"][1]
    search, plain = tagged_search("2Z2", tag), tagged_search("2Z2", "any")
    ours, ref = _CountLog(), _CountLog()
    for anchor in _anchors(search):
        list(_iter_from_anchor(anchor, search, ours, 10 ** 9, [0]))
        list(reference_iter_from_anchor(anchor, plain, ref, 10 ** 9, [0]))
    old, new = next((old, new) for old, new in ours.node_steps
                    if any(old < node < new for node in ref.seen_at))
    assert new - old >= 2
    for budget in sorted({*range(old - 3, old + 9), *range(new - 3, new + 3)}):
        polys, stop, counter = _under_budget(reference_iter_from_anchor,
                                             plain, budget)
        got = _under_budget(_iter_from_anchor, search, budget)
        assert got == ([vs for vs in polys if reference_has_type(vs, n, tag)],
                       stop, counter), budget
        assert got[1] == (budget + 1, got[2][1])


@pytest.mark.parametrize("end", ["close", "exhaust", "budget"])
def test_every_end_of_a_stream_clears_its_table_and_state_records(end):
    """However an anchor's stream ends, closed after its first polygon (as
    the sharpness witness search closes it), run to its end or stopped by
    the budget, it empties its ray table, its dedup verdicts and every
    state record, read here through the suspended generator's frame.  The
    records and the table entries that hold them are reference cycles, so
    only this frees them before the next full collection."""
    search = REFERENCE_SEARCHES["3Z2-dedup-small"]
    anchor = _anchors(search)[0]
    counter = [0, 0]
    first = next(_iter_from_anchor(anchor, search, counter, 10 ** 9, [0]))
    # Under a budget of the nodes up to the first polygon, the stream
    # stops at the node after it.
    budget = counter[0] if end == "budget" else 10 ** 9
    stream = _iter_from_anchor(anchor, search, [0, 0], budget, [0])
    assert next(stream) == first
    names = stream.gi_frame.f_locals
    table, verdicts = names["table"], names["verdicts"]
    records = [state for entry in table.values()
               for state in entry[4].values()]
    assert verdicts and records
    assert all(len(state) == 4 and state[0] is entry
               for entry in table.values() for state in entry[4].values())
    if end == "close":
        stream.close()
    elif end == "exhaust":
        assert list(stream)
    else:
        with pytest.raises(BudgetExceededError) as stop:
            list(stream)
        assert stop.value.nodes == budget + 1
    assert stream.gi_frame is None
    assert table == {} and verdicts == {}
    assert all(state == [] for state in records)


#: Bound campaigns whose kernel raises the vertex floor: the benchmark's
#: untagged and tagged calls.
RECHECKED_CAMPAIGNS = (("any", SearchRegion(-3, 3, -3, 3)),
                       ("V", SearchRegion(-3, 2, -2, 2)))


def test_enumerator_recheck_fires(monkeypatch):
    """Each emitted polygon is re-checked against the lattice, so a
    fan-triangle test that never finds a point is caught, also with asserts
    off, and also by bound campaigns, which build only the polygons that
    their kernel can still use."""
    monkeypatch.setattr(verify, "_triangle_has_point",
                        lambda L, a, b, c: False)
    search = REFERENCE_SEARCHES["3Z2-dedup-small"]
    with pytest.raises(InvariantViolation, match=r"\) meets Lattice2"):
        for anchor in _anchors(search):
            list(_iter_from_anchor(anchor, search, [0, 0], 10 ** 9, [0]))
    for tag, region in RECHECKED_CAMPAIGNS:
        with pytest.raises(InvariantViolation, match=r"\) meets Lattice2"):
            check_vertex_bound(3, tag, None, region)
    code = "\n".join([
        "import sys",
        "import latgon.verify as verify",
        "from latgon import (InvariantViolation, SearchRegion,",
        "                    check_vertex_bound, scaled_lattice)",
        "verify._triangle_has_point = lambda L, a, b, c: False",
        "search = verify._Search(SearchRegion(-2, 2, -2, 2),",
        "                        scaled_lattice(3), True, None)",
        "try:",
        "    for anchor in verify._anchors(search):",
        "        list(verify._iter_from_anchor(anchor, search, [0, 0], 10**9,",
        "                                      [0]))",
        "except InvariantViolation as exc:",
        "    print(sys.flags.optimize, exc)",
        f"for tag, region in {RECHECKED_CAMPAIGNS!r}:",
        "    try:",
        "        check_vertex_bound(3, tag, None, region)",
        "    except InvariantViolation as exc:",
        "        print(sys.flags.optimize, tag, exc)",
    ])
    proc = run_python(code, "-O")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    for line, head in zip(lines, ("1 ((", "1 any ((", "1 V ((")):
        assert line.startswith(head) and ") meets Lattice2" in line


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _in_closed_triangle(p, a, b, c):
    if _cross(a, b, c) != 0:
        sides = (_cross(a, b, p), _cross(b, c, p), _cross(c, a, p))
        return min(sides) >= 0 or max(sides) <= 0
    # Collinear: along a line, lexicographic order is the order on the line.
    lo, hi = min(a, b, c), max(a, b, c)
    return _cross(lo, hi, p) == 0 and lo <= p <= hi


def test_triangle_has_point_matches_box_scan(rng):
    """The fan-triangle test against a scan of every point in the box, on
    proper, collinear and single-point triangles."""
    lattices = [scaled_lattice(3), Lattice2(1, 0, 1)]
    lattices += [Lattice2(rng.randint(1, 4), 0, rng.randint(1, 4))
                 for _ in range(4)]
    lattices += [Lattice2(rng.randint(1, 3), q, 5) for q in range(1, 5)]
    shapes = {"proper": 0, "collinear": 0, "point": 0}
    for _ in range(6000):
        L = rng.choice(lattices)
        a = (rng.randint(-6, 6), rng.randint(-6, 6))
        kind = rng.randrange(3)
        if kind == 0:
            b = (rng.randint(-6, 6), rng.randint(-6, 6))
            c = (rng.randint(-6, 6), rng.randint(-6, 6))
        elif kind == 1:
            d = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (-1, 3)])
            j, k = rng.randint(-3, 3), rng.randint(-3, 3)
            b = (a[0] + j * d[0], a[1] + j * d[1])
            c = (a[0] + k * d[0], a[1] + k * d[1])
        else:
            b = c = a
        shapes["point" if a == b == c else
               "collinear" if _cross(a, b, c) == 0 else "proper"] += 1
        xs, ys = (a[0], b[0], c[0]), (a[1], b[1], c[1])
        expected = any(
            contains(L, (x, y)) and _in_closed_triangle((x, y), a, b, c)
            for x in range(min(xs), max(xs) + 1)
            for y in range(min(ys), max(ys) + 1))
        assert _triangle_has_point(L, a, b, c) is expected, (L, a, b, c)
    assert min(shapes.values()) > 1500, shapes


# ---------------------------------------------------------------------------
# capture threshold and the main capture check


@pytest.mark.parametrize(
    "delta, n, nu",
    [(1, 2, 3), (2, 2, 5), (1, 3, 5), (1, 4, 7), (3, 3, 9), (4, 4, 11), (5, 5, 13)],
)
def test_capture_threshold_values(delta, n, nu):
    assert capture_threshold(delta, n) == nu


def test_check_main_theorem_pentagon_capture():
    """Free polygons on the (2,2) lattices of [0,6]^2 top out at 4 vertices."""
    report = check_main_theorem(2, 2, SearchRegion(0, 6, 0, 6))
    assert not report.counterexamples
    assert report.exhaustive
    assert report.max_vertices_found == 4
    assert report.counterexamples == ()
    assert report.nodes_explored == 38329
    assert report.witness.vertices == ((0, 1), (1, 0), (6, 1), (5, 2))
    assert report.bound_name == "capture-at-5-vertices"
    assert (report.delta, report.n) == (2, 2)


@pytest.mark.parametrize("campaign", [
    pytest.param(lambda w: check_main_theorem(
        2, 2, SearchRegion(0, 6, 0, 6), workers=w), id="main-theorem"),
    pytest.param(lambda w: check_main_theorem(
        2, 2, SearchRegion(0, 6, 0, 6), budget=200, workers=w),
        id="main-theorem-budget"),
    pytest.param(lambda w: check_main_theorem(
        2, 2, SearchRegion(0, 6, 0, 6), budget=20000, workers=w),
        id="main-theorem-budget-mid-campaign"),
    pytest.param(lambda w: check_vertex_bound(
        3, "V", None, SearchRegion(-2, 2, -2, 2), workers=w),
        id="vertex-bound-tagged"),
    pytest.param(lambda w: check_vertex_bound(
        3, "any", InvariantFactors(1, 3), SearchRegion(-2, 4, -2, 4),
        workers=w), id="vertex-bound-factors"),
    pytest.param(lambda w: verify_reduction_corpus(
        3, SearchRegion(-2, 3, -2, 3), workers=w), id="reduction-corpus"),
])
def test_campaign_workers_agree(campaign):
    # Pool tasks run ahead of the merge; the report (and the corpus tally)
    # must still be the serial one, also when the budget runs out.
    assert campaign(2) == campaign(1)


def test_campaign_starts_no_more_workers_than_tasks(monkeypatch):
    """A campaign asked for more workers than it has tasks starts one per
    task, and one with a single task runs here; a stand-in pool that maps
    in this process records each pool's size, so no process starts."""
    import multiprocessing
    sizes = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, iterable):
            return map(func, iterable)

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    region = SearchRegion(-3, 3, -3, 3)
    tasks = _anchors(_Search(region, scaled_lattice(3), True, None))
    assert len(tasks) == 18
    assert (check_vertex_bound(3, "any", None, region, workers=64)
            == check_vertex_bound(3, "any", None, region))
    assert sizes == [18]
    # Avoiding Z x 3Z, [0,1]^2 has one anchor, (0, 1).
    one = [_Search(SearchRegion(0, 1, 0, 1), Lattice2(1, 0, 3), True, None)]
    assert _anchors(one[0]) == [(0, 1)]
    assert (list(_campaign(_max_kernel, (8,), one, None, 4))
            == list(_campaign(_max_kernel, (8,), one, None, 1)))
    assert sizes == [18]


def test_one_worker_campaigns_load_neither_slope_nor_pool():
    """A one-worker bound or corpus campaign, and a one-task campaign asked
    for more workers, in a fresh interpreter, load neither the slope layer
    nor multiprocessing; at two workers the bound campaign loads the pool
    and reports what it reports at one."""
    code = "\n".join([
        "import json, sys",
        "from dataclasses import asdict",
        "from latgon import (Lattice2, SearchRegion, check_vertex_bound,",
        "                    verify_reduction_corpus)",
        "from latgon.verify import _campaign, _max_kernel, _Search",
        "region = SearchRegion(-1, 2, -1, 2)",
        "one = check_vertex_bound(3, 'any', None, region)",
        "report, tally = verify_reduction_corpus(3, SearchRegion(-1, 2, -1, 1))",
        "# Five workers asked for, one task: (0, 1) is the one anchor.",
        "tiny = _Search(SearchRegion(0, 1, 0, 1), Lattice2(1, 0, 3), True,",
        "               None)",
        "list(_campaign(_max_kernel, (8,), [tiny], None, 5))",
        "unloaded = {'latgon.slope', 'multiprocessing'} - set(sys.modules)",
        "two = check_vertex_bound(3, 'any', None, region, workers=2)",
        "print(json.dumps({'unloaded': sorted(unloaded),",
        "                  'pool': 'multiprocessing' in sys.modules,",
        "                  'one': asdict(one), 'two': asdict(two),",
        "                  'corpus': tally['total']}))",
    ])
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["unloaded"] == ["latgon.slope", "multiprocessing"]
    assert out["pool"]
    assert out["one"]["nodes_explored"] > 0 and out["corpus"] > 0
    assert out["two"] == out["one"]


def test_check_main_theorem_budget_marks_non_exhaustive():
    report = check_main_theorem(2, 2, SearchRegion(0, 6, 0, 6), budget=200)
    assert not report.exhaustive
    assert report.nodes_explored == 201


def test_check_main_theorem_unit_height_family_is_vacuous():
    # A polygon free of Z x 2Z would have to fit strictly between two adjacent
    # lattice rows, leaving all its vertices collinear on y = const; no convex
    # polygon survives that, so the sweep finds nothing and the bound holds.
    report = check_main_theorem(1, 2, SearchRegion(0, 4, 0, 4))
    assert not report.counterexamples and report.exhaustive
    assert report.max_vertices_found == 0
    assert report.witness is None


@pytest.mark.parametrize("delta, n", [(0, 2), (2, 3), (1, 1)])
def test_check_main_theorem_validation(delta, n):
    for campaign in (check_main_theorem, find_sharpness_witness):
        with pytest.raises(ValueError, match="need delta"):
            campaign(delta, n, SearchRegion(0, 3, 0, 3))


@pytest.mark.parametrize("min_vertices", [3, 5])
def test_budget_stop_does_not_depend_on_the_vertex_floor(min_vertices):
    """Every closed chain of 3 or more vertices is seen, whatever the
    stream's vertex floor, so the budget stops at the same node with the
    same polygons seen."""
    with pytest.raises(BudgetExceededError) as exc:
        list(enumerate_convex_polygons(SearchRegion(0, 5, 0, 5),
                                       min_vertices=min_vertices, budget=5000))
    assert (exc.value.nodes, exc.value.polygons_seen) == (5001, 1002)


def test_sharpness_witness_budget_exceeded():
    """The witness search stops where the stream it reads stops: 4-gons
    avoiding Z x 3Z."""
    region = SearchRegion(-3, 6, -3, 6)
    stops = []
    for search in (lambda: find_sharpness_witness(1, 3, region, budget=10),
                   lambda: list(enumerate_convex_polygons(
                       region, 4, Lattice2(1, 0, 3), budget=10))):
        with pytest.raises(BudgetExceededError) as exc:
            search()
        stops.append((exc.value.nodes, exc.value.polygons_seen))
    assert stops == [(11, 0), (11, 0)]


def test_sharpness_witness_found():
    w = find_sharpness_witness(2, 2, SearchRegion(0, 6, 0, 6))
    assert w is not None
    assert len(w) == capture_threshold(2, 2) - 1
    assert w.vertices == ((0, 1), (1, 0), (6, 1), (5, 2))


def test_sharpness_witness_eight_gon():
    w = find_sharpness_witness(3, 3, SearchRegion(-3, 6, -3, 6))
    assert w is not None
    assert len(w) == capture_threshold(3, 3) - 1 == 8
    assert is_free_of(w, scaled_lattice(3))


def test_sharpness_witness_none_when_threshold_too_low():
    # capture_threshold(1, 2) == 3, so a witness would need 2 vertices
    assert find_sharpness_witness(1, 2, SearchRegion(0, 6, 0, 6)) is None


def test_sharpness_witness_none_in_tiny_region():
    assert find_sharpness_witness(1, 3, SearchRegion(0, 1, 0, 1)) is None


# ---------------------------------------------------------------------------
# vertex-count bounds


def test_check_vertex_bound_plain_small():
    report = check_vertex_bound(3, "any", None, SearchRegion(0, 5, 0, 5))
    assert report.bound_name == "vertex-count<=8"
    assert not report.counterexamples and report.exhaustive
    assert report.max_vertices_found == 8
    assert len(report.witness) == 8
    assert report.nodes_explored == 215835


def test_check_vertex_bound_sublattice_factors():
    report = check_vertex_bound(4, "any", InvariantFactors(1, 2), SearchRegion(-2, 4, -2, 4))
    assert report.bound_name == "vertex-count<=8[factors=(1,2)]"
    assert not report.counterexamples and report.exhaustive
    assert report.max_vertices_found == 7
    assert report.nodes_explored == 88507
    assert len(report.witness) == 7


def test_check_vertex_bound_constrained_vertices_vacuous():
    """No type III polygon has all vertices on a (1,3)-factor sublattice."""
    report = check_vertex_bound(
        3, "III", InvariantFactors(1, 3), REGION_PRESETS["type-iii-n3"]
    )
    assert not report.counterexamples and report.exhaustive
    assert report.max_vertices_found == 0
    assert report.witness is None
    assert report.bound_name == "vertex-count<=4[factors=(1,3)]"


def test_type_iii_exists_without_vertex_constraint():
    """The vacuity above is about the sublattice, not about type III itself."""
    P = from_points([(1, -1), (4, 1), (1, 4)])
    assert is_free_of(P, scaled_lattice(3))
    assert type_predicate(P, 3, "III")


#: The regions of the kernel tests below: the benchmark's tagged region,
#: which holds types I, V and Va, and one that holds every type but IV.
KERNEL_REGIONS = (SearchRegion(-3, 2, -2, 2), SearchRegion(-2, 4, -2, 4))


@pytest.fixture(scope="module")
def task_streams():
    """For each kernel region, deduplicated (as an untagged bound campaign
    searches) and not (as a tagged one does): the search and, per anchor
    task, the 3Z²-free polygons it yields."""
    out = {}
    for region in KERNEL_REGIONS:
        for dedup in (True, False):
            search = _Search(region, scaled_lattice(3), dedup, None)
            out[region, dedup] = search, [
                list(_iter_from_anchor(anchor, search, [0, 0], 10 ** 9, [0]))
                for anchor in _anchors(search)]
    return out


@pytest.fixture(scope="module")
def tagged_stream_24(task_streams):
    """Every 3Z²-free polygon of [-2,4]², undeduplicated, in task order."""
    _search, tasks = task_streams[SearchRegion(-2, 4, -2, 4), False]
    return [P for polys in tasks for P in polys]


@pytest.mark.parametrize("tag", TAG_ORDER)
def test_tagged_bound_matches_type_predicate_filter(tagged_stream_24, tag):
    """The campaign tests each polygon with the tag's position predicate
    alone; the public type_predicate, freeness test included, must pick the
    same first largest polygon out of the stream, and, below its size, the
    same polygons over the limit."""
    matches = [P for P in tagged_stream_24 if type_predicate(P, 3, tag)]
    best = None
    for P in matches:
        if best is None or len(P) > len(best):
            best = P
    # The region holds every type but IV.
    assert (best is None) is (tag == "IV")
    for workers in (1, 2):
        report = check_vertex_bound(3, tag, None, SearchRegion(-2, 4, -2, 4),
                                    workers=workers)
        assert report.max_vertices_found == (len(best) if best else 0)
        assert report.witness == best
    # A limit one below the largest size sends the largest polygons down
    # the over-limit path: each is reported.
    limit = len(best) - 1 if best else 0
    search = _Search(SearchRegion(-2, 4, -2, 4), scaled_lattice(3), False,
                     None, PolygonType(tag, 3))
    over = [P for (_best, task_over), _nodes, _exhausted in _campaign(
        _max_kernel, (limit,), [search], None, 1) for P in task_over]
    assert over == [P for P in matches if len(P) > limit]
    assert (len(over) > 0) is (tag != "IV")


def reference_max_kernel(polygons, n, tag, limit):
    """_max_kernel's loop as it was before it skipped polygons too small to
    change its summary, and before the enumerator decided the types: the
    type of every polygon of the untagged stream is decided, by the
    reference."""
    best, best_size, over = None, 0, []
    for P in polygons:
        if not reference_has_type(P.vertices, n, tag):
            continue
        if len(P) > best_size:
            best, best_size = P, len(P)
        if len(P) > limit:
            over.append(P)
    return best, over


@pytest.mark.parametrize("tag", TAG_ORDER + ("any",))
def test_max_kernel_matches_the_loop_that_types_every_polygon(task_streams,
                                                              tag):
    """Each task's summary, from the tagged search, is the one the loop
    that decides every polygon's type makes over the untagged stream, with
    the limit at the bound and one below the largest size, where the
    over-limit list is not empty."""
    for region in KERNEL_REGIONS:
        search, tasks = task_streams[region, tag == "any"]
        search = with_tag(search, 3, tag)
        sizes = [len(best) for best, _ in (
            reference_max_kernel(polys, 3, tag, 8) for polys in tasks) if best]
        for limit in (8, max(sizes, default=1) - 1):
            summaries = [reference_max_kernel(polys, 3, tag, limit)
                         for polys in tasks]
            assert [_run_task((_max_kernel, (limit,), search, anchor,
                               10 ** 9))[0]
                    for anchor in _anchors(search)] == summaries
            if limit < 8:
                assert any(over for _, over in summaries) is bool(sizes)


def test_tagged_campaign_types_only_polygons_that_could_change_the_report(
        monkeypatch):
    """Of the 8,082 polygons of the benchmark's tagged campaign, the type is
    decided for the 2,898 closed chains larger than the largest V polygon
    their task had found, outside the subtrees that V's rules skip, before
    any is built; the report is the one deciding every type gives."""
    calls = []
    has_type = verify._has_type

    def counted(*args):
        calls.append(args[3])
        return has_type(*args)

    monkeypatch.setattr(verify, "_has_type", counted)
    report = check_vertex_bound(3, "V", None, SearchRegion(-3, 2, -2, 2))
    assert len(calls) == 2898 and set(calls) == {"V"}
    assert (report.max_vertices_found, report.nodes_explored) == (7, 105207)
    assert report.witness.vertices == ((-3, -2), (-2, -2), (-1, -1), (1, 2),
                                       (0, 2), (-2, 1), (-3, -1))
    assert report.counterexamples == ()


@lru_cache(maxsize=None)
def full_task_stream(search, anchor, budget):
    """A task's stream under the budget, every polygon built, with its
    nodes and budget stop; kept for the tests of every tag."""
    counter, polys, exhausted = [0, 0], [], False
    try:
        for P in _iter_from_anchor(anchor, search, counter, budget, [0]):
            polys.append(P)
    except BudgetExceededError:
        exhausted = True
    return tuple(polys), counter[0], exhausted


def reference_campaign(searches, n, tag, limit, budget):
    """What _campaign yields for _max_kernel: each task's full stream under
    the budget left, summarised by reference_max_kernel, with the running
    node total."""
    nodes = 0
    for search in searches:
        for anchor in _anchors(search):
            polys, t_nodes, exhausted = full_task_stream(
                search, anchor, budget - nodes)
            nodes += t_nodes
            yield reference_max_kernel(polys, n, tag, limit), nodes, exhausted
            if exhausted:
                return


#: Bound campaigns whose kernel raises the floor, as (n, searches, cheap):
#: [-1,4]², which holds every type but IV, with dedup and without, and the
#: (1, 2) vertex-lattice family at n = 4, whose two searches are cheap
#: enough for more budget cuts and a worker pool.
FLOOR_CAMPAIGNS = [
    *((3, [_Search(SearchRegion(-1, 4, -1, 4), scaled_lattice(3), dedup,
                   None)], False) for dedup in (True, False)),
    (4, [_Search(SearchRegion(-2, 4, -2, 4), scaled_lattice(4), False,
                 vlat) for vlat in _lattice_family(1, 2)], True),
]


@pytest.mark.parametrize("tag", TAG_ORDER + ("any",))
def test_bound_floor_never_changes_a_summary(tag, rng):
    """Each task's summary, nodes and budget stop, from the tagged search,
    are those of its full untagged stream under the same budget, filtered
    by the reference: with the limit at 8 and one below the largest size,
    under budgets that cut tasks short, and at one and two workers."""
    for n, searches, cheap in FLOOR_CAMPAIGNS:
        tagged = [with_tag(search, n, tag) for search in searches]
        full = list(reference_campaign(searches, n, tag, 8, 10 ** 9))
        total = full[-1][1]
        largest = max((len(best) for (best, _), *_ in full if best),
                      default=1)
        for limit in (8, largest - 1):
            for search, task_search in zip(searches, tagged):
                for anchor in _anchors(search):
                    polys, *counts = full_task_stream(search, anchor, 10 ** 9)
                    assert _run_task(
                        (_max_kernel, (limit,), task_search, anchor, 10 ** 9)
                    ) == (reference_max_kernel(polys, n, tag, limit), *counts)
            for budget in rng.sample(range(total), 2 if cheap else 1):
                assert list(_campaign(
                    _max_kernel, (limit,), tagged, budget, 1)
                ) == list(reference_campaign(searches, n, tag, limit,
                                             budget)), (limit, budget)
        if cheap:
            budget = rng.randrange(total)
            assert list(_campaign(_max_kernel, (largest - 1,), tagged, budget,
                                  2)) == list(
                reference_campaign(searches, n, tag, largest - 1, budget))
            assert list(_campaign(_max_kernel, (8,), tagged, 10 ** 9,
                                  2)) == full


def test_campaigns_build_only_the_polygons_their_kernel_can_use(
        monkeypatch):
    """Each built polygon is re-checked once, so the re-checks count the
    polygons built.  The bound campaigns of the benchmark build only those
    their kernel can still use, over the nodes of the full search: the
    tagged one builds only the 12 polygons of type V that pass its floor.
    The corpus and the enumerator, whose consumers read every polygon,
    build them all."""
    calls = []
    free_of = verify.is_free_of

    def counted(P, L):
        calls.append(P)
        return free_of(P, L)

    monkeypatch.setattr(verify, "is_free_of", counted)
    report = check_vertex_bound(3, "any", None, SearchRegion(-3, 3, -3, 3))
    assert (len(calls), report.nodes_explored) == (56, 618802)
    calls.clear()
    # At one worker, so the builds run where they are counted; the floor
    # is per task, so two workers build the same polygons.
    report = check_vertex_bound(3, "V", None, SearchRegion(-3, 2, -2, 2))
    assert (len(calls), report.nodes_explored) == (12, 105207)
    calls.clear()
    report, tally = verify_reduction_corpus(3, SearchRegion(-2, 4, -2, 1))
    assert len(calls) == tally["total"] == 4557
    calls.clear()
    polys = list(enumerate_convex_polygons(SearchRegion(-3, 3, -3, 3),
                                           avoid=scaled_lattice(3)))
    assert len(calls) == len(polys) == 27014


def test_max_kernel_refuses_tagged_search_off_scaled_lattice():
    """A search tagged at scale 3 that avoids any lattice but 3Z^2 raises
    before it yields a polygon, in a bound task too; the same searches
    untagged, as the capture bound's, yield polygons."""
    region = SearchRegion(-2, 2, -2, 2)
    for avoid in (scaled_lattice(2), Lattice2(3, 1, 3), None):
        search = _Search(region, avoid, False, None, PolygonType("V", 3))
        anchor = _anchors(search)[0]
        with pytest.raises(InvariantViolation, match="tagged V"):
            next(_iter_from_anchor(anchor, search, [0, 0], 10 ** 9, [0]))
        with pytest.raises(InvariantViolation, match="tagged V"):
            _run_task((_max_kernel, (8,), search, anchor, 10 ** 9))
        plain = replace(search, tag=None)
        assert next(_iter_from_anchor(anchor, plain, [0, 0], 10 ** 9, [0]))
        best, _over = _run_task((_max_kernel, (8,), plain, anchor,
                                 10 ** 9))[0]
        assert best is not None


@pytest.mark.parametrize(
    "n, tag, factors",
    [
        (2, "any", None),
        (3, "VII", None),
        (3, "any", InvariantFactors(3, 3)),
    ],
)
def test_check_vertex_bound_validation(n, tag, factors):
    with pytest.raises(ValueError):
        check_vertex_bound(n, tag, factors, SearchRegion(0, 3, 0, 3))


# ---------------------------------------------------------------------------
# reduction corpus


def test_verify_reduction_corpus_small():
    report, tally = verify_reduction_corpus(3, SearchRegion(-2, 3, -2, 3))
    assert isinstance(report, BoundReport)
    assert report.bound_name == "reduction-coverage"
    assert not report.counterexamples and report.exhaustive
    assert tally["total"] == 13212
    assert tally["I"] == 9276
    assert tally["V"] == 3780
    assert tally["Va"] == 156
    assert tally["II"] == tally["III"] == tally["IV"] == tally["VI"] == 0
    assert tally["reduced_v"] == tally["V"]  # every V classification ran the pipeline
    assert tally["reduced_vi"] == tally["reduced_iv"] == 0
    assert sum(tally[t] for t in ("I", "II", "III", "IV", "V", "VI", "Va")) == tally["total"]


def test_corpus_counts_broken_pipelines_under_optimize():
    """With asserts off, a lift that never lifts makes the V and VI
    pipelines fail their trace checks, and the corpus reports them."""
    code = "\n".join([
        "import json, sys",
        "import latgon.typeclass as typeclass",
        "from latgon import AffineMap, SearchRegion, verify_reduction_corpus",
        "typeclass._lift = lambda P, n: (0, P, AffineMap.identity())",
        "report, tally = verify_reduction_corpus(3, SearchRegion(-2, 4, -1, 1))",
        "print(json.dumps({'optimize': sys.flags.optimize, 'tally': tally,",
        "                  'failed': len(report.counterexamples)}))",
    ])
    proc = run_python(code, "-O")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    tally = out["tally"]
    assert out["optimize"] == 1
    assert tally["VI"] > 0
    assert out["failed"] > 0
    assert out["failed"] == (tally["V"] + tally["VI"]
                             - tally["reduced_v"] - tally["reduced_vi"])


CORPUS_REGION = SearchRegion(-2, 4, -1, 1)


@pytest.fixture(scope="module")
def corpus_images():
    """The 3Z^2-free polygons of CORPUS_REGION in campaign order, each with
    its classified (tag, image vertices)."""
    return [(P, _classify_core(P, 3)[:2]) for P in enumerate_convex_polygons(
        CORPUS_REGION, avoid=scaled_lattice(3))]


def fail_on_one_v_image(corpus_images, monkeypatch):
    """Patch PIPELINES["V"] to fail on one V image that several polygons
    classify to; return that image and the pipeline's calls per image."""
    shared = Counter(image for _P, image in corpus_images)
    chosen = min(image for image, k in shared.items()
                 if image[0] == "V" and k > 1)
    real_v, calls = PIPELINES["V"], Counter()

    def failing_v(P, n):
        calls[P.vertices] += 1
        if ("V", P.vertices) == chosen:
            raise InvariantViolation("the chosen image fails")
        return real_v(P, n)

    monkeypatch.setitem(PIPELINES, "V", failing_v)
    return chosen, calls


def test_corpus_reduces_each_image_once(corpus_images, monkeypatch):
    """Every polygon classified to the failing image is a counterexample, and
    no other polygon; each V image runs its pipeline once."""
    chosen, calls = fail_on_one_v_image(corpus_images, monkeypatch)
    report, tally = verify_reduction_corpus(3, CORPUS_REGION)
    expected = tuple(P for P, image in corpus_images if image == chosen)
    assert len(expected) > 1
    assert report.counterexamples == expected
    assert tally["reduced_v"] == tally["V"] - len(expected)
    v_images = {image[1] for _P, image in corpus_images if image[0] == "V"}
    assert calls == Counter(dict.fromkeys(v_images, 1))
    assert len(v_images) < tally["V"]


def test_corpus_warm_cache_gives_the_cold_outcome(corpus_images,
                                                  monkeypatch):
    """The polygons fed again to the kernel after a campaign, every image a
    cache hit, give the campaign's tally and counterexamples."""
    fail_on_one_v_image(corpus_images, monkeypatch)
    report, tally = verify_reduction_corpus(3, CORPUS_REGION)
    misses = _reduces.cache_info().misses
    search = _Search(CORPUS_REGION, scaled_lattice(3), True, None)
    warm_tally, warm_failures, _ = _corpus_kernel(
        (P for P, _image in corpus_images), search, [0], 3)
    assert _reduces.cache_info().misses == misses
    assert tuple(warm_failures) == report.counterexamples != ()
    assert warm_tally == Counter({k: v for k, v in tally.items() if v})


def test_corpus_campaign_starts_from_an_empty_cache(corpus_images,
                                                    monkeypatch):
    """A campaign reads no outcome of the one before it: a failure shows
    after a clean run, and a clean run after the failing one is clean."""
    clean_report, clean_tally = verify_reduction_corpus(3, CORPUS_REGION)
    assert clean_report.counterexamples == ()
    fail_on_one_v_image(corpus_images, monkeypatch)
    patched_report, _tally = verify_reduction_corpus(3, CORPUS_REGION)
    assert patched_report.counterexamples != ()
    monkeypatch.undo()
    assert verify_reduction_corpus(3, CORPUS_REGION) == (clean_report,
                                                          clean_tally)


def test_corpus_counts_a_failed_lift_precondition(monkeypatch):
    """A lift that reports a broken precondition inside a reduction gives
    the corpus report of a lift that breaks a law at the same call: the
    polygons classified to that image are counterexamples."""
    reports = []
    for error in (ValueError, InvariantViolation):
        fail_lift_on_call(5, error, monkeypatch)
        reports.append(verify_reduction_corpus(3, CORPUS_REGION))
        monkeypatch.undo()
    assert reports[0] == reports[1]
    assert reports[0][0].counterexamples != ()


def test_corpus_kernel_refuses_search_off_scaled_lattice():
    region = SearchRegion(-2, 2, -2, 2)
    for avoid in (scaled_lattice(2), Lattice2(3, 1, 3), None):
        with pytest.raises(InvariantViolation, match="reduction corpus"):
            _corpus_kernel(iter(()), _Search(region, avoid, True, None),
                           [0], 3)


def test_verify_reduction_corpus_validation():
    with pytest.raises(ValueError):
        verify_reduction_corpus(5, SearchRegion(0, 3, 0, 3))


# ---------------------------------------------------------------------------
# capture at scale 2


def test_no_empty_class_at_capture_size(corpus_04):
    """Contrapositive of the capture bound, a second route to criterion 2.

    An empty class (i, j) mod 2 would let P shift by (-i, -j) onto a
    2Z^2-free position, but free polygons on that lattice stop at 4
    vertices; so every polygon with 5 or more vertices meets 2Z^2 in each of
    its four shifts.
    """
    checked = 0
    for P in corpus_04:
        if len(P) >= 5:
            for i in (0, 1):
                for j in (0, 1):
                    moved = transform(P, AffineMap.translation((-i, -j)))
                    assert not is_free_of(moved, scaled_lattice(2)), (P, i, j)
            checked += 1
    assert checked == 23495
