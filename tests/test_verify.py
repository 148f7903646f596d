"""Tests for the enumeration engine and the bound-checking campaigns.

The streaming enumerator is checked against the two brute-force oracles from
conftest (powerset filter and convex-position DFS), which share no code with
it.  Campaign results on small regions are frozen after hand inspection.
"""

import pickle

import pytest

from conftest import convex_polygons_dfs, convex_polygons_powerset
from latgon import (
    REGION_PRESETS,
    BoundReport,
    BudgetExceededError,
    InvariantFactors,
    SearchRegion,
    capture_threshold,
    check_main_theorem,
    check_vertex_bound,
    empty_residue_classes,
    enumerate_convex_polygons,
    find_sharpness_witness,
    from_points,
    is_free_of,
    lattice_points_in,
    node_budget,
    scaled_lattice,
    type_predicate,
    verify_reduction_corpus,
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
    assert exc.value.nodes > 100
    assert exc.value.polygons_seen >= 0
    assert "node budget exhausted" in str(exc.value)


def test_budget_error_pickles():
    err = BudgetExceededError(20001, 7)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is BudgetExceededError
    assert (back.nodes, back.polygons_seen) == (20001, 7)
    assert str(back) == str(err)


def test_node_budget_env(monkeypatch):
    monkeypatch.delenv("LATGON_BUDGET", raising=False)
    assert node_budget() == 100_000_000
    monkeypatch.setenv("LATGON_BUDGET", "5000")
    assert node_budget() == 5000
    monkeypatch.setenv("LATGON_BUDGET", "lots")
    with pytest.raises(ValueError, match="LATGON_BUDGET"):
        node_budget()


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
    assert report.upheld
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
    pytest.param(lambda w: find_sharpness_witness(
        3, 3, SearchRegion(-3, 6, -3, 6), workers=w), id="witness"),
    pytest.param(lambda w: verify_reduction_corpus(
        3, SearchRegion(-2, 3, -2, 3), workers=w), id="reduction-corpus"),
])
def test_campaign_workers_agree(campaign):
    # Pool tasks run ahead of the merge; the report (and the corpus tally)
    # must still be the serial one, also when the budget runs out.
    assert campaign(2) == campaign(1)


def test_check_main_theorem_budget_marks_non_exhaustive():
    report = check_main_theorem(2, 2, SearchRegion(0, 6, 0, 6), budget=200)
    assert not report.exhaustive
    assert report.nodes_explored == 201


def test_check_main_theorem_unit_height_family_is_vacuous():
    # A polygon free of Z x 2Z would have to fit strictly between two adjacent
    # lattice rows, leaving all its vertices collinear on y = const; no convex
    # polygon survives that, so the sweep finds nothing and the bound holds.
    report = check_main_theorem(1, 2, SearchRegion(0, 4, 0, 4))
    assert report.upheld and report.exhaustive
    assert report.max_vertices_found == 0
    assert report.witness is None


@pytest.mark.parametrize("delta, n", [(0, 2), (2, 3), (1, 1)])
def test_check_main_theorem_validation(delta, n):
    with pytest.raises(ValueError):
        check_main_theorem(delta, n, SearchRegion(0, 3, 0, 3))


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
    assert report.upheld and report.exhaustive
    assert report.max_vertices_found == 8
    assert len(report.witness) == 8
    assert report.nodes_explored == 215835


def test_check_vertex_bound_sublattice_factors():
    report = check_vertex_bound(4, "any", InvariantFactors(1, 2), SearchRegion(-2, 4, -2, 4))
    assert report.bound_name == "vertex-count<=8[factors=(1,2)]"
    assert report.upheld and report.exhaustive
    assert report.max_vertices_found == 7
    assert report.nodes_explored == 88507
    assert len(report.witness) == 7


def test_check_vertex_bound_constrained_vertices_vacuous():
    """No type III polygon has all vertices on a (1,3)-factor sublattice."""
    report = check_vertex_bound(
        3, "III", InvariantFactors(1, 3), REGION_PRESETS["type-iii-n3"]
    )
    assert report.upheld and report.exhaustive
    assert report.max_vertices_found == 0
    assert report.witness is None
    assert report.bound_name == "vertex-count<=4[factors=(1,3)]"


def test_type_iii_exists_without_vertex_constraint():
    """The vacuity above is about the sublattice, not about type III itself."""
    P = from_points([(1, -1), (4, 1), (1, 4)])
    assert is_free_of(P, scaled_lattice(3))
    assert type_predicate(P, 3, "III")


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
    assert report.upheld and report.exhaustive
    assert tally["total"] == 13212
    assert tally["I"] == 9276
    assert tally["V"] == 3780
    assert tally["Va"] == 156
    assert tally["II"] == tally["III"] == tally["IV"] == tally["VI"] == 0
    assert tally["reduced_v"] == tally["V"]  # every V classification ran the pipeline
    assert tally["reduced_vi"] == tally["reduced_iv"] == 0
    assert sum(tally[t] for t in ("I", "II", "III", "IV", "V", "VI", "Va")) == tally["total"]


def test_verify_reduction_corpus_validation():
    with pytest.raises(ValueError):
        verify_reduction_corpus(5, SearchRegion(0, 3, 0, 3))


# ---------------------------------------------------------------------------
# residue-class pigeonhole


def test_empty_residue_classes_unit_square():
    P = from_points([(1, 1), (2, 1), (2, 2), (1, 2)])
    assert empty_residue_classes(P, 3) == [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]
    assert empty_residue_classes(P, 1) == []


def test_empty_residue_classes_none_left():
    P = from_points([(0, 0), (4, 0), (4, 4), (0, 4)])
    assert empty_residue_classes(P, 2) == []


def test_empty_residue_classes_validation():
    with pytest.raises(ValueError):
        empty_residue_classes(from_points([(0, 0), (1, 0), (0, 1)]), 0)


def test_empty_residue_shift_gives_freeness(rng, corpus_04):
    """Pigeonhole: few points -> an empty class, and shifting by it frees P."""
    found = 0
    for P in rng.sample(corpus_04, 200):
        m = 4
        points = lattice_points_in(P, scaled_lattice(1))
        empties = empty_residue_classes(P, m)
        if len(points) < m * m:
            assert empties
        for i1, i2 in empties[:2]:
            shifted = P.translate((-i1, -i2))
            assert is_free_of(shifted, scaled_lattice(m))
            found += 1
    assert found > 100


def test_no_empty_class_at_capture_size(corpus_04):
    """Contrapositive of the capture bound, realized by the class scan.

    An empty class (i1, i2) mod 2 would let P shift onto a 2Z^2-free position,
    but free polygons on that lattice stop at 4 vertices; so every polygon with
    5 or more vertices must already hit all four classes.
    """
    checked = 0
    for P in corpus_04:
        if len(P) >= 5:
            assert empty_residue_classes(P, 2) == []
            checked += 1
    assert checked == 23495
