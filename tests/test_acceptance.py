"""Acceptance gate: ten checks, one test function per criterion.

Each test prints a single `criterion N: PASS (...)` line on success (visible
under `pytest -v -rA` or `-s`) and enforces the criterion's runtime budget.
The heavyweight searches (criteria 4 and 8) use four workers; by the
determinism guarantee the worker count does not change any reported value.

A last table pins the stdout of the heaviest CLI calls, as
tests/test_contract.py pins the quick ones.
"""

import time
from contextlib import contextmanager

import pytest

from conftest import cli_stdout_digest, snf_oracle
from latgon import (
    InvariantFactors,
    REGION_PRESETS,
    SearchRegion,
    area2_and_pick,
    check_main_theorem,
    check_vertex_bound,
    enumerate_convex_polygons,
    find_sharpness_witness,
    from_points,
    hnf_canonicalize,
    invariant_factors,
    is_free_of,
    lift,
    maximal_slopes,
    run_fuzz_suite,
    scaled_lattice,
    splits_by_segment,
    transform,
    type_predicate,
    verify_reduction_corpus,
)
from latgon.lattice import AffineMap, UnimodularMap
from latgon.polygon import Segment


@contextmanager
def budget(name, seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    print(f"{name}: PASS ({elapsed:.2f}s, budget {seconds}s)")
    assert elapsed < seconds, f"{name} exceeded its {seconds}s budget"


def test_criterion_01_invariant_factors_match_snf_oracle(rng):
    """invariant_factors agrees with elementary-operations SNF on 500 matrices."""
    with budget("criterion 1", 1):
        done = 0
        while done < 500:
            m = ((rng.randint(-20, 20), rng.randint(-20, 20)),
                 (rng.randint(-20, 20), rng.randint(-20, 20)))
            if m[0][0] * m[1][1] - m[0][1] * m[1][0] == 0:
                continue
            f = invariant_factors(hnf_canonicalize(m))
            assert (f.delta, f.n) == snf_oracle(m)
            done += 1


def test_criterion_02_pentagon_capture_exhaustive():
    """Every convex pentagon with vertices in [0,6]^2 contains a 2Z^2 point."""
    with budget("criterion 2", 300):
        report = check_main_theorem(2, 2, SearchRegion(0, 6, 0, 6))
        assert report.exhaustive
        assert report.counterexamples == ()
        assert report.max_vertices_found == 4  # no free polygon reaches 5


def test_criterion_03_pentagon_sharpness_witness():
    """A 4-gon free of 2Z^2 exists, so the pentagon threshold is sharp."""
    with budget("criterion 3", 1):
        w = find_sharpness_witness(2, 2, SearchRegion(0, 6, 0, 6))
        assert w is not None and len(w) == 4
        assert is_free_of(w, scaled_lattice(2))
        # the textbook instance verifies too
        example = from_points([(0, 1), (1, 0), (2, 1), (1, 2)])
        assert len(example) == 4 and is_free_of(example, scaled_lattice(2))


def test_criterion_04_vertex_count_cap_at_scale_three():
    """No 3Z^2-free polygon in [-3,6]^2 beats 8 vertices, and 8 is attained."""
    with budget("criterion 4", 1800):
        report = check_vertex_bound(3, "any", None, SearchRegion(-3, 6, -3, 6),
                                    workers=4)
        assert report.exhaustive
        assert report.nodes_explored == 10_412_712
        assert report.counterexamples == ()
        assert report.max_vertices_found == 8
        assert len(report.witness) == 8
        assert is_free_of(report.witness, scaled_lattice(3))


def test_criterion_05_type_iii_constrained_vertex_bound():
    """Type III polygons with vertices on every (1,3)-residue lattice stay <= 4.

    The search is exhaustive over the type III slab preset and finds no such
    polygon at all (max found 0), so the bound holds vacuously; the companion
    assertions show the vacuity comes from the vertex-lattice constraint, not
    from type III being empty.
    """
    with budget("criterion 5", 300):
        report = check_vertex_bound(3, "III", InvariantFactors(1, 3),
                                    REGION_PRESETS["type-iii-n3"])
        assert report.exhaustive
        assert report.counterexamples == ()
        assert report.max_vertices_found <= 4
        assert report.max_vertices_found == 0  # constrained family is empty
        unconstrained = from_points([(1, -1), (4, 1), (1, 4)])
        assert type_predicate(unconstrained, 3, "III")


def test_criterion_06_slope_fuzz_suite():
    """Witness constructions and split bounds hold on 10^4 + 10^4 random cases."""
    with budget("criterion 6", 60):
        suite = run_fuzz_suite(0, 10000, 10000)
        assert suite["failures"] == []
        assert suite["counts"]["slopes"] == 10000
        assert suite["counts"]["witnesses"] == 10000
        assert suite["counts"]["splits"] == 10000
        assert suite["counts"]["split_witnesses"] == 10000
        assert suite["counts"]["small_angles"] == 7666
        assert suite["counts"]["lattice_witnesses"] == 10000
        assert suite["counts"]["shear_witnesses"] == 10000


def test_criterion_07_boundary_identity_exhaustive(corpus_04):
    """Vertex count = arc edges + extreme markers for all of [0,4]^2."""
    with budget("criterion 7", 60):
        assert len(corpus_04) == 33041
        for P in corpus_04:
            ms = maximal_slopes(P)
            assert len(P) == sum(ms.edge_counts()) + sum(ms.marker_flags())


def test_criterion_08_reduction_corpus_full_coverage():
    """Everything in [-3,6]^2 classifies; V/VI classifications reduce cleanly."""
    with budget("criterion 8", 900):
        report, tally = verify_reduction_corpus(3, SearchRegion(-3, 6, -3, 6),
                                                workers=4)
        assert report.exhaustive
        assert report.counterexamples == ()  # 100% classification + pipelines
        assert tally["total"] == 151872
        assert tally == {
            "I": 111575, "II": 3, "III": 482, "IV": 0,
            "V": 13156, "VI": 24321, "Va": 2335,
            "total": 151872,
            "reduced_v": 13156, "reduced_vi": 24321, "reduced_iv": 0,
        }


def test_criterion_09_lift_laws(rng):
    """South monotonicity and the split/no-split postconditions, 10^3 runs."""
    with budget("criterion 9", 60):
        n = 3
        west = Segment((0, 0), (-n, 0))
        north = Segment((0, 0), (0, n))
        diagonal = Segment((0, 0), (-n, -n))
        upper = Segment((0, n), (n, 2 * n))
        eligible = [
            P
            for P in enumerate_convex_polygons(SearchRegion(-2, 4, -2, 4),
                                               avoid=scaled_lattice(n))
            if splits_by_segment(P, west) and splits_by_segment(P, north)
        ]
        assert len(eligible) >= 1000
        for P in rng.sample(eligible, 1000):
            upper_before = splits_by_segment(P, upper)
            south_before = P.bounding_box()[2]
            a0, lifted, m = lift(P, n)
            assert splits_by_segment(lifted, west)
            assert splits_by_segment(lifted, north)
            assert not splits_by_segment(lifted, diagonal)
            if not upper_before:
                assert not splits_by_segment(lifted, upper)
            if a0 == 0:
                assert lifted == P
            else:
                assert lifted.bounding_box()[2] > south_before
            # maximality: one more shear loses the west split
            extra = AffineMap(UnimodularMap(((1, 0), (-(a0 + 1), 1))))
            assert not splits_by_segment(transform(P, extra), west)


def test_criterion_10_pick_identity_on_the_same_corpus(corpus_04):
    """Twice-area = 2*interior + boundary - 2 on every criterion 7 polygon."""
    with budget("criterion 10", 60):
        for P in corpus_04:
            twice_area, interior, boundary = area2_and_pick(P)
            assert twice_area == 2 * interior + boundary - 2


@pytest.mark.parametrize("argv, optimize, code, sha256", [
    pytest.param(
        ["verify-bound", "--n", "3", "--region=-3,6,-3,6"], False, 0,
        "12aa0c9baafd1daa8536a7b696f7014e97be429322e7369ce910a536b3ac5366",
        id="criterion-4"),
    pytest.param(
        ["verify-bound", "--n", "4", "--tag", "IV", "--factors", "1,2",
         "--region=-4,8,-4,8", "--workers", "2"], True, 0,
        "d93f666ca1ff8e9258ca480960a6fe94690f3109d0d5739c0fea13adda49dfdc",
        id="bound-n4-tag-iv"),
    pytest.param(
        ["verify-bound", "--n", "4", "--tag", "III", "--factors", "1,2",
         "--region=-4,8,-4,8", "--workers", "2"], True, 0,
        "0752f9efe65cb5e4c07196bb51bd301f8247623dcd35723dafb1746aea0aa10e",
        id="bound-n4-tag-iii"),
])
def test_cli_output_of_the_campaigns(argv, optimize, code, sha256):
    assert cli_stdout_digest(argv, optimize) == (code, sha256)
