"""The package's contract: the names it exports and the bytes its CLI prints.

A change that adds or drops a public name, or that moves a CLI output, fails
here, so it does so on purpose: it updates the list or the hash below and
says so in CHANGES.md.  The heavier CLI calls, criterion 4's and the n = 4
campaigns under -O, are pinned with the acceptance suite.
"""

import pytest

import latgon
from conftest import cli_stdout_digest

PUBLIC_NAMES = [
    "AffineMap", "BoundReport", "BudgetExceededError", "CardinalProfile",
    "Frame", "InvariantFactors", "InvariantViolation", "Lattice2",
    "LatticePolygon", "MaximalSlopes", "PolygonType", "REGION_PRESETS",
    "ReductionStep", "ReductionTrace", "SearchRegion", "Segment",
    "SignedBasis", "Slope", "SlopeError", "StepProfile", "TAG_ORDER",
    "UnimodularMap", "WitnessNotFound", "area2_and_pick", "capture_threshold",
    "cardinal_profile", "check_main_theorem", "check_slp_witness",
    "check_th36_witness", "check_vertex_bound", "classify", "contains",
    "contains_point", "enumerate_convex_polygons", "find_sharpness_witness",
    "forms_small_angle", "frame_splits", "frame_splits_polygon_slope",
    "from_points", "hnf_canonicalize", "invariant_factors", "is_free_of",
    "lattice", "lattice_points_in", "lift", "line_side_range",
    "maximal_slopes", "polygon", "polygon_types", "reduce_type_iv",
    "reduce_type_v", "reduce_type_vi", "run_fuzz_suite", "scaled_lattice",
    "shear_lattice", "slope", "span_of_points", "splits_by_line",
    "splits_by_ray", "splits_by_segment", "step_profile", "transform",
    "type_predicate", "typeclass", "validate_slope", "verify",
    "verify_reduction_corpus",
]


def test_public_names():
    """`latgon` exports exactly these names, submodules included, and one
    InvariantViolation, raised by every layer."""
    assert sorted(latgon.__all__) == PUBLIC_NAMES
    assert (latgon.InvariantViolation is latgon.typeclass.InvariantViolation
            is latgon.lattice.InvariantViolation)


# `reduce`'s output below, the trace that the render row draws.
REDUCED_TRACE = (
    '{"n":3,"result":{"vertices":[[1,2],[4,1],[2,4]]},'
    '"result_type":{"n":3,"tag":"Va"},'
    '"source":{"vertices":[[-2,-1],[1,1],[-1,2]]},'
    '"steps":[{"label":"reflect","matrix":[[0,-1],[-1,0]],"shift":[0,0]},'
    '{"label":"flip","matrix":[[1,0],[0,-1]],"shift":[3,3]}]}'
)


@pytest.mark.parametrize("argv, optimize, code, sha256", [
    pytest.param(
        ["verify-bound", "--n", "3", "--tag", "V", "--region=-3,2,-2,2",
         "--workers", "1"], False, 0,
        "1b34f65a891d5255e000d812cf4f7503983fccf76bca1f25554fb70412aa2a9a",
        id="bound-tag-v-w1"),
    pytest.param(
        ["verify-bound", "--n", "3", "--tag", "V", "--region=-3,2,-2,2",
         "--workers", "2"], False, 0,
        "1b34f65a891d5255e000d812cf4f7503983fccf76bca1f25554fb70412aa2a9a",
        id="bound-tag-v-w2"),
    pytest.param(
        ["verify-bound", "--n", "3", "--region=-3,3,-3,3"], False, 0,
        "43a249ea34b5e03b3ee7409901a29d53da03787d4b1f8cab06348b22908b2e84",
        id="bound-any"),
    pytest.param(
        ["verify-reductions", "--n", "3", "--region=-2,4,-2,1"], False, 0,
        "2b4f8864e23869285e01296e556d4cac41eefa747566fcd3bddec1c7b7399a35",
        id="reductions"),
    pytest.param(
        ["reduce", "--n", "3", "--polygon", "[[-2,-1],[-1,2],[1,1]]"], True, 0,
        "c40f8348b479b8cfbf6a098c11089caecec2f6098f5c59d3ac2962b297aca437",
        id="reduce"),
    pytest.param(
        ["render", "--trace", REDUCED_TRACE], True, 0,
        "0e64459b7843699f79b87055db222b9280c52db6df82023cdfeb58800b052a27",
        id="render-trace"),
    pytest.param(
        ["slope-check"], False, 0,
        "73dbc4c7beb8b7f40a40822a62a7569235f1e2d4512256d4fa80f8f65c93604b",
        id="slope-check"),
    pytest.param(
        ["enumerate", "--region", "0,3,0,3", "--avoid-scale", "2"], False, 0,
        "9d69e2a94bd7af28f35fb6e7fc1accbf4dbc3d141c72d827dd831ce92054e7bf",
        id="enumerate"),
    pytest.param(
        ["render", "--polygon", "[[-1,1],[2,-1],[4,2],[1,4]]", "--n", "3",
         "--tag", "II"], False, 0,
        "deced8d71400cefc3692e7bc15e214b61ff332065a3c9ea73f676a3b8161bc72",
        id="render-type-ii"),
])
def test_cli_output(argv, optimize, code, sha256):
    assert cli_stdout_digest(argv, optimize) == (code, sha256)
