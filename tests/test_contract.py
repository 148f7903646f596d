"""The package's contract: the names it exports and the bytes its CLI prints.

A change that adds or drops a public name, or that moves a CLI output, fails
here, so it does so on purpose: it updates the list or the hash below and
says so in CHANGES.md.  The CLI table holds every pinned call, criterion
4's and the tagged n = 4 campaigns among them.
"""

import pytest

import latgon
from conftest import cli_stdout_digest

PUBLIC_NAMES = [
    "AffineMap", "BoundReport", "BudgetExceededError", "Frame",
    "InvariantFactors", "InvariantViolation", "Lattice2", "LatticePolygon",
    "MaximalSlopes", "PolygonType", "REGION_PRESETS", "ReductionStep",
    "ReductionTrace", "SearchRegion", "Segment", "SignedBasis", "Slope",
    "SlopeError", "StepProfile", "TAG_ORDER", "UnimodularMap",
    "WitnessNotFound", "area2_and_pick", "capture_threshold",
    "check_main_theorem", "check_slp_witness", "check_th36_witness",
    "check_vertex_bound", "classify", "contains", "contains_point",
    "enumerate_convex_polygons", "find_sharpness_witness", "forms_small_angle",
    "frame_splits", "from_points", "hnf_canonicalize", "invariant_factors",
    "is_free_of", "lattice", "lift", "maximal_slopes", "polygon",
    "polygon_types", "reduce_type_iv", "reduce_type_v", "reduce_type_vi",
    "run_fuzz_suite", "scaled_lattice", "shear_lattice", "slope",
    "span_of_points", "splits_by_segment", "step_profile", "transform",
    "type_predicate", "typeclass", "verify", "verify_reduction_corpus",
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
# The same trace with a shear "a" on its reflect step: only a lift carries
# one, so rendering it is refused.
SHEARED_TRACE = REDUCED_TRACE.replace('{"label":"reflect"',
                                      '{"a":1,"label":"reflect"')


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
        ["render", "--trace", SHEARED_TRACE], True, 1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        id="render-sheared-trace-O"),
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
    # README's command block, in its order.  Its `reduce` call is the
    # `reduce` row above, and its slope-check call the `slope-check-O` row.
    pytest.param(
        ["classify", "--n", "3",
         "--polygon", '{"vertices":[[1,1],[2,1],[2,2],[1,2]]}'], False, 0,
        "fb746e377d3c9b70829b7b7c4c007a24bced5dfd399024706e502016f22e9fa8",
        id="readme-classify"),
    pytest.param(
        ["lift", "--n", "5", "--polygon", "[[-2,-4],[1,3],[-2,1]]"], False, 0,
        "58bc70618725dd0b20167b562fdb004a4a58853d5501a809fcca0569e79e29ce",
        id="readme-lift"),
    pytest.param(
        ["verify-main", "--delta", "2", "--n", "2", "--region", "0,6,0,6"],
        False, 0,
        "6e57ddc0beffb71811f6b637371e37c5f445979a96114248fae5e47b90d0a31d",
        id="readme-verify-main"),
    pytest.param(
        ["verify-bound", "--n", "3", "--preset", "square-n3", "--workers",
         "4"], False, 0,
        "12aa0c9baafd1daa8536a7b696f7014e97be429322e7369ce910a536b3ac5366",
        id="readme-bound-preset"),
    pytest.param(
        ["verify-reductions", "--n", "3", "--region=-2,4,-1,1", "--workers",
         "2"], False, 0,
        "38043029c8e870f0c6f0f57161fd2d59187b64e94ac4a8b94d74b8caba3ab5d3",
        id="readme-reductions-w2"),
    pytest.param(
        ["witness", "--delta", "2", "--n", "2", "--region", "0,6,0,6"],
        False, 0,
        "e55da1199b8d44f00469ab6aa21fd6335924b17e809a511230e76c33a6c6b98e",
        id="readme-witness"),
    pytest.param(
        ["enumerate", "--region", "0,2,0,2"], False, 0,
        "83c29c38eec563da35cb0ea77c239815dadbd79d6eb23a25d5b712e9566c5183",
        id="readme-enumerate"),
    # Campaigns under python -O.
    pytest.param(
        ["slope-check", "--seed", "0", "--slopes", "10000", "--splits",
         "10000"], True, 0,
        "73dbc4c7beb8b7f40a40822a62a7569235f1e2d4512256d4fa80f8f65c93604b",
        id="slope-check-O"),
    pytest.param(
        ["verify-reductions", "--n", "3", "--region=-2,4,-1,1"], True, 0,
        "38043029c8e870f0c6f0f57161fd2d59187b64e94ac4a8b94d74b8caba3ab5d3",
        id="reductions-O"),
    pytest.param(
        ["verify-reductions", "--n", "4", "--region=-3,5,-2,1"], True, 0,
        "d86770e70a037fa6a56724b3ca0658de8619f07496f40595cc8371017c726a16",
        id="reductions-n4-O"),
    pytest.param(
        ["verify-reductions", "--n", "3", "--region=-3,3,-3,3"], True, 0,
        "11f2389d80ac286d363fddf4f71298270e51afe0231393068ce948a5f498bc81",
        id="reductions-square-O"),
    pytest.param(
        ["verify-bound", "--n", "3", "--region=-3,3,-3,3"], True, 0,
        "43a249ea34b5e03b3ee7409901a29d53da03787d4b1f8cab06348b22908b2e84",
        id="bound-any-O"),
    pytest.param(
        ["verify-bound", "--n", "3", "--tag", "V", "--region=-3,2,-2,2",
         "--workers", "2"], True, 0,
        "1b34f65a891d5255e000d812cf4f7503983fccf76bca1f25554fb70412aa2a9a",
        id="bound-tag-v-w2-O"),
    # Criterion 4's region, whose report is readme-bound-preset's, with
    # asserts on and off, and at one and two workers.
    pytest.param(
        ["verify-bound", "--n", "3", "--region=-3,6,-3,6"], False, 0,
        "12aa0c9baafd1daa8536a7b696f7014e97be429322e7369ce910a536b3ac5366",
        id="criterion-4"),
    pytest.param(
        ["verify-bound", "--n", "3", "--region=-3,6,-3,6", "--workers", "1"],
        True, 0,
        "12aa0c9baafd1daa8536a7b696f7014e97be429322e7369ce910a536b3ac5366",
        id="criterion-4-w1-O"),
    pytest.param(
        ["verify-bound", "--n", "3", "--region=-3,6,-3,6", "--workers", "2"],
        True, 0,
        "12aa0c9baafd1daa8536a7b696f7014e97be429322e7369ce910a536b3ac5366",
        id="criterion-4-w2-O"),
    # The n = 4 campaign on [-4,4]², 39,471,079 nodes, most of them in
    # subtrees that the vertex floor rules out, at one and two workers.
    *(pytest.param(
        ["verify-bound", "--n", "4", "--region=-4,4,-4,4", "--workers", w],
        True, 0,
        "615d098995e97a88e7271a1a8a1f03cdf96b70f047a920cc5f39e27de0b08029",
        id=f"bound-n4-w{w}-O") for w in ("1", "2")),
    # Criterion 4's region cut at 4,000,001 nodes, a budget stop after the
    # floor of a task has risen, at one and two workers.
    *(pytest.param(
        ["verify-bound", "--n", "3", "--region=-3,6,-3,6", "--budget",
         "4000000", "--workers", w], True, 3,
        "659655ae79fe55c0de3330298c74a49fd6acc4536e94ef4dedb03e259c1fdcdf",
        id=f"criterion-4-budget-w{w}-O") for w in ("1", "2")),
    # The tagged n = 4 campaigns: type IV reads its unmet lines, and type
    # III its unsplit line, on the bounding box.
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
    # Tagged campaigns, which test each closed chain for the tag before
    # building it and skip the subtrees whose box rules the tag out: the
    # benchmark's V campaign cut at 50,001 nodes, at one and two workers;
    # Va, I and II at n = 3; and Va at n = 4 on [0,8]², 49,712,924 nodes.
    *(pytest.param(
        ["verify-bound", "--n", "3", "--tag", "V", "--region=-3,2,-2,2",
         "--budget", "50000", "--workers", w], False, 3,
        "e4d2298fdcd7c539acb1b6ec29f7bde61477afc628dea556c34b68837eccfc25",
        id=f"bound-tag-v-budget-w{w}") for w in ("1", "2")),
    pytest.param(
        ["verify-bound", "--n", "3", "--tag", "Va", "--region=0,6,0,6"],
        False, 0,
        "dad10ce826fb0dbb1b685ab9575021d5a1e44c85e49a7b84a34ce6e109e5f4d9",
        id="bound-tag-va"),
    pytest.param(
        ["verify-bound", "--n", "3", "--tag", "I", "--region=-3,3,-3,3"],
        False, 0,
        "e5975a4e2b7f66e55351efcb68b7f1181bab5ba49e6777d1b4a5e0b6127ef5d2",
        id="bound-tag-i"),
    pytest.param(
        ["verify-bound", "--n", "3", "--tag", "II", "--region=-3,3,-3,3"],
        False, 0,
        "51d1163820c84bfc2f3d74022b7daf3b1f0a17dbd41d7be0f8aa9a6db1848844",
        id="bound-tag-ii"),
    pytest.param(
        ["verify-bound", "--n", "4", "--tag", "Va", "--region=0,8,0,8",
         "--workers", "2"], True, 0,
        "d132127da1a31a22d6c7848e7d73a9f18e62af98cdfa3450eecfcbae3e84e64d",
        id="bound-n4-tag-va-O"),
])
def test_cli_output(argv, optimize, code, sha256):
    """Each call's exit code and the sha256 of its standard output.

    README's command block is pinned call by call, except `render … --out
    square.svg`, which prints nothing: test_render_to_file in
    tests/test_cli.py pins the file it writes."""
    assert cli_stdout_digest(argv, optimize) == (code, sha256)
