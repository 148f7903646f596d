"""End-to-end tests of the command-line interface.

Each case drives latgon.cli.run() in process and checks exit code, stdout
bytes, and (where it matters) the stderr notes.  Expected JSON lines are
frozen strings: the CLI promises byte-deterministic output, so these tests
fail on any formatting drift, not just on value changes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import checkout_env, fail_lift_on_call, run_python
from latgon.cli import run
from latgon.jsonio import decode_trace, encode_trace


#: A valid slope and a frame it splits.
SLOPE = '{"basis":{"f1":[1,0],"f2":[0,1]},"vertices":[[-1,2],[2,-1]]}'
FRAME = '{"origin":[0,0],"basis":{"f1":[1,0],"f2":[0,1]}}'
#: `latgon reduce --n 3 --polygon [[-2,-1],[-1,2],[1,1]]`, as printed.
TRIANGLE_TRACE = (
    '{"n":3,"result":{"vertices":[[1,2],[4,1],[2,4]]},'
    '"result_type":{"n":3,"tag":"Va"},'
    '"source":{"vertices":[[-2,-1],[1,1],[-1,2]]},'
    '"steps":[{"label":"reflect","matrix":[[0,-1],[-1,0]],"shift":[0,0]},'
    '{"label":"flip","matrix":[[1,0],[0,-1]],"shift":[3,3]}]}'
)
#: `latgon reduce --n 3 --polygon [[-2,-2],[-1,-2],[1,3],[-2,2]]`: a lift
#: step carrying the shear "a", then a translation.
LIFT_TRACE = (
    '{"n":3,"result":{"vertices":[[1,0],[2,-1],[4,2],[1,4]]},'
    '"result_type":{"n":3,"tag":"III"},'
    '"source":{"vertices":[[-2,-2],[-1,-2],[1,3],[-2,2]]},'
    '"steps":[{"a":1,"label":"lift","matrix":[[1,0],[-1,1]],"shift":[0,0]},'
    '{"label":"translate","matrix":[[1,0],[0,1]],"shift":[3,0]}]}'
)

#: A trace whose source and result are a pentagram, a vertex cycle that
#: turns left throughout but winds around twice.
PENTAGRAM_TRACE = (
    '{"n":3,"result":{"vertices":[[-1,2],[3,0],[2,4],[0,0],[4,2]]},'
    '"result_type":{"n":3,"tag":"I"},'
    '"source":{"vertices":[[-1,2],[3,0],[2,4],[0,0],[4,2]]},"steps":[]}'
)


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# happy paths, frozen bytes


def test_classify_square(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--n", "3",
        "--polygon", '{"vertices":[[1,1],[2,1],[2,2],[1,2]]}',
    )
    assert code == 0
    assert out == '{"map":{"matrix":[[1,0],[0,1]],"shift":[0,0]},"n":3,"tag":"I"}\n'
    assert "type I at scale 3" in err


def test_lift_triangle(capsys):
    code, out, err = run_cli(
        capsys, "lift", "--n", "5", "--polygon", "[[-2,-4],[1,3],[-2,1]]",
    )
    assert code == 0
    assert out == (
        '{"a0":1,"lifted":{"vertices":[[-2,-2],[1,2],[-2,3]]},'
        '"map":{"matrix":[[1,0],[-1,1]],"shift":[0,0]}}\n'
    )
    assert "a0 = 1" in err


def test_reduce_triangle_trace_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "reduce", "--n", "3", "--polygon", "[[-2,-1],[-1,2],[1,1]]",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["result_type"] == {"n": 3, "tag": "Va"}
    assert obj["result"] == {"vertices": [[1, 2], [4, 1], [2, 4]]}
    assert [s["label"] for s in obj["steps"]] == ["reflect", "flip"]
    trace = decode_trace(obj)
    assert encode_trace(trace) == obj


def test_decode_trace_rejects_a_pentagram():
    with pytest.raises(ValueError, match="winds around more than once"):
        decode_trace(json.loads(PENTAGRAM_TRACE))


def test_decode_trace_names_the_broken_law():
    with pytest.raises(ValueError, match="translate is not an automorphism"):
        decode_trace(json.loads(
            LIFT_TRACE.replace('"shift":[3,0]', '"shift":[5,0]')))
    with pytest.raises(ValueError, match="result type at scale 4"):
        decode_trace(json.loads(
            TRIANGLE_TRACE.replace('"result_type":{"n":3,',
                                   '"result_type":{"n":4,')))
    with pytest.raises(ValueError, match="source is not free"):
        decode_trace({"n": 3, "source": {"vertices": [[0, 0], [3, 0], [0, 3]]},
                      "result": {"vertices": [[0, 0], [3, 0], [0, 3]]},
                      "result_type": {"n": 3, "tag": "I"}, "steps": []})


@pytest.mark.parametrize("trace, message", [
    pytest.param(LIFT_TRACE.replace('"a":1,', '"a":7,'),
                 "step 'lift' has shear 7", id="lift-shear-off-its-map"),
    pytest.param(LIFT_TRACE.replace('{"label":"translate"',
                                    '{"a":5,"label":"translate"'),
                 "step 'translate' has shear 5", id="translate-with-shear"),
    pytest.param(LIFT_TRACE.replace('"a":1,', ''),
                 "step 'lift' has shear None", id="lift-without-shear"),
])
def test_render_refuses_a_shear_off_its_step(capsys, trace, message):
    """A step carries a shear exactly when it is a lift, and then the shear
    is its map's, so a caption never names a shear the step does not
    apply."""
    code, out, err = run_cli(capsys, "render", "--trace", trace)
    assert (code, out) == (1, "")
    assert message in err


def test_reduce_explicit_kind_mismatch(capsys):
    code, out, err = run_cli(
        capsys, "reduce", "--n", "3", "--kind", "VI",
        "--polygon", "[[-2,-1],[-1,2],[1,1]]",
    )
    assert code == 1
    assert out == ""
    assert "not of type VI" in err


def test_reduce_exits_two_when_a_lift_precondition_breaks(capsys,
                                                          monkeypatch):
    """The polygon a reduction lifts is its own, so a lift that rejects it
    is a broken law (exit 2), not bad input."""
    fail_lift_on_call(2, ValueError, monkeypatch)
    code, out, err = run_cli(
        capsys, "reduce", "--n", "3", "--polygon", "[[-2,-1],[-1,2],[1,1]]",
    )
    assert (code, out) == (2, "")
    assert "counterexample: lift: west segment" in err


def test_verify_main_pentagon_capture(capsys):
    code, out, err = run_cli(
        capsys, "verify-main", "--delta", "2", "--n", "2",
        "--region", "0,6,0,6",
    )
    assert code == 0
    assert out == (
        '{"bound_name":"capture-at-5-vertices","counterexamples":[],'
        '"delta":2,"exhaustive":true,"max_vertices_found":4,"n":2,'
        '"nodes_explored":38329,'
        '"region":{"x_max":6,"x_min":0,"y_max":6,"y_min":0},'
        '"witness":{"vertices":[[0,1],[1,0],[6,1],[5,2]]}}\n'
    )
    assert "0 counterexamples" in err


def test_verify_main_workers_do_not_change_output(capsys):
    base = run_cli(capsys, "verify-main", "--delta", "2", "--n", "2",
                   "--region", "0,6,0,6")
    par = run_cli(capsys, "verify-main", "--delta", "2", "--n", "2",
                  "--region", "0,6,0,6", "--workers", "2")
    assert par[0] == base[0] == 0
    assert par[1] == base[1]


def test_verify_reductions_tally(capsys):
    base = run_cli(capsys, "verify-reductions", "--n", "3",
                   "--region=-2,4,-1,1")
    par = run_cli(capsys, "verify-reductions", "--n", "3",
                  "--region=-2,4,-1,1", "--workers", "2")
    assert par[0] == base[0] == 0
    assert par[1] == base[1]
    out = json.loads(base[1])
    assert out["tally"] == {"I": 390, "II": 0, "III": 0, "IV": 0, "V": 62,
                            "VI": 52, "Va": 19, "total": 523, "reduced_v": 62,
                            "reduced_vi": 52, "reduced_iv": 0}
    assert out["report"]["exhaustive"]
    assert out["report"]["nodes_explored"] == 7170
    assert base[1] == json.dumps(out, sort_keys=True,
                                 separators=(",", ":")) + "\n"


def test_verify_bound_small_region(capsys):
    code, out, _ = run_cli(
        capsys, "verify-bound", "--n", "3", "--region", "0,5,0,5",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["bound_name"] == "vertex-count<=8"
    assert obj["max_vertices_found"] == 8
    assert obj["exhaustive"] is True
    assert obj["counterexamples"] == []
    assert obj["nodes_explored"] == 215835


def test_verify_bound_preset_region(capsys):
    code, out, _ = run_cli(
        capsys, "verify-bound", "--n", "3", "--tag", "III",
        "--factors", "1,3", "--preset", "type-iii-n3",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["max_vertices_found"] == 0
    assert obj["witness"] is None


def test_witness_pentagon_sharpness(capsys):
    code, out, err = run_cli(
        capsys, "witness", "--delta", "2", "--n", "2", "--region", "0,6,0,6",
    )
    assert code == 0
    assert out == (
        '{"delta":2,"found":true,"n":2,"target_vertices":4,"threshold":5,'
        '"witness":{"vertices":[[0,1],[1,0],[6,1],[5,2]]}}\n'
    )
    assert "witness found" in err


def test_classify_runs_are_byte_identical(capsys):
    args = ("classify", "--n", "3", "--polygon", "[[-2,-1],[-1,2],[1,1]]")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second


# ---------------------------------------------------------------------------
# enumerate (JSON lines)


def test_enumerate_streams_ndjson(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--region", "0,2,0,2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 168
    assert lines[0] == '{"vertices":[[0,0],[1,0],[2,1],[2,2],[1,2],[0,1]]}'
    seen = set()
    for line in lines:
        obj = json.loads(line)
        key = tuple(tuple(v) for v in obj["vertices"])
        assert key not in seen
        seen.add(key)
    assert "168 polygons" in err


def test_enumerate_budget_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "enumerate", "--region", "0,5,0,5", "--budget", "50",
    )
    assert code == 3
    assert 0 < len(out.splitlines()) < 100
    assert "budget exceeded" in err


def test_enumerate_avoid_scale(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--region", "0,3,0,3", "--avoid-scale", "2",
    )
    assert code == 0
    for line in out.splitlines():
        for x, y in json.loads(line)["vertices"]:
            assert not (x % 2 == 0 and y % 2 == 0)


# ---------------------------------------------------------------------------
# slope checking


def test_slope_check_single_slope_with_frame(capsys):
    code, out, _ = run_cli(capsys, "slope-check", "--slope", SLOPE,
                           "--frame", FRAME)
    assert code == 0
    assert out == (
        '{"edge_count":1,"split_witness":[0,0],"splits":true,'
        '"total_step":[3,-3],"valid":true}\n'
    )


def test_slope_check_rejects_descending_first_coord(capsys):
    code, out, _ = run_cli(
        capsys, "slope-check",
        "--slope", '{"basis":{"f1":[1,0],"f2":[0,1]},"vertices":[[2,-1],[-1,2]]}',
    )
    assert code == 0
    assert json.loads(out) == {"valid": False,
                               "violated": "first-coord-not-increasing"}


def test_slope_check_fuzz_suite(capsys):
    code, out, err = run_cli(
        capsys, "slope-check", "--seed", "7", "--slopes", "200",
        "--splits", "200",
    )
    assert code == 0
    suite = json.loads(out)
    assert suite["failures"] == []
    assert suite["counts"]["slopes"] == 200
    assert suite["counts"]["splits"] == 200
    # replay is exact
    again = run_cli(capsys, "slope-check", "--seed", "7", "--slopes", "200",
                    "--splits", "200")
    assert again == (code, out, err)


def test_cli_loads_the_slope_layer_only_for_slope_check():
    """In a fresh interpreter, importing latgon.cli and running a campaign
    leaves the slope layer unloaded; slope-check then loads it and runs,
    and a refuted witness still exits 2 with a counterexample line."""
    code = "\n".join([
        "import contextlib, io, json, sys",
        "import latgon.cli as cli",
        "def run(*argv):",
        "    out, err = io.StringIO(), io.StringIO()",
        "    with contextlib.redirect_stdout(out), \\",
        "            contextlib.redirect_stderr(err):",
        "        code = cli.run(list(argv))",
        "    return code, out.getvalue(), err.getvalue()",
        "bound = run('verify-bound', '--n', '3', '--region=-1,2,-1,2')",
        "loaded = 'latgon.slope' in sys.modules",
        "suite = run('slope-check', '--seed', '7', '--slopes', '20',",
        "            '--splits', '20')",
        "import latgon.slope as slope",
        "def refuted(f, q):",
        "    raise slope.WitnessNotFound('refuted')",
        "slope.check_th36_witness = refuted",
        f"witness = run('slope-check', '--slope', {SLOPE!r},",
        f"              '--frame', {FRAME!r})",
        "print(json.dumps({'loaded': loaded, 'bound': bound,",
        "                  'suite': suite, 'witness': witness}))",
    ])
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert not out["loaded"]
    assert out["bound"][0] == 0
    code, suite, _ = out["suite"]
    assert code == 0 and json.loads(suite)["counts"]["slopes"] == 20
    assert out["witness"] == [2, "", "counterexample: refuted\n"]


# ---------------------------------------------------------------------------
# render


def test_render_polygon_svg(capsys):
    code, out, _ = run_cli(
        capsys, "render", "--polygon", "[[1,1],[2,1],[2,2],[1,2]]",
        "--n", "3", "--tag", "I", "--lattice", '{"basis":[[3,0],[0,3]]}',
    )
    assert code == 0
    assert out.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    assert "<svg" in out and "</svg>" in out
    assert "polygon" in out


def test_render_trace_svg(capsys):
    _, trace_out, _ = run_cli(capsys, "reduce", "--n", "3",
                              "--polygon", "[[-2,-1],[-1,2],[1,1]]")
    code, out, _ = run_cli(capsys, "render", "--trace", trace_out.strip())
    assert code == 0
    assert out.count("<svg") == 1
    assert len(out) > 2000  # one panel per stage


def test_render_to_file(tmp_path, capsys):
    target = tmp_path / "square.svg"
    code, out, err = run_cli(
        capsys, "render", "--polygon", "[[1,1],[2,1],[2,2],[1,2]]",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert str(target) in err
    assert target.read_text().startswith('<?xml')


def test_render_to_a_missing_directory_is_an_error(tmp_path, capsys):
    target = tmp_path / "missing" / "square.svg"
    code, out, err = run_cli(
        capsys, "render", "--polygon", "[[1,1],[2,1],[2,2],[1,2]]",
        "--n", "3", "--out", str(target),
    )
    assert (code, out) == (1, "")
    assert err == (f"error: out: [Errno 2] No such file or directory: "
                   f"'{target}'\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(("render",),
                     "one of the arguments --polygon --trace is required",
                     id="argv0"),  # neither input
        pytest.param(("render", "--polygon", "[[0,1],[1,0],[1,1]]",
                      "--trace", "{}"),
                     "argument --trace: not allowed with argument --polygon",
                     id="argv1"),  # both inputs
    ],
)
def test_render_needs_exactly_one_input(capsys, argv, message):
    """--polygon and --trace form a required mutually exclusive group."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# failure modes


def test_malformed_polygon_json_reports_position(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--n", "3",
        "--polygon", '{"vertices":[[1,1],[2,1],',
    )
    assert code == 1
    assert out == ""
    assert "malformed JSON at line 1 column 26 (char 25)" in err


def test_polygon_not_free_is_input_error(capsys):
    code, _, err = run_cli(
        capsys, "classify", "--n", "3", "--polygon", "[[0,0],[1,0],[0,1]]",
    )
    assert code == 1
    assert "not free" in err


# Each case names its id, so that a case inserted anywhere renames no other.
# The ids argv0 to argv20 are those the cases had when pytest numbered them
# by position, which lists of test names refer to; a new case takes a name
# that says what it tests.
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("frobnicate",), id="argv0"),
        pytest.param(("classify", "--n", "3"),  # missing --polygon
                     id="argv1"),
        pytest.param(("enumerate", "--region", "0,3,3"),  # bad region string
                     id="argv2"),
        pytest.param(("verify-main", "--delta", "1", "--n", "2",
                      "--region", "0,3,0,3", "--preset", "square-n2"),
                     id="argv3"),  # mutually exclusive
        pytest.param(("verify-main", "--delta", "2", "--n", "3",
                      "--region", "0,3,0,3"),
                     id="argv4"),  # delta does not divide n
        # JSON coordinates, basis entries and scales must be integers
        pytest.param(("classify", "--n", "3",
                      "--polygon", "[[1.9,1],[2,1],[2,2],[1,2]]"),
                     id="argv5"),
        pytest.param(("classify", "--n", "3",
                      "--polygon", '[["1",1],[2,1],[2,2],[1,2]]'),
                     id="argv6"),
        pytest.param(("classify", "--n", "3",
                      "--polygon", "[[true,1],[2,1],[2,2],[1,2]]"),
                     id="argv7"),
        pytest.param(("enumerate", "--region", "0,3,0,3",
                      "--avoid", '{"basis":[[2.5,0],[0,2]]}'),
                     id="argv8"),
        pytest.param(("slope-check",
                      "--slope", '{"basis":{"f1":[1,0],"f2":[0,1]},'
                                 '"vertices":[[0,3],[1,1],[3.9,0]]}'),
                     id="argv9"),
        pytest.param(("render", "--trace",
                      TRIANGLE_TRACE.replace('{"n":3,', '{"n":3.0,')),
                     id="argv10"),
        pytest.param(("render", "--trace",
                      LIFT_TRACE.replace('"a":1,', '"a":1.5,')),
                     id="argv11"),
        pytest.param(("render", "--trace", PENTAGRAM_TRACE),  # not a polygon
                     id="argv12"),
        # node budgets are at least 0, worker counts at least 1
        pytest.param(("verify-bound", "--n", "3", "--budget", "-5",
                      "--region=-3,3,-3,3"),
                     id="argv13"),
        pytest.param(("witness", "--delta", "1", "--n", "3",
                      "--region=-3,3,-3,3", "--budget", "-1"),
                     id="argv14"),
        pytest.param(("enumerate", "--region", "0,3,0,3", "--budget", "-1"),
                     id="argv15"),
        pytest.param(("verify-bound", "--n", "3", "--workers", "0",
                      "--region=-3,3,-3,3"),
                     id="argv16"),
        pytest.param(("verify-main", "--delta", "1", "--n", "3",
                      "--workers", "-4", "--region=-3,3,-3,3"),
                     id="argv17"),
        pytest.param(("verify-reductions", "--n", "3", "--workers", "0",
                      "--region=-2,4,-2,1"),
                     id="argv18"),
        # traces that do not replay: a translation off 3Z^2, and a source
        # that meets 3Z^2 with a result type at another scale
        pytest.param(("render", "--trace",
                      LIFT_TRACE.replace('"shift":[3,0]', '"shift":[5,0]')),
                     id="argv19"),
        pytest.param(("render", "--trace",
                      '{"n":3,"source":{"vertices":[[0,0],[3,0],[0,3]]},'
                      '"result":{"vertices":[[0,0],[3,0],[0,3]]},'
                      '"result_type":{"n":4,"tag":"VI"},"steps":[]}'),
                     id="argv20"),
        # an overlay needs its scale
        pytest.param(("render", "--polygon", "[[1,1],[2,1],[2,2],[1,2]]",
                      "--tag", "V"),
                     id="render-tag-without-n"),
        pytest.param(("render", "--polygon", "[[1,1],[2,1],[2,2],[1,2]]",
                      "--tag", "V", "--n", "1"),
                     id="render-tag-below-scale-2"),
        # a trace is drawn as recorded: no overlay, scale or lattice
        pytest.param(("render", "--trace", TRIANGLE_TRACE,
                      "--tag", "II", "--n", "3"),
                     id="render-trace-with-tag"),
        pytest.param(("render", "--trace", TRIANGLE_TRACE, "--n", "3"),
                     id="render-trace-with-n"),
        pytest.param(("render", "--trace", TRIANGLE_TRACE,
                      "--lattice", '{"basis":[[5,0],[0,5]]}'),
                     id="render-trace-with-lattice"),
        # the shear-generator search bound is at least 0
        pytest.param(("classify", "--n", "3", "--bound", "-1",
                      "--polygon", "[[1,1],[2,1],[2,2],[1,2]]"),
                     id="classify-bound-below-0"),
        # the fuzz suite's counts and the least polygon size are at least 0
        pytest.param(("slope-check", "--slopes", "-5"),
                     id="slope-check-slopes-below-0"),
        pytest.param(("slope-check", "--splits", "-1"),
                     id="slope-check-splits-below-0"),
        pytest.param(("enumerate", "--region", "0,1,0,1",
                      "--min-vertices", "-3"),
                     id="enumerate-min-vertices-below-0"),
        # one lattice to avoid, and a frame only tests a given slope
        pytest.param(("enumerate", "--region", "0,3,0,3",
                      "--avoid", '{"basis":[[2,0],[0,2]]}',
                      "--avoid-scale", "5"),
                     id="enumerate-avoid-and-avoid-scale"),
        pytest.param(("slope-check",
                      "--frame", '{"origin":[0,0],"basis":{"f1":[1,0],'
                                 '"f2":[0,1]}}'),
                     id="slope-check-frame-without-slope"),
        # the suite's flags do not apply to a given slope
        *(pytest.param(("slope-check", "--slope", SLOPE, flag, "5"),
                       id=f"slope-check-slope-with-{flag[2:]}")
          for flag in ("--seed", "--slopes", "--splits")),
    ],
)
def test_usage_errors_exit_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # classify's shear search stops at its bound
        pytest.param(("classify", "--n", "3", "--bound", "0",
                      "--polygon", "[[2,1],[1,-2],[-1,-1]]"),
                     "search limit", id="classify-bound-0"),
        # the witness search runs out of nodes before a witness
        pytest.param(("witness", "--delta", "1", "--n", "3",
                      "--region=-3,6,-3,6", "--budget", "10"),
                     "node budget exceeded after 11 nodes",
                     id="witness-budget-10"),
    ],
)
def test_search_cut_short_exits_three(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert message in err


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_small_budget_bounds_the_work_before_the_first_node():
    """Under --budget 10 the search stops at node 11, also on a region
    whose directions, rays and programs would take minutes to prepare in
    full."""
    proc = subprocess.run(
        [sys.executable, "-m", "latgon.cli", "verify-bound", "--n", "3",
         "--region=0,60,0,60", "--budget", "10"],
        env=checkout_env(), capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["nodes_explored"] == 11


def test_closed_standard_output_ends_without_a_traceback():
    """`latgon enumerate | head -1`: the reader closes the pipe after one
    line, and the command exits 1 with nothing but its notes on standard
    error."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "latgon.cli", "enumerate",
         "--region", "0,6,0,6"],
        env=checkout_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert json.loads(first)["vertices"][0] == [0, 0]
    assert proc.returncode == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_budget_exhaustion_in_workers_exits():
    # The budget runs out inside a pool worker: the command must exit, and
    # print what it prints at one worker, byte for byte.
    for budget in (20000, 1000000):
        out = {}
        for workers in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "latgon.cli", "verify-bound", "--n",
                 "3", "--region=-3,4,-3,4", "--budget", str(budget),
                 "--workers", workers],
                capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 3
            out[workers] = proc.stdout
        assert '"exhaustive":false' in out["2"]
        assert f'"nodes_explored":{budget + 1},' in out["1"]
        assert out["2"] == out["1"]


def _declared_entry_point():
    """The `latgon` entry of `[project.scripts]`, as (module, attribute).

    Read from `pyproject.toml`; where `tomllib` is missing (Python 3.10),
    from the installed distribution's metadata, which pip writes from that
    table.
    """
    try:
        import tomllib
    except ModuleNotFoundError:
        from importlib.metadata import entry_points
        found = entry_points(group="console_scripts", name="latgon")
        if not found:
            pytest.skip("neither tomllib nor an installed latgon distribution")
        value = next(iter(found)).value
    else:
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as f:
            value = tomllib.load(f)["project"]["scripts"]["latgon"]
    module, _, attr = value.partition(":")
    return module, attr


def test_console_script_installed():
    """The declared `latgon` entry point, started as pip's generated wrapper
    starts it, prints the frozen witness; so does the installed `latgon`
    script, wherever one is on the PATH."""
    module, attr = _declared_entry_point()
    wrapper = (f"import sys; from {module} import {attr}; "
               f"sys.argv[0] = 'latgon'; sys.exit({attr}())")
    env = checkout_env()
    commands = [[sys.executable, "-c", wrapper]]
    script = shutil.which("latgon")
    if script is not None:
        commands.append([script])
    for command in commands:
        proc = subprocess.run(
            command + ["witness", "--delta", "2", "--n", "2",
                       "--region", "0,6,0,6"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            '{"delta":2,"found":true,"n":2,"target_vertices":4,"threshold":5,'
            '"witness":{"vertices":[[0,1],[1,0],[6,1],[5,2]]}}\n'
        )
