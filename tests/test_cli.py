"""End-to-end tests of the command-line interface.

Each case drives latgon.cli.run() in process and checks exit code, stdout
bytes, and (where it matters) the stderr notes.  Expected JSON lines are
frozen strings: the CLI promises byte-deterministic output, so these tests
fail on any formatting drift, not just on value changes.
"""

import json
import subprocess
import sys

import pytest

from latgon.cli import run
from latgon.jsonio import decode_trace, encode_trace


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


def test_reduce_explicit_kind_mismatch(capsys):
    code, out, err = run_cli(
        capsys, "reduce", "--n", "3", "--kind", "VI",
        "--polygon", "[[-2,-1],[-1,2],[1,1]]",
    )
    assert code == 1
    assert out == ""
    assert "not of type VI" in err


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
    code, out, _ = run_cli(
        capsys, "slope-check",
        "--slope", '{"basis":{"f1":[1,0],"f2":[0,1]},"vertices":[[-1,2],[2,-1]]}',
        "--frame", '{"origin":[0,0],"basis":{"f1":[1,0],"f2":[0,1]}}',
    )
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


@pytest.mark.parametrize(
    "argv",
    [
        ("render",),
        ("render", "--polygon", "[[0,1],[1,0],[1,1]]", "--trace", "{}"),
    ],
)
def test_render_needs_exactly_one_input(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "exactly one" in err


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


@pytest.mark.parametrize(
    "argv",
    [
        ("frobnicate",),
        ("classify", "--n", "3"),                      # missing --polygon
        ("enumerate", "--region", "0,3,3"),            # bad region string
        ("verify-main", "--delta", "1", "--n", "2",
         "--region", "0,3,0,3", "--preset", "square-n2"),  # mutually exclusive
        ("verify-main", "--delta", "2", "--n", "3",
         "--region", "0,3,0,3"),                       # delta does not divide n
        # JSON coordinates, basis entries and scales must be integers
        ("classify", "--n", "3", "--polygon", "[[1.9,1],[2,1],[2,2],[1,2]]"),
        ("classify", "--n", "3", "--polygon", '[["1",1],[2,1],[2,2],[1,2]]'),
        ("classify", "--n", "3", "--polygon", "[[true,1],[2,1],[2,2],[1,2]]"),
        ("enumerate", "--region", "0,3,0,3",
         "--avoid", '{"basis":[[2.5,0],[0,2]]}'),
        ("slope-check", "--slope", '{"basis":{"f1":[1,0],"f2":[0,1]},'
                                   '"vertices":[[0,3],[1,1],[3.9,0]]}'),
        ("render", "--trace", TRIANGLE_TRACE.replace('{"n":3,', '{"n":3.0,')),
        ("render", "--trace", LIFT_TRACE.replace('"a":1,', '"a":1.5,')),
    ],
)
def test_usage_errors_exit_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "error" in err


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


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


def test_console_script_installed():
    proc = subprocess.run(
        ["latgon", "witness", "--delta", "2", "--n", "2",
         "--region", "0,6,0,6"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == (
        '{"delta":2,"found":true,"n":2,"target_vertices":4,"threshold":5,'
        '"witness":{"vertices":[[0,1],[1,0],[6,1],[5,2]]}}\n'
    )
