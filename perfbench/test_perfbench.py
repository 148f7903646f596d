"""Fast tests of the benchmark itself.

    python3 -m pytest perfbench

Each workload's path runs on a tiny region, untraced and traced; the metric
names it prints must be exactly those BENCHMARK.json declares.
"""

import dataclasses
import json
import os
import subprocess
import sys
import time
import uuid

import pytest

import checks
import run

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)

#: Regions of about a second each that still hold what each workload checks:
#: an 8-gon, a corpus with types V and VI, and type V polygons.
TINY = {
    "bound-any": (-3, 2, -3, 2),
    "reduce-corpus": (-2, 4, -1, 1),
    "bound-tagged-w2": (-2, 2, -2, 2),
}


def test_declared_workloads_are_the_harness_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_workload_path_on_tiny_region(name, trace):
    w = dataclasses.replace(run.WORKLOADS[name], region=TINY[name])
    result = run.measure(w, seed=7, seconds=0, trace=trace, min_rounds=1)
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_refuses_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", os.path.join(run.HERE, "run.py"),
         "--workload", "bound-any", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_campaign_refuses_under_optimize():
    spec = run._spec(dataclasses.replace(run.WORKLOADS["bound-any"],
                                         region=(0, 2, 0, 2)))
    argv = [os.path.join(run.HERE, "campaign.py"), json.dumps(spec)]
    plain = subprocess.run([sys.executable, *argv], capture_output=True,
                           text=True, timeout=60)
    assert plain.returncode == 0
    optimized = subprocess.run([sys.executable, "-O", *argv],
                               capture_output=True, text=True, timeout=60)
    assert optimized.returncode != 0
    assert optimized.stdout == ""


def _processes_with(marker: str) -> list[str]:
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if marker.encode() in f.read():
                    found.append(pid)
        except OSError:
            pass
    return found


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_timed_out_campaign_fails_and_leaves_no_process():
    runner = run.Runner(deadline=time.monotonic())   # each process gets 1 s
    marker = uuid.uuid4().hex
    spec = run._spec(run.WORKLOADS["bound-tagged-w2"], marker=marker)
    assert runner.spawn(spec) is None
    assert (runner.attempted, runner.failed) == (1, 1)
    time.sleep(0.5)
    assert _processes_with(marker) == []


def test_convexity_check():
    assert checks.strictly_convex([(0, 0), (1, 0), (0, 1)])
    assert not checks.strictly_convex([(0, 0), (0, 1), (1, 0)])   # clockwise
    assert not checks.strictly_convex([(0, 0), (1, 0), (2, 0), (1, 1)])
    pentagram = [(0, 3), (-2, -2), (3, 1), (-3, 1), (2, -2)]
    assert not checks.strictly_convex(pentagram)


def test_freeness_check_counts_the_boundary():
    assert checks.free_of_scaled_lattice([(1, 1), (2, 1), (2, 2), (1, 2)], 3)
    assert not checks.free_of_scaled_lattice(
        [(-1, -1), (1, -1), (1, 1), (-1, 1)], 3)
    assert not checks.free_of_scaled_lattice([(2, -1), (4, 0), (2, 1)], 3)
    assert not checks.free_of_scaled_lattice([(1, 1), (3, 0), (2, 2)], 3)
    assert not checks.free_of_scaled_lattice([(2, -1), (4, 1), (2, 1)], 3)


def test_classified_image_check():
    square = [(1, 1), (2, 1), (2, 2), (1, 2)]
    identity = [[1, 0], [0, 1]]
    assert checks.classified_image_problems(square, identity, (3, -3), 3) == []
    assert checks.classified_image_problems(
        square, [[0, 1], [1, 0]], (0, 0), 3) == []   # det -1 reverses order
    assert checks.classified_image_problems(square, identity, (1, 0), 3)
    assert checks.classified_image_problems(square, [[2, 0], [0, 1]], (0, 0), 3)
    assert checks.classified_image_problems(square, identity, (-1, -1), 3)


def test_corpus_check_needs_tally_identities():
    report = {"exhaustive": True, "counterexamples": []}
    tally = {"I": 5, "II": 0, "III": 0, "IV": 0, "V": 2, "VI": 1, "Va": 1,
             "total": 9, "reduced_v": 2, "reduced_vi": 1, "reduced_iv": 0}
    assert checks.corpus_problems(report, tally) == []
    assert checks.corpus_problems(report, {**tally, "total": 10})
    assert checks.corpus_problems(report, {**tally, "reduced_vi": 0})
    assert checks.corpus_problems(report, {**tally, "VI": 0, "reduced_vi": 0,
                                           "total": 8})
