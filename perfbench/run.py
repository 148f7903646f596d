"""Campaign benchmark for latgon: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each campaign runs in a fresh interpreter (perfbench/campaign.py) with
assertions on, because latgon's pipelines check themselves with `assert`.
Campaigns repeat for S seconds (at least MIN_ROUNDS rounds) and the medians
are reported.  --trace 0 prints the end-to-end metrics; --trace 1 alternates
untraced and traced campaigns and prints the per-layer metrics.  Every
report is checked by perfbench/checks.py, which does not use latgon.  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Raw per-process records go
to .perfbench_out/ in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from statistics import median

import checks
from spans import SPAN_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CAMPAIGN = os.path.join(HERE, "campaign.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Whole rounds always run, even past --seconds.
MIN_ROUNDS = 3
#: A run gives up on further processes after this long (the hard limit is 180 s).
TIME_LIMIT_S = 165.0
#: Corpus polygons whose classification map is re-checked per run.
SAMPLE_SIZE = 100
#: Every campaign avoids 3Z^2.
N = 3


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                # "bound" (check_vertex_bound) or "corpus"
    region: tuple[int, int, int, int]
    workers: int
    tag: str = "any"
    attains_bound: bool = False   # max_vertices_found must equal 2N+2


WORKLOADS = {w.name: w for w in (
    # The enumerator alone: translation-deduplicated fan-triangle search.
    Workload("bound-any", "bound", (-3, 3, -3, 3), 1, attains_bound=True),
    # Classifier, lift, V and VI pipelines and the polygon kernels; the
    # corpus holds types I, V, VI and Va, so both pipelines run.
    Workload("reduce-corpus", "corpus", (-2, 4, -2, 1), 1),
    # Pool workers enumerate every anchor column without dedup; the parent
    # filters each polygon by type.
    Workload("bound-tagged-w2", "bound", (-3, 2, -2, 2), 2, tag="V"),
)}


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)   # keeps latgon's asserts on
    env.pop("LATGON_BUDGET", None)    # the default node budget applies
    return env


class Runner:
    """Starts campaign processes and counts the ones that fail."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.records: list[dict] = []

    def spawn(self, spec: dict) -> dict | None:
        self.attempted += 1
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CAMPAIGN, json.dumps(spec)], cwd=ROOT,
            env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)   # the child and its pool workers
            proc.communicate()
            out, err = "", "timed out"
        _kill_group(proc.pid)       # any pool worker that outlived the child
        try:
            record = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            record = None
        if proc.returncode != 0 or record is None:
            self.failed += 1
            print(f"campaign {spec} failed ({proc.returncode}): "
                  f"{err.strip()[-2000:]}", file=sys.stderr)
            return None
        if "ready" in record:
            record["setup_s"] = record.pop("ready") - started
        record["spec"] = spec
        self.records.append(record)
        return record


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _spec(w: Workload, **extra) -> dict:
    spec = {"mode": "campaign", "kind": w.kind, "n": N, "tag": w.tag,
            "region": list(w.region), "workers": w.workers, "trace": False}
    spec.update(extra)
    return spec


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _report_problems(w: Workload, record: dict) -> list[str]:
    region = list(w.region)
    if w.kind == "bound":
        return checks.bound_report_problems(record["report"], N, region,
                                            w.attains_bound)
    return checks.corpus_problems(record["report"], record["tally"])


def measure(w: Workload, seed: int, seconds: float, trace: bool,
            min_rounds: int = MIN_ROUNDS) -> dict:
    """Run the workload and return the result object (see module doc)."""
    start = time.monotonic()
    runner = Runner(start + TIME_LIMIT_S)
    problems: list[str] = []

    # Untimed references for the checks.
    reference = None
    if w.kind == "bound" and w.workers > 1:
        reference = runner.spawn(_spec(w, workers=1))
        if reference is None:
            problems.append("serial reference campaign failed")
    sample = None
    if w.kind == "corpus":
        sample = runner.spawn(_spec(w, mode="sample", seed=seed,
                                    sample_size=SAMPLE_SIZE))
        if sample is None:
            problems.append("corpus sample failed")
        else:
            for entry in sample["sample"]:
                problems += [f"sample {entry['vertices']}: {p}" for p in
                             checks.classified_image_problems(
                                 [tuple(v) for v in entry["vertices"]],
                                 entry["rows"], tuple(entry["shift"]), N)]

    untraced: list[dict] = []
    traced: list[dict] = []
    rounds = 0
    while ((rounds < min_rounds or time.monotonic() - start < seconds)
           and time.monotonic() < runner.deadline):
        rounds += 1
        for is_traced in ((False, True) if trace else (False,)):
            record = runner.spawn(_spec(w, trace=is_traced))
            if record is not None:
                (traced if is_traced else untraced).append(record)

    campaigns = untraced + traced
    first = reference or (campaigns[0] if campaigns else None)
    for record in campaigns:
        problems += _report_problems(w, record)
        if record["report"] != first["report"]:
            problems.append("report differs from "
                            + ("the serial reference" if reference
                               else "the run's first campaign"))
        if record["tally"] != first["tally"]:
            problems.append("tally differs from the run's first campaign")
        if sample is not None and (sample["corpus_size"]
                                   != record["tally"]["total"]):
            problems.append("enumerated corpus size differs from the tally")
    for record in traced:
        if ({k: v["calls"] for k, v in record["trace"]["spans"].items()}
                != {k: v["calls"]
                    for k, v in traced[0]["trace"]["spans"].items()}):
            problems.append("span call counts differ between traced runs")

    _write_raw(w, seed, trace, runner.records)
    for p in dict.fromkeys(problems):
        print(f"{w.name}: check failed: {p}", file=sys.stderr)
    if not untraced or (trace and not traced):
        raise RuntimeError(f"{w.name}: no campaign completed")
    metrics = (_layer_metrics(w, untraced, traced) if trace
               else _end_to_end_metrics(untraced))
    return {"correct": not problems, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def _end_to_end_metrics(untraced: list[dict]) -> dict:
    return {
        "campaign_s": _metric(median(r["campaign_s"] for r in untraced), "s"),
        "cpu_s": _metric(median(r["parent_cpu_s"] + r["worker_cpu_s"]
                                for r in untraced), "s"),
        "peak_rss_mib": _metric(median(r["peak_rss_kib"] / 1024
                                       for r in untraced), "MiB"),
        "setup_s": _metric(median(r["setup_s"] for r in untraced), "s"),
    }


def _layer_metrics(w: Workload, untraced: list[dict],
                   traced: list[dict]) -> dict:
    spans = [r["trace"]["spans"] for r in traced]
    nodes = untraced[0]["report"]["nodes_explored"]
    untraced_s = median(r["campaign_s"] for r in untraced)
    if w.kind == "corpus":
        polygons = untraced[0]["tally"]["total"]
    elif w.tag != "any":
        polygons = spans[0]["typeclass.polygon_types"]["calls"]
    else:   # the enumerator's own freeness check runs once per polygon
        polygons = traced[0]["trace"]["edges"].get(
            "None>polygon.is_free_of", [0])[0]
    out = {
        "verify.nodes": _metric(nodes, "count"),
        "verify.nodes_per_s": _metric(nodes / untraced_s, "1/s"),
        "verify.self_s": _metric(median(
            r["campaign_s"] - r["trace"]["top_level_s"] for r in traced), "s"),
        "verify.parent_cpu_s": _metric(median(
            r["parent_cpu_s"] for r in untraced), "s"),
        "verify.worker_cpu_s": _metric(median(
            r["worker_cpu_s"] for r in untraced), "s"),
        "verify.worker_peak_rss_mib": _metric(median(
            r["worker_peak_rss_kib"] / 1024 for r in untraced), "MiB"),
        "verify.polygons": _metric(polygons, "count"),
    }
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = _metric(spans[0][name]["calls"], "count")
        out[f"{name}.self_s"] = _metric(median(s[name]["self_s"]
                                               for s in spans), "s")
    out["trace.overhead_s"] = _metric(
        median(r["campaign_s"] for r in traced) - untraced_s, "s")
    return out


def _write_raw(w: Workload, seed: int, trace: bool, records: list[dict]) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{w.name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as f:
        json.dump(records, f)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not __debug__:
        print("run.py: refusing to run under -O: latgon's pipelines check "
              "themselves with assert", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "latgon", "__init__.py")):
        print(f"run.py: no latgon sources under {ROOT}/src", file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
