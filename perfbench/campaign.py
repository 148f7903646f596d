"""Run one latgon campaign in this fresh interpreter and print a JSON record.

    python3 perfbench/campaign.py '<spec as JSON>'

The spec names the mode ("campaign" or "sample"), the kind ("bound" or
"corpus"), n, tag, region [x_min, x_max, y_min, y_max], workers, trace, and
for the sample mode seed and sample_size.  The record's `ready` stamp is
time.monotonic() (a system-wide clock) at the end of set-up, so the parent
can time set-up from before it started this process.  latgon is imported
from the checkout's own src/ and nowhere else.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _import_latgon():
    sys.path.insert(0, SRC)
    import latgon
    if not os.path.abspath(latgon.__file__).startswith(SRC + os.sep):
        raise ImportError(f"latgon imported from {latgon.__file__}, not {SRC}")
    return latgon


def run_campaign(spec: dict) -> dict:
    latgon = _import_latgon()
    region = latgon.SearchRegion(*spec["region"])
    n, workers = spec["n"], spec["workers"]
    ready = time.monotonic()
    recorder = None
    if spec["trace"]:
        from spans import SpanRecorder, install
        recorder = SpanRecorder()
        install(recorder, {"verify": latgon.verify,
                           "typeclass": latgon.typeclass})
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    if spec["kind"] == "bound":
        report = latgon.check_vertex_bound(n, spec["tag"], None, region,
                                           workers=workers)
        tally = None
    else:
        report, tally = latgon.verify_reduction_corpus(n, region,
                                                       workers=workers)
    campaign_s = time.perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    record = {
        "ready": ready,
        "campaign_s": campaign_s,
        "parent_cpu_s": _cpu_s(self1) - _cpu_s(self0),
        "worker_cpu_s": _cpu_s(children1) - _cpu_s(children0),
        "peak_rss_kib": self1.ru_maxrss,
        "worker_peak_rss_kib": children1.ru_maxrss,
        "report": dataclasses.asdict(report),
        "tally": tally,
    }
    if recorder is not None:
        record["trace"] = recorder.summary()
    return record


def run_sample(spec: dict) -> dict:
    """classify a seeded sample of the corpus polygons; not timed."""
    latgon = _import_latgon()
    region = latgon.SearchRegion(*spec["region"])
    n = spec["n"]
    corpus = list(latgon.enumerate_convex_polygons(
        region, avoid=latgon.scaled_lattice(n)))
    rng = random.Random(spec["seed"])
    picks = sorted(rng.sample(range(len(corpus)),
                              min(spec["sample_size"], len(corpus))))
    sample = []
    for i in picks:
        m, ptype = latgon.classify(corpus[i], n)
        sample.append({"vertices": corpus[i].vertices, "rows": m.linear.rows,
                       "shift": m.shift, "tag": ptype.tag})
    return {"corpus_size": len(corpus), "sample": sample}


def main() -> int:
    if not __debug__:
        print("campaign.py: latgon's pipelines check themselves with assert; "
              "run without -O", file=sys.stderr)
        return 2
    spec = json.loads(sys.argv[1])
    record = run_sample(spec) if spec["mode"] == "sample" else run_campaign(spec)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
