"""Command-line front end.

JSON values go to standard output (one object, or one object per line for
`enumerate`); human-readable progress notes go to standard error.  Output is
byte-deterministic: keys are sorted, separators fixed, and worker count never
changes what is printed.

Exit codes: 0 success, 1 usage or input error, 2 counterexample or law
failure found, 3 node budget (or search limit) exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .jsonio import (
    decode_frame,
    decode_lattice,
    decode_slope,
    decode_trace,
    decode_vec,
    encode_affine,
    encode_polygon,
    encode_trace,
)
from .lattice import InvariantFactors, scaled_lattice
from .polygon import LatticePolygon, from_points
from .slope import (
    SlopeError,
    WitnessNotFound,
    check_th36_witness,
    frame_splits,
    run_fuzz_suite,
)
from .svg import render_polygon_svg, render_trace_svg
from .typeclass import (
    PIPELINES,
    TAG_ORDER,
    InvariantViolation,
    classify,
    lift,
    type_predicate,
)
from .verify import (
    REGION_PRESETS,
    BudgetExceededError,
    SearchRegion,
    capture_threshold,
    check_main_theorem,
    check_vertex_bound,
    enumerate_convex_polygons,
    find_sharpness_witness,
    verify_reduction_corpus,
)


class _InputError(Exception):
    """Bad input data or flags (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise _InputError(message)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True,
                                separators=(",", ":")) + "\n")


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _InputError(f"{what}: malformed JSON at line {exc.lineno} "
                          f"column {exc.colno} (char {exc.pos}): {exc.msg}")


def _parse_polygon(text: str) -> LatticePolygon:
    obj = _load_json(text, "polygon")
    if isinstance(obj, dict) and "vertices" in obj:
        raw = obj["vertices"]
    elif isinstance(obj, list):
        raw = obj
    else:
        raise _InputError('polygon: expected {"vertices": [[x, y], ...]} '
                          "or a bare vertex list")
    try:
        return from_points(map(decode_vec, raw))
    except (TypeError, ValueError) as exc:
        raise _InputError(f"polygon: {exc}")


def _parse_region(ns) -> SearchRegion:
    if ns.preset is not None:
        return REGION_PRESETS[ns.preset]
    try:
        return SearchRegion.parse(ns.region)
    except ValueError as exc:
        raise _InputError(f"region: {exc}")


def _parse_factors(text: str) -> InvariantFactors:
    try:
        d, m = (int(part) for part in text.split(","))
        return InvariantFactors(d, m)
    except ValueError as exc:
        raise _InputError(f"factors: {exc}")


def _add_region_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--region", metavar="XMIN,XMAX,YMIN,YMAX",
                       help="inclusive vertex window")
    group.add_argument("--preset", choices=sorted(REGION_PRESETS),
                       help="named vertex window")


def _add_budget_flags(p: argparse.ArgumentParser, workers: bool = True) -> None:
    p.add_argument("--budget", type=int, default=None,
                   help="chain-prefix node budget (default 10^8)")
    if workers:
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes (output is identical for any "
                            "count)")


def _report_exit(report) -> int:
    if report.counterexamples:
        return 2
    if not report.exhaustive:
        return 3
    return 0


# ---------------------------------------------------------------------------
# Subcommand handlers.


def _cmd_classify(ns) -> int:
    P = _parse_polygon(ns.polygon)
    m, ptype = classify(P, ns.n, search_bound=ns.bound)
    _emit({"tag": ptype.tag, "n": ptype.n, "map": encode_affine(m)})
    _note(f"type {ptype.tag} at scale {ptype.n} "
          f"(map entries up to {m.linear.max_entry()})")
    return 0


def _cmd_lift(ns) -> int:
    P = _parse_polygon(ns.polygon)
    a0, lifted, m = lift(P, ns.n)
    _emit({"a0": a0, "lifted": encode_polygon(lifted),
           "map": encode_affine(m)})
    _note(f"lifted with a0 = {a0}")
    return 0


def _cmd_reduce(ns) -> int:
    P = _parse_polygon(ns.polygon)
    kinds = tuple(PIPELINES) if ns.kind == "auto" else (ns.kind,)
    kind = next((k for k in kinds if type_predicate(P, ns.n, k)), None)
    if kind is None:
        raise _InputError(f"polygon is not of type {' or '.join(kinds)} "
                          f"at scale {ns.n}")
    trace = PIPELINES[kind](P, ns.n)
    _emit(encode_trace(trace))
    _note(f"{kind} -> {trace.result_type.tag} in {len(trace.steps)} steps")
    return 0


def _finish_report(report, payload) -> int:
    _emit(payload)
    _note(f"{report.bound_name}: max found {report.max_vertices_found}, "
          f"{len(report.counterexamples)} counterexamples, "
          f"exhaustive={report.exhaustive}, "
          f"nodes={report.nodes_explored}")
    return _report_exit(report)


def _cmd_verify_bound(ns) -> int:
    region = _parse_region(ns)
    factors = _parse_factors(ns.factors) if ns.factors else None
    report = check_vertex_bound(ns.n, ns.tag, factors, region,
                                budget=ns.budget, workers=ns.workers)
    return _finish_report(report, asdict(report))


def _cmd_verify_main(ns) -> int:
    region = _parse_region(ns)
    report = check_main_theorem(ns.delta, ns.n, region,
                                budget=ns.budget, workers=ns.workers)
    return _finish_report(report, asdict(report))


def _cmd_verify_reductions(ns) -> int:
    region = _parse_region(ns)
    report, tally = verify_reduction_corpus(ns.n, region, budget=ns.budget,
                                            workers=ns.workers)
    return _finish_report(report, {"report": asdict(report),
                                   "tally": tally})


def _cmd_witness(ns) -> int:
    region = _parse_region(ns)
    nu = capture_threshold(ns.delta, ns.n)
    witness = find_sharpness_witness(ns.delta, ns.n, region,
                                     budget=ns.budget)
    _emit({"delta": ns.delta, "n": ns.n, "threshold": nu,
           "target_vertices": nu - 1,
           "found": witness is not None,
           "witness": encode_polygon(witness) if witness else None})
    _note("witness found" if witness else "no witness in region")
    return 0


def _cmd_enumerate(ns) -> int:
    region = _parse_region(ns)
    avoid = None
    if ns.avoid is not None:
        avoid = decode_lattice(_load_json(ns.avoid, "avoid"))
    elif ns.avoid_scale is not None:
        avoid = scaled_lattice(ns.avoid_scale)
    count = 0
    code = 0
    try:
        for poly in enumerate_convex_polygons(region, ns.min_vertices,
                                              avoid, budget=ns.budget):
            _emit(encode_polygon(poly))
            count += 1
    except BudgetExceededError as exc:
        _note(f"budget exceeded after {exc.nodes} nodes "
              f"({count} polygons streamed)")
        code = 3
    _note(f"{count} polygons")
    return code


def _cmd_slope_check(ns) -> int:
    if ns.slope is not None:
        slope_obj = _load_json(ns.slope, "slope")
        try:
            q = decode_slope(slope_obj)
        except SlopeError as exc:
            _emit({"valid": False, "violated": exc.violated})
            _note(f"invalid slope: {exc.violated}")
            return 0
        result = {"valid": True, "edge_count": q.edge_count,
                  "total_step": list(q.total_step())}
        if ns.frame is not None:
            f = decode_frame(_load_json(ns.frame, "frame"))
            splits = frame_splits(f, q)
            result["splits"] = splits
            if splits:
                s, t = check_th36_witness(f, q)
                result["split_witness"] = [s, t]
        _emit(result)
        _note("slope valid")
        return 0
    suite = run_fuzz_suite(ns.seed, ns.slopes, ns.splits)
    _emit(suite)
    failures = len(suite["failures"])
    _note(f"seed {ns.seed}: {suite['counts']} — {failures} failures")
    return 2 if failures else 0


def _cmd_render(ns) -> int:
    if ns.trace is not None:
        trace = decode_trace(_load_json(ns.trace, "trace"))
        svg = render_trace_svg(trace)
    else:
        P = _parse_polygon(ns.polygon)
        lattice = None
        if ns.lattice is not None:
            lattice = decode_lattice(_load_json(ns.lattice, "lattice"))
        svg = render_polygon_svg(P, n=ns.n, tag=ns.tag, lattice=lattice)
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
        _note(f"wrote {len(svg)} bytes to {ns.out}")
    else:
        sys.stdout.write(svg)
        _note(f"{len(svg)} bytes of SVG")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly and entry point.


def _build_parser() -> _Parser:
    parser = _Parser(prog="latgon",
                     description="Exact-arithmetic search and verification "
                                 "for sublattice-free convex polygons.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("classify", help="name a free polygon's type")
    p.add_argument("--n", type=int, required=True, help="lattice scale")
    p.add_argument("--polygon", required=True, help="polygon JSON")
    p.add_argument("--bound", type=int, default=6,
                   help="shear-generator search bound")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("lift", help="raise the south vertex as far as "
                                    "the defining segment allows")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--polygon", required=True)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("reduce", help="run a reduction pipeline to a "
                                      "simpler type")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--polygon", required=True)
    p.add_argument("--kind", choices=("auto",) + tuple(PIPELINES),
                   default="auto", help="which pipeline to run")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify-bound", help="search a region for polygons "
                                            "beating a vertex-count bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tag", choices=TAG_ORDER + ("any",), default="any")
    p.add_argument("--factors", metavar="D,M", default=None,
                   help="confine vertices to lattices with these invariant "
                        "factors")
    _add_region_flags(p)
    _add_budget_flags(p)
    p.set_defaults(func=_cmd_verify_bound)

    p = sub.add_parser("verify-main", help="check the capture threshold "
                                           "over a region")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_region_flags(p)
    _add_budget_flags(p)
    p.set_defaults(func=_cmd_verify_main)

    p = sub.add_parser("verify-reductions",
                       help="classify every nZ^2-free polygon of a region "
                            "and run its reduction pipeline")
    p.add_argument("--n", type=int, required=True)
    _add_region_flags(p)
    _add_budget_flags(p)
    p.set_defaults(func=_cmd_verify_reductions)

    p = sub.add_parser("witness", help="find a free polygon one vertex "
                                       "below the capture threshold")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_region_flags(p)
    _add_budget_flags(p, workers=False)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("enumerate", help="stream convex lattice polygons "
                                         "as JSON lines")
    p.add_argument("--min-vertices", type=int, default=3)
    p.add_argument("--avoid", default=None,
                   help='lattice JSON {"basis": [[..],[..]]}; only polygons '
                        "free of it are kept, one per translation class")
    p.add_argument("--avoid-scale", type=int, default=None,
                   help="shorthand for avoiding k*Z^2")
    _add_region_flags(p)
    _add_budget_flags(p, workers=False)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("slope-check",
                       help="validate a slope, or fuzz slope/witness laws")
    p.add_argument("--slope", default=None, help="slope JSON to validate")
    p.add_argument("--frame", default=None,
                   help="frame JSON; with --slope, also test the split")
    p.add_argument("--seed", type=int, default=0,
                   help="suite RNG seed (stdlib Mersenne Twister; fixed "
                        "seed replays exactly)")
    p.add_argument("--slopes", type=int, default=10000,
                   help="random slopes to test in suite mode")
    p.add_argument("--splits", type=int, default=10000,
                   help="random split configurations to test in suite mode")
    p.set_defaults(func=_cmd_slope_check)

    p = sub.add_parser("render", help="draw a polygon or a reduction trace "
                                      "as SVG")
    p.add_argument("--polygon", default=None)
    p.add_argument("--trace", default=None, help="reduction trace JSON")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--tag", choices=TAG_ORDER, default=None,
                   help="overlay this type's defining segments")
    p.add_argument("--lattice", default=None, help="lattice JSON for dots")
    p.add_argument("--out", default=None, help="write SVG here instead of "
                                               "standard output")
    p.set_defaults(func=_cmd_render)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except _InputError as exc:
        _note(f"error: {exc}")
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    if ns.subcommand == "render" and (ns.polygon is None) == (ns.trace is None):
        _note("error: render needs exactly one of --polygon / --trace")
        return 1
    try:
        return ns.func(ns)
    except _InputError as exc:
        _note(f"error: {exc}")
        return 1
    except BudgetExceededError as exc:
        _note(f"error: node budget exceeded after {exc.nodes} nodes")
        return 3
    except (WitnessNotFound, InvariantViolation) as exc:
        _note(f"counterexample: {exc}")
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        _note(f"error: {exc}")
        return 1
    except RuntimeError as exc:
        _note(f"error: search limit hit: {exc}")
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
