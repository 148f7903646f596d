"""JSON wire formats for the library's values.

Encoders return plain dict/list structures ready for json.dumps; decoders
accept the same shapes and re-validate through the normal constructors, so a
round trip always yields an equal value.
"""

from __future__ import annotations

from .lattice import AffineMap, Lattice2, UnimodularMap, hnf_canonicalize
from .polygon import LatticePolygon
from .slope import Frame, SignedBasis, Slope
from .typeclass import PolygonType, ReductionStep, ReductionTrace
from .verify import BoundReport, SearchRegion


def encode_polygon(P: LatticePolygon) -> dict:
    return {"vertices": [[x, y] for x, y in P.vertices]}


def decode_polygon(obj: dict) -> LatticePolygon:
    verts = obj["vertices"]
    return LatticePolygon(tuple((int(x), int(y)) for x, y in verts))


def decode_lattice(obj: dict) -> Lattice2:
    return hnf_canonicalize(obj["basis"])


def encode_affine(m: AffineMap) -> dict:
    return {"matrix": [list(row) for row in m.linear.rows],
            "shift": list(m.shift)}


def decode_affine(obj: dict) -> AffineMap:
    (a, b), (c, d) = obj["matrix"]
    sx, sy = obj.get("shift", (0, 0))
    return AffineMap(UnimodularMap(((int(a), int(b)), (int(c), int(d)))),
                     (int(sx), int(sy)))


def encode_trace(t: ReductionTrace) -> dict:
    steps = []
    for step in t.steps:
        entry = {"label": step.label}
        entry.update(encode_affine(step.map))
        if step.shear is not None:
            entry["a"] = step.shear
        steps.append(entry)
    return {
        "n": t.n,
        "source": encode_polygon(t.source),
        "steps": steps,
        "result": encode_polygon(t.result),
        "result_type": {"tag": t.result_type.tag, "n": t.result_type.n},
    }


def decode_trace(obj: dict) -> ReductionTrace:
    steps = tuple(
        ReductionStep(s["label"], decode_affine(s), s.get("a"))
        for s in obj["steps"]
    )
    rt = obj["result_type"]
    return ReductionTrace(
        source=decode_polygon(obj["source"]),
        n=int(obj["n"]),
        steps=steps,
        result=decode_polygon(obj["result"]),
        result_type=PolygonType(rt["tag"], int(rt["n"])),
    )


def encode_region(r: SearchRegion) -> dict:
    return {"x_min": r.x_min, "x_max": r.x_max,
            "y_min": r.y_min, "y_max": r.y_max}


def decode_region(obj: dict) -> SearchRegion:
    return SearchRegion(int(obj["x_min"]), int(obj["x_max"]),
                        int(obj["y_min"]), int(obj["y_max"]))


def encode_report(r: BoundReport) -> dict:
    return {
        "bound_name": r.bound_name,
        "n": r.n,
        "delta": r.delta,
        "region": encode_region(r.region),
        "max_vertices_found": r.max_vertices_found,
        "witness": encode_polygon(r.witness) if r.witness else None,
        "counterexamples": [encode_polygon(p) for p in r.counterexamples],
        "exhaustive": r.exhaustive,
        "nodes_explored": r.nodes_explored,
    }


def decode_report(obj: dict) -> BoundReport:
    return BoundReport(
        bound_name=obj["bound_name"],
        n=int(obj["n"]),
        delta=int(obj["delta"]),
        region=decode_region(obj["region"]),
        max_vertices_found=int(obj["max_vertices_found"]),
        witness=decode_polygon(obj["witness"]) if obj.get("witness") else None,
        counterexamples=tuple(decode_polygon(p)
                              for p in obj["counterexamples"]),
        exhaustive=bool(obj["exhaustive"]),
        nodes_explored=int(obj["nodes_explored"]),
    )


def _decode_basis(obj: dict) -> SignedBasis:
    return SignedBasis(tuple(int(c) for c in obj["f1"]),
                       tuple(int(c) for c in obj["f2"]))


def encode_slope(q: Slope) -> dict:
    return {"basis": {"f1": list(q.basis.f1), "f2": list(q.basis.f2)},
            "vertices": [[x, y] for x, y in q.vertices]}


def decode_slope(obj: dict) -> Slope:
    return Slope(_decode_basis(obj["basis"]),
                 tuple((int(x), int(y)) for x, y in obj["vertices"]))


def encode_frame(f: Frame) -> dict:
    return {"origin": list(f.origin),
            "basis": {"f1": list(f.basis.f1), "f2": list(f.basis.f2)}}


def decode_frame(obj: dict) -> Frame:
    return Frame(tuple(int(c) for c in obj["origin"]),
                 _decode_basis(obj["basis"]))
