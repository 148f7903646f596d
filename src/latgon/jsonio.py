"""JSON wire formats for the library's values.

A value whose JSON is just its dataclass fields is written with
`dataclasses.asdict`: `BoundReport` (with its `SearchRegion` and polygons),
`Slope` and `Frame`.  The encoders here cover the rest: polygons on the hot
`enumerate` stream, affine maps (whose linear part is written as "matrix")
and reduction traces (whose steps carry the lift-only shear "a").

Decoders accept the same shapes and re-validate through the normal
constructors, so a round trip always yields an equal value.  Every integer is
read by one strict decoder: a float, string or bool raises ValueError rather
than being truncated.
"""

from __future__ import annotations

from .lattice import AffineMap, Lattice2, UnimodularMap, Vec, hnf_canonicalize
from .polygon import LatticePolygon
from .slope import Frame, SignedBasis, Slope
from .typeclass import PolygonType, ReductionStep, ReductionTrace


def _int(v) -> int:
    if type(v) is not int:
        raise ValueError(f"expected an integer, got {v!r}")
    return v


def decode_vec(v) -> Vec:
    """An [x, y] pair of integers."""
    x, y = v
    return (_int(x), _int(y))


def encode_polygon(P: LatticePolygon) -> dict:
    return {"vertices": [[x, y] for x, y in P.vertices]}


def decode_polygon(obj: dict) -> LatticePolygon:
    return LatticePolygon(tuple(map(decode_vec, obj["vertices"])))


def decode_lattice(obj: dict) -> Lattice2:
    return hnf_canonicalize(tuple(map(decode_vec, obj["basis"])))


def encode_affine(m: AffineMap) -> dict:
    return {"matrix": [list(row) for row in m.linear.rows],
            "shift": list(m.shift)}


def decode_affine(obj: dict) -> AffineMap:
    rows = tuple(map(decode_vec, obj["matrix"]))
    return AffineMap(UnimodularMap(rows), decode_vec(obj.get("shift", (0, 0))))


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
        ReductionStep(s["label"], decode_affine(s),
                      None if s.get("a") is None else _int(s["a"]))
        for s in obj["steps"]
    )
    rt = obj["result_type"]
    return ReductionTrace(
        source=decode_polygon(obj["source"]),
        n=_int(obj["n"]),
        steps=steps,
        result=decode_polygon(obj["result"]),
        result_type=PolygonType(rt["tag"], _int(rt["n"])),
    )


def _decode_basis(obj: dict) -> SignedBasis:
    return SignedBasis(decode_vec(obj["f1"]), decode_vec(obj["f2"]))


def decode_slope(obj: dict) -> Slope:
    return Slope(_decode_basis(obj["basis"]),
                 tuple(map(decode_vec, obj["vertices"])))


def decode_frame(obj: dict) -> Frame:
    return Frame(decode_vec(obj["origin"]), _decode_basis(obj["basis"]))
