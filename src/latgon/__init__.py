"""Exact-arithmetic search and verification for sublattice-free convex
lattice polygons: canonical sublattice forms, polygon/segment predicates,
boundary slopes with witness searches, a type classification with lift and
reduction pipelines, and exhaustive verification campaigns."""

from .lattice import (
    AffineMap,
    InvariantFactors,
    Lattice2,
    StepProfile,
    UnimodularMap,
    contains,
    hnf_canonicalize,
    invariant_factors,
    scaled_lattice,
    shear_lattice,
    span_of_points,
    step_profile,
)
from .polygon import (
    LatticePolygon,
    Segment,
    area2_and_pick,
    contains_point,
    from_points,
    is_free_of,
    splits_by_segment,
    transform,
)
from .typeclass import (
    TAG_ORDER,
    InvariantViolation,
    PolygonType,
    ReductionStep,
    ReductionTrace,
    classify,
    lift,
    polygon_types,
    reduce_type_iv,
    reduce_type_v,
    reduce_type_vi,
    type_predicate,
)
from .verify import (
    REGION_PRESETS,
    BoundReport,
    BudgetExceededError,
    SearchRegion,
    capture_threshold,
    check_main_theorem,
    check_vertex_bound,
    enumerate_convex_polygons,
    find_sharpness_witness,
    verify_reduction_corpus,
)

__version__ = "0.1.0"

# No bound or corpus campaign calls the slope layer, so it and the names
# re-exported from it load on first use (PEP 562), not with the package.
_LAZY = dict.fromkeys((
    "slope",
    "Frame",
    "MaximalSlopes",
    "SignedBasis",
    "Slope",
    "SlopeError",
    "WitnessNotFound",
    "check_slp_witness",
    "check_th36_witness",
    "forms_small_angle",
    "frame_splits",
    "maximal_slopes",
    "run_fuzz_suite",
), "latgon.slope")


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(_LAZY[name])
    # Importing a submodule binds it here under its own name already.
    if name not in globals():
        globals()[name] = getattr(module, name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


# `from latgon import *` binds the lazy names as well (and so loads them).
__all__ = [name for name in (*globals(), *_LAZY) if not name.startswith("_")]
