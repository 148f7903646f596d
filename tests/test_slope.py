"""Slope validity, maximal slopes, splitting frames, witness inequalities."""

import json
import random

import pytest

from conftest import box_scan_oracle, random_polygon, run_python
from latgon import (
    Frame,
    Lattice2,
    SearchRegion,
    SignedBasis,
    Slope,
    SlopeError,
    check_slp_witness,
    check_th36_witness,
    enumerate_convex_polygons,
    forms_small_angle,
    frame_splits,
    from_points,
    hnf_canonicalize,
    maximal_slopes,
    run_fuzz_suite,
    scaled_lattice,
    step_profile,
)
from latgon.slope import random_shear_slope, random_slope, random_split_config

E12 = SignedBasis((1, 0), (0, 1))
ORIGIN_FRAME = Frame((0, 0), E12)


# ---------------------------------------------------------------------------
# Validity


def test_valid_two_edge_slope():
    q = Slope(E12, ((0, 3), (1, 1), (3, 0)))
    assert q.edge_count == 2
    assert q.steps() == [(1, -2), (2, -1)]
    assert q.total_step() == (3, -3)


def test_single_point_is_a_slope():
    q = Slope(E12, ((5, 5),))
    assert q.edge_count == 0
    assert q.total_step() == (0, 0)


@pytest.mark.parametrize("vertices, code", [
    ([(0, 0), (1, 1)], "second-coord-not-decreasing"),
    ([(0, 0), (1, 0)], "second-coord-not-decreasing"),
    ([(0, 0), (-1, -1)], "first-coord-not-increasing"),
    ([(0, 0), (0, -2)], "first-coord-not-increasing"),
    ([(0, 3), (2, 2), (3, 0)], "not-convex"),
    ([(0, 2), (1, 1), (2, 0)], "not-convex"),
    ([], "empty"),
])
def test_invalid_slopes(vertices, code):
    with pytest.raises(SlopeError) as err:
        Slope(E12, tuple(vertices))
    assert err.value.violated == code


def test_slope_reverses_under_swapped_basis(rng):
    """Reading the chain backwards is a slope for the swapped basis."""
    for _ in range(200):
        q = random_slope(rng)
        Slope(q.basis.swapped(), tuple(reversed(q.vertices)))


def test_slope_respects_its_basis():
    down = SignedBasis((0, -1), (1, 0))
    q = Slope(down, ((1, 3), (0, 1)))
    assert q.steps() == [(2, -1)]
    with pytest.raises(SlopeError):
        Slope(E12, ((1, 3), (0, 1)))


# ---------------------------------------------------------------------------
# Maximal slopes and the boundary identity


def test_maximal_slopes_square():
    ms = maximal_slopes(from_points([(1, 1), (2, 1), (2, 2), (1, 2)]))
    assert ms.edge_counts() == (0, 0, 0, 0)
    assert ms.marker_flags() == (1, 1, 1, 1)
    assert all(s.edge_count == 0 for s in ms.slopes())


def test_maximal_slopes_tilted_triangle():
    ms = maximal_slopes(from_points([(0, 0), (2, 1), (1, 2)]))
    assert ms.edge_counts() == (1, 1, 1, 0)
    assert ms.marker_flags() == (0, 0, 0, 0)


def test_maximal_slopes_axis_triangle():
    ms = maximal_slopes(from_points([(0, 0), (3, 0), (0, 3)]))
    assert ms.edge_counts() == (0, 1, 0, 0)
    assert ms.marker_flags() == (1, 0, 0, 1)
    assert ms.q2.vertices == ((3, 0), (0, 3))


def test_maximal_slopes_diamond():
    ms = maximal_slopes(from_points([(0, 1), (1, 0), (2, 1), (1, 2)]))
    assert ms.edge_counts() == (1, 1, 1, 1)
    assert ms.marker_flags() == (0, 0, 0, 0)


def test_boundary_identity_small_window():
    for P in enumerate_convex_polygons(SearchRegion(0, 3, 0, 3)):
        ms = maximal_slopes(P)
        assert len(P) == sum(ms.edge_counts()) + sum(ms.marker_flags())


def test_boundary_identity_random(rng):
    for _ in range(300):
        P = random_polygon(rng, lo=-12, hi=12, max_points=10)
        ms = maximal_slopes(P)
        assert len(P) == sum(ms.edge_counts()) + sum(ms.marker_flags())


def test_slope_endpoints_against_point_scan(rng):
    """Each slope ends at the least or the largest point of P on an extreme
    line, and a marker flag is 1 exactly when that line holds more than one
    point of P; the lines and their points come from a scan of the box."""
    for _ in range(60):
        P = random_polygon(rng)
        pts = box_scan_oracle(P, Lattice2(1, 0, 1))

        def line(axis, extreme):
            c = extreme(p[axis] for p in pts)
            return sorted(p for p in pts if p[axis] == c)

        south, east = line(1, min), line(0, max)
        north, west = line(1, max), line(0, min)
        ms = maximal_slopes(P)
        q1, q2, q3, q4 = (s.vertices for s in ms.slopes())
        assert (q1[0], q1[-1]) == (south[-1], east[0])
        assert (q2[0], q2[-1]) == (east[-1], north[-1])
        assert (q3[0], q3[-1]) == (north[0], west[-1])
        assert (q4[0], q4[-1]) == (west[0], south[0])
        assert ms.marker_flags() == tuple(
            int(len(on) > 1) for on in (south, east, north, west))


def test_extreme_edge_lengths_respect_lattice_steps(rng):
    """A marker flag forces the extreme edge to span at least the step."""
    for _ in range(1000):
        lattice = hnf_canonicalize(((rng.randint(1, 3), 0),
                                    (rng.randint(0, 2), rng.randint(1, 3))))
        g1, g2 = lattice.generators()
        base = random_polygon(rng, lo=-4, hi=4)
        P = from_points([(a * g1[0] + b * g2[0], a * g1[1] + b * g2[1])
                         for a, b in base.vertices])
        ms = maximal_slopes(P)
        m1, m2, m3, m4 = ms.marker_flags()
        q1, q2, q3, q4 = (s.vertices for s in ms.slopes())
        s1 = step_profile(lattice, (1, 0)).small
        s2 = step_profile(lattice, (0, 1)).small
        # Each extreme edge runs from the end of one slope to the start of
        # the next: south q4 -> q1, east q1 -> q2, north q2 -> q3, west q3 -> q4.
        assert q1[0][0] - q4[-1][0] >= s1 * m1
        assert q2[0][1] - q1[-1][1] >= s2 * m2
        assert q2[-1][0] - q3[0][0] >= s1 * m3
        assert q3[-1][1] - q4[0][1] >= s2 * m4


# ---------------------------------------------------------------------------
# Frame splitting


def test_frame_splits_basic():
    q = Slope(E12, ((-1, 2), (1, -1)))
    assert frame_splits(ORIGIN_FRAME, q)


def test_frame_splits_through_origin_fails():
    # The crossing lands exactly on the frame origin: no point of the
    # slope has both frame coordinates positive.
    q = Slope(E12, ((-1, 1), (1, -1)))
    assert not frame_splits(ORIGIN_FRAME, q)


def test_frame_splits_crossing_below_origin_fails():
    q = Slope(E12, ((-3, 1), (1, -1)))
    assert not frame_splits(ORIGIN_FRAME, q)


def test_frame_splits_needs_sign_change():
    q = Slope(E12, ((1, 3), (2, 1)))
    assert not frame_splits(ORIGIN_FRAME, q)
    assert not frame_splits(ORIGIN_FRAME, Slope(E12, ((5, 5),)))


def test_frame_splits_shifted_rotated():
    f = Frame((3, 0), SignedBasis((0, 1), (-1, 0)))
    q = Slope(f.basis, ((2, -1), (4, 2)))
    assert [f.coords(v) for v in q.vertices] == [(-1, 1), (2, -1)]
    assert frame_splits(f, q)
    assert forms_small_angle(f, q)


def test_frame_splits_rejects_foreign_basis():
    q = Slope(SignedBasis((0, 1), (-1, 0)), ((2, -1), (4, 2)))
    with pytest.raises(ValueError):
        frame_splits(ORIGIN_FRAME, q)


def test_frame_splits_swapped_basis_reads_backwards():
    f = Frame((0, 0), SignedBasis((0, 1), (1, 0)))
    q = Slope(E12, ((-1, 2), (1, -1)))
    # In the swapped frame the same chain runs from (-1, 1) to (2, -1).
    assert frame_splits(f, q)


# ---------------------------------------------------------------------------
# Small angles


def test_small_angle_shallow_crossing():
    q = Slope(E12, ((-4, 3), (-1, 1), (3, -1)))
    assert frame_splits(ORIGIN_FRAME, q)
    assert forms_small_angle(ORIGIN_FRAME, q)


def test_small_angle_forty_five_degrees_counts():
    q = Slope(E12, ((-1, 3), (3, -1)))
    assert forms_small_angle(ORIGIN_FRAME, q)


def test_small_angle_on_vertex_counts_the_next_edge():
    # The chain meets w=0 at the vertex (1, 0): steep before, shallow after.
    q = Slope(E12, ((-1, 3), (1, 0), (4, -1)))
    assert frame_splits(ORIGIN_FRAME, q)
    assert forms_small_angle(ORIGIN_FRAME, q)


def test_small_angle_steep_crossing_fails():
    q = Slope(E12, ((-1, 4), (1, -2)))
    assert frame_splits(ORIGIN_FRAME, q)
    assert not forms_small_angle(ORIGIN_FRAME, q)


def test_small_angle_requires_split():
    q = Slope(E12, ((1, 3), (2, 1)))
    with pytest.raises(ValueError):
        forms_small_angle(ORIGIN_FRAME, q)


def test_small_angle_sufficient_point(rng):
    """A slope point y with y2 > 0 >= y1 + y2 forces the small angle."""
    checked = 0
    for _ in range(2000):
        f, q = random_split_config(rng)
        uw = [f.coords(v) for v in (q.vertices if q.basis == f.basis
                                    else tuple(reversed(q.vertices)))]
        if any(w > 0 >= u + w for u, w in uw):
            assert forms_small_angle(f, q)
            checked += 1
    assert checked > 50


def test_one_of_the_two_frames_forms_small_angle(rng):
    for _ in range(1000):
        f, q = random_split_config(rng)
        swapped = Frame(f.origin, f.basis.swapped())
        assert frame_splits(f, q) and frame_splits(swapped, q)
        assert forms_small_angle(f, q) or forms_small_angle(swapped, q)


# ---------------------------------------------------------------------------
# Witnesses for the edge-count inequalities


def test_slp_witness_single_point():
    assert check_slp_witness(Slope(E12, ((5, 5),))) == 0


def test_slp_witness_two_edges():
    assert check_slp_witness(Slope(E12, ((0, 3), (1, 1), (3, 0)))) == 1


def test_slp_witness_wide_lattice_step():
    q = Slope(E12, ((0, 4), (2, 1), (6, 0)))
    assert check_slp_witness(q, vertex_lattice=Lattice2(2, 0, 1)) == 0


def test_slp_witness_rejects_foreign_vertices():
    q = Slope(E12, ((0, 3), (1, 1), (3, 0)))
    with pytest.raises(ValueError):
        check_slp_witness(q, vertex_lattice=Lattice2(2, 0, 1))


def test_slp_witness_shear():
    q = Slope(E12, ((0, 3), (2, 1)))
    assert check_slp_witness(q, shear=(1, 3)) == 0
    with pytest.raises(ValueError):
        check_slp_witness(q, shear=(2, 1))  # needs a <= m
    with pytest.raises(ValueError):
        check_slp_witness(Slope(E12, ((0, 1), (1, -1))), shear=(1, 3))


def test_slp_witness_validates_shear_before_small_step():
    # In 2Z^2 the small f1-step is 2, which alone would give the witness 0.
    q = Slope(E12, ((0, 4), (4, 0)))
    with pytest.raises(ValueError):
        check_slp_witness(q, vertex_lattice=scaled_lattice(2), shear=(5, 1))


def test_slp_witness_random_slopes(rng):
    for _ in range(500):
        q = random_slope(rng, max_edges=8)
        s = check_slp_witness(q)
        N, (b1, b2) = q.edge_count, q.total_step()
        assert 0 <= s <= N
        assert 2 * N <= b1 + s
        assert -b2 >= s * (s + 1) // 2
        # Minimality: no smaller s satisfies both inequalities.
        for smaller in range(s):
            assert 2 * N > b1 + smaller or -b2 < smaller * (smaller + 1) // 2


def test_slp_witness_random_shear_slopes(rng):
    for _ in range(500):
        q, (a, m) = random_shear_slope(rng)
        s = check_slp_witness(q, shear=(a, m))
        N, (b1, b2) = q.edge_count, q.total_step()
        assert 2 * N <= b1 + s
        assert -b2 >= a * s + m * s * (s - 1) // 2


def test_th36_witness_minimal():
    q = Slope(E12, ((-1, 2), (1, -1)))
    assert check_th36_witness(ORIGIN_FRAME, q) == (0, 0)


def test_th36_witness_requires_split():
    q = Slope(E12, ((-1, 1), (1, -1)))
    with pytest.raises(ValueError):
        check_th36_witness(ORIGIN_FRAME, q)


def test_th36_witness_proper_span():
    q = Slope(E12, ((-2, 4), (2, -2)))
    s, t = check_th36_witness(ORIGIN_FRAME, q)
    assert 0 <= s <= t


def test_th36_witness_random(rng):
    for _ in range(1000):
        f, q = random_split_config(rng)
        s, t = check_th36_witness(f, q)
        uw = [f.coords(v) for v in (q.vertices if q.basis == f.basis
                                    else tuple(reversed(q.vertices)))]
        (v1, v2), (w1, w2) = uw[0], uw[-1]
        N = q.edge_count
        assert 0 <= s <= t <= v2 + w1
        assert v2 - s >= 0
        assert -v1 < t * s - (s * s - s) // 2 + (v2 - s) * (t + 1)
        assert 2 * N <= v2 + w1 - t + s
        assert 2 * N <= v2 + w1  # the standalone corollary


# ---------------------------------------------------------------------------
# Fuzz suite plumbing


def test_fuzz_suite_smoke():
    out = run_fuzz_suite(7, 200, 200)
    assert out["seed"] == 7
    assert out["failures"] == []
    counts = out["counts"]
    assert counts["slopes"] == 200
    assert counts["splits"] == 200
    for key in ("witnesses", "shear_witnesses", "lattice_witnesses",
                "split_witnesses", "small_angles"):
        assert counts[key] >= 0
    assert run_fuzz_suite(7, 200, 200) == out  # deterministic


#: The slope layer's names that `latgon` re-exports.
SLOPE_NAMES = (
    "Frame", "MaximalSlopes", "SignedBasis", "Slope", "SlopeError",
    "WitnessNotFound", "check_slp_witness", "check_th36_witness",
    "forms_small_angle", "frame_splits", "maximal_slopes", "run_fuzz_suite",
)


def test_package_loads_slope_names_on_first_use():
    """In a fresh interpreter, `import latgon` leaves the slope layer
    unloaded; each re-exported slope name and `latgon.slope` itself then
    resolve on first use, to the slope layer's own objects, and are listed
    by dir(latgon) and bound by `from latgon import *`.  An unknown name still raises AttributeError."""
    code = "\n".join([
        "import json, sys",
        "import latgon",
        "loaded = 'latgon.slope' in sys.modules",
        f"from latgon import {', '.join(SLOPE_NAMES)}",
        "module = latgon.slope",
        "same = [name for name in " + repr(SLOPE_NAMES),
        "        if globals()[name] is getattr(module, name)]",
        "try:",
        "    latgon.no_such_name",
        "    missing = None",
        "except AttributeError as exc:",
        "    missing = str(exc)",
        "star = {}",
        "exec('from latgon import *', star)",
        "print(json.dumps({'loaded': loaded, 'same': same,",
        "                  'module': module is sys.modules['latgon.slope'],",
        "                  'dir': dir(latgon), 'star': sorted(star),",
        "                  'missing': missing}))",
    ])
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert not out["loaded"]
    assert out["same"] == list(SLOPE_NAMES)
    assert out["module"]
    assert set(SLOPE_NAMES) | {"slope"} <= set(out["dir"])
    assert set(SLOPE_NAMES) | {"slope"} <= set(out["star"])
    assert out["missing"] == "module 'latgon' has no attribute 'no_such_name'"


@pytest.mark.parametrize("patch, slopes, splits, law", [
    ("right = slope.check_slp_witness\n"
     "slope.check_slp_witness = lambda q, **kw: right(q, **kw) + 1",
     200, 0, "s is minimal"),
    ("slope.check_th36_witness = lambda f, q: (0, 0)",
     0, 500, "-v1 < t*s - (s^2 - s)/2 + (v2 - s)*(t + 1)"),
    ("def refuted(q, **kw):\n"
     "    raise slope.WitnessNotFound('refuted')\n"
     "slope.check_slp_witness = refuted",
     50, 0, "refuted"),
], ids=["non-minimal-slp-witness", "wrong-th36-witness", "no-slp-witness"])
def test_fuzz_suite_laws_fire_under_optimize(patch, slopes, splits, law):
    """A wrong witness is recorded as a failure naming the law, with asserts off."""
    code = "\n".join([
        "import json, sys",
        "import latgon.slope as slope",
        patch,
        f"out = slope.run_fuzz_suite(0, {slopes}, {splits})",
        "print(json.dumps({'optimize': sys.flags.optimize, **out}))",
    ])
    proc = run_python(code, "-O")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["optimize"] == 1
    assert out["failures"]
    assert any(law in f["detail"] for f in out["failures"])


def test_random_generators_produce_valid_instances(rng):
    for _ in range(300):
        q, (a, m) = random_shear_slope(rng)
        assert 1 <= a <= m <= 3
        for v in q.vertices:
            alpha, beta = q.basis.coords(v)
            assert (beta + a * alpha) % m == 0
        f, q2 = random_split_config(rng)
        assert frame_splits(f, q2)
