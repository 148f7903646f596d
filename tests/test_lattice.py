"""Canonical forms, invariant factors, steps, residues, and maps."""

import os
import random
import subprocess
import sys
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import latgon
from conftest import snf_oracle
from latgon import (
    AffineMap,
    Lattice2,
    UnimodularMap,
    apply_affine,
    contains,
    hnf_canonicalize,
    invariant_factors,
    rectangular_lattice,
    scaled_lattice,
    shear_lattice,
    shear_residue,
    snf_transform,
    span_of_points,
    standard_lattice,
    step_profile,
)


def member_oracle(generators, point):
    """Membership by Cramer's rule on the raw generator pair."""
    (ax, ay), (bx, by) = generators
    d = ax * by - ay * bx
    u = point[0] * by - point[1] * bx
    v = ax * point[1] - ay * point[0]
    return u % d == 0 and v % d == 0


def window_points(generators, bound):
    return {(x, y)
            for x in range(-bound, bound + 1)
            for y in range(-bound, bound + 1)
            if member_oracle(generators, (x, y))}


def matrix_columns(matrix):
    (a11, a12), (a21, a22) = matrix
    return ((a11, a21), (a12, a22))


def random_matrix(rng, width=20):
    while True:
        m = ((rng.randint(-width, width), rng.randint(-width, width)),
             (rng.randint(-width, width), rng.randint(-width, width)))
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
            return m


def random_unimodular(rng, steps=4):
    u = UnimodularMap.identity()
    for _ in range(steps):
        k = rng.randint(-3, 3)
        pick = rng.randrange(3)
        if pick == 0:
            u = u.compose(UnimodularMap(((1, k), (0, 1))))
        elif pick == 1:
            u = u.compose(UnimodularMap(((1, 0), (k, 1))))
        else:
            u = u.compose(UnimodularMap(((0, -1), (1, 0))))
    return u


# ---------------------------------------------------------------------------
# Hermite canonicalization


def test_hnf_identity_basis():
    assert hnf_canonicalize(((1, 0), (0, 1))) == standard_lattice()
    assert standard_lattice() == Lattice2(1, 0, 1)


def test_hnf_column_reduction():
    a = hnf_canonicalize(((2, 2), (0, 4)))
    b = hnf_canonicalize(((2, 0), (0, 4)))
    assert a == b == Lattice2(2, 0, 4)
    assert (window_points(matrix_columns(((2, 2), (0, 4))), 12)
            == window_points(matrix_columns(((2, 0), (0, 4))), 12))


def test_hnf_axis_swap():
    assert hnf_canonicalize(((0, 3), (3, 0))) == scaled_lattice(3)
    assert (window_points(matrix_columns(((0, 3), (3, 0))), 12)
            == window_points(matrix_columns(((3, 0), (0, 3))), 12))


@pytest.mark.parametrize("matrix", [((1, 2), (2, 4)), ((0, 0), (0, 0)),
                                    ((3, 0), (5, 0))])
def test_hnf_rejects_singular(matrix):
    with pytest.raises(ValueError):
        hnf_canonicalize(matrix)


@given(st.tuples(st.integers(-9, 9), st.integers(-9, 9),
                 st.integers(-9, 9), st.integers(-9, 9)),
       st.lists(st.tuples(st.sampled_from("sStT"), st.integers(-3, 3)),
                max_size=5))
def test_hnf_presentation_independent(entries, ops):
    """Column operations never change the canonical form."""
    a11, a12, a21, a22 = entries
    if a11 * a22 - a12 * a21 == 0:
        return
    m = [[a11, a12], [a21, a22]]
    base = hnf_canonicalize((tuple(m[0]), tuple(m[1])))
    for op, k in ops:
        if op == "s":  # col1 += k * col2
            m[0][0] += k * m[0][1]
            m[1][0] += k * m[1][1]
        elif op == "S":  # col2 += k * col1
            m[0][1] += k * m[0][0]
            m[1][1] += k * m[1][0]
        elif op == "t":  # swap columns
            m[0].reverse()
            m[1].reverse()
        else:  # negate col1
            m[0][0] = -m[0][0]
            m[1][0] = -m[1][0]
    assert hnf_canonicalize((tuple(m[0]), tuple(m[1]))) == base
    assert hnf_canonicalize(base.basis) == base  # idempotent


# ---------------------------------------------------------------------------
# Invariant factors and the Smith transform


@pytest.mark.parametrize("lattice, expected", [
    (scaled_lattice(1), (1, 1)),
    (scaled_lattice(2), (2, 2)),
    (scaled_lattice(3), (3, 3)),
    (rectangular_lattice(2, 6), (2, 6)),
    (rectangular_lattice(1, 5), (1, 5)),
    (hnf_canonicalize(((2, 0), (0, 4))), (2, 4)),
])
def test_invariant_factor_examples(lattice, expected):
    f = invariant_factors(lattice)
    assert (f.delta, f.n) == expected
    assert f.n % f.delta == 0
    assert f.delta * f.n == lattice.determinant


def test_invariant_factors_match_elementary_reduction():
    rng = random.Random(1)
    for _ in range(500):
        m = random_matrix(rng)
        f = invariant_factors(hnf_canonicalize(m))
        assert (f.delta, f.n) == snf_oracle(m)


def test_invariant_factors_unimodular_invariant():
    rng = random.Random(2)
    for _ in range(100):
        lattice = hnf_canonicalize(random_matrix(rng))
        u = random_unimodular(rng)
        image = apply_affine(AffineMap(u), lattice)
        assert invariant_factors(image) == invariant_factors(lattice)


def test_snf_transform_identity():
    u, f = snf_transform(standard_lattice())
    assert u.rows == ((1, 0), (0, 1))
    assert (f.delta, f.n) == (1, 1)


def test_snf_transform_fixes_rectangular():
    lattice = rectangular_lattice(2, 6)
    u, f = snf_transform(lattice)
    assert (f.delta, f.n) == (2, 6)
    assert apply_affine(AffineMap(u), lattice) == lattice


def test_snf_transform_shear():
    lattice = hnf_canonicalize(((1, 0), (1, 2)))
    u, f = snf_transform(lattice)
    assert (f.delta, f.n) == (1, 2)
    image = apply_affine(AffineMap(u), lattice)
    assert image == rectangular_lattice(1, 2)
    gens = image.generators()
    for x in range(-8, 9):
        for y in range(-8, 9):
            assert member_oracle(gens, (x, y)) == (y % 2 == 0)


def test_snf_transform_random_lattices():
    rng = random.Random(3)
    for _ in range(100):
        lattice = hnf_canonicalize(random_matrix(rng, 9))
        u, f = snf_transform(lattice)
        assert apply_affine(AffineMap(u), lattice) \
            == rectangular_lattice(f.delta, f.n)


def test_snf_routes_are_compared_under_optimize():
    """A wrong invariant_factors makes snf_transform raise, with asserts off."""
    code = "\n".join([
        "import sys",
        "import latgon.lattice as lattice",
        "from latgon import InvariantViolation, rectangular_lattice",
        "lattice.invariant_factors = lambda L: lattice.InvariantFactors(1, 12)",
        "try:",
        "    lattice.snf_transform(rectangular_lattice(2, 6))",
        "except InvariantViolation as exc:",
        "    print(sys.flags.optimize, exc)",
    ])
    src = os.path.dirname(os.path.dirname(latgon.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("1 SNF routes disagree"), proc.stdout
    assert (latgon.InvariantViolation is latgon.typeclass.InvariantViolation
            is latgon.lattice.InvariantViolation)


# ---------------------------------------------------------------------------
# Membership


@pytest.mark.parametrize("lattice, point, expected", [
    (scaled_lattice(3), (3, -6), True),
    (scaled_lattice(3), (1, 0), False),
    (hnf_canonicalize(((1, 0), (1, 2))), (2, 4), True),
    (hnf_canonicalize(((1, 0), (1, 2))), (2, 3), False),
])
def test_contains_examples(lattice, point, expected):
    assert contains(lattice, point) == expected


def test_contains_matches_cramer():
    rng = random.Random(4)
    for _ in range(50):
        m = random_matrix(rng, 6)
        lattice = hnf_canonicalize(m)
        gens = matrix_columns(m)
        for _ in range(40):
            p = (rng.randint(-30, 30), rng.randint(-30, 30))
            assert contains(lattice, p) == member_oracle(gens, p)


@given(st.integers(1, 6), st.integers(0, 5), st.integers(1, 6),
       st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
       st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
def test_contains_closed_under_group_ops(p, q, r, c1, c2):
    lattice = Lattice2(p, q % r, r)
    g1, g2 = lattice.generators()
    a = (c1[0] * g1[0] + c1[1] * g2[0], c1[0] * g1[1] + c1[1] * g2[1])
    b = (c2[0] * g1[0] + c2[1] * g2[0], c2[0] * g1[1] + c2[1] * g2[1])
    assert contains(lattice, a)
    assert contains(lattice, b)
    assert contains(lattice, (a[0] + b[0], a[1] + b[1]))
    assert contains(lattice, (-a[0], -a[1]))


# ---------------------------------------------------------------------------
# Steps along the axes


@pytest.mark.parametrize("lattice, direction, expected", [
    (rectangular_lattice(2, 6), (1, 0), (2, 2)),
    (rectangular_lattice(2, 6), (0, 1), (6, 6)),
    (hnf_canonicalize(((1, 0), (1, 2))), (1, 0), (1, 2)),
    (hnf_canonicalize(((1, 0), (1, 2))), (0, 1), (1, 2)),
    (standard_lattice(), (1, 0), (1, 1)),
    (standard_lattice(), (0, -1), (1, 1)),
    (scaled_lattice(3), (-1, 0), (3, 3)),
])
def test_step_profile_examples(lattice, direction, expected):
    companion = (direction[1], direction[0])
    profile = step_profile(lattice, direction, companion)
    assert (profile.small, profile.large) == expected
    assert profile.large % profile.small == 0


def test_step_profile_against_window_scan():
    """small = gcd of the direction-coordinates seen in a window;
    large = least positive u with u·direction in the lattice."""
    rng = random.Random(5)
    for _ in range(40):
        m = random_matrix(rng, 4)
        lattice = hnf_canonicalize(m)
        pts = window_points(matrix_columns(m), 3 * lattice.determinant)
        for direction, coord in (((1, 0), 0), ((0, 1), 1)):
            profile = step_profile(lattice, direction,
                                   (direction[1], direction[0]))
            seen = 0
            for p in pts:
                seen = gcd(seen, p[coord])
            assert profile.small == seen
            axis = [p[coord] for p in pts
                    if p[1 - coord] == 0 and p[coord] > 0]
            assert profile.large == min(axis)


def test_step_profile_determinant_identity():
    rng = random.Random(6)
    for _ in range(200):
        lattice = hnf_canonicalize(random_matrix(rng))
        e1_small = step_profile(lattice, (1, 0), (0, 1)).small
        e2_large = step_profile(lattice, (0, 1), (1, 0)).large
        assert e1_small * e2_large == lattice.determinant
        e2_small = step_profile(lattice, (0, 1), (-1, 0)).small
        e1_large = step_profile(lattice, (1, 0), (0, -1)).large
        assert e2_small * e1_large == lattice.determinant


@pytest.mark.parametrize("direction, companion", [
    ((1, 1), (0, 1)),
    ((1, 0), (-1, 0)),
    ((2, 0), (0, 1)),
])
def test_step_profile_rejects_bad_axes(direction, companion):
    with pytest.raises(ValueError):
        step_profile(standard_lattice(), direction, companion)


# ---------------------------------------------------------------------------
# Shear residues


@pytest.mark.parametrize("lattice, expected", [
    (rectangular_lattice(1, 4), 0),
    (hnf_canonicalize(((1, 0), (1, 3))), 1),
    (hnf_canonicalize(((1, 0), (2, 3))), 2),
])
def test_shear_residue_examples(lattice, expected):
    r = shear_residue(lattice)
    assert r == expected
    assert 0 <= r < lattice.determinant
    claimed_generators = ((1, r), (0, lattice.determinant))
    assert (window_points(claimed_generators, 9)
            == window_points(lattice.generators(), 9))


def test_shear_residue_needs_unit_step():
    with pytest.raises(ValueError):
        shear_residue(scaled_lattice(2))


def test_shear_lattice_constructor():
    assert shear_lattice(1, 3) == hnf_canonicalize(((1, 0), (1, 3)))
    assert shear_lattice(2, 3) == hnf_canonicalize(((1, 0), (2, 3)))
    assert shear_lattice(0, 3) == rectangular_lattice(1, 3)
    assert shear_lattice(1, 3, scale=2) == hnf_canonicalize(((2, 0), (2, 6)))


# ---------------------------------------------------------------------------
# Affine images


def test_apply_affine_identity():
    lattice = hnf_canonicalize(((3, 1), (0, 2)))
    assert apply_affine(AffineMap.identity(), lattice) == lattice


def test_apply_affine_shear_preserves_factors():
    image = apply_affine(AffineMap(UnimodularMap(((1, 0), (-1, 1)))),
                         scaled_lattice(3))
    f = invariant_factors(image)
    assert (f.delta, f.n) == (3, 3)


def test_apply_affine_swap():
    image = apply_affine(AffineMap(UnimodularMap(((0, 1), (1, 0)))),
                         rectangular_lattice(2, 6))
    assert image == rectangular_lattice(6, 2)
    f = invariant_factors(image)
    assert (f.delta, f.n) == (2, 6)


def test_apply_affine_lattice_shift():
    lattice = scaled_lattice(3)
    shifted = apply_affine(AffineMap.translation((3, -6)), lattice)
    assert shifted == lattice
    with pytest.raises(ValueError):
        apply_affine(AffineMap.translation((1, 0)), lattice)


def test_affine_compose_and_inverse():
    rng = random.Random(7)
    for _ in range(60):
        m = AffineMap(random_unimodular(rng),
                      (rng.randint(-5, 5), rng.randint(-5, 5)))
        p = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert m.inverse().apply(m.apply(p)) == p
        other = AffineMap(random_unimodular(rng),
                          (rng.randint(-5, 5), rng.randint(-5, 5)))
        assert m.compose(other).apply(p) == m.apply(other.apply(p))


def test_unimodular_rejects_non_unit_determinant():
    with pytest.raises(ValueError):
        UnimodularMap(((2, 0), (0, 1)))


# ---------------------------------------------------------------------------
# Integer span of point sets


@pytest.mark.parametrize("points, expected", [
    ([(0, 0), (2, 0), (0, 2)], 4),
    ([(1, 1), (2, 1), (1, 2)], 1),
    ([(0, 0), (1, 1), (2, 2)], 0),
    ([(0, 0)], 0),
    ([], 0),
    ([(3, 0), (0, 3), (3, 3)], 9),
])
def test_span_of_points_examples(points, expected):
    assert span_of_points(points) == expected
