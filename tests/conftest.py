"""Shared fixtures and independent oracles.

The oracles here deliberately take different routes than the library:
matrix reduction by explicit elementary operations instead of gcd/det
formulas, hulls by gift wrapping instead of monotone chains, window
enumeration by powerset filtering and by depth-first convex-position
extension instead of the anchored streaming search.  Agreement between
the two sides is therefore evidence, not tautology.
"""

import hashlib
import os
import random
import subprocess
import sys
from itertools import combinations

import pytest

import latgon
from latgon import SearchRegion, enumerate_convex_polygons, from_points
from latgon import typeclass


def cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


# ---------------------------------------------------------------------------
# Smith form by elementary row/column operations


def snf_oracle(matrix):
    """Invariant factors (d1, d2), d1 | d2, of an integer 2x2 matrix.

    Plain elementary-operation reduction: move the smallest nonzero entry
    to the pivot, shrink the off-diagonal entries by remainders, and fold
    the trailing entry back in whenever the pivot fails to divide it.
    """
    M = [list(matrix[0]), list(matrix[1])]

    def swap_rows():
        M[0], M[1] = M[1], M[0]

    def swap_cols():
        M[0][0], M[0][1] = M[0][1], M[0][0]
        M[1][0], M[1][1] = M[1][1], M[1][0]

    def row2_minus(q):
        M[1][0] -= q * M[0][0]
        M[1][1] -= q * M[0][1]

    def col2_minus(q):
        M[0][1] -= q * M[0][0]
        M[1][1] -= q * M[1][0]

    for _ in range(10_000):
        entries = [(abs(M[i][j]), i, j)
                   for i in range(2) for j in range(2) if M[i][j]]
        assert entries, "zero matrix has no invariant factors"
        _, i, j = min(entries)
        if i == 1:
            swap_rows()
        if j == 1:
            swap_cols()
        pivot = M[0][0]
        if M[1][0] % pivot:
            row2_minus(M[1][0] // pivot)
            continue
        if M[0][1] % pivot:
            col2_minus(M[0][1] // pivot)
            continue
        row2_minus(M[1][0] // pivot)
        col2_minus(M[0][1] // pivot)
        if M[1][1] % pivot:
            # row1 += row2; the pivot column is untouched since M[1][0] == 0
            M[0][1] += M[1][1]
            continue
        d1, d2 = abs(pivot), abs(M[1][1])
        assert d2 % d1 == 0
        return d1, d2
    raise AssertionError("elementary reduction failed to terminate")


# ---------------------------------------------------------------------------
# Hulls by gift wrapping


def hull_oracle(points):
    """Strict hull vertices by gift wrapping: the canonical tuple
    (lexicographic minimum first, counterclockwise), or None when the
    input spans fewer than 3 hull vertices."""
    pts = sorted({(int(x), int(y)) for x, y in points})
    if len(pts) < 3:
        return None
    start = pts[0]
    hull = [start]
    current = start
    for _ in range(len(pts) + 1):
        candidate = None
        for p in pts:
            if p == current:
                continue
            if candidate is None:
                candidate = p
                continue
            c = cross(current, candidate, p)
            far = (p[0] - current[0]) ** 2 + (p[1] - current[1]) ** 2 \
                > (candidate[0] - current[0]) ** 2 + (candidate[1] - current[1]) ** 2
            if c < 0 or (c == 0 and far):
                candidate = p
        if candidate == start:
            break
        hull.append(candidate)
        current = candidate
    else:
        raise AssertionError("gift wrapping looped")
    if len(hull) < 3:
        return None
    return tuple(hull)


def convex_polygons_powerset(points):
    """Every strictly-convex vertex set within the window, by filtering
    the full powerset.  Exponential: tiny windows only."""
    pts = sorted({tuple(p) for p in points})
    out = set()
    for k in range(3, len(pts) + 1):
        for sub in combinations(pts, k):
            h = hull_oracle(sub)
            if h is not None and len(h) == k:
                out.add(h)
    return out


# ---------------------------------------------------------------------------
# Window enumeration by convex-position DFS


def _try_add(hull, q):
    """Extend a counterclockwise strictly-convex cycle by q, or None.

    q joins iff exactly one hull edge strictly faces it and none is
    collinear with it: then every old vertex keeps a strict angle and q
    slots in after that edge's tail.
    """
    k = len(hull)
    if k == 1:
        return [hull[0], q]
    if k == 2:
        c = cross(hull[0], hull[1], q)
        if c == 0:
            return None
        return [hull[0], hull[1], q] if c > 0 else [hull[0], q, hull[1]]
    visible = -1
    for i in range(k):
        c = cross(hull[i], hull[(i + 1) % k], q)
        if c == 0:
            return None
        if c < 0:
            if visible >= 0:
                return None
            visible = i
    if visible < 0:
        return None
    return hull[:visible + 1] + [q] + hull[visible + 1:]


def _canonical(cycle):
    k = cycle.index(min(cycle))
    return tuple(cycle[k:] + cycle[:k])


def convex_polygons_dfs(points):
    """Every strictly-convex vertex set within the window, by depth-first
    extension in lexicographic point order.

    Any subset of a strictly-convex set is strictly convex, so each target
    is reached through its own sorted prefixes, exactly once; a point that
    falls inside (or on the boundary of) the hull of the chosen set can
    never become a vertex again, so those branches prune immediately.
    """
    pts = sorted({tuple(p) for p in points})
    found = []

    def extend(hull, start):
        for idx in range(start, len(pts)):
            new = _try_add(hull, pts[idx])
            if new is None:
                continue
            if len(new) >= 3:
                found.append(_canonical(new))
            extend(new, idx + 1)

    for i in range(len(pts)):
        extend([pts[i]], i + 1)
    return set(found)


# ---------------------------------------------------------------------------
# Point classification against a counterclockwise convex cycle


def classify_point_oracle(vertices, p):
    on_edge = False
    k = len(vertices)
    for i in range(k):
        c = cross(vertices[i], vertices[(i + 1) % k], p)
        if c < 0:
            return "outside"
        if c == 0:
            on_edge = True
    return "boundary" if on_edge else "interior"


# ---------------------------------------------------------------------------
# Random data and shared corpora


def random_polygon(rng, lo=-8, hi=8, max_points=7):
    while True:
        pts = {(rng.randint(lo, hi), rng.randint(lo, hi))
               for _ in range(rng.randint(3, max_points))}
        try:
            return from_points(pts)
        except ValueError:
            continue


@pytest.fixture
def rng():
    return random.Random(20260816)


@pytest.fixture(scope="session")
def corpus_04():
    """All convex lattice polygons with vertices in [0,4]^2."""
    return tuple(enumerate_convex_polygons(SearchRegion(0, 4, 0, 4)))


def fail_lift_on_call(k, error, monkeypatch):
    """Patch typeclass._lift, the lift core that the reductions call, to
    raise `error` on its k-th call."""
    real_lift, calls = typeclass._lift, [0]

    def failing_lift(P, n):
        calls[0] += 1
        if calls[0] == k:
            raise error("west segment does not split the polygon")
        return real_lift(P, n)

    monkeypatch.setattr(typeclass, "_lift", failing_lift)


def checkout_env():
    """The environment, with this checkout's latgon first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(latgon.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_python(code, *flags):
    """Run `code` in a fresh interpreter with interpreter `flags` and this
    checkout's latgon; return the finished process, output as text."""
    return subprocess.run([sys.executable, *flags, "-c", code],
                          env=checkout_env(), capture_output=True, text=True,
                          timeout=120)


def cli_stdout_digest(argv, optimize=False):
    """Run `latgon *argv` in a fresh interpreter, under python -O when
    `optimize`; return its exit code and the sha256 of its standard output."""
    code = ("import sys; from latgon.cli import main; "
            f"sys.argv = ['latgon', *{list(argv)!r}]; main()")
    proc = run_python(code, *(["-O"] if optimize else []))
    return proc.returncode, hashlib.sha256(proc.stdout.encode()).hexdigest()
