"""Exact arithmetic for full-rank sublattices of Z^2.

A lattice is stored by its canonical Hermite basis (lower triangular, positive
diagonal, off-diagonal reduced modulo the diagonal), so two values describe the
same point set exactly when they compare equal field-wise.

All arithmetic is plain Python integers, which are arbitrary precision: the
working envelope (|coordinates| <= ~10^3) can never overflow an intermediate
2x2 determinant.  No floating point is used anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

Vec = tuple[int, int]


class InvariantViolation(AssertionError):
    """A law that a computation must keep failed: a bug or a counterexample.
    Raised explicitly, so the check also runs under -O."""


#: The four signed coordinate axes, in a fixed order.
SIGNED_AXES: tuple[Vec, ...] = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class InvariantFactors:
    """Diagonal (delta, n) of the Smith normal form of a lattice basis."""

    delta: int
    n: int

    def __post_init__(self) -> None:
        if self.delta < 1 or self.n < 1:
            raise ValueError(f"invariant factors must be positive: {self}")
        if self.n % self.delta:
            raise ValueError(f"first invariant factor must divide the second: {self}")

    @property
    def determinant(self) -> int:
        return self.delta * self.n


@dataclass(frozen=True)
class Lattice2:
    """Full-rank sublattice of Z^2 in canonical Hermite form.

    The basis matrix is ((p, 0), (q, r)) with generators as *columns*:
    (p, q) and (0, r), where p, r > 0 and 0 <= q < r.
    """

    p: int
    q: int
    r: int

    def __post_init__(self) -> None:
        if self.p <= 0 or self.r <= 0 or not 0 <= self.q < self.r:
            raise ValueError(
                f"not a canonical Hermite basis: p={self.p} q={self.q} r={self.r}"
            )

    @property
    def basis(self) -> tuple[Vec, Vec]:
        """Basis matrix rows; columns (p, q) and (0, r) generate the lattice."""
        return ((self.p, 0), (self.q, self.r))

    @property
    def determinant(self) -> int:
        return self.p * self.r

    def generators(self) -> tuple[Vec, Vec]:
        return ((self.p, self.q), (0, self.r))

    def __str__(self) -> str:
        return f"Lattice2[({self.p},{self.q}),(0,{self.r})]"


@lru_cache(maxsize=64)
def scaled_lattice(k: int) -> Lattice2:
    """The lattice kZ^2 (one shared instance per k; Lattice2 is frozen)."""
    return Lattice2(k, 0, k)


def shear_lattice(r: int, m: int, scale: int = 1) -> Lattice2:
    """The lattice scale * span{e1 + r*e2, m*e2} (shear residue r, index m)."""
    return hnf_canonicalize(((scale, 0), (scale * r, scale * m)))


def hnf_canonicalize(basis) -> Lattice2:
    """Canonicalize a 2x2 integer basis matrix (columns are generators).

    Raises ValueError on a singular matrix.
    """
    (a11, a12), (a21, a22) = basis
    a11, a12, a21, a22 = int(a11), int(a12), int(a21), int(a22)
    if a11 * a22 - a12 * a21 == 0:
        raise ValueError(f"singular basis: {basis!r}")
    # Column operations only: make the top row (g, 0).
    g, x, y = _xgcd(a11, a12)
    u, v = a11 // g, a12 // g
    # new col1 = x*col1 + y*col2, new col2 = -v*col1 + u*col2  (det +-1 column op)
    c1 = (x * a11 + y * a12, x * a21 + y * a22)
    c2 = (-v * a11 + u * a12, -v * a21 + u * a22)
    p, q = c1
    _, r = c2  # the top entry of col2 is -v*a11 + u*a12 = 0
    if r < 0:
        r = -r
    q %= r
    return Lattice2(p, q, r)


def invariant_factors(L: Lattice2) -> InvariantFactors:
    """Invariant factors via the gcd/determinant formulas.

    delta is the gcd of the basis entries; delta * n is the determinant.
    (The independent route, Smith reduction by elementary operations, is the
    test oracle.)
    """
    delta = gcd(gcd(L.p, L.q), L.r)
    return InvariantFactors(delta, L.determinant // delta)


def contains(L: Lattice2, point: Vec) -> bool:
    """Exact membership of an integer point."""
    x, y = point
    if x % L.p:
        return False
    return (y - (x // L.p) * L.q) % L.r == 0


@dataclass(frozen=True)
class StepProfile:
    """Small and large step of a lattice along a signed axis.

    small: positive generator of the direction-coefficients of all lattice
    points; large: least positive u with u*direction in the lattice.  The
    small step divides the large step (they may coincide), and
    small f1-step x large f2-step = determinant.
    """

    small: int
    large: int


def step_profile(L: Lattice2, direction: Vec) -> StepProfile:
    """Steps of L along the signed axis `direction`; the sign does not
    matter."""
    if direction not in SIGNED_AXES:
        raise ValueError(f"not a signed axis: {direction}")
    if direction[0] != 0:  # +-e1
        small = L.p
        large = L.p * (L.r // gcd(L.q, L.r))
    else:  # +-e2
        small = gcd(L.q, L.r)
        large = L.r
    return StepProfile(small, large)


@dataclass(frozen=True)
class UnimodularMap:
    """Integer 2x2 matrix with determinant +-1, stored by rows."""

    rows: tuple[Vec, Vec]

    def __post_init__(self) -> None:
        (a, b), (c, d) = self.rows
        if a * d - b * c not in (1, -1):
            raise ValueError(f"not unimodular: {self.rows}")

    def apply(self, point: Vec) -> Vec:
        (a, b), (c, d) = self.rows
        x, y = point
        return (a * x + b * y, c * x + d * y)

    def compose(self, inner: "UnimodularMap") -> "UnimodularMap":
        """self ∘ inner (inner applied first)."""
        (a, b), (c, d) = self.rows
        (e, f), (g, h) = inner.rows
        return UnimodularMap(((a * e + b * g, a * f + b * h),
                              (c * e + d * g, c * f + d * h)))

    def max_entry(self) -> int:
        return max(abs(e) for row in self.rows for e in row)

    @staticmethod
    def identity() -> "UnimodularMap":
        return UnimodularMap(((1, 0), (0, 1)))


@dataclass(frozen=True)
class AffineMap:
    """x ↦ linear·x + shift with a unimodular linear part."""

    linear: UnimodularMap
    shift: Vec = (0, 0)

    def apply(self, point: Vec) -> Vec:
        x, y = self.linear.apply(point)
        return (x + self.shift[0], y + self.shift[1])

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """self ∘ inner (inner applied first)."""
        sx, sy = self.linear.apply(inner.shift)
        return AffineMap(
            self.linear.compose(inner.linear),
            (sx + self.shift[0], sy + self.shift[1]),
        )

    def is_automorphism_of(self, L: Lattice2) -> bool:
        """True iff this map carries L onto itself: its shift and the images
        of L's generators lie in L (a unimodular map into L is onto L)."""
        return contains(L, self.shift) and all(
            contains(L, self.linear.apply(g)) for g in L.generators())

    @staticmethod
    def identity() -> "AffineMap":
        return AffineMap(UnimodularMap.identity(), (0, 0))

    @staticmethod
    def translation(shift: Vec) -> "AffineMap":
        return AffineMap(UnimodularMap.identity(), shift)


def span_of_points(points) -> int:
    """Determinant of the subgroup of Z^2 generated by the given points.

    Returns 0 when the span has rank < 2.  The points all belong to some
    proper sublattice of Z^2 exactly when the result is not 1.
    """
    pts = [tuple(p) for p in points]
    g = 0
    for i, (x1, y1) in enumerate(pts):
        for x2, y2 in pts[i + 1:]:
            g = gcd(g, x1 * y2 - y1 * x2)
            if g == 1:
                return 1
    return g
