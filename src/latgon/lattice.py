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


def standard_lattice() -> Lattice2:
    return Lattice2(1, 0, 1)


def scaled_lattice(k: int) -> Lattice2:
    """The lattice kZ^2."""
    return Lattice2(k, 0, k)


def rectangular_lattice(a: int, b: int) -> Lattice2:
    """The lattice aZ x bZ."""
    return Lattice2(a, 0, b)


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
    (The independent route — Smith reduction by elementary operations — lives
    in snf_transform and in the test oracle.)
    """
    delta = gcd(gcd(L.p, L.q), L.r)
    return InvariantFactors(delta, L.determinant // delta)


def snf_transform(L: Lattice2) -> tuple["UnimodularMap", InvariantFactors]:
    """A unimodular U with U(L) = delta·Z x n·Z, plus the factors.

    Row operations are accumulated into U; column operations (which do not
    change the lattice generated by the columns' image) are applied freely.
    """
    m00, m01 = L.p, 0
    m10, m11 = L.q, L.r
    u00, u01, u10, u11 = 1, 0, 0, 1
    for _ in range(64):
        if m10 != 0:
            g, x, y = _xgcd(m00, m10)
            a, b = m00 // g, m10 // g
            m00, m01, m10, m11, u00, u01, u10, u11 = (
                g,
                x * m01 + y * m11,
                0,
                -b * m01 + a * m11,
                x * u00 + y * u10,
                x * u01 + y * u11,
                -b * u00 + a * u10,
                -b * u01 + a * u11,
            )
            continue
        if m01 != 0:
            g, x, y = _xgcd(m00, m01)
            a, b = m00 // g, m01 // g
            m00, m01 = g, 0
            m10, m11 = x * m10 + y * m11, -b * m10 + a * m11
            continue
        if m11 % m00:
            # Force divisibility: fold column 2 into column 1 and restart.
            m10 += m11
            continue
        break
    else:  # pragma: no cover - reduction of a 2x2 matrix terminates quickly
        raise InvariantViolation("Smith reduction did not terminate")
    if m00 < 0:
        m00, u00, u01 = -m00, -u00, -u01
    if m11 < 0:
        m11, u10, u11 = -m11, -u10, -u11
    U = UnimodularMap(((u00, u01), (u10, u11)))
    factors = InvariantFactors(m00, m11)
    expected = invariant_factors(L)
    if factors != expected:
        raise InvariantViolation(f"SNF routes disagree: {factors} != {expected}")
    return U, factors


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


def step_profile(L: Lattice2, direction: Vec, companion: Vec) -> StepProfile:
    """Steps of L along `direction`, with `companion` completing a signed basis.

    The values do not depend on the companion (or on either sign); it is
    required only so callers state the basis they are working in.
    """
    if direction not in SIGNED_AXES or companion not in SIGNED_AXES:
        raise ValueError(f"not signed axes: {direction}, {companion}")
    if direction[0] * companion[0] + direction[1] * companion[1] != 0:
        raise ValueError(f"axes are not perpendicular: {direction}, {companion}")
    if direction[0] != 0:  # +-e1
        small = L.p
        large = L.p * (L.r // gcd(L.q, L.r))
    else:  # +-e2
        small = gcd(L.q, L.r)
        large = L.r
    return StepProfile(small, large)


def shear_residue(L: Lattice2) -> int:
    """The unique r in {0, …, det−1} with basis (e1 + r·e2, det·e2).

    Defined only for lattices whose small e1-step is 1.
    """
    if L.p != 1:
        raise ValueError(f"small e1-step is {L.p}, shear residue needs 1")
    # Canonical form already reduces q into {0, …, r−1} and det = r here.
    return L.q


@dataclass(frozen=True)
class UnimodularMap:
    """Integer 2x2 matrix with determinant +-1, stored by rows."""

    rows: tuple[Vec, Vec]

    def __post_init__(self) -> None:
        (a, b), (c, d) = self.rows
        if a * d - b * c not in (1, -1):
            raise ValueError(f"not unimodular: {self.rows}")

    @property
    def det(self) -> int:
        (a, b), (c, d) = self.rows
        return a * d - b * c

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

    def inverse(self) -> "UnimodularMap":
        (a, b), (c, d) = self.rows
        s = self.det  # +-1
        return UnimodularMap(((d * s, -b * s), (-c * s, a * s)))

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

    def inverse(self) -> "AffineMap":
        inv = self.linear.inverse()
        sx, sy = inv.apply(self.shift)
        return AffineMap(inv, (-sx, -sy))

    def is_automorphism_of(self, L: Lattice2) -> bool:
        """True iff this map sends L-cosets to L-cosets (shift lands in L)."""
        return contains(L, self.shift)

    @staticmethod
    def identity() -> "AffineMap":
        return AffineMap(UnimodularMap.identity(), (0, 0))

    @staticmethod
    def translation(shift: Vec) -> "AffineMap":
        return AffineMap(UnimodularMap.identity(), shift)


def apply_affine(m: AffineMap, L: Lattice2) -> Lattice2:
    """Image of a lattice under an affine map whose shift belongs to it."""
    if not contains(L, m.shift):
        raise ValueError(f"shift {m.shift} is not a point of {L}")
    g1, g2 = L.generators()
    c1 = m.linear.apply(g1)
    c2 = m.linear.apply(g2)
    return hnf_canonicalize(((c1[0], c2[0]), (c1[1], c2[1])))


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
