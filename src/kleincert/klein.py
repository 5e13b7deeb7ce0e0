"""Geometry of the Beltrami-Klein model of hyperbolic 3-space.

Points of the model live in the open unit ball of R³; geodesics are Euclidean
chords.  At a point X with a_X = 1 − ‖X‖², the Riemannian metric applied to
tangent vectors V, W is

    ⟨V, W⟩_X = (a_X·⟨V, W⟩ + ⟨X, V⟩·⟨X, W⟩) / a_X² ,

a rational function of rational inputs — so inner products, squared cosines
and sign decisions are computed *exactly* here.

Every corner and chord integer comes from one form.  A surface keeps its
vertices on one integer lattice (:func:`dilate`): Q is the lcm of every
coordinate denominator and x = Q·X is an integer point.  X lifts to (Q, x),
and for lattice points a, b

    β(a, b) = Q² − a·b

is the Minkowski form of the lifts (Q, a) and (Q, b) (Ratcliffe,
*Foundations of Hyperbolic Manifolds*, the hyperboloid and projective
models); β(x, x) = Q²·a_X is positive inside the ball.  For a corner with
lattice points x, y, z, rays V = Y − X and W = Z − X, and β_xy = β(x, y)
and so on (:func:`_betas`),

    ⟨V, W⟩_X = G_vw / β_xx² ,   G_vw = β_xy·β_xz − β_xx·β_yz ,
    ⟨V, V⟩_X = G_vv / β_xx² ,   G_vv = β_xy² − β_xx·β_yy ,

and likewise G_ww (:func:`_gram`).  The three share the denominator β_xx²,
so it cancels in A = G_vw² / (G_vv·G_ww), and the sign of ⟨V, W⟩_X is the
sign of G_vw; one Fraction is built at the end.  A chord x → y reads
β_xx, β_xy and β_yy, and the Jacobian's corner partials differentiate the
six β values of a corner in its heights.  Two steps are irrational, and
both return certified objects or carry an explicit accuracy contract:

* :func:`distance` returns a :class:`~kleincert.precision.Bound` on the
  hyperbolic distance between lattice points, built from certified sqrt/ln
  enclosures of the exact chord data;
* :func:`angle` evaluates arccos through the high-precision (search-path)
  evaluator; certificates never consume it — they work with the exact squared
  cosine from :func:`cos2_and_sign`.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple, Sequence, Tuple, Union

from .precision import (
    Bound,
    _fraction_exponent,
    arccos_hp,
    as_fraction,
    ln_bounds,
    sqrt_bounds,
)

__all__ = [
    "Point3",
    "dilate",
    "klein_inner",
    "cos2_and_sign",
    "angle",
    "distance",
    "norm_comparison_factor",
]

CoordLike = Union[Fraction, int, str, Decimal]


class Point3(NamedTuple):
    """A point of (or vector in) R³ with exact rational coordinates.

    Model points must satisfy ‖P‖ < 1; free vectors (differences of points)
    carry no constraint.  Lattice points (see :func:`dilate`) hold integers.
    """

    x: Fraction
    y: Fraction
    z: Fraction

    @classmethod
    def of(cls, x: CoordLike, y: CoordLike, z: CoordLike) -> "Point3":
        return cls(as_fraction(x), as_fraction(y), as_fraction(z))

    def sub(self, other: "Point3") -> "Point3":
        return Point3(self.x - other.x, self.y - other.y, self.z - other.z)

    def dot(self, other: "Point3") -> Fraction:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm_sq(self) -> Fraction:
        return self.dot(self)


def dilate(points: Sequence[Point3]) -> Tuple[int, Tuple[Point3, ...]]:
    """The lattice (Q, (Q·P for each P)) of rational points.

    Q is the lcm of every coordinate denominator, so each Q·P is an integer
    point; this is the only place the package computes that lcm.
    """
    q = math.lcm(*(c.denominator for p in points for c in p))
    return q, tuple(Point3(*(c.numerator * (q // c.denominator) for c in p)) for p in points)


def klein_inner(X: Point3, V: Point3, W: Point3) -> Fraction:
    """Exact metric inner product ⟨V, W⟩_X at the model point X (rational reference)."""
    a = 1 - X.norm_sq()
    if a <= 0:
        raise ValueError(f"point {tuple(X)} lies outside the open unit ball")
    return (a * V.dot(W) + X.dot(V) * X.dot(W)) / (a * a)


def _require_in_ball(q: int, x: Point3) -> int:
    """Return β(x, x) = q² − |x|², rejecting (and naming) a point x/q outside the ball."""
    a = q * q - x.norm_sq()
    if a <= 0:
        apex = Point3(*(Fraction(c, q) for c in x))
        raise ValueError(f"point {tuple(apex)} lies outside the open unit ball")
    return a


def _betas(q: int, x: Point3, y: Point3, z: Point3) -> Tuple[int, int, int, int, int, int]:
    """(β_xx, β_xy, β_xz, β_yy, β_yz, β_zz) of the lattice corner at x.

    Raises the errors of the rational formulas, in their order: a zero ray
    (y = x or z = x) first, then an apex x/q outside the open unit ball.
    Every corner kernel and the climb's filter call this once per corner,
    so it works on unpacked integer coordinates.
    """
    if y == x or z == x:
        raise ValueError("angle is undefined when Y = X or Z = X")
    bxx = _require_in_ball(q, x)
    q2 = q * q
    x0, x1, x2 = x
    y0, y1, y2 = y
    z0, z1, z2 = z
    return (
        bxx,
        q2 - x0 * y0 - x1 * y1 - x2 * y2,
        q2 - x0 * z0 - x1 * z1 - x2 * z2,
        q2 - y0 * y0 - y1 * y1 - y2 * y2,
        q2 - y0 * z0 - y1 * z1 - y2 * z2,
        q2 - z0 * z0 - z1 * z1 - z2 * z2,
    )


def _gram(betas: Tuple[int, int, int, int, int, int]) -> Tuple[int, int, int]:
    """(G_vw, G_vv, G_ww) = β_xx²·⟨·,·⟩_X of a corner's rays, from its :func:`_betas`.

    G_vv and G_ww are positive for a corner :func:`_betas` accepts.
    """
    bxx, bxy, bxz, byy, byz, bzz = betas
    return bxy * bxz - bxx * byz, bxy * bxy - bxx * byy, bxz * bxz - bxx * bzz


def cos2_and_sign(q: int, x: Point3, y: Point3, z: Point3) -> tuple[Fraction, int]:
    """Exact squared cosine and sign of the angle at X between rays to Y, Z.

    The corner is given by its lattice points x, y, z = q·X, q·Y, q·Z (see
    :func:`dilate`).  With V = Y − X and W = Z − X, returns (A, σ) where
    A = ⟨V,W⟩²_X / (⟨V,V⟩_X·⟨W,W⟩_X) and σ is the exact sign of ⟨V,W⟩_X,
    so that cos θ = σ·√A.  The sign is an exact rational decision — the
    arccos branch must never rest on a rounded dot product.  Computed in
    integers: A = G_vw² / (G_vv·G_ww).
    """
    g_vw, g_vv, g_ww = _gram(_betas(q, x, y, z))
    sigma = 0 if g_vw == 0 else (1 if g_vw > 0 else -1)
    return Fraction(g_vw * g_vw, g_vv * g_ww), sigma


def angle(q: int, x: Point3, y: Point3, z: Point3, precision: int) -> Decimal:
    """The angle θ = arccos(σ·√A) ∈ [0, π] at a lattice corner, accuracy
    10^(2−p) when min(θ, π − θ) ≥ 10⁻¹¹, and at every corner when p ≤ 13.

    ``precision`` = p sets the accuracy: √A is the midpoint of a
    :func:`sqrt_bounds` enclosure at p + 10 digits, capped at 1.  As √A ≤ 1,
    that enclosure is at most u = 10^−(p+10) wide, so σ times the midpoint is
    a c with |c − cos θ| ≤ u, and the fixed-point :func:`arccos_hp` maps it to
    arccos c within 10^(2−p)/20 + 10^−(p+10).  For θ′ = arccos c,
    |cos θ′ − cos θ| = 2·sin((θ + θ′)/2)·sin(|θ − θ′|/2) ≤ u.  The first
    sine is at least min(θ, π − θ)/π and at least |θ − θ′|/π, and the second
    at least |θ − θ′|/π, so |θ′ − θ| ≤ π²u/(2·min(θ, π − θ)), which is at
    most 10^(2−p)/2 when min(θ, π − θ) ≥ 10⁻¹¹, and always
    |θ′ − θ| ≤ π·√(u/2), which is below 10^(2−p)·3/4 when p ≤ 13.  Nearer
    to 0 or π at larger p the error reaches about 10^(−(p+10)/2): a corner
    below that many radians reads 0 (at p = 50, one of 2·10⁻³⁰).
    This is the non-certified evaluator of the cone-angle and search paths;
    certificates work with the exact (A, σ) pair instead.
    """
    A, sigma = cos2_and_sign(q, x, y, z)
    root = sqrt_bounds(A, precision + 10)
    cos_theta = min(root.midpoint(precision + 10), Decimal(1))
    return arccos_hp(cos_theta.copy_negate() if sigma < 0 else cos_theta, precision)


def distance(q: int, x: Point3, y: Point3, target_width: CoordLike) -> Bound:
    """Certified Bound, at most ``target_width`` wide, on the hyperbolic
    distance between lattice points x/q, y/q.

    The lifts (q, x) and (q, y) give cosh d = β_xy/√(β_xx·β_yy) (Ratcliffe,
    *Foundations of Hyperbolic Manifolds*, the hyperboloid and projective
    models), so with the integer δ = β_xy² − β_xx·β_yy,

        d = ln(2(β_xy + √δ)/q²) − ½·ln(4·β_xx·β_yy/q⁴).

    As δ = (β_xy − β_xx)² + β_xx·|y − x|², the first argument exceeds
    2β_xx/q² > 0 for x ≠ y.  Its root 2√δ/q² = √(4δ/q⁴) and both
    logarithms are certified enclosures of exact rationals, combined
    outward, so the result contains the true distance.  The first argument
    lies in [u, v] from the root's enclosure, and one ln enclosure of u
    serves both ends: ln is concave, so ln v ≤ ln u + (v − u)/u.

    ``target_width`` = w is the one accuracy parameter.  Each logarithm is
    enclosed to width w/4.  The root is enclosed to width L = m·β_xx/(2q²)
    or less, m = min(w, 1), so u > 2β_xx/q² − L ≥ 3β_xx/(2q²) and
    (v − u)/u ≤ m/3.  The ends are rounded outward at the digits whose unit
    in the last place of the larger end is at most w/8.  In all, the width
    is at most w/4 + w/3 + w/8 + 2·w/8 < w.
    """
    bxx = _require_in_ball(q, x)
    byy = _require_in_ball(q, y)
    if x == y:
        raise ValueError("distance requires X != Y")
    tw = as_fraction(target_width)
    if tw <= 0:
        raise ValueError(f"target width must be positive, got {target_width}")
    q2 = q * q
    bxy = q2 - x.dot(y)
    root_arg = Fraction(4 * (bxy * bxy - bxx * byy), q2 * q2)
    # sqrt_bounds at p digits is 10^(⌊log10 √(4δ/q⁴)⌋ + 1 − p) ≤ L wide
    root_width = min(tw, 1) * Fraction(bxx, 2 * q2)
    root_digits = _fraction_exponent(root_arg) // 2 + 1 - _fraction_exponent(root_width)
    root = sqrt_bounds(root_arg, max(1, root_digits))
    s = Fraction(2 * bxy, q2)
    arg1_lo = Fraction(root.lo) + s
    arg1_hi = Fraction(root.hi) + s
    if arg1_lo <= 0:
        raise ValueError("logarithm arguments must be positive for model points")

    ln1 = ln_bounds(arg1_lo, tw / 4)
    ln2 = ln_bounds(Fraction(4 * bxx * byy, q2 * q2), tw / 4)
    lo = Fraction(ln1.lo) - Fraction(ln2.hi) / 2
    hi = Fraction(ln1.hi) + (arg1_hi - arg1_lo) / arg1_lo - Fraction(ln2.lo) / 2
    # hi ≥ d > 0; an ulp of the larger end at these digits is at most w/8
    digits = _fraction_exponent(max(-lo, hi)) + 1 - _fraction_exponent(tw / 8)
    return Bound.from_fraction_pair(lo, hi, max(1, digits))


def norm_comparison_factor(r: CoordLike) -> Fraction:
    """The factor 1/(1−r²)² with ‖V‖² ≤ ⟨V,V⟩_X ≤ factor·‖V‖² for ‖X‖ ≤ r."""
    rf = as_fraction(r)
    if not 0 < rf < 1:
        raise ValueError(f"radius must lie in (0, 1), got {r}")
    s = 1 - rf * rf
    return 1 / (s * s)
