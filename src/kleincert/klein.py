"""Geometry of the Beltrami-Klein model of hyperbolic 3-space.

Points of the model live in the open unit ball of R³; geodesics are Euclidean
chords.  At a point X with a_X = 1 − ‖X‖², the Riemannian metric applied to
tangent vectors V, W is

    ⟨V, W⟩_X = (a_X·⟨V, W⟩ + ⟨X, V⟩·⟨X, W⟩) / a_X² ,

a rational function of rational inputs — so inner products, squared cosines
and sign decisions are computed *exactly* here.

The corner kernels (:func:`cos2_and_sign`, the Jacobian's corner partials)
and the chord kernel compute in integers.  A surface keeps its vertices on one
integer lattice (:func:`dilate`): Q is the lcm of every coordinate denominator
and x = Q·X is an integer point.  For a corner with lattice points x, y, z let
v = y − x, w = z − x and a′ = Q² − |x|² = Q²·a_X.  Every dot product of the
lattice vectors carries Q² and a_X² = a′²/Q⁴, so

    ⟨V, W⟩_X = G_vw / a′² ,   G_vw = a′·(v·w) + (x·v)·(x·w) ,

with G_vw an integer.  All three metric products share the denominator a′²,
so it cancels in A = G_vw² / (G_vv·G_ww) and the sign of ⟨V, W⟩_X is the sign
of G_vw; one Fraction is built at the end.  A chord x → y has the integers
(A, B, C) = Q²·(a, b, c) of :func:`distance`, formed here only.  Two steps
are irrational, and both return certified objects or carry an explicit
accuracy contract:

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

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0 and self.z == 0


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
    """Return a′ = q² − |x|², rejecting (and naming) a point x/q outside the ball."""
    a = q * q - x.norm_sq()
    if a <= 0:
        apex = Point3(*(Fraction(c, q) for c in x))
        raise ValueError(f"point {tuple(apex)} lies outside the open unit ball")
    return a


def _rays(q: int, x: Point3, y: Point3, z: Point3) -> Tuple[Point3, Point3, int]:
    """(v, w, a′) = (y − x, z − x, q² − |x|²) of the lattice corner at x.

    Raises the errors of the rational formulas, in their order: a zero ray
    first, then an apex x/q outside the open unit ball.
    """
    v, w = y.sub(x), z.sub(x)
    if v.is_zero() or w.is_zero():
        raise ValueError("angle is undefined when Y = X or Z = X")
    return v, w, _require_in_ball(q, x)


def _chord(q: int, x: Point3, y: Point3) -> Tuple[int, int, int]:
    """(A, B, C) = (|y − x|², 2x·(y − x), |x|² − q²) = q²·(a, b, c) of :func:`distance`.

    Raises for x/q, then y/q, outside the open unit ball; A = 0 iff x = y.
    """
    c = -_require_in_ball(q, x)
    _require_in_ball(q, y)
    d = y.sub(x)
    return d.norm_sq(), 2 * x.dot(d), c


def _gram(q: int, x: Point3, y: Point3, z: Point3) -> Tuple[int, int, int]:
    """(G_vw, G_vv, G_ww) of the lattice corner at x: a′²·⟨·,·⟩_X of its rays.

    G_vv and G_ww are positive; raises the errors of :func:`_rays` in its
    order.  Every corner kernel and the climb's filter call this, so it
    works on unpacked integer coordinates.
    """
    x0, x1, x2 = x
    v0, v1, v2 = y[0] - x0, y[1] - x1, y[2] - x2
    w0, w1, w2 = z[0] - x0, z[1] - x1, z[2] - x2
    if not (v0 or v1 or v2) or not (w0 or w1 or w2):
        raise ValueError("angle is undefined when Y = X or Z = X")
    a = _require_in_ball(q, x)
    xv, xw = x0 * v0 + x1 * v1 + x2 * v2, x0 * w0 + x1 * w1 + x2 * w2
    return (
        a * (v0 * w0 + v1 * w1 + v2 * w2) + xv * xw,
        a * (v0 * v0 + v1 * v1 + v2 * v2) + xv * xv,
        a * (w0 * w0 + w1 * w1 + w2 * w2) + xw * xw,
    )


def cos2_and_sign(q: int, x: Point3, y: Point3, z: Point3) -> tuple[Fraction, int]:
    """Exact squared cosine and sign of the angle at X between rays to Y, Z.

    The corner is given by its lattice points x, y, z = q·X, q·Y, q·Z (see
    :func:`dilate`).  With V = Y − X and W = Z − X, returns (A, σ) where
    A = ⟨V,W⟩²_X / (⟨V,V⟩_X·⟨W,W⟩_X) and σ is the exact sign of ⟨V,W⟩_X,
    so that cos θ = σ·√A.  The sign is an exact rational decision — the
    arccos branch must never rest on a rounded dot product.  Computed in
    integers: A = G_vw² / (G_vv·G_ww).
    """
    g_vw, g_vv, g_ww = _gram(q, x, y, z)
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

    With a = ⟨Y−X, Y−X⟩, b = 2⟨X, Y−X⟩, c = ⟨X, X⟩ − 1 and Δ = b² − 4ac,
    the distance along the chord (Ratcliffe, *Foundations of Hyperbolic
    Manifolds*, the projective disk model) is

        d = ln(√Δ − b − 2c) − ½·ln(4c(a + b + c)),

    as a + b + c = ‖Y‖² − 1.  With (A, B, C) = q²·(a, b, c) from :func:`_chord`,
    Δ = (B² − 4AC)/q⁴ > 0 since A > 0 > C.  √Δ and both logarithms are
    certified enclosures of exact rationals, combined outward, so the result
    contains the true distance.  The first argument lies in [u, v] from
    √Δ's enclosure, and one ln enclosure of u serves both ends: ln is
    concave, so ln v ≤ ln u + (v − u)/u.

    ``target_width`` = w is the one accuracy parameter.  Each logarithm is
    enclosed to width w/4.  √Δ is enclosed to width L = m·(−c)/2 or less,
    m = min(w, 1): the first argument exceeds −2c > 0 as Δ > b², so
    u > −2c − L ≥ −3c/2 and (v − u)/u ≤ m/3.  The ends are rounded outward
    at the digits whose unit in the last place of the larger end is at most
    w/8.  In all, the width is at most w/4 + w/3 + w/8 + 2·w/8 < w.
    """
    A, B, C = _chord(q, x, y)
    if A == 0:
        raise ValueError("distance requires X != Y")
    tw = as_fraction(target_width)
    if tw <= 0:
        raise ValueError(f"target width must be positive, got {target_width}")
    q2 = q * q
    delta = Fraction(B * B - 4 * A * C, q2 * q2)
    # sqrt_bounds at p digits is 10^(⌊log10 √Δ⌋ + 1 − p) ≤ L wide
    root_width = min(tw, 1) * Fraction(-C, 2 * q2)
    root_digits = _fraction_exponent(delta) // 2 + 1 - _fraction_exponent(root_width)
    root = sqrt_bounds(delta, max(1, root_digits))
    s = Fraction(B + 2 * C, q2)
    arg1_lo = Fraction(root.lo) - s
    arg1_hi = Fraction(root.hi) - s
    if arg1_lo <= 0:
        raise ValueError("logarithm arguments must be positive for model points")

    ln1 = ln_bounds(arg1_lo, tw / 4)
    ln2 = ln_bounds(Fraction(4 * C * (A + B + C), q2 * q2), tw / 4)
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
