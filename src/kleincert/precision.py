"""Arbitrary-precision scalars, exact rationals, and certified enclosures.

Three kinds of numbers flow through this package:

* ``Scalar`` — an arbitrary-precision decimal float, realized by the standard
  library's :class:`decimal.Decimal`.  Every public operation takes its
  accuracy (digits or a width) explicitly, with no default; there is no
  ambient mutable precision state, so everything here is thread-safe.
* ``Rational`` — an exact rational, realized by :class:`fractions.Fraction`.
  All trusted comparisons in the certification paths reduce to exact rational
  (ultimately integer) arithmetic.  A rational is rounded to p digits
  (:func:`decimal_from_fraction`) from a quotient of p + 3 digits whose last
  digit is sticky, 1 when the quotient was cut short (:func:`_short_ratio`):
  every rounding mode sees only whether the dropped tail is zero, below, at
  or above half an ulp, which that digit keeps, so the result is the one the
  whole operands give, at a cost that does not grow with their digits.
* :class:`Bound` — an enclosure ``[lo, hi]`` of a real number by Decimals.  It
  is a container and does no arithmetic: each function that produces one
  rounds its two ends outward itself.

On top of these sit certified enclosures of the transcendental functions used
by the geometry layers:

* :func:`exp_bounds` — enclosure of e^x from S_n(x) plus the remainder
  a^(n+1)·3^a/(n+1)! valid on |x| ≤ a; its one accuracy parameter is the width,
* :func:`ln_bounds` — enclosure of ln x around the library logarithm, its two
  endpoints t certified via e^t ≶ x with exact rational comparisons; its
  one accuracy parameter is the width,
* :func:`sqrt_bounds` — enclosure [s, s + 1]·10^−k of √x from one integer
  square root s = ⌊√x·10^k⌋, a point when s² matches x exactly; its one
  accuracy parameter is the digits of s,
* :func:`hyp_bounds` — sinh/cosh/tanh enclosures on [−3, 3], combined
  outward from two :func:`exp_bounds` enclosures of e^±x, 10^−p wide at p digits,
* :func:`arccos_hp` — a *non-certified* high-precision arccos used only by the
  search/evaluation paths (the certificates never evaluate arccos, they only
  Lipschitz-bound it); accuracy contract |err| ≤ 10^(2−p) at precision p.  It
  works in binary fixed point with 64 guard bits beyond p + 10 digits, by
  half-angle-reduced arctan (Brent and Zimmermann, *Modern Computer
  Arithmetic*, §4.2), whose floor errors stay below 10^−(p+10).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Context, Decimal, ROUND_CEILING, ROUND_DOWN, ROUND_FLOOR, localcontext
from fractions import Fraction
from typing import NamedTuple, Union

__all__ = [
    "CertificationError",
    "Bound",
    "HypBounds",
    "as_decimal",
    "as_fraction",
    "decimal_from_fraction",
    "exp_bounds",
    "ln_bounds",
    "sqrt_bounds",
    "hyp_bounds",
    "arccos_hp",
    "pi_hp",
]

ScalarLike = Union[Decimal, int, str]
NumberLike = Union[Decimal, int, str, Fraction]


class CertificationError(Exception):
    """A certificate's hypothesis or inequality chain failed.

    Raised (never swallowed) whenever a certified check does not hold; the
    message names the offending object (edge, angle, triangle pair, ...).
    """


def _context(precision: int, rounding: str | None = None) -> Context:
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    ctx = Context(prec=precision)
    if rounding is not None:
        ctx.rounding = rounding
    return ctx


def as_decimal(x: ScalarLike) -> Decimal:
    """Convert ``x`` to Decimal exactly (no rounding).

    Accepts Decimal, int, and decimal strings (scientific notation included).
    Floats are rejected: binary floats do not round-trip decimal strings.
    """
    if isinstance(x, Decimal):
        return x
    if isinstance(x, (int, str)):
        return Decimal(x)
    raise TypeError(f"expected Decimal, int or decimal string, got {type(x).__name__}")


def as_fraction(x: NumberLike) -> Fraction:
    """Convert ``x`` to an exact Fraction (Decimal conversion is exact)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (Decimal, int)):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(Decimal(x))
    raise TypeError(f"expected Fraction, Decimal, int or decimal string, got {type(x).__name__}")


_LOG10_2 = math.log10(2)


def _short_ratio(num: int, den: int, digits: int) -> tuple[Decimal, Decimal]:
    """(M, 10^(m+1)) as Decimals, M/10^(m+1) the sticky-digit cut of num/den.

    q = ⌊|num|·10^m/den⌋, one ``divmod``, has at least digits + 2 digits,
    and M = ±(10·q + s), signed as num, with s = 1 if the division left a
    remainder.  A context of p ≤ ``digits`` digits divides this pair to the
    same Decimal, in value and representation, as ``Decimal(num) /
    Decimal(den)``, in every rounding mode.  An inexact quotient drops at
    least two digits of M: half an ulp is a multiple of ten units of M's
    last place, and s ≠ 0 iff num/den goes on beyond q, so the dropped part
    is zero, below, at or above half an ulp exactly when num/den's is.  A
    quotient of at most p digits is exact in q (s = 0), and as both pairs
    are integers of exponent 0 both keep the ideal exponent 0: hence the
    divisor is the integer 10^(m+1), not ``1E+m``.  den > 0; m comes from
    the bit lengths, with one guard digit for their one-bit slack.  Brent
    and Zimmermann, *Modern Computer Arithmetic*, ch. 3.
    """
    # ⌊log10(|num|/den)⌋ ≥ e − 1, the − 1 taken up by the guard digit
    e = math.floor((abs(num).bit_length() - den.bit_length()) * _LOG10_2)
    m = max(0, digits + 2 - e)
    q, r = divmod(abs(num) * 10**m, den)
    cut = 10 * q + (r != 0)
    return Decimal(-cut if num < 0 else cut), Decimal(10 ** (m + 1))


def decimal_from_fraction(value: Fraction, precision: int, rounding: str) -> Decimal:
    """Round an exact rational to a Decimal in the given direction.

    Equal to ``Decimal(numerator) / Decimal(denominator)`` in that context,
    representation included, but divides the short :func:`_short_ratio`
    pair, so its cost does not grow with the operands' digits.
    """
    return _context(precision, rounding).divide(
        *_short_ratio(value.numerator, value.denominator, precision)
    )


@dataclass(frozen=True)
class Bound:
    """An enclosure ``[lo, hi]`` of a real number.

    A container only: whoever builds a Bound rounds its ends outward, the
    lower one down and the upper one up, so the true value lies inside.
    """

    lo: Decimal
    hi: Decimal

    def __post_init__(self) -> None:
        if self.lo.is_nan() or self.hi.is_nan():
            raise ValueError("Bound endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"Bound endpoints out of order: {self.lo} > {self.hi}")

    @classmethod
    def from_fraction_pair(cls, lo: Fraction, hi: Fraction, precision: int) -> "Bound":
        """Bound [lo, hi] from exact rational endpoints, rounded outward."""
        if lo > hi:
            raise ValueError(f"endpoints out of order: {lo} > {hi}")
        return cls(
            decimal_from_fraction(lo, precision, ROUND_FLOOR),
            decimal_from_fraction(hi, precision, ROUND_CEILING),
        )

    def midpoint(self, precision: int) -> Decimal:
        with localcontext(_context(precision)):
            return (self.lo + self.hi) / 2

    def __repr__(self) -> str:  # compact: full precision stays available via .lo/.hi
        return f"Bound({self.lo}, {self.hi})"


class HypBounds(NamedTuple):
    """Certified enclosures of sinh, cosh and tanh at a common argument."""

    sinh: Bound
    cosh: Bound
    tanh: Bound


# ---------------------------------------------------------------------------
# exp / ln / sqrt enclosures
# ---------------------------------------------------------------------------


def _exp_taylor_integers(x: Fraction, n: int) -> tuple[int, int]:
    """(T, n!·qⁿ) with S_n(x) = sum_{k<=n} x^k / k! = T / (n!·qⁿ), x = p/q.

    The terms t_k = n!/k!·p^k·q^(n−k) follow from t_0 = n!·qⁿ by the exact
    division t_k = t_{k−1}·p // (q·k), and T = Σ t_k.  Not reduced.
    """
    p, q = x.numerator, x.denominator
    term = math.factorial(n) * q**n
    denominator = term
    total = term
    for k in range(1, n + 1):
        term = term * p // (q * k)
        total += term
    return total, denominator


def _exp_remainder(a: int, n: int) -> Fraction:
    """Taylor remainder cap a^(n+1) * 3^a / (n+1)! valid on [-a, a]."""
    return Fraction(a ** (n + 1) * 3**a, math.factorial(n + 1))


def exp_bounds(x: NumberLike, target_width: NumberLike) -> Bound:
    """Certified enclosure of e^x at most ``target_width`` = w wide, w its one
    accuracy parameter.

    S_n(x) ± a^(n+1)·3^a/(n+1)!, a = max(1, ⌈|x|⌉), at the least order n
    whose remainder :func:`_exp_remainder` (a, n) is at most w/4, found in
    integers as the least with a^(n+1)·3^a·den ≤ (n+1)!·num for w/4 =
    num/den, both sides grown one order at a time by a and n + 1.  The ends,
    at most e^a + w/4 < 3^a + w in size, are rounded outward at the digits
    whose ulp is at most 10^⌊log10(w/4)⌋: the width is at most w.  They are
    (T·(n+1) ∓ a^(n+1)·3^a·qⁿ) / ((n+1)!·qⁿ) over the unreduced integers of
    :func:`_exp_taylor_integers`; :func:`_short_ratio` rounds any
    representation of a value to the same Decimal, so no gcd is taken.
    """
    xf, tw = as_fraction(x), as_fraction(target_width)
    if tw <= 0:
        raise ValueError(f"target width must be positive, got {target_width}")
    a = max(1, math.ceil(abs(xf)))
    tn, td = tw.numerator, tw.denominator
    n = 0
    lhs, rhs = a * 3**a * 4 * td, tn
    while lhs > rhs:
        n += 1
        lhs, rhs = lhs * a, rhs * (n + 1)
    digits = max(1, _ratio_exponent(3**a * td + tn, td) - _ratio_exponent(tn, 4 * td) + 1)
    total, denominator = _exp_taylor_integers(xf, n)
    s = total * (n + 1)
    r = a ** (n + 1) * 3**a * xf.denominator**n
    den = denominator * (n + 1)
    return Bound(
        _context(digits, ROUND_FLOOR).divide(*_short_ratio(s - r, den, digits)),
        _context(digits, ROUND_CEILING).divide(*_short_ratio(s + r, den, digits)),
    )


def _classify_exp(t: Decimal, x: Fraction, width: Fraction) -> int:
    """Certified comparison of e^t against x: -1 if e^t < x, +1 if e^t > x.

    The only rational point with rational exponential is t = 0, handled by
    exact comparison (0 when e^0 = x exactly).  Elsewhere one
    :func:`exp_bounds` enclosure ``width`` wide decides; raises if it does
    not separate e^t from x.
    """
    if t == 0:
        if x == 1:
            return 0
        return -1 if x > 1 else 1
    enclosure = exp_bounds(t, width)
    if Fraction(enclosure.hi) <= x:
        return -1
    if Fraction(enclosure.lo) >= x:
        return 1
    raise CertificationError(
        f"exp enclosure at t = {t}, {width} wide, cannot separate e^t from {x}"
    )


def ln_bounds(x: NumberLike, target_width: NumberLike) -> Bound:
    """Certified enclosure [a, b] of ln x with b − a ≤ target_width.

    ``target_width`` = w is the one accuracy parameter: it sets the digits
    D = max(0, −⌊log10 w⌋) + 10 of the candidate and the endpoints, and the
    width of the checks.  The untrusted candidate is the library logarithm h
    at D digits.  With u = min(w, 1), the endpoints a = h − u/3 and
    b = h + u/3 are rounded outward at D digits and certified by
    e^a ≤ x ≤ e^b through :func:`_classify_exp`; if either check fails the
    candidate is rejected with :class:`CertificationError`.  The cap keeps
    both checks within 1/3 of ln x, as the cost of :func:`exp_bounds` at t
    grows with 3^⌈|t|⌉.

    Each check is one :func:`exp_bounds` enclosure x·u/3 wide, whose ends
    lie within 2·x·u/12 + x·u/12 = x·u/4 of e^t (remainder and ulp each at
    most x·u/12).  The endpoints lie u/3 from ln x, give or take the
    candidate's error δ, so e^a and e^b lie x·(1 − e^(δ−u/3)) or more from
    x, above x·u/4 unless |δ| ≥ u/22: far above that error.
    """
    xf = as_fraction(x)
    if xf <= 0:
        raise ValueError(f"ln is only defined for positive x, got {x}")
    tw = as_fraction(target_width)
    if tw <= 0:
        raise ValueError(f"target width must be positive, got {target_width}")

    digits = max(0, -_fraction_exponent(tw)) + 10
    with localcontext(_context(digits)):
        hint = Fraction((Decimal(xf.numerator) / Decimal(xf.denominator)).ln())
    u = min(tw, Fraction(1))
    lo = decimal_from_fraction(hint - u / 3, digits, ROUND_FLOOR)
    hi = decimal_from_fraction(hint + u / 3, digits, ROUND_CEILING)
    width = xf * u / 3
    if _classify_exp(lo, xf, width) > 0 or _classify_exp(hi, xf, width) < 0:
        raise CertificationError(f"candidate enclosure [{lo}, {hi}] of ln {x} failed verification")
    return Bound(lo, hi)


def _fraction_exponent(x: Fraction) -> int:
    """floor(log10 x) for a positive rational, by :func:`_ratio_exponent`."""
    if x <= 0:
        raise ValueError("expected a positive rational")
    return _ratio_exponent(x.numerator, x.denominator)


def _ratio_exponent(n: int, d: int) -> int:
    """floor(log10 x), x = n/d, for positive integers, exact: the bit lengths
    of n and d set log10 x to within log10 2, so e = ⌊(difference)·log10 2⌋
    is within one of the answer, and exact integer comparisons of x against
    10^e and 10^(e+1) step it there."""

    def below(e: int) -> bool:  # x < 10^e
        return n < d * 10**e if e >= 0 else n * 10**-e < d

    e = math.floor((n.bit_length() - d.bit_length()) * _LOG10_2)
    while below(e):
        e -= 1
    while not below(e + 1):
        e += 1
    return e


def _round_significant(x: Fraction, digits: int, up: bool) -> Fraction:
    """x rounded to ``digits`` significant decimals, toward +∞ if ``up``
    else toward −∞, exactly; 0 stays 0."""
    if x == 0:
        return x
    quantum = Fraction(10) ** (_fraction_exponent(abs(x)) - digits + 1)
    steps = x / quantum
    return (math.ceil(steps) if up else math.floor(steps)) * quantum


def sqrt_bounds(x: NumberLike, precision: int) -> Bound:
    """Certified enclosure [s, s + 1]·10^−k of √x from one integer square root.

    ``precision`` = p is the one accuracy parameter: s = ⌊√x·10^k⌋ =
    isqrt(⌊x·10^(2k)⌋), exact as ⌊√⌊y⌋⌋ = ⌊√y⌋, has p significant digits,
    so the width is 10^(e + 1 − p) with e = ⌊log10 √x⌋.  If s² = x·10^(2k),
    the enclosure is the point s·10^−k.  Brent and Zimmermann, *Modern
    Computer Arithmetic*, ch. 1.
    """
    xf = as_fraction(x)
    if xf < 0:
        raise ValueError(f"sqrt is only defined for x >= 0, got {x}")
    if xf == 0:
        return Bound(Decimal(0), Decimal(0))
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")

    e = _fraction_exponent(xf) // 2  # floor(log10 √x)
    k = precision - 1 - e
    num, den = xf.numerator * 100 ** max(k, 0), xf.denominator * 100 ** max(-k, 0)
    s = math.isqrt(num // den)
    # scaleb in a context wide enough for s + 1 is exact (no int-to-str limit)
    exact = Context(prec=precision + 1)
    lo = exact.scaleb(Decimal(s), -k)
    if s * s * den == num:
        return Bound(lo, lo)
    return Bound(lo, exact.scaleb(Decimal(s + 1), -k))


# ---------------------------------------------------------------------------
# hyperbolic function enclosures (from exp_bounds, range [-3, 3])
# ---------------------------------------------------------------------------


def hyp_bounds(x: NumberLike, precision: int) -> HypBounds:
    """Certified sinh/cosh/tanh enclosures for |x| ≤ 3, ``precision`` = p
    digits the one accuracy parameter.

    Built from :func:`exp_bounds` enclosures [P⁻, P⁺] ∋ eˣ and [M⁻, M⁺] ∋ e⁻ˣ
    10^−max(p, 2) wide: sinh ∈ [(P⁻ − M⁺)/2, (P⁺ − M⁻)/2], cosh ∈ [(P⁻ + M⁻)/2,
    (P⁺ + M⁺)/2], and tanh ∈ [(P⁻ − M⁺)/(P⁻ + M⁺), (P⁺ − M⁻)/(P⁺ + M⁻)],
    since (u − v)/(u + v) rises in u and falls in v for u, v > 0 (both lower
    ends are positive: the width is below e⁻³).  Rounded outward at p digits,
    each is under 3·10^(2−p) wide.  Arguments outside [−3, 3] are rejected;
    the caller must rescale.
    """
    xf = as_fraction(x)
    if abs(xf) > 3:
        raise ValueError(f"hyp_bounds only covers [-3, 3], got {x}")
    width = Fraction(1, 10 ** max(precision, 2))
    plus = exp_bounds(xf, width)
    minus = exp_bounds(-xf, width)
    p_lo, p_hi = Fraction(plus.lo), Fraction(plus.hi)
    m_lo, m_hi = Fraction(minus.lo), Fraction(minus.hi)
    return HypBounds(
        sinh=Bound.from_fraction_pair((p_lo - m_hi) / 2, (p_hi - m_lo) / 2, precision),
        cosh=Bound.from_fraction_pair((p_lo + m_lo) / 2, (p_hi + m_hi) / 2, precision),
        tanh=Bound.from_fraction_pair(
            (p_lo - m_hi) / (p_lo + m_hi), (p_hi - m_lo) / (p_hi + m_lo), precision
        ),
    )


# ---------------------------------------------------------------------------
# pi and the high-precision (non-certified) arccos
# ---------------------------------------------------------------------------


def _machin_arctan_inv_scaled(m: int, scale: int) -> int:
    """arctan(1/m)·scale within (#terms + 1) units, scale a power of 10 or of 2.

    The alternating series in integers: each term is floored (under 1 unit)
    and the tail is below the first omitted term.
    """
    total = k = 0
    while term := scale // ((2 * k + 1) * m ** (2 * k + 1)):
        total += -term if k % 2 else term
        k += 1
    return total


@functools.lru_cache(maxsize=32)
def _machin_pi(scale: int) -> int:
    """π·scale = (16·arctan(1/5) − 4·arctan(1/239))·scale within 20·(#terms + 1) units."""
    return 16 * _machin_arctan_inv_scaled(5, scale) - 4 * _machin_arctan_inv_scaled(239, scale)


@functools.lru_cache(maxsize=16)
def pi_hp(precision: int) -> Decimal:
    """π to the requested precision: :func:`_machin_pi` at scale 10^(precision+15),
    whose error of 20·(#terms + 1) units stays below 10^−(precision+8)."""
    scale = 10 ** (precision + 15)
    with localcontext(_context(precision + 9)):
        return Decimal(_machin_pi(scale)) / Decimal(scale)


def two_pi(precision: int) -> Decimal:
    """2π at the requested precision (shared by the cone-defect code)."""
    with localcontext(_context(precision + 5)):
        return 2 * pi_hp(precision)


#: Half-angle steps before the arctan series (u ≤ 1 becomes u ≤ tan(π/2^10)).
_HALVINGS = 8


def _arctan_fixed(u: int, bits: int) -> int:
    """arctan(u/2^bits)·2^bits for 0 ≤ u ≤ 2^bits, in binary fixed point.

    :data:`_HALVINGS` steps of arctan u = 2·arctan(u/(1 + √(1 + u²))), one
    isqrt each, bring u below tan(π/2^10) < 0.0031, and the alternating
    series then gains over 16 bits per term.  Each step halves the error it
    is given and adds under 2 units, as does each of the T terms, so an
    input error of e units leaves 2^_HALVINGS·(2T + 5) + e units at most.
    """
    one = 1 << bits
    one_sq = one * one
    for _ in range(_HALVINGS):
        u = (u << bits) // (one + math.isqrt(one_sq + u * u))
    u_sq = (u * u) >> bits
    total = power = u
    k = 1
    while power := (power * u_sq) >> bits:
        term = power // (2 * k + 1)
        total += -term if k % 2 else term
        k += 1
    return total << _HALVINGS


def arccos_hp(x: ScalarLike, precision: int) -> Decimal:
    """High-precision arccos with accuracy |err| ≤ 10^(2−p) at precision p.

    θ = atan2(√(1 − x²), x) in units of 2^−B, B = ⌈(p + 10)·log₂10⌉ + 64:
    X = x·2^B and S = (1 − x²)·4^B are truncated from the exact x, s = ⌊√S⌋,
    and θ = arctan(s/|X|) or π/2 − arctan(|X|/s), whichever ratio is ≤ 1,
    reflected to π − θ when X < 0.  The ratio is within 6 units; the arctan
    and Machin's π add under 64·B, and 64·B·2^−B < 10^−(p+10), so the one
    rounding to p digits, at most 10^(2−p)/20, dominates the error.
    """
    xd = as_decimal(x)
    if not (-1 <= xd <= 1):
        raise ValueError(f"arccos is only defined on [-1, 1], got {x}")
    ctx = _context(precision)
    bits = math.ceil((precision + 10) * math.log2(10)) + 64
    one = 1 << bits
    scale = Decimal(one)
    # X and S come from the exact x at twice the digits of 2^B, so s stays
    # accurate where x lies within 2^−B of ±1; no power of ten is built
    wide = Context(prec=2 * scale.adjusted() + 4, rounding=ROUND_DOWN)
    fixed = int(wide.multiply(xd, scale))
    a = abs(fixed)
    s = math.isqrt(int(wide.multiply(wide.fma(xd, xd.copy_negate(), 1), wide.multiply(scale, scale))))
    pi = _machin_pi(one)
    if a >= s:
        theta = _arctan_fixed((s << bits) // a, bits)
    else:
        theta = (pi >> 1) - _arctan_fixed((a << bits) // s, bits)
    if fixed < 0:
        theta = pi - theta
    return ctx.divide(Decimal(theta), scale)
