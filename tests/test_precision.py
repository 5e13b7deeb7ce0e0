"""Tests for the certified-arithmetic layer.

Expected values marked FROZEN were computed by the independent oracles in
``tests/oracles.py`` (exact rational bisection with explicit Taylor
remainders); the oracle enclosures are embedded as outward-rounded decimal
strings so every containment check below is an exact rational comparison.
"""

from __future__ import annotations

import contextlib
import math
import random
import time
from decimal import (
    ROUND_CEILING,
    ROUND_DOWN,
    ROUND_FLOOR,
    ROUND_HALF_EVEN,
    ROUND_UP,
    Context,
    Decimal,
    localcontext,
)
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import kleincert.jacobian as jacobian_module
import kleincert.klein as klein_module
import kleincert.precision as precision_module
from kleincert.jacobian import crude_bounds, dtheta_enclosure
from kleincert.mesh import cone_angle
from kleincert.search import SearchConfig, newton_refine
from kleincert.precision import (
    Bound,
    CertificationError,
    arccos_hp,
    exp_bounds,
    hyp_bounds,
    ln_bounds,
    pi_hp,
    sqrt_bounds,
)

import oracles

# FROZEN by oracles.ln_enclosure(Fraction(2), Fraction(1, 10**45)), rounded outward.
LN2_LO = Fraction(Decimal("0.693147180559945309417232121458176568075500"))
LN2_HI = Fraction(Decimal("0.693147180559945309417232121458176568075501"))

# FROZEN by oracles.sqrt_enclosure(Fraction(2), Fraction(1, 10**45)), rounded outward.
SQRT2_LO = Fraction(Decimal("1.414213562373095048801688724209698078569671"))
SQRT2_HI = Fraction(Decimal("1.414213562373095048801688724209698078569672"))

# FROZEN by oracles.arccos_enclosure(Fraction(1, 2), Fraction(1, 10**45)), rounded outward.
ARCCOS_HALF_LO = Fraction(Decimal("1.047197551196597746154214461093167628065723"))
ARCCOS_HALF_HI = Fraction(Decimal("1.047197551196597746154214461093167628065724"))


def contains_enclosure(bound: Bound, lo: Fraction, hi: Fraction) -> bool:
    """True iff the Bound contains the whole oracle enclosure [lo, hi]."""
    return Fraction(bound.lo) <= lo and hi <= Fraction(bound.hi)


# ---------------------------------------------------------------------------
# exp_bounds
# ---------------------------------------------------------------------------


def test_exp_bounds_at_zero():
    b = exp_bounds(0, Fraction(1, 10**30))
    assert Fraction(b.lo) <= 1 <= Fraction(b.hi)
    assert Fraction(b.hi) - Fraction(b.lo) <= Fraction(1, 10**30)


def test_exp_bounds_at_two_contains_e_squared():
    b = exp_bounds(2, Fraction(2, 10**10))
    lo, hi = oracles.exp_enclosure(Fraction(2), n=200)
    assert contains_enclosure(b, lo, hi)
    assert Fraction(b.hi) - Fraction(b.lo) <= Fraction(2, 10**10)


def test_exp_bounds_at_three_contains_e_cubed():
    b = exp_bounds(3, Fraction(2, 10**8))
    lo, hi = oracles.exp_enclosure(Fraction(3), n=200)
    assert contains_enclosure(b, lo, hi)
    assert Fraction(b.hi) - Fraction(b.lo) <= Fraction(2, 10**8)


def test_exp_bounds_rejects_a_nonpositive_width():
    for width in (0, -1, "-1e-8"):
        with pytest.raises(ValueError):
            exp_bounds(1, width)


def test_exp_bounds_overlap_ordering_is_monotone():
    # x <= y implies lo(e^x) <= hi(e^y): enclosures cannot cross in reverse.
    rng = random.Random(20260814)
    for _ in range(50):
        x = Fraction(rng.randint(-300, 300), 100)
        y = x + Fraction(rng.randint(0, 200), 100)
        bx = exp_bounds(Decimal(x.numerator) / Decimal(x.denominator), Fraction(1, 10**8))
        by = exp_bounds(Decimal(y.numerator) / Decimal(y.denominator), Fraction(1, 10**8))
        assert bx.lo <= by.hi


# ---------------------------------------------------------------------------
# ln_bounds
# ---------------------------------------------------------------------------


def test_ln_bounds_at_one_contains_zero():
    b = ln_bounds(1, "1e-30")
    assert Fraction(b.lo) <= 0 <= Fraction(b.hi)
    assert Fraction(b.hi) - Fraction(b.lo) <= Fraction(1, 10**30)


def test_ln_bounds_of_six_point_three_within_two():
    # e^2 >= 2.7^2 >= 7.2 >= 6.3, so ln 6.3 lies in [-2, 2].
    b = ln_bounds("6.3", "1e-2")
    assert Fraction(-2) <= Fraction(b.lo) and Fraction(b.hi) <= Fraction(2)
    assert Fraction(b.hi) - Fraction(b.lo) <= Fraction(1, 10**2)


def test_ln_bounds_of_two_contains_ln2():
    b = ln_bounds(2, "1e-30")
    assert contains_enclosure(b, LN2_LO, LN2_HI)
    assert Fraction(b.hi) - Fraction(b.lo) <= Fraction(1, 10**30)


def test_ln_bounds_endpoints_are_certified():
    # The defining property: e^lo <= x <= e^hi, certified through the oracle
    # (its n=200 enclosures are far tighter than the bisection step size).
    b = ln_bounds(2, "1e-10")
    _, lo_hi = oracles.exp_enclosure(Fraction(b.lo), n=200)
    hi_lo, _ = oracles.exp_enclosure(Fraction(b.hi), n=200)
    assert lo_hi <= 2
    assert hi_lo >= 2


def test_ln_bounds_rejects_nonpositive():
    with pytest.raises(ValueError):
        ln_bounds(0, "1e-2")
    with pytest.raises(ValueError):
        ln_bounds(-1, "1e-2")


@settings(max_examples=30, deadline=None)
@given(
    x=st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6),
    k=st.integers(min_value=2, max_value=30),
)
def test_ln_bounds_contains_ln_on_generated_inputs(x, k):
    tw = Fraction(1, 10**k)
    b = ln_bounds(x, tw)
    assert Fraction(b.hi) - Fraction(b.lo) <= tw
    _, exp_lo_hi = oracles.exp_enclosure(Fraction(b.lo))
    exp_hi_lo, _ = oracles.exp_enclosure(Fraction(b.hi))
    assert exp_lo_hi <= x <= exp_hi_lo


@settings(max_examples=30, deadline=None)
@given(
    x=st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6),
    tw=st.fractions(min_value=1, max_value=30, max_denominator=100),
)
def test_ln_bounds_contains_ln_at_widths_above_one(x, tw):
    b = ln_bounds(x, tw)
    assert Fraction(b.hi) - Fraction(b.lo) <= tw
    _, exp_lo_hi = oracles.exp_enclosure(Fraction(b.lo))
    exp_hi_lo, _ = oracles.exp_enclosure(Fraction(b.hi))
    assert exp_lo_hi <= x <= exp_hi_lo


def test_ln_bounds_of_two_at_width_thirty():
    b = ln_bounds(2, 30)
    # above width 1 the endpoints lie 1/3 from ln 2, as at width 1
    assert 0 < b.lo and Fraction(b.hi) - Fraction(b.lo) <= 1
    assert contains_enclosure(b, LN2_LO, LN2_HI)


@settings(max_examples=40, deadline=None)
@given(
    x=st.one_of(
        st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6),
        st.builds(
            lambda m, e: m * Fraction(10) ** e,
            st.integers(min_value=1, max_value=10**6),
            st.integers(min_value=-15, max_value=15),
        ),
    ),
    width=st.builds(
        lambda m, k: Fraction(m) / Fraction(10) ** k,
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=-1, max_value=80),
    ),
    precision=st.sampled_from([80, 400]),
)
@example(x=Fraction(2), width=Fraction(1, 10**70), precision=80)
def test_ln_bounds_equals_the_reference_body(x, width, precision):
    # the replaced body, which also took precision, wherever it accepts the
    # width: both certify, and their endpoints are equal digit for digit;
    # above width 1 ln_bounds is that body's enclosure of width 1
    try:
        want = oracles.ln_bounds_reference(x, min(width, Fraction(1)), precision)
    except ValueError:
        assume(False)  # a width below what that precision could resolve
    got = ln_bounds(x, width)
    assert (got.lo.as_tuple(), got.hi.as_tuple()) == (want[0].as_tuple(), want[1].as_tuple())


@settings(max_examples=60, deadline=None)
@given(
    x=st.fractions(min_value=-50, max_value=50, max_denominator=10**30),
    n=st.sampled_from((0, 1, 20, 40, 80, 160)),
)
def test_exp_taylor_fraction_equals_the_fraction_loop(x, n):
    got = Fraction(*precision_module._exp_taylor_integers(x, n))
    want = oracles.exp_partial_sum(x, n)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_exp_taylor_fraction_sign_and_order_cases():
    for x in (Fraction(-7, 3), Fraction(-1, 10**20), Fraction(0), Fraction(5, 7 * 10**6)):
        for n in (0, 1, 20, 40, 80, 160):
            got = Fraction(*precision_module._exp_taylor_integers(x, n))
            assert got == oracles.exp_partial_sum(x, n)


def test_ln_bounds_certifies_exactly_two_endpoints(monkeypatch):
    calls = []
    real = precision_module._classify_exp

    def counting(t, x, width):
        calls.append(t)
        return real(t, x, width)

    monkeypatch.setattr(precision_module, "_classify_exp", counting)
    b = ln_bounds(2, "1e-30")
    assert calls == [b.lo, b.hi]


def _record_taylor_orders(monkeypatch) -> list:
    """Record (a, n) of every Taylor sum ``exp_bounds`` takes, a = max(1, ⌈|x|⌉)."""
    orders = []
    real = precision_module._exp_taylor_integers

    def recording(x, n):
        orders.append((max(1, math.ceil(abs(x))), n))
        return real(x, n)

    monkeypatch.setattr(precision_module, "_exp_taylor_integers", recording)
    return orders


def test_ln_bounds_sums_one_taylor_series_per_endpoint(monkeypatch):
    orders = _record_taylor_orders(monkeypatch)
    ln_bounds(2, Fraction(1, 10**30))
    # ln 2 < 1, so both endpoints sum at a = 1, to the least order n with
    # 3/(n+1)! <= 2·10⁻³⁰/12
    tolerance = Fraction(2, 12 * 10**30)
    assert precision_module._exp_remainder(1, 29) <= tolerance < precision_module._exp_remainder(1, 28)
    assert orders == [(1, 29), (1, 29)]


def test_ln_bounds_above_width_one_sums_the_series_of_width_one(monkeypatch):
    orders = _record_taylor_orders(monkeypatch)
    at_one = ln_bounds(2, 1)
    width_one_orders = list(orders)
    # at h ± w/3 the upper check would sum e^t at t = ⌈ln 2 + 1000⌉
    for w in (2, 300, 3000):
        orders.clear()
        b = ln_bounds(2, w)
        assert orders == width_one_orders
        assert max(a for a, _ in orders) == 2
        assert (str(b.lo), str(b.hi)) == (str(at_one.lo), str(at_one.hi))
        assert mpmath.mpf(str(b.lo)) < mpmath.log(2) < mpmath.mpf(str(b.hi))
        assert Fraction(b.hi) - Fraction(b.lo) <= 1


def _order_of_the_remainder_loop(a, tolerance):
    """The order search ``exp_bounds`` replaced: one Fraction per order."""
    n = 0
    while precision_module._exp_remainder(a, n) > tolerance:
        n += 1
    return n


def test_exp_bounds_picks_the_order_of_the_remainder_loop(monkeypatch):
    orders = _record_taylor_orders(monkeypatch)
    tolerances = {a: [Fraction(1, 10**k) for k in range(1, 81)] for a in range(1, 6)}
    for a in range(1, 6):
        # the boundary: tolerance equal to a remainder, and just either side of it
        for n in range(0, 90, 3):
            r = precision_module._exp_remainder(a, n)
            tolerances[a] += [r, r * (1 - Fraction(1, 10**30)), r * (1 + Fraction(1, 10**30))]
    expected = []
    for a, values in tolerances.items():
        for tolerance in values:
            exp_bounds(Decimal(a), 4 * tolerance)
            expected.append((a, _order_of_the_remainder_loop(a, tolerance)))
    assert orders == expected


@settings(max_examples=120, deadline=None)
@given(
    a=st.integers(min_value=1, max_value=6),
    data=st.data(),
    w=st.sampled_from(
        [Fraction(30), Fraction(1, 3), Fraction(7, 10**5), Fraction(1, 10**30), Fraction(1, 10**80)]
    ),
)
def test_exp_bounds_equals_the_reduced_fraction_rounding(a, data, w):
    # S_n ∓ R as reduced Fractions, at the order of the remainder loop,
    # rounded outward at the digits that put the ulp of 3^a + w at or below
    # 10^⌊log10(w/4)⌋; as_tuple tells Decimals of equal value apart
    x = data.draw(st.fractions(min_value=-a, max_value=a, max_denominator=10**30))
    a = max(1, math.ceil(abs(x)))
    n = _order_of_the_remainder_loop(a, w / 4)
    p = max(1, oracles.fraction_exponent(3**a + w) - oracles.fraction_exponent(w / 4) + 1)
    s = oracles.exp_partial_sum(x, n)
    r = precision_module._exp_remainder(a, n)
    got = exp_bounds(x, w)
    assert Fraction(got.hi) - Fraction(got.lo) <= w
    lo, hi = s - r, s + r
    want_lo = oracles.decimal_quotient_reference(lo.numerator, lo.denominator, p, ROUND_FLOOR)
    want_hi = oracles.decimal_quotient_reference(hi.numerator, hi.denominator, p, ROUND_CEILING)
    assert got.lo.as_tuple() == want_lo.as_tuple()
    assert got.hi.as_tuple() == want_hi.as_tuple()


def test_ln_bounds_rejects_a_candidate_that_fails_verification(monkeypatch):
    # claim e^t > x for every t: the lower endpoint can no longer be certified
    monkeypatch.setattr(precision_module, "_classify_exp", lambda t, x, width: 1)
    with pytest.raises(CertificationError, match="ln 2"):
        ln_bounds(2, "1e-10")


def test_ln_exp_roundtrip():
    rng = random.Random(7)
    for _ in range(10):
        x = Fraction(rng.randint(-200, 200), 100)
        ex = exp_bounds(Decimal(x.numerator) / Decimal(x.denominator), Fraction(1, 10**30))
        back = ln_bounds(ex.midpoint(40), "1e-9")
        # The round trip must land within 1e-8 of x.
        assert Fraction(back.lo) - Fraction(1, 10**8) <= x <= Fraction(back.hi) + Fraction(
            1, 10**8
        )


# ---------------------------------------------------------------------------
# sqrt_bounds
# ---------------------------------------------------------------------------


def test_sqrt_bounds_exact_square_collapses():
    b = sqrt_bounds(4, 30)
    assert b.lo == b.hi == Decimal(2)


def test_sqrt_bounds_zero():
    b = sqrt_bounds(0, 30)
    assert b.lo == b.hi == Decimal(0)


def test_sqrt_bounds_of_two():
    b = sqrt_bounds(2, 33)  # one ulp is 10⁻³²
    # The exact squaring inequality certifies that the Bound contains sqrt(2);
    # overlap with the frozen oracle enclosure cross-checks the location.
    assert Fraction(b.lo) ** 2 <= 2 <= Fraction(b.hi) ** 2
    assert Fraction(b.lo) <= SQRT2_HI and SQRT2_LO <= Fraction(b.hi)
    assert Fraction(b.hi) - Fraction(b.lo) <= Fraction(1, 10**32)


def test_sqrt_bounds_defining_inequality_holds_exactly():
    rng = random.Random(11)
    for _ in range(50):
        x = Fraction(rng.randint(1, 10**12), rng.randint(1, 10**6))
        b = sqrt_bounds(x, 30)
        assert Fraction(b.lo) ** 2 <= x <= Fraction(b.hi) ** 2


def test_sqrt_bounds_rejects_negative():
    with pytest.raises(ValueError):
        sqrt_bounds(-1, 30)


def _digits_for(x: Fraction, width: Fraction | None, p: int) -> int:
    """p, or the fewest digits whose ulp at √x is at most ``width`` if that
    is more: ⌊log10 √x⌋ + 1 − ⌊log10 width⌋."""
    if width is None:
        return p
    return max(p, oracles.fraction_exponent(x) // 2 + 1 - oracles.fraction_exponent(width))


def _check_integer_root(bound: Bound, x: Fraction, p: int) -> None:
    """``bound`` is [s, s + 1]·10^−k with s²·den ≤ num·10^(2k) < (s + 1)²·den
    and s of p digits.  An exact square is the point s·10^−k itself."""
    lo, hi = Fraction(bound.lo), Fraction(bound.hi)
    if lo == hi:
        assert lo * lo == x
        return
    k = -oracles.fraction_exponent(hi - lo)
    assert hi - lo == Fraction(10) ** -k
    s = lo * Fraction(10) ** k
    assert s.denominator == 1
    s = s.numerator
    scaled = x.numerator * Fraction(10) ** (2 * k)
    assert s * s * x.denominator <= scaled < (s + 1) ** 2 * x.denominator
    assert 10 ** (p - 1) <= s < 10**p


def _check_against_stepped(x: Fraction, width: Fraction | None, p: int) -> None:
    """``sqrt_bounds`` against ``oracles.sqrt_bounds_stepped``, the body it replaced.

    That body took a width as well as p and raised its digits until it met
    the width; ``sqrt_bounds`` is given the digits :func:`_digits_for` that
    width, D.  Where the reference is one ulp wide at the digits it ends on,
    the integer root at those digits equals it; where it is wider, it lies
    inside.  A raised reference repeats at 16 or more extra digits, so it
    can end on more than D, and there the integer-root conditions decide.
    Where it is the point √x, a finite decimal of more than D digits, the
    D-digit enclosure holds that point.
    """
    digits = _digits_for(x, width, p)
    new = sqrt_bounds(x, digits)
    _check_integer_root(new, x, digits)
    if width is not None:
        assert Fraction(new.hi) - Fraction(new.lo) <= width
    old_lo, old_hi = oracles.sqrt_bounds_stepped(x, width, p)
    if old_lo == old_hi:
        assert new.lo <= old_lo <= new.hi
        if width is None:
            assert new.lo == new.hi
        return
    ended = max(len(old_lo.as_tuple().digits), len(old_hi.as_tuple().digits))
    same = sqrt_bounds(x, ended)
    if Context(prec=ended).next_plus(old_lo) == old_hi:
        assert (same.lo, same.hi) == (old_lo, old_hi)
    else:
        assert old_lo <= same.lo and same.hi <= old_hi
    if ended == digits:
        assert (new.lo, new.hi) == (same.lo, same.hi)


_POSITIVE_RATIONALS = st.one_of(
    st.fractions(min_value=0, max_value=10**12, max_denominator=10**30).filter(lambda r: r > 0),
    st.fractions(min_value=0, max_value=10**6, max_denominator=10**15)
    .filter(lambda r: r > 0)
    .map(lambda r: r * r),
    st.builds(
        lambda m, e: m * Fraction(10) ** e,
        st.integers(min_value=1, max_value=10**40),
        st.integers(min_value=-320, max_value=320),
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    x=_POSITIVE_RATIONALS,
    width=st.one_of(
        st.none(),
        st.builds(
            lambda m, k: Fraction(m) / Fraction(10) ** k,
            st.integers(min_value=1, max_value=9),
            st.integers(min_value=-5, max_value=80),
        ),
    ),
    p=st.sampled_from([1, 5, 20, 60]),
)
@example(x=Fraction(441, 4), width=Fraction(1), p=1)  # two digits meet the width; √x = 10.5
def test_sqrt_bounds_agrees_with_the_stepped_reference(x, width, p):
    _check_against_stepped(x, width, p)


#: The width each call site passed while sqrt_bounds also took one, from
#: the digits p it passes: distance's w/4 at the default w = 10⁻⁸, angle's
#: 10^−(p+2) at p + 10 digits, the Jacobian's default 10⁻⁴⁰, and Newton's
#: 10^−min(P/2, 150) at P digits.
_CALL_SITE_WIDTHS = {
    "distance": lambda p: Fraction(1, 4 * 10**8),
    "angle": lambda p: Fraction(1, 10 ** (p - 8)),
    "dtheta_enclosure": lambda p: Fraction(1, 10**40),
    "newton": lambda p: Fraction(1, 10 ** min(p // 2, 150)),
}


def test_sqrt_bounds_agrees_with_the_stepped_reference_on_the_candidate(
    candidate_surface, refine_input, monkeypatch
):
    # the digits every call site passes already meet the width it used to
    # pass, so dropping the width changed no enclosure
    calls = []
    site = {}

    def recorder(module):
        def recording(x, p):
            calls.append((site[module], Fraction(x), p))
            return sqrt_bounds(x, p)

        return recording

    monkeypatch.setattr(klein_module, "sqrt_bounds", recorder("klein"))
    monkeypatch.setattr(jacobian_module, "sqrt_bounds", recorder("jacobian"))
    site["klein"] = "distance"
    crude_bounds(candidate_surface)
    assert len(calls) == 36  # one chord per edge
    site["klein"] = "angle"
    for digits in (60, 410):
        for i in range(len(candidate_surface.coords)):
            cone_angle(candidate_surface, i, digits)
    assert len(calls) == 36 + 2 * 72  # one corner A per corner and precision
    site["jacobian"] = "dtheta_enclosure"
    dtheta_enclosure(candidate_surface, 60)
    assert len(calls) == 36 + 3 * 72
    site["jacobian"] = "newton"
    newton_refine(refine_input, SearchConfig(max_steps=1))
    assert len(calls) == 36 + 6 * 72  # two defect maps and one Jacobian
    for tag, x, p in calls:
        width = _CALL_SITE_WIDTHS[tag](p)
        assert _digits_for(x, width, p) == p  # p digits already meet the width
        got = sqrt_bounds(x, p)
        assert (got.lo, got.hi) == oracles.sqrt_bounds_stepped(x, width, p), (tag, p)


@pytest.mark.parametrize(
    "x",
    [
        # √x just below a power of ten: the upper end is that power
        *(Fraction(10 ** (2 * j) - 1) for j in (1, 3, 30, 200)),
        *(Fraction(10 ** (2 * j) - 1, 10 ** (4 * j)) for j in (1, 30)),
        # exact squares with more digits than the precision
        Fraction(123456789012345678901234567**2),
        Fraction(987654321987654321**2, 10**40),
        Fraction(1, 10**300),
        Fraction(10**300),
    ],
)
@pytest.mark.parametrize("p", [1, 5, 60])
@pytest.mark.parametrize("width", [None, Fraction(1, 10**30)])
def test_sqrt_bounds_edge_cases(x, p, width):
    _check_against_stepped(x, width, p)


def test_sqrt_bounds_straddles_a_root_the_width_does_not_force_or_that_never_ends():
    # √(441/4) = 10.5 needs three digits: at one or two the enclosure straddles it
    b = sqrt_bounds(Fraction(441, 4), 1)
    assert (b.lo, b.hi) == (Decimal(10), Decimal(20))
    b = sqrt_bounds(Fraction(441, 4), 2)
    assert (b.lo, b.hi) == (Decimal(10), Decimal(11))
    assert sqrt_bounds(Fraction(441, 4), 3) == Bound(Decimal("10.5"), Decimal("10.5"))
    # √x is no finite decimal: digits enough for an ulp of 10⁻⁵ give exactly that
    for x, p in ((Fraction(4, 9), 5), (Fraction(2, 25), 5), (Fraction(441, 8), 6)):
        b = sqrt_bounds(x, p)
        assert Fraction(b.hi) - Fraction(b.lo) == Fraction(1, 10**5)
        assert Fraction(b.lo) ** 2 < x < Fraction(b.hi) ** 2


def test_sqrt_bounds_beyond_the_int_to_str_digit_limit():
    # integers of more than 4300 digits cannot be printed in base 10 by
    # default; the kernel never does
    big = Fraction(7**20000)
    b = sqrt_bounds(big, 5)
    assert Fraction(b.lo) ** 2 <= big <= Fraction(b.hi) ** 2
    b = sqrt_bounds(2, 5001)
    assert Fraction(b.lo) ** 2 <= 2 <= Fraction(b.hi) ** 2
    assert Fraction(b.hi) - Fraction(b.lo) == Fraction(1, 10**5000)


def test_sqrt_bounds_argument_checks_keep_their_order():
    with pytest.raises(ValueError, match="x >= 0"):
        sqrt_bounds(-1, 0)
    assert sqrt_bounds(0, 0) == Bound(Decimal(0), Decimal(0))
    with pytest.raises(ValueError, match="precision must be >= 1"):
        sqrt_bounds(2, 0)


@settings(max_examples=200, deadline=None)
@given(
    x=st.one_of(
        _POSITIVE_RATIONALS,
        st.integers(min_value=-400, max_value=400).map(lambda e: Fraction(10) ** e),
        st.integers(min_value=-400, max_value=400).map(
            lambda e: Fraction(10) ** e - Fraction(1, 10**500)
        ),
        st.builds(
            lambda e, s: Fraction(10) ** e + s * Fraction(1, 10**400),
            st.integers(min_value=-299, max_value=299),
            st.sampled_from((1, -1)),
        ),
        # about 3,000 digits above and below the bar
        st.builds(
            lambda a, b: Fraction(a * 7**3550, b * 3**6290 + 1),
            st.integers(min_value=1, max_value=10**6),
            st.integers(min_value=1, max_value=10**6),
        ),
    )
)
def test_fraction_exponent_matches_stepped_powers_of_ten(x):
    assert precision_module._fraction_exponent(x) == oracles.fraction_exponent(x)


# ---------------------------------------------------------------------------
# exact quotients rounded from the short sticky-digit ratio
# ---------------------------------------------------------------------------

_ROUNDINGS = (ROUND_FLOOR, ROUND_CEILING, ROUND_HALF_EVEN, ROUND_DOWN, ROUND_UP)


@st.composite
def _quotients(draw):
    """(num, den), den > 0: a general ratio, zero, an exact quotient with
    trailing zeros, a power of ten or its neighbour, or operands past the
    4,300-digit int-to-str limit."""
    sign = draw(st.sampled_from((1, -1)))
    kind = draw(st.sampled_from(("general", "zero", "exact", "power", "huge")))
    if kind == "zero":
        return 0, draw(st.integers(min_value=1, max_value=10**50))
    if kind == "exact":
        den = draw(st.integers(min_value=1, max_value=10**20))
        num = den * draw(st.integers(min_value=1, max_value=10**10))
        num *= 10 ** draw(st.integers(min_value=0, max_value=450))
        return sign * num, den * draw(st.sampled_from((1, 2**40, 5**17, 10**30)))
    if kind == "power":
        num = 10 ** draw(st.integers(min_value=0, max_value=500)) + draw(st.integers(-1, 1))
        return sign * num, 10 ** draw(st.integers(min_value=0, max_value=500))
    if kind == "huge":
        num = 7 ** draw(st.integers(min_value=5100, max_value=7100))
        num += draw(st.integers(min_value=-(10**20), max_value=10**20))
        return sign * num, 3 ** draw(st.integers(min_value=9100, max_value=12600))
    num = draw(st.integers(min_value=-(10**60), max_value=10**60))
    return num, draw(st.integers(min_value=1, max_value=10**60))


@settings(max_examples=300, deadline=None)
@given(quotient=_quotients(), digits=st.sampled_from((1, 2, 3, 28, 60, 400)))
@example(quotient=(10**500 + 1, 10**500), digits=3)  # only the sticky digit rounds it up
@example(quotient=(-(10**500 + 1), 10**500), digits=400)
@example(quotient=(1, 3), digits=1)  # ⌊log10⌋ one below the bit-length estimate
def test_short_ratio_rounds_as_the_whole_quotient(quotient, digits):
    num, den = quotient
    cut, scale = precision_module._short_ratio(num, den, digits)
    # at least digits + 3 digits, sticky last digit included, over 10^(m+1)
    assert num == 0 or cut.adjusted() >= digits + 2
    assert scale.as_tuple().exponent == 0
    for rounding in _ROUNDINGS:
        got = Context(prec=digits, rounding=rounding).divide(cut, scale)
        want = oracles.decimal_quotient_reference(num, den, digits, rounding)
        assert got.as_tuple() == want.as_tuple(), rounding


# ---------------------------------------------------------------------------
# hyp_bounds
# ---------------------------------------------------------------------------


def test_hyp_bounds_at_zero():
    h = hyp_bounds(0, 30)
    assert Fraction(h.sinh.lo) <= 0 <= Fraction(h.sinh.hi)
    assert Fraction(h.cosh.lo) <= 1 <= Fraction(h.cosh.hi)
    assert Fraction(h.tanh.lo) <= 0 <= Fraction(h.tanh.hi)


def test_hyp_bounds_at_half():
    h = hyp_bounds("0.5", 6)
    assert Fraction("0.521") <= Fraction(h.sinh.lo) and Fraction(h.sinh.hi) <= Fraction("0.522")
    assert Fraction("1.127") <= Fraction(h.cosh.lo) and Fraction(h.cosh.hi) <= Fraction("1.128")
    assert Fraction("0.462") <= Fraction(h.tanh.lo) and Fraction(h.tanh.hi) <= Fraction("0.463")


def test_hyp_bounds_at_two_point_one():
    h = hyp_bounds("2.1", 6)
    assert Fraction("4.021") <= Fraction(h.sinh.lo) and Fraction(h.sinh.hi) <= Fraction("4.022")
    assert Fraction("4.144") <= Fraction(h.cosh.lo) and Fraction(h.cosh.hi) <= Fraction("4.145")
    assert Fraction("0.970") <= Fraction(h.tanh.lo) and Fraction(h.tanh.hi) <= Fraction("0.971")


def test_hyp_bounds_rejects_outside_range():
    with pytest.raises(ValueError):
        hyp_bounds("3.1", 30)


def test_hyp_identity_cosh_sq_minus_sinh_sq():
    # cosh^2 - sinh^2 must enclose 1 across the valid range.
    for k in range(100):
        x = Fraction(-3) + Fraction(6 * k, 99)
        xd = Decimal(x.numerator) / Decimal(x.denominator)
        h = hyp_bounds(xd, 20)
        s_lo, s_hi = Fraction(h.sinh.lo), Fraction(h.sinh.hi)
        sinh_sq_lo = 0 if s_lo <= 0 <= s_hi else min(s_lo**2, s_hi**2)
        sinh_sq_hi = max(s_lo**2, s_hi**2)
        # cosh > 0, so its square is bracketed by the squared endpoints
        assert Fraction(h.cosh.lo)**2 - sinh_sq_hi <= 1 <= Fraction(h.cosh.hi)**2 - sinh_sq_lo


# ---------------------------------------------------------------------------
# arccos_hp and pi
# ---------------------------------------------------------------------------


def test_arccos_of_one_is_zero():
    assert arccos_hp(1, 30) == Decimal(0)


def test_arccos_of_zero_is_half_pi():
    lo, hi = oracles.arccos_enclosure(Fraction(1, 10**40), Fraction(1, 10**40))
    v = Fraction(arccos_hp(0, precision=100))
    # Oracle bisects arccos near 0 argument; pad by its width and the contract.
    assert lo - Fraction(1, 10**30) <= v <= hi + Fraction(1, 10**30)


def test_arccos_of_half():
    v = Fraction(arccos_hp("0.5", precision=100))
    assert ARCCOS_HALF_LO - Fraction(1, 10**40) <= v <= ARCCOS_HALF_HI + Fraction(1, 10**40)


def test_arccos_rejects_outside_domain():
    with pytest.raises(ValueError):
        arccos_hp("1.0000001", 30)


def test_arccos_cos_consistency():
    # For theta in (0, pi): arccos(cos theta) returns theta to 1e-30 at 100 digits.
    for k in range(1, 101):
        theta = Fraction(314, 100) * Fraction(k, 101)
        c_lo, c_hi = oracles.cos_enclosure(theta)
        mid = (c_lo + c_hi) / 2
        with localcontext(Context(prec=80)):
            cd = Decimal(mid.numerator) / Decimal(mid.denominator)
        v = Fraction(arccos_hp(cd, precision=100))
        assert abs(v - theta) <= Fraction(1, 10**30)


def test_pi_hp_matches_oracle():
    # 2*arccos(0) = pi; compare Machin's value against the cosine-bisection oracle.
    lo, hi = oracles.arccos_enclosure(Fraction(1, 10**50), Fraction(1, 10**50))
    v = Fraction(pi_hp(120))
    assert 2 * lo - Fraction(1, 10**45) <= v <= 2 * hi + Fraction(1, 10**45)


@st.composite
def _arccos_cases(draw):
    """(x, p): x near −1, −1/2, 0, 1/2 or 1 with up to p + 30 decimals, or spread over [−1, 1]."""
    p = draw(st.sampled_from([5, 20, 60, 130, 410]))
    k = draw(st.integers(min_value=1, max_value=p + 30))
    if draw(st.booleans()):
        centre = draw(st.sampled_from([-2, -1, 0, 1, 2]))
        offset = draw(st.integers(min_value=-(10**6), max_value=10**6))
        if abs(centre) == 2:
            offset = -abs(offset) if centre > 0 else abs(offset)
        x = Fraction(centre, 2) + Fraction(offset, 10 ** (k + 6))
    else:
        x = Fraction(draw(st.integers(min_value=-(10**k), max_value=10**k)), 10**k)
    with localcontext(Context(prec=k + 20)):
        return Decimal(x.numerator) / Decimal(x.denominator), p


@settings(max_examples=150, deadline=None)
@given(case=_arccos_cases())
@example(case=(Decimal("-0"), 20))
@example(case=(Decimal(0), 5))
@example(case=(Decimal(1), 410))
@example(case=(Decimal(-1), 130))
@example(case=(Decimal("0.5"), 60))
@example(case=(Decimal("-0.5"), 60))
def test_arccos_is_within_contract_of_mpmath(case):
    x, p = case
    value = arccos_hp(x, p)
    with mpmath.workdps(2 * p + len(str(x)) + 30):
        reference = mpmath.acos(mpmath.mpf(str(x)))
        assert abs(mpmath.mpf(str(value)) - reference) <= mpmath.mpf(10) ** (2 - p)


def test_arccos_of_a_tiny_argument_builds_no_huge_power():
    start = time.perf_counter()
    value = arccos_hp("1E-100000", 30)
    assert time.perf_counter() - start < 1
    assert value == Context(prec=30).divide(pi_hp(60), 2)


@pytest.mark.parametrize("digits", [60, 410])
def test_arccos_equals_the_maclaurin_reference_on_the_candidate_corners(
    candidate_surface, monkeypatch, digits
):
    cosines = []
    monkeypatch.setattr(klein_module, "arccos_hp", lambda x, p: cosines.append(x) or arccos_hp(x, p))
    for i in range(len(candidate_surface.coords)):
        cone_angle(candidate_surface, i, digits)
    assert len(cosines) == 72
    for x in cosines:
        assert str(arccos_hp(x, digits)) == str(oracles.arccos_maclaurin(x, digits))


# ---------------------------------------------------------------------------
# Enclosures against mpmath's interval arithmetic
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _interval_digits(digits: int):
    """mpmath's interval context at ``digits`` decimal digits, restored on exit."""
    saved = mpmath.iv.prec
    mpmath.iv.dps = digits
    try:
        yield mpmath.iv
    finally:
        mpmath.iv.prec = saved


def _dyadic_decimal(m: int, k: int) -> Decimal:
    """m·2^k as an exact Decimal."""
    return Decimal(m * 2**k) if k >= 0 else Decimal(f"{m * 5**-k}E{k}")


def _contains_interval(bound: Bound, v) -> bool:
    """Exact test that ``bound`` contains the mpmath interval ``v``.

    The interval's binary endpoints convert to Decimals exactly, and Decimals
    compare exactly, also against subnormal endpoints such as 1E-1000001.
    """
    with mpmath.workprec(mpmath.iv.prec):
        lo, hi = (mpmath.mpf(e) for e in (v.a, v.b))
    lo, hi = (_dyadic_decimal((-1 if e < 0 else 1) * int(e.man), int(e.exp)) for e in (lo, hi))
    return bound.lo <= lo and hi <= bound.hi


@settings(max_examples=150, deadline=None)
@given(
    x=st.one_of(
        st.fractions(min_value=0, max_value=10**12, max_denominator=10**30),
        st.fractions(min_value=0, max_value=10**6, max_denominator=10**15).map(lambda r: r * r),
    ),
    p=st.sampled_from([5, 20, 60, 120]),
)
def test_sqrt_bounds_contain_the_mpmath_interval(x, p):
    bound = sqrt_bounds(x, p)
    if bound.lo == bound.hi:  # an exact square: the enclosure is the root itself
        assert Fraction(bound.lo) ** 2 == x
        return
    with _interval_digits(p + 120) as iv:
        assert _contains_interval(bound, iv.sqrt(iv.mpf(x.numerator) / iv.mpf(x.denominator)))


def _exact_interval(iv, x: Fraction):
    return iv.mpf(x.numerator) / iv.mpf(x.denominator)


@settings(max_examples=60, deadline=None)
@given(
    x=st.fractions(min_value=-6, max_value=6, max_denominator=10**20),
    m=st.integers(min_value=1, max_value=9),
    k=st.sampled_from([-1, 0, 1, 10, 30, 60]),
)
def test_exp_bounds_contain_the_mpmath_interval(x, m, k):
    w = m * Fraction(10) ** -k
    bound = exp_bounds(x, w)
    assert Fraction(bound.hi) - Fraction(bound.lo) <= w
    with _interval_digits(max(k, 0) + 40) as iv:
        assert _contains_interval(bound, iv.exp(_exact_interval(iv, x)))


@settings(max_examples=60, deadline=None)
@given(
    x=st.fractions(min_value=-3, max_value=3, max_denominator=10**20),
    p=st.sampled_from([2, 5, 10, 30, 60]),
)
@example(x=Fraction(3), p=1)
@example(x=Fraction(-3), p=1)
def test_hyp_bounds_contain_the_mpmath_intervals(x, p):
    # p digits make each enclosure less than 3·10^(2−p) wide
    h = hyp_bounds(x, p)
    for bound in h:
        assert Fraction(bound.hi) - Fraction(bound.lo) < 3 * Fraction(10) ** (2 - p)
    with _interval_digits(p + 40) as iv:
        e = iv.exp(_exact_interval(iv, x))
        e2 = iv.exp(2 * _exact_interval(iv, x))
        assert _contains_interval(h.sinh, (e - 1 / e) / 2)
        assert _contains_interval(h.cosh, (e + 1 / e) / 2)
        assert _contains_interval(h.tanh, (e2 - 1) / (e2 + 1))


def test_hyp_bounds_combines_two_exp_enclosures(monkeypatch):
    calls = []
    real = precision_module.exp_bounds

    def counting(x, target_width):
        calls.append((x, target_width))
        return real(x, target_width)

    monkeypatch.setattr(precision_module, "exp_bounds", counting)
    hyp_bounds(Fraction(1, 2), 30)
    hyp_bounds(Fraction(1, 2), 1)  # 10⁻² at most: e⁻³'s lower end stays positive
    width = Fraction(1, 10**30)
    assert calls == [
        (Fraction(1, 2), width), (Fraction(-1, 2), width),
        (Fraction(1, 2), Fraction(1, 100)), (Fraction(-1, 2), Fraction(1, 100)),
    ]


# ---------------------------------------------------------------------------
# _round_significant
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    num=st.integers(min_value=-(10**40), max_value=10**40),
    den=st.integers(min_value=1, max_value=10**40),
    digits=st.sampled_from((1, 2, 12)),
    up=st.booleans(),
)
@example(num=0, den=7, digits=1, up=True)
@example(num=-1, den=3, digits=12, up=False)
@example(num=95, den=1, digits=1, up=True)
@example(num=-10**20, den=10**7, digits=2, up=True)
def test_round_significant_matches_the_decimal_context(num, den, digits, up):
    rounding = ROUND_CEILING if up else ROUND_FLOOR
    want = Fraction(Context(prec=digits, rounding=rounding).divide(Decimal(num), Decimal(den)))
    assert precision_module._round_significant(Fraction(num, den), digits, up) == want


def test_bound_rejects_inverted_endpoints():
    with pytest.raises(ValueError):
        Bound(Decimal(2), Decimal(1))


def test_bound_from_fraction_is_outward():
    third = Fraction(1, 3)
    b = Bound.from_fraction_pair(third, third, precision=30)
    assert Fraction(b.lo) < third < Fraction(b.hi)
    assert Fraction(b.hi) - Fraction(b.lo) <= Fraction(1, 10**28)


def test_bound_scalar_round_trip():
    # Decimal values round-trip exactly through their string representation.
    d = Decimal("1.2345678901234567890123456789e-35")
    assert Decimal(str(d)) == d
