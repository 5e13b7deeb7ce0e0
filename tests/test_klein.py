"""Tests for the Klein-model geometry layer.

Surface-independent behaviour only; range checks over the candidate surface
(link cosines, edge lengths) live with the certification tests.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import random
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kleincert
from kleincert import certify_embed, certify_flat, jacobian, klein, precision, search
from kleincert.klein import (
    Point3,
    angle,
    cos2_and_sign,
    dilate,
    distance,
    klein_inner,
    norm_comparison_factor,
)
from kleincert.mesh import EmbeddedSurface
from kleincert.precision import arccos_hp, pi_hp
from kleincert.search import SearchConfig

import oracles
from strategies import ball_points, corners

# FROZEN by oracles.artanh_enclosure(Fraction(1, 2)), rounded outward.
ARTANH_HALF_LO = Fraction(Decimal("0.549306144334054845697622618461262852323745"))
ARTANH_HALF_HI = Fraction(Decimal("0.549306144334054845697622618461262852323746"))

ORIGIN = Point3.of(0, 0, 0)
HALF_X = Point3.of("0.5", 0, 0)
HALF_Y = Point3.of(0, "0.5", 0)


def lattice_corner(*points: Point3) -> tuple:
    """(q, x, y, …): rational points (a corner, a chord) put on their integer lattice."""
    q, lattice = dilate(points)
    return (q, *lattice)


def rand_point(rng: random.Random, max_radius_pct: int = 90) -> Point3:
    while True:
        p = Point3(
            Fraction(rng.randint(-999, 999), 1000),
            Fraction(rng.randint(-999, 999), 1000),
            Fraction(rng.randint(-999, 999), 1000),
        )
        if p.norm_sq() * 10000 < max_radius_pct**2:
            return p


def rand_vector(rng: random.Random) -> Point3:
    return Point3(
        Fraction(rng.randint(-1000, 1000), 97),
        Fraction(rng.randint(-1000, 1000), 97),
        Fraction(rng.randint(-1000, 1000), 97),
    )


# ---------------------------------------------------------------------------
# klein_inner
# ---------------------------------------------------------------------------


def test_inner_at_origin_is_euclidean():
    v = Point3.of(1, 2, 3)
    w = Point3.of(4, 5, 6)
    assert klein_inner(ORIGIN, v, w) == Fraction(32)


def test_inner_on_axis_example():
    x = Point3.of("0.5", 0, 0)
    v = Point3.of(1, 0, 0)
    assert klein_inner(x, v, v) == Fraction(16, 9)


def test_inner_symmetric_and_bilinear():
    rng = random.Random(5)
    for _ in range(30):
        x = rand_point(rng)
        u, v, w = rand_vector(rng), rand_vector(rng), rand_vector(rng)
        s = Fraction(rng.randint(-50, 50), 7)
        assert klein_inner(x, v, w) == klein_inner(x, w, v)
        left = klein_inner(x, Point3(*(a + s * b for a, b in zip(u, v))), w)
        right = klein_inner(x, u, w) + s * klein_inner(x, v, w)
        assert left == right


def test_inner_positive_definite():
    rng = random.Random(6)
    for _ in range(50):
        x = rand_point(rng, max_radius_pct=99)
        v = rand_vector(rng)
        q = klein_inner(x, v, v)
        assert q > 0 or not any(v)


def test_inner_rejects_points_outside_ball():
    with pytest.raises(ValueError):
        klein_inner(Point3.of(1, 0, 0), Point3.of(1, 0, 0), Point3.of(1, 0, 0))


# ---------------------------------------------------------------------------
# cos2_and_sign / angle
# ---------------------------------------------------------------------------


def test_cos2_orthogonal_at_origin():
    A, sigma = cos2_and_sign(*lattice_corner(ORIGIN, HALF_X, HALF_Y))
    assert A == 0 and sigma == 0


def test_cos2_collinear_same_direction():
    A, sigma = cos2_and_sign(*lattice_corner(ORIGIN, HALF_X, Point3.of("0.25", 0, 0)))
    assert A == 1 and sigma == 1


def test_cos2_rejects_degenerate():
    with pytest.raises(ValueError):
        cos2_and_sign(*lattice_corner(ORIGIN, ORIGIN, Point3.of("0.5", 0, 0)))


def test_cos2_rejects_a_repeated_vertex_with_the_angle_error():
    x = Point3.of("0.1", "-0.2", "0.3")
    for y, z in ((x, Point3.of("0.5", 0, 0)), (Point3.of("0.5", 0, 0), x)):
        with pytest.raises(ValueError, match=r"^angle is undefined when Y = X or Z = X$"):
            cos2_and_sign(*lattice_corner(x, y, z))


def test_cos2_rejects_points_outside_ball_like_klein_inner():
    x = Point3.of("0.6", "0.8", "0")  # on the sphere
    y, z = Point3.of("0.5", 0, 0), Point3.of(0, "0.5", 0)
    with pytest.raises(ValueError) as inner_error:
        klein_inner(x, y.sub(x), z.sub(x))
    with pytest.raises(ValueError) as kernel_error:
        cos2_and_sign(*lattice_corner(x, y, z))
    assert str(kernel_error.value) == str(inner_error.value)
    assert str(kernel_error.value) == f"point {tuple(x)} lies outside the open unit ball"


@settings(max_examples=100, deadline=None)
@given(corner=corners)
def test_cos2_matches_the_klein_inner_formula(corner):
    x, y, z = corner
    v, w = y.sub(x), z.sub(x)
    g_vw = klein_inner(x, v, w)
    A, sigma = cos2_and_sign(*lattice_corner(x, y, z))
    assert A == g_vw * g_vw / (klein_inner(x, v, v) * klein_inner(x, w, w))
    assert sigma == (g_vw > 0) - (g_vw < 0)


def test_cos2_is_within_unit_interval():
    # Cauchy-Schwarz for the metric: 0 <= A <= 1, exactly.
    rng = random.Random(8)
    for _ in range(100):
        x = rand_point(rng)
        y = rand_point(rng)
        z = rand_point(rng)
        if y == x or z == x:
            continue
        A, sigma = cos2_and_sign(*lattice_corner(x, y, z))
        assert 0 <= A <= 1
        assert sigma in (-1, 0, 1)


def test_angle_right_angle_at_origin():
    theta = angle(*lattice_corner(ORIGIN, HALF_X, HALF_Y), precision=60)
    assert abs(Fraction(theta) - Fraction(pi_hp(80)) / 2) <= Fraction(1, 10**50)


def _origin_corner(t: Fraction, near_pi: bool):
    """The corner at the origin between (1/2, 0, 0) and (±1/2, t, 0), and
    its angle, atan(2t) or π − atan(2t), by mpmath at the working precision."""
    far = Point3(Fraction(-1 if near_pi else 1, 2), t, Fraction(0))
    theta = mpmath.atan(2 * mpmath.mpf(t.numerator) / t.denominator)
    return lattice_corner(ORIGIN, HALF_X, far), mpmath.pi - theta if near_pi else theta


@pytest.mark.parametrize("p", [12, 13, 50, 100])
def test_angle_accuracy_holds_in_its_stated_range(p):
    # corners from about 10⁻³ down to 10⁻⁴⁰ rad from 0 and from π, with
    # cosines that are not short decimals; 10^(2−p) holds from 10⁻¹¹ on,
    # and at every corner for p ≤ 13; below, the error stays within
    # π·√(u/2) plus arccos_hp's rounding, u = 10^−(p+10)
    with mpmath.workdps(p + 60):
        accuracy = mpmath.mpf(10) ** (2 - p)
        floor = mpmath.pi * mpmath.sqrt(mpmath.mpf(10) ** -(p + 10) / 2) + accuracy / 10
        beyond = 0
        for k in (3, 8, 10, 11, 12, 14, 20, 29, 31, 40):
            for num, den in ((1, 3), (2, 7), (5, 11)):
                t = Fraction(num, den * 10**k)
                for near_pi in (False, True):
                    corner, theta = _origin_corner(t, near_pi)
                    error = abs(mpmath.mpf(str(angle(*corner, precision=p))) - theta)
                    if min(theta, mpmath.pi - theta) >= mpmath.mpf(10) ** -11 or p <= 13:
                        assert error <= accuracy, (k, num, near_pi)
                    else:
                        assert error <= floor, (k, num, near_pi)
                        beyond += error > accuracy
        # the range is not an artefact of the bound: outside it, at p = 50
        # and 100, the contract fails on some of these corners
        assert (beyond > 0) == (p > 13)


def test_angle_of_a_corner_below_its_floor_reads_zero():
    corner, theta = _origin_corner(Fraction(1, 10**30), near_pi=False)
    assert angle(*corner, precision=50) == 0 < theta
    corner, _ = _origin_corner(Fraction(1, 10**28), near_pi=False)
    assert angle(*corner, precision=50) > 0


def test_angle_agrees_with_cos_oracle():
    # Independent route: cos(angle(...)) must land in the oracle cosine
    # enclosure of the same configuration computed from exact rationals.
    rng = random.Random(9)
    checked = 0
    while checked < 20:
        x = rand_point(rng, max_radius_pct=70)
        y = rand_point(rng, max_radius_pct=70)
        z = rand_point(rng, max_radius_pct=70)
        if y == x or z == x:
            continue
        A, sigma = cos2_and_sign(*lattice_corner(x, y, z))
        if A == 0 or A == 1:
            continue
        theta = angle(*lattice_corner(x, y, z), precision=60)
        c_lo, c_hi = oracles.cos_enclosure(Fraction(theta), n=40)
        lo, hi = oracles.sqrt_enclosure(A, Fraction(1, 10**45))
        want_lo, want_hi = (lo * sigma, hi * sigma) if sigma >= 0 else (hi * sigma, lo * sigma)
        pad = Fraction(1, 10**40)
        assert c_lo <= want_hi + pad and want_lo - pad <= c_hi
        checked += 1


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def test_distance_chord_through_origin():
    b = distance(*lattice_corner(ORIGIN, HALF_X), target_width="1e-12")
    # Through-origin chords have d = artanh(r); oracle enclosure is frozen.
    assert Fraction(b.lo) <= ARTANH_HALF_LO and ARTANH_HALF_HI <= Fraction(b.hi)
    assert Fraction(b.hi) - Fraction(b.lo) <= Fraction(1, 10**12)


def test_distance_rejects_equal_points():
    with pytest.raises(ValueError, match=r"^distance requires X != Y$"):
        distance(*lattice_corner(ORIGIN, ORIGIN), Fraction(1, 10**8))


def test_distance_rejects_points_outside_ball_like_klein_inner():
    inside, sphere = Point3.of("0.5", 0, 0), Point3.of("0.6", "0.8", "0")
    with pytest.raises(ValueError) as inner_error:
        klein_inner(sphere, inside, inside)
    for pair in ((sphere, inside), (inside, sphere), (sphere, sphere)):
        with pytest.raises(ValueError) as chord_error:
            distance(*lattice_corner(*pair), Fraction(1, 10**8))
        assert str(chord_error.value) == str(inner_error.value)


def test_distance_symmetry_overlap():
    rng = random.Random(10)
    for _ in range(10):
        x = rand_point(rng, max_radius_pct=80)
        y = rand_point(rng, max_radius_pct=80)
        if x == y:
            continue
        q, lx, ly = lattice_corner(x, y)
        d1 = distance(q, lx, ly, target_width="1e-10")
        d2 = distance(q, ly, lx, target_width="1e-10")
        assert Fraction(d1.lo) <= Fraction(d2.hi) and Fraction(d2.lo) <= Fraction(d1.hi)


def test_distance_triangle_inequality():
    rng = random.Random(12)
    for _ in range(50):
        x = rand_point(rng, max_radius_pct=80)
        y = rand_point(rng, max_radius_pct=80)
        z = rand_point(rng, max_radius_pct=80)
        if x == y or y == z or x == z:
            continue
        q, lx, ly, lz = lattice_corner(x, y, z)
        dxz = distance(q, lx, lz, target_width="1e-6")
        dxy = distance(q, lx, ly, target_width="1e-6")
        dyz = distance(q, ly, lz, target_width="1e-6")
        assert Fraction(dxz.lo) <= Fraction(dxy.hi) + Fraction(dyz.hi)


def test_distance_matches_artanh_oracle_along_axis():
    rng = random.Random(13)
    for _ in range(10):
        r = Fraction(rng.randint(1, 899), 1000)
        b = distance(
            *lattice_corner(ORIGIN, Point3(r, Fraction(0), Fraction(0))),
            target_width="1e-10",
        )
        lo, hi = oracles.artanh_enclosure(r)
        assert Fraction(b.lo) <= lo and hi <= Fraction(b.hi)


def test_distance_encloses_one_logarithm_per_term(monkeypatch):
    # √Δ is inexact here, so the first argument is an interval [u, v]; its
    # upper end comes from ln u by concavity, not from a third enclosure
    calls = []
    real = klein.ln_bounds

    def counting(x, target_width):
        calls.append(x)
        return real(x, target_width)

    monkeypatch.setattr(klein, "ln_bounds", counting)
    x, y = Point3.of("0.1", "-0.2", "0.3"), Point3.of("-0.4", "0.15", "0.05")
    b = distance(*lattice_corner(x, y), target_width="1e-10")
    assert len(calls) == 2
    lo, hi = _arccosh_enclosure(x, y, 80)
    assert Fraction(b.lo) <= lo and hi <= Fraction(b.hi)


def _arccosh_enclosure(x: Point3, y: Point3, digits: int) -> tuple:
    """Exact ends of mpmath's interval of arccosh((1 − X·Y)/√((1 − |X|²)(1 − |Y|²))).

    With u² = (1 − X·Y)²/((1 − |X|²)(1 − |Y|²)), both u² and u² − 1 are exact
    positive rationals, so d = ln(√u² + √(u² − 1)) needs no cancellation.
    """
    u2 = (1 - x.dot(y)) ** 2 / ((1 - x.norm_sq()) * (1 - y.norm_sq()))
    iv, saved = mpmath.iv, mpmath.iv.prec
    iv.dps = digits
    try:
        ends = [iv.mpf(r.numerator) / iv.mpf(r.denominator) for r in (u2, u2 - 1)]
        d = iv.log(iv.sqrt(ends[0]) + iv.sqrt(ends[1]))
        with mpmath.workprec(iv.prec):
            return tuple(_mpf_fraction(mpmath.mpf(e)) for e in (d.a, d.b))
    finally:
        iv.prec = saved


def _mpf_fraction(e) -> Fraction:
    """The exact binary value of an mpmath number."""
    sign, man, exp, _ = e._mpf_
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


@settings(max_examples=40, deadline=None)
@given(
    pair=st.tuples(ball_points(), ball_points()).filter(lambda p: p[0] != p[1]),
    width=st.tuples(st.integers(1, 10), st.integers(5, 60)),
)
# a target of 10⁻¹⁰⁰: √Δ and the outward rounding need over 100 digits
@example(pair=(Point3.of("0.1", "0.2", "0.3"), Point3.of("-0.4", "0.1", 0)), width=(1, 100))
# a chord between points at radius 0.99999, about 12 long
@example(
    pair=(Point3.of("0.99999", 0, 0), Point3.of("-0.599994", "0.799992", 0)), width=(1, 30)
)
def test_distance_contains_the_mpmath_arccosh(pair, width):
    # w = m·10⁻ᵏ runs from 10⁻⁴ down to 10⁻⁶⁰; the enclosure is at most w wide
    x, y = pair
    mantissa, exponent = width
    w = Fraction(mantissa, 10**exponent)
    lo, hi = _arccosh_enclosure(x, y, exponent + 20)
    b = distance(*lattice_corner(x, y), target_width=w)
    assert Fraction(b.lo) <= lo and hi <= Fraction(b.hi)
    assert Fraction(b.hi) - Fraction(b.lo) <= w


# a Newton iterate's heights: a lattice denominator of about 300 digits
_LONG = Point3.of("0.1", "-0.2", Fraction(3 * 10**299 + 7, 10**300))


@settings(max_examples=100, deadline=None)
@given(corner=corners)
@example(corner=(_LONG, Point3.of("0.5", 0, 0), Point3.of(0, "-0.4", "0.2")))
def test_gram_integers_equal_the_reference_body(corner):
    q, x, y, z = lattice_corner(*corner)
    assert klein._gram(klein._betas(q, x, y, z)) == oracles.gram_reference(q, x, y, z)


@settings(max_examples=60, deadline=None)
@given(
    pair=st.tuples(ball_points(), ball_points()).filter(lambda p: p[0] != p[1]),
    width=st.tuples(st.integers(1, 9), st.integers(2, 40)),
)
@example(pair=(_LONG, Point3.of("-0.4", "0.1", 0)), width=(1, 40))
@example(pair=(Point3.of("0.1", "0.2", "0.3"), Point3.of("-0.4", "0.1", 0)), width=(9, 2))
@example(pair=(Point3.of("0.99999", 0, 0), Point3.of("-0.599994", "0.799992", 0)), width=(1, 40))
def test_distance_equals_the_reference_body(pair, width):
    # w = m·10⁻ᵏ from 9·10⁻² down to 10⁻⁴⁰: the same Bound, digit for digit
    q, x, y = lattice_corner(*pair)
    w = Fraction(width[0], 10 ** width[1])
    got = distance(q, x, y, w)
    want = oracles.distance_reference(
        q, x, y, w, precision.sqrt_bounds, precision.ln_bounds, precision.Bound.from_fraction_pair
    )
    assert (got.lo.as_tuple(), got.hi.as_tuple()) == (want.lo.as_tuple(), want.hi.as_tuple())


def test_corner_integers_come_from_one_beta_call_per_corner(candidate_surface, monkeypatch):
    # design rule: klein._betas forms every corner's integers, once per
    # corner, for the corner table, the Jacobian and the climb's filter alike
    real, calls = klein._betas, []

    def counting(q, x, y, z):
        calls.append((x, y, z))
        return real(q, x, y, z)

    for name, module in list(sys.modules.items()):
        if name.startswith("kleincert") and getattr(module, "_betas", None) is real:
            monkeypatch.setattr(module, "_betas", counting)
    S = EmbeddedSurface(candidate_surface.triangulation, candidate_surface.coords)
    for run in (
        lambda: S.corners,
        lambda: jacobian.dtheta_enclosure(S, 60),
        lambda: [search._float_defect(S, i) for i in range(len(S.coords))],
    ):
        calls.clear()
        run()
        assert len(calls) == len(set(calls)) == 72


def test_surface_geometry_reads_only_the_lattice():
    # design rule: the surface-geometry kernels read S.lattice, never S.coords
    for function in (
        distance,
        jacobian._corner_partials,
        jacobian.crude_bounds,
        EmbeddedSurface.corners.func,
        certify_flat.certify_flatness,
        certify_embed.certify_embeddedness,
    ):
        assert ".coords" not in inspect.getsource(function), function.__qualname__


def _accuracy_parameters(function) -> dict:
    params = inspect.signature(function).parameters
    return {
        name: param
        for name, param in params.items()
        if any(word in name for word in ("precision", "digits", "width"))
    }


def test_accuracy_comes_from_one_parameter():
    # design rule: no public callable takes both a width and a digits count,
    # none outside cli_io (whose digits are output formats) defaults its
    # accuracy, public methods included, and Newton's digits follow its
    # tolerance alone
    checked = []
    for info in pkgutil.iter_modules(kleincert.__path__):
        module = importlib.import_module(f"kleincert.{info.name}")
        for name in module.__all__:
            obj = getattr(module, name)
            if not callable(obj) or isinstance(obj, type) and issubclass(obj, Exception):
                continue
            accuracy = _accuracy_parameters(obj)
            widths = [p for p in accuracy if "width" in p]
            digits = [p for p in accuracy if "width" not in p]
            assert not (widths and digits), (module.__name__, name, widths, digits)
            if info.name == "cli_io":
                continue
            # a class's settings are its fields; its methods state their accuracy
            functions = [(name, obj)] if not isinstance(obj, type) else [
                (f"{name}.{attr}", getattr(obj, attr))
                for attr in vars(obj)
                if not attr.startswith("_") and callable(getattr(obj, attr))
            ]
            for label, function in functions:
                for param in _accuracy_parameters(function).values():
                    checked.append(label)
                    assert param.default is inspect.Parameter.empty, (module.__name__, label)
    assert {"Bound.midpoint", "Bound.from_fraction_pair", "hyp_bounds", "distance"} <= set(checked)
    assert list(_accuracy_parameters(precision.exp_bounds)) == ["target_width"]
    tol = Fraction(1, 10**300)
    for field in dataclasses.fields(SearchConfig):
        if field.name != "newton_tol":
            config = SearchConfig(newton_tol=tol, **{field.name: 1})
            assert config.newton_digits == 620, field.name


# ---------------------------------------------------------------------------
# norm_comparison_factor
# ---------------------------------------------------------------------------


def test_factor_at_08():
    f = norm_comparison_factor("0.8")
    assert f == Fraction(625, 81)
    assert f <= 8


def test_factor_tends_to_one():
    assert norm_comparison_factor(Fraction(1, 10**9)) < Fraction("1.000000001")


def test_factor_rejects_bad_radius():
    for r in (0, 1, "1.5", -1):
        with pytest.raises(ValueError):
            norm_comparison_factor(r)


def test_factor_bounds_metric_norm():
    # ||V||^2 <= <V,V>_X <= factor * ||V||^2 whenever ||X|| <= r = 0.8.
    rng = random.Random(14)
    factor = norm_comparison_factor("0.8")
    for _ in range(100):
        x = rand_point(rng, max_radius_pct=80)
        v = rand_vector(rng)
        if not any(v):
            continue
        q = klein_inner(x, v, v)
        e = v.norm_sq()
        assert e <= q <= factor * e
