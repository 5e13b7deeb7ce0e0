"""Tests for the construction pipeline: lattice rescaling, hill climbing,
Newton refinement on vertex heights."""

import math
import random
from decimal import Context, Decimal, localcontext
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings

import oracles
from kleincert import jacobian, search
from kleincert.jacobian import JacobianMatrix, dtheta_analytic, surface_with_heights, theta_map
from kleincert.klein import Point3, klein_inner
from kleincert.mesh import EmbeddedSurface, Triangulation, vertex_link
from kleincert.precision import CertificationError, _fraction_exponent, two_pi
from kleincert.search import (
    RNG_ALGORITHM,
    CounterRng,
    SearchConfig,
    hill_climb,
    newton_refine,
    objective,
    prepare_from_lattice,
)
from strategies import vertex_stars

# Nearest 5x5x5 lattice points to the candidate's vertices (k = round(3c + 2)),
# the starting sketch for the recorded hill-climb run.
LATTICE_SKETCH = (
    (4, 2, 3), (1, 4, 1), (3, 0, 1), (1, 0, 1), (0, 2, 1),
    (2, 4, 2), (0, 2, 3), (4, 2, 1), (2, 3, 1), (2, 2, 4),
)


def _log10_of_norm(norm_sq: F) -> float:
    """log10 of the Euclidean norm given its exact square."""
    num, den = norm_sq.numerator, norm_sq.denominator
    ln = len(str(num))
    ld = len(str(den))
    mantissa = math.log10(float(F(num, 10**ln) / F(den, 10**ld)))
    return (ln - ld + mantissa) / 2


@pytest.fixture(scope="module")
def prepared_sketch(candidate_surface) -> EmbeddedSurface:
    return prepare_from_lattice(candidate_surface.triangulation, LATTICE_SKETCH)


@pytest.fixture(scope="module")
def bipyramid_3pi() -> EmbeddedSurface:
    """Hexagonal bipyramid whose north pole has cone angle exactly 3*pi.

    The six rim vertices pleat through the axis directions twice (radii 1/10
    and 2/10), so the six corner angles at the origin are each exactly pi/2;
    every other vertex was checked to have defect magnitude below pi - 1/5.
    """
    faces = (
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 6), (0, 6, 1),
        (7, 2, 1), (7, 3, 2), (7, 4, 3), (7, 5, 4), (7, 6, 5), (7, 1, 6),
    )
    coords = (
        (F(0), F(0), F(0)),
        (F(1, 10), F(0), F(0)),
        (F(0), F(1, 10), F(0)),
        (F(-1, 10), F(0), F(0)),
        (F(0), F(-1, 10), F(0)),
        (F(2, 10), F(0), F(0)),
        (F(0), F(2, 10), F(0)),
        (F(0), F(0), F(-3, 10)),
    )
    return EmbeddedSurface(
        Triangulation(8, faces), tuple(Point3.of(*c) for c in coords)
    )


@pytest.fixture(scope="module")
def newton_run(candidate_surface):
    trace: list = []
    refined = newton_refine(candidate_surface, SearchConfig(), trace=trace)
    return refined, trace


@pytest.fixture(scope="module")
def deep_newton_run(candidate_surface):
    trace: list = []
    refined = newton_refine(
        candidate_surface, SearchConfig(newton_tol=F(1, 10**150)), trace=trace
    )
    return refined, trace


# ---------------------------------------------------------------------------
# SearchConfig


def test_config_defaults_are_valid():
    cfg = SearchConfig()
    assert cfg.initial_step == F(1, 10)
    assert cfg.decay_rejections == 200
    assert cfg.newton_tol == F(1, 10**35)
    assert cfg.newton_digits == 90
    assert cfg.step_floor == F(1, 10**25)


@pytest.mark.parametrize(
    "field, value",
    [
        ("rng_seed", 0),
        ("rng_seed", -3),
        ("initial_step", F(0)),
        ("initial_step", F(-1, 10)),
        ("decay_rejections", 0),
        ("max_steps", -1),
        ("climb_precision", 0),
        ("newton_tol", F(-1, 10**35)),
        ("newton_tol", F(0)),
    ],
)
def test_config_rejects_nonpositive(field, value):
    with pytest.raises(ValueError, match="positive"):
        SearchConfig(**{field: value})


@pytest.mark.parametrize(
    "kwargs, digits",
    [
        ({}, 90),
        ({"newton_tol": F(3, 10**36)}, 92),  # ⌊log10 tol⌋ = −36
        ({"newton_tol": F(1, 10**150)}, 320),
        ({"newton_tol": F(1, 10**190)}, 400),
        ({"newton_tol": F(99, 10**191)}, 400),  # ⌊log10 tol⌋ = −190
        ({"newton_tol": F(1, 10**300)}, 620),  # no cap
        ({"newton_tol": F(7)}, 20),  # a tolerance of 1 or more counts as 1
    ],
)
def test_newton_digits_follow_the_tolerance(kwargs, digits):
    assert SearchConfig(**kwargs).newton_digits == digits


# ---------------------------------------------------------------------------
# CounterRng


def test_rng_stream_is_deterministic():
    a, b = CounterRng(2026), CounterRng(2026)
    assert [F(a.draw(), 2**256) for _ in range(10)] == [F(b.draw(), 2**256) for _ in range(10)]
    assert a.counter == 10


def test_rng_values_are_unit_interval_rationals():
    rng = CounterRng(1)
    draws = [F(rng.draw(), 2**256) for _ in range(20)]
    assert all(0 <= u < 1 for u in draws)
    assert len(set(draws)) == 20
    other = CounterRng(2)
    assert [F(other.draw(), 2**256) for _ in range(20)] != draws


def test_rng_is_counter_addressable():
    rng = CounterRng(9)
    sequence = [F(rng.draw(), 2**256) for _ in range(5)]
    jump = CounterRng(9)
    jump.counter = 3
    assert F(jump.draw(), 2**256) == sequence[3]


def test_rng_draws_are_256_bit_integers():
    a, b = CounterRng(31), CounterRng(31)
    for _ in range(50):
        u = b.draw()
        assert 0 <= u < 2**256
        assert F(a.draw(), 2**256) == F(u, 2**256)
    assert a.counter == b.counter == 50


@pytest.mark.parametrize("step", [F(1, 10), F(1, 10**25), F(3, 7)], ids=str)
def test_climb_deltas_equal_the_rational_formula(step, prepared_sketch, monkeypatch):
    # each delta is int((uniform·2 − 1)·step·grid)/grid, taken in integers
    proposed = []
    real = search._perturbed

    def recording(surface, deltas):
        proposed.append(list(deltas))
        return real(surface, deltas)

    monkeypatch.setattr(search, "_perturbed", recording)
    cfg = SearchConfig(rng_seed=77, initial_step=step, decay_rejections=1000)
    hill_climb(prepared_sketch, cfg, steps=6)
    rng, grid = CounterRng(77), 10**cfg.climb_precision
    n_coords = 3 * len(prepared_sketch.coords)
    expected = [
        [F(int((F(rng.draw(), 2**256) * 2 - 1) * step * grid), grid) for _ in range(n_coords)]
        for _ in range(6)
    ]
    assert proposed == expected


# ---------------------------------------------------------------------------
# prepare_from_lattice


def test_prepare_centers_and_scales_lattice(candidate_surface):
    surface = prepare_from_lattice(candidate_surface.triangulation, LATTICE_SKETCH)
    for axis in range(3):
        assert sum(p[axis] for p in surface.coords) == 0
    spread = max(abs(c) for p in surface.coords for c in p)
    assert spread == F(1, 2)
    assert all(p.norm_sq() <= F(3, 4) for p in surface.coords)
    assert all(isinstance(c, F) for p in surface.coords for c in p)


def test_prepare_centered_input_needs_no_translation(tetrahedron):
    points = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
    surface = prepare_from_lattice(tetrahedron, points)
    expected = tuple(
        Point3.of(F(x, 2), F(y, 2), F(z, 2)) for x, y, z in points
    )
    assert surface.coords == expected


def test_prepare_doubling_is_invariant(candidate_surface):
    doubled = tuple(tuple(2 * c for c in p) for p in LATTICE_SKETCH)
    assert (
        prepare_from_lattice(candidate_surface.triangulation, doubled).coords
        == prepare_from_lattice(candidate_surface.triangulation, LATTICE_SKETCH).coords
    )


def test_prepare_rejects_too_few_points(tetrahedron):
    with pytest.raises(ValueError, match="at least 4"):
        prepare_from_lattice(tetrahedron, ((0, 0, 0), (1, 0, 0), (0, 1, 0)))


def test_prepare_rejects_coincident_points(tetrahedron):
    with pytest.raises(ValueError, match="coincide"):
        prepare_from_lattice(tetrahedron, ((2, 3, 1),) * 4)


def test_prepare_rejects_malformed_vectors(tetrahedron):
    with pytest.raises(ValueError, match="3-vector"):
        prepare_from_lattice(
            tetrahedron, ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
        )


# ---------------------------------------------------------------------------
# objective


def test_objective_candidate_is_numerically_flat(candidate_surface):
    assert objective(candidate_surface, 50) < Decimal("1e-28")


def test_objective_of_three_pi_cone_is_pi(bipyramid_3pi):
    value = objective(bipyramid_3pi, 40)
    with localcontext(Context(prec=50)):
        half_turn = two_pi(50) / 2
        assert abs(value - half_turn) < Decimal("1e-35")
        # the 3*pi vertex dominates: every other defect stays below pi - 1/5
        defects = theta_map(bipyramid_3pi, 40).theta
        assert all(abs(d) < half_turn - Decimal("0.2") for d in defects[1:])
        assert abs(defects[0] - half_turn) < Decimal("1e-35")


def test_objective_is_nonnegative(candidate_surface, bipyramid_3pi, prepared_sketch):
    for surface in (candidate_surface, bipyramid_3pi, prepared_sketch):
        assert objective(surface, 25) >= 0


# ---------------------------------------------------------------------------
# hill_climb


def test_climb_zero_budget_returns_start(prepared_sketch):
    cfg = SearchConfig(climb_precision=25)
    assert hill_climb(prepared_sketch, cfg, steps=0) is prepared_sketch


def test_climb_is_deterministic(prepared_sketch):
    cfg = SearchConfig(rng_seed=7, initial_step=F(1, 20), climb_precision=25)
    rec1: dict = {}
    rec2: dict = {}
    out1 = hill_climb(prepared_sketch, cfg, steps=40, record=rec1)
    out2 = hill_climb(prepared_sketch, cfg, steps=40, record=rec2)
    assert out1.coords == out2.coords
    assert rec1 == rec2
    assert rec1["algorithm"] == RNG_ALGORITHM == "sha256-counter"
    assert rec1["seed"] == 7


def test_climb_seed_changes_trajectory(prepared_sketch):
    base = dict(initial_step=F(1, 20), climb_precision=25)
    out1 = hill_climb(prepared_sketch, SearchConfig(rng_seed=7, **base), steps=40)
    out2 = hill_climb(prepared_sketch, SearchConfig(rng_seed=8, **base), steps=40)
    assert out1.coords != out2.coords


def test_climb_descends_and_history_is_monotone(prepared_sketch):
    cfg = SearchConfig(
        rng_seed=7, initial_step=F(1, 50), decay_rejections=40, climb_precision=30
    )
    record: dict = {}
    history: list = []
    out = hill_climb(prepared_sketch, cfg, steps=150, record=record, history=history)
    start_objective = objective(prepared_sketch, 30)
    assert record["final_objective"] < start_objective
    assert record["final_objective"] == objective(out, 30)
    assert record["accepts"] == len(history) > 0
    values = [v for _, v in history]
    assert all(b < a for a, b in zip(values, values[1:]))
    iterations = [k for k, _ in history]
    assert iterations == sorted(iterations)
    assert all(v < start_objective for v in values)


def test_climb_decays_step_after_consecutive_rejections(newton_run):
    refined, _ = newton_run
    # nothing improves a numerically flat surface at these step sizes, so
    # every proposal is rejected and the step halves every 5 rejections
    cfg = SearchConfig(
        rng_seed=3,
        initial_step=F(1, 100),
        decay_rejections=5,
        climb_precision=25,
    )
    record: dict = {}
    out = hill_climb(refined, cfg, steps=15, record=record)
    assert out is refined
    assert record["accepts"] == 0
    assert record["final_step"] == F(1, 800)


def test_climb_step_never_drops_below_floor(newton_run):
    refined, _ = newton_run
    cfg = SearchConfig(
        rng_seed=3, initial_step=F(1, 64), decay_rejections=1, climb_precision=4
    )
    record: dict = {}
    hill_climb(refined, cfg, steps=12, record=record)
    assert cfg.step_floor == F(1, 100)
    assert record["final_step"] == F(1, 100)


def _near_boundary_tetrahedron():
    tet = Triangulation(4, ((0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)))
    return EmbeddedSurface(
        tet,
        (
            Point3.of(F(9, 10), 0, 0),
            Point3.of(0, F(9, 10), 0),
            Point3.of(0, 0, F(9, 10)),
            Point3.of(F(-1, 2), F(-1, 2), F(-1, 2)),
        ),
    )


def test_climb_rejects_proposals_leaving_the_ball():
    near_boundary = _near_boundary_tetrahedron()
    cfg = SearchConfig(
        rng_seed=1, initial_step=F(10), decay_rejections=100, climb_precision=20
    )
    record: dict = {}
    out = hill_climb(near_boundary, cfg, steps=5, record=record)
    assert record["accepts"] == 0
    assert out is near_boundary


@pytest.mark.parametrize(
    "case",
    [("sketch", seed) for seed in range(2026, 2031)]
    + [("near_boundary", 1), ("decay", 3), ("digits-1", 2026), ("digits-2", 2027)]
    + [("near_flat", 5)],
    ids=lambda case: f"{case[0]}-{case[1]}",
)
def test_climb_equals_the_full_evaluation_reference(case, prepared_sketch, newton_run):
    """The filtered, early-rejecting climb makes every decision the full
    evaluation makes."""
    kind, seed = case
    if kind == "sketch":
        start, cfg, steps = prepared_sketch, SearchConfig(rng_seed=seed), 40
    elif kind.startswith("digits"):
        # at 1 or 2 digits the Decimal term 2(d + 1)·10^(−8−p) dominates the
        # filter's margin; at 1 digit the coordinate grid is 10⁻¹, so a step
        # of 1/10 would never move a vertex
        digits = int(kind[-1])
        start, steps = prepared_sketch, 40
        cfg = SearchConfig(
            rng_seed=seed,
            initial_step=F(3, 10) if digits == 1 else F(1, 10),
            climb_precision=digits,
        )
    elif kind == "near_flat":
        # steps of 10⁻²⁰ leave every |Θ_f| within the margin of the objective,
        # about 10⁻⁵⁹, so every vertex the climb reaches takes the Decimal path
        start, steps = newton_run[0], 10
        cfg = SearchConfig(rng_seed=seed, initial_step=F(1, 10**20))
    elif kind == "near_boundary":
        start, steps = _near_boundary_tetrahedron(), 5
        cfg = SearchConfig(
            rng_seed=seed, initial_step=F(10), decay_rejections=100, climb_precision=20
        )
    else:
        start, steps = newton_run[0], 15
        cfg = SearchConfig(
            rng_seed=seed, initial_step=F(1, 100), decay_rejections=5, climb_precision=25
        )
    record: dict = {}
    history: list = []
    out = hill_climb(start, cfg, steps=steps, record=record, history=history)
    ref_record: dict = {}
    ref_history: list = []
    ref = oracles.hill_climb_reference(
        start, cfg, objective, search._perturbed,
        (CertificationError, ValueError, ZeroDivisionError),
        steps=steps, record=ref_record, history=ref_history,
    )
    assert out.coords == ref.coords
    # repr tells Decimals of equal value but different exponent apart
    assert repr(record) == repr(ref_record)
    assert repr(history) == repr(ref_history)


def _counted_cone_angles(monkeypatch) -> list:
    """The vertices of every cone angle taken from now on, in call order."""
    real = jacobian.cone_angle
    calls = []

    def counting(S, i, precision):
        calls.append(i)
        return real(S, i, precision)

    # the climb reaches cone_angle through jacobian._vertex_defect
    monkeypatch.setattr(jacobian, "cone_angle", counting)
    return calls


def test_climb_computes_a_defect_only_until_it_rejects(prepared_sketch, monkeypatch):
    calls = _counted_cone_angles(monkeypatch)
    record: dict = {}
    out = hill_climb(prepared_sketch, SearchConfig(), steps=40, record=record)
    # the start takes every Decimal defect and each of the 3 accepted
    # proposals only its largest, as no other |Θ_f| comes within its margin
    # of that one; the float filter decides every vertex of the 37 rejected
    n = prepared_sketch.triangulation.n_vertices
    assert len(calls) == n + record["accepts"] == 13
    monkeypatch.undo()
    assert record["final_objective"] == objective(out, SearchConfig().climb_precision)


def test_climb_takes_the_decimal_path_past_the_guard(prepared_sketch, monkeypatch):
    record: dict = {}
    out = hill_climb(prepared_sketch, SearchConfig(), steps=40, record=record)
    # every vertex past the guard: each proposal takes Decimal defects until
    # its first rejecting vertex, 138 cone angles in all, and decides the same
    calls = _counted_cone_angles(monkeypatch)
    monkeypatch.setattr(search, "_float_defect", lambda S, i: None)
    guarded: dict = {}
    out_guarded = hill_climb(prepared_sketch, SearchConfig(), steps=40, record=guarded)
    assert len(calls) == 138
    assert out_guarded.coords == out.coords
    assert repr(guarded) == repr(record)


@pytest.mark.parametrize("toward", [True, False], ids=["toward-b", "away-from-b"])
@pytest.mark.parametrize(
    "case",
    [("sketch", seed) for seed in range(2026, 2031)] + [("near_flat", 5), ("below_b", 5)],
    ids=lambda case: f"{case[0]}-{case[1]}",
)
def test_climb_equals_the_reference_with_the_float_defect_off_by_almost_its_margin(
    case, toward, prepared_sketch, newton_run, monkeypatch
):
    """Each |Θ_f| is |Θ_i| moved 0.99·M toward the best objective b, or away
    from it (but not below 0): the climb must decide as the full evaluation
    does for any Θ_f within the margin, not only for the one today's libm
    returns."""
    kind, seed = case
    if kind == "sketch":
        start, cfg, steps = prepared_sketch, SearchConfig(rng_seed=seed), 40
    elif kind == "near_flat":
        start, steps = newton_run[0], 10
        cfg = SearchConfig(rng_seed=seed, initial_step=F(1, 10**20))
    else:
        # at 80 digits b is about 6·10⁻⁶⁴ and steps of 10⁻⁷⁰ move a defect by
        # far less than M, so every vertex below b lies within M of it; 3 of
        # the 10 proposals are accepted
        start, steps = newton_run[0], 10
        cfg = SearchConfig(rng_seed=seed, initial_step=F(1, 10**70), climb_precision=80)
    p = cfg.climb_precision
    unit = F(1, 2**40) + F(2, 10 ** (8 + p))
    start_objective = objective(start, p)
    history: list = []
    real = search._float_defect

    def adversarial(S, i):
        if real(S, i) is None:
            return None
        b = history[-1][1] if history else start_objective
        theta = F(jacobian._vertex_defect(S, i, p).copy_abs())
        shift = F(99, 100) * (len(S.triangulation.links[i]) + 1) * unit
        return float(max(theta + (shift if (theta < b) == toward else -shift), 0))

    monkeypatch.setattr(search, "_float_defect", adversarial)
    record: dict = {}
    out = hill_climb(start, cfg, steps=steps, record=record, history=history)
    monkeypatch.undo()
    ref_record: dict = {}
    ref_history: list = []
    ref = oracles.hill_climb_reference(
        start, cfg, objective, search._perturbed,
        (CertificationError, ValueError, ZeroDivisionError),
        steps=steps, record=ref_record, history=ref_history,
    )
    assert out.coords == ref.coords
    assert repr(record) == repr(ref_record)
    assert repr(history) == repr(ref_history)


def _star(center: Point3, link: tuple) -> EmbeddedSurface:
    """The fans (0, j, j + 1) and (d + 1, j + 1, j) of a closed sphere in
    which the link of vertex 0 is ``link``; the far apex d + 1 is the origin."""
    d = len(link)
    faces = tuple((0, j, j % d + 1) for j in range(1, d + 1))
    faces += tuple((d + 1, j % d + 1, j) for j in range(1, d + 1))
    return EmbeddedSurface(Triangulation(d + 2, faces), (center,) + link + (Point3.of(0, 0, 0),))


def _exact_cos2_and_dot(S: EmbeddedSurface, i: int) -> list:
    """(A, ⟨V, W⟩_X) of each corner at vertex i, from the rational metric."""
    X = S.coords[i]
    cycle = vertex_link(S.triangulation, i)
    out = []
    for y, z in zip(cycle, cycle[1:] + cycle[:1]):
        V, W = S.coords[y].sub(X), S.coords[z].sub(X)
        vw = klein_inner(X, V, W)
        out.append((vw * vw / (klein_inner(X, V, V) * klein_inner(X, W, W)), vw))
    return out


@settings(max_examples=150, deadline=None)
@given(vertex=vertex_stars)
def test_float_defect_is_within_the_margin_of_the_mpmath_defect(vertex):
    S = _star(*vertex)
    d = len(vertex[1])
    corners = _exact_cos2_and_dot(S, 0)
    theta_f = search._float_defect(S, 0)
    # Fraction → float is the correctly rounded division the filter makes
    assert (theta_f is None) == any(
        math.sqrt(float(A)) > search._GUARD for A, _ in corners
    )
    if theta_f is None:
        return  # the climb takes the Decimal defect here
    with mpmath.workdps(80):
        truth = -2 * mpmath.pi
        for A, vw in corners:
            c = mpmath.sqrt(mpmath.mpf(A.numerator) / A.denominator)
            truth += mpmath.acos(-c if vw < 0 else c)
        # the two terms of the margin (d + 1)·(2⁻⁴⁰ + 2·10^(−8−p))
        assert abs(theta_f - truth) < (d + 1) * mpmath.mpf(2) ** -40
        for p in (1, 2, 50):
            decimal = jacobian._vertex_defect(S, 0, p)
            assert abs(mpmath.mpf(str(decimal)) - truth) < 2 * (d + 1) * mpmath.mpf(10) ** (-8 - p)


def test_climb_rejects_negative_budget(prepared_sketch):
    with pytest.raises(ValueError, match="nonnegative"):
        hill_climb(prepared_sketch, SearchConfig(), steps=-1)


# ---------------------------------------------------------------------------
# newton_refine


def test_newton_reaches_tolerance_within_three_iterations(newton_run):
    refined, trace = newton_run
    assert len(trace) - 1 <= 3
    assert trace[-1] <= F(1, 10**35) ** 2
    assert theta_map(refined, 120).norm_sq() <= F(1, 10**70)


def test_newton_decay_is_quadratic(deep_newton_run):
    _, trace = deep_newton_run
    logs = [_log10_of_norm(t) for t in trace]
    assert len(logs) >= 4  # -31, -63, -127, -254 for the recorded run
    for before, after in zip(logs, logs[1:]):
        assert 1.9 < after / before < 2.1
        assert abs(after - 2 * before) < 3


def test_newton_rounds_each_height_to_the_digits_its_step_determined(refine_input):
    trace: list = []
    refined = newton_refine(refine_input, SearchConfig(), trace=trace)
    assert len(trace) == 3 and trace[-1] <= F(1, 10**35) ** 2
    # the last step started from norm_sq = trace[1]; its grid is 10^(e1 - 10)
    scale = 10 ** (10 - _fraction_exponent(trace[1]))
    for p in refined.coords:
        assert (p.z * scale).denominator == 1
    assert refined.denominator < 10**100


def test_newton_grid_exponent_below_float_range(candidate_surface):
    # the fifth step starts from norm_sq ~ 1e-508, which is 0.0 as a float;
    # the grid is taken from the exact exponent, so Newton still converges
    tol = F(1, 10**300)
    trace: list = []
    refined = newton_refine(candidate_surface, SearchConfig(newton_tol=tol), trace=trace)
    assert len(trace) - 1 <= 5
    assert trace[-1] <= tol**2
    assert float(trace[-2]) == 0.0
    scale = 10 ** (10 - _fraction_exponent(trace[-2]))
    assert all((p.z * scale).denominator == 1 for p in refined.coords)


@pytest.mark.parametrize("jitter", [3, 8, 13, 20])
def test_newton_equals_the_reference_at_400_digits(candidate_surface, jitter):
    """Newton at ``newton_digits`` takes the steps it takes at 400 digits.

    The reference runs once to 10⁻¹⁵⁰ at 400 digits.  Its iterates do not
    depend on the tolerance, so its run to a larger tolerance stops at the
    first of them whose squared norm is at most tol².
    """
    rng = random.Random(f"newton-digits:{jitter}")
    start = surface_with_heights(
        candidate_surface,
        [
            p.z + F(rng.choice((-1, 1)) * rng.randint(1, 10), 10**jitter)
            for p in candidate_surface.coords
        ],
    )
    iterates = [start]

    def recording(surface, heights):
        iterates.append(surface_with_heights(surface, heights))
        return iterates[-1]

    ref_trace: list = []
    oracles.newton_refine_reference(
        start, SearchConfig(newton_tol=F(1, 10**150)), 400, theta_map, dtheta_analytic,
        search._lu_solve, recording, CertificationError, trace=ref_trace,
    )
    for tol in (F(1, 10**20), F(1, 10**35), F(1, 10**150)):
        k = next(k for k, t in enumerate(ref_trace) if t <= tol**2)
        trace: list = []
        out = newton_refine(start, SearchConfig(newton_tol=tol), trace=trace)
        assert out.coords == iterates[k].coords
        assert len(trace) == k + 1
        assert [_fraction_exponent(t) for t in trace] == [
            _fraction_exponent(t) for t in ref_trace[: k + 1]
        ]


@pytest.mark.parametrize(
    "kwargs, digits",
    [
        ({}, 90),
        ({"newton_tol": F(1, 10**150)}, 320),
        ({"newton_tol": F(1, 10**190)}, 400),
        ({"newton_tol": F(1, 10**300)}, 620),
    ],
)
def test_newton_evaluates_everything_at_newton_digits(
    candidate_surface, monkeypatch, kwargs, digits
):
    seen = []
    lu_solve = search._lu_solve

    def theta_at(surface, precision):
        seen.append(("theta_map", precision))
        return theta_map(surface, precision)

    def jacobian_at(surface, precision):
        seen.append(("dtheta_analytic", precision))
        return dtheta_analytic(surface, precision)

    def lu_at(matrix, rhs, precision):
        seen.append(("_lu_solve", precision))
        return lu_solve(matrix, rhs, precision)

    monkeypatch.setattr(search, "theta_map", theta_at)
    monkeypatch.setattr(search, "dtheta_analytic", jacobian_at)
    monkeypatch.setattr(search, "_lu_solve", lu_at)
    cfg = SearchConfig(max_steps=1, **kwargs)
    newton_refine(candidate_surface, cfg)
    assert seen == [
        ("theta_map", digits),
        ("dtheta_analytic", digits),
        ("_lu_solve", digits),
        ("theta_map", digits),
    ]


def test_newton_preserves_xy_exactly(candidate_surface, newton_run):
    refined, _ = newton_run
    for original, updated in zip(candidate_surface.coords, refined.coords):
        assert updated.x == original.x
        assert updated.y == original.y
        assert updated.z != original.z


def test_newton_already_converged_returns_immediately(newton_run):
    refined, _ = newton_run
    trace: list = []
    again = newton_refine(refined, SearchConfig(), trace=trace)
    assert again is refined
    assert len(trace) == 1


def test_newton_budget_exhaustion_returns_last_iterate(candidate_surface):
    cfg = SearchConfig(max_steps=1, newton_tol=F(1, 10**150))
    trace: list = []
    out = newton_refine(candidate_surface, cfg, trace=trace)
    assert len(trace) == 2
    assert trace[1] > cfg.newton_tol**2
    assert out.coords != candidate_surface.coords


def test_newton_evaluates_the_defect_once_per_iterate(candidate_surface, monkeypatch):
    evaluations = []

    def counting(surface, precision):
        evaluations.append(surface)
        return theta_map(surface, precision)

    monkeypatch.setattr("kleincert.search.theta_map", counting)
    cfg = SearchConfig(max_steps=2, newton_tol=F(1, 10**150))
    trace: list = []
    newton_refine(candidate_surface, cfg, trace=trace)
    iterations = len(trace) - 1
    assert iterations == 2
    assert len(evaluations) == iterations + 1


def test_newton_rejects_singular_jacobian(candidate_surface, monkeypatch):
    zeros = JacobianMatrix(
        entries=tuple(tuple(F(0) for _ in range(10)) for _ in range(10))
    )
    monkeypatch.setattr(
        "kleincert.search.dtheta_analytic",
        lambda surface, precision=60: zeros,
    )
    with pytest.raises(CertificationError, match="singular Jacobian"):
        newton_refine(candidate_surface, SearchConfig())


def test_newton_detects_divergence(candidate_surface, monkeypatch):
    # a negated identity sends the iteration the wrong way along Theta
    wrong_way = JacobianMatrix(
        entries=tuple(
            tuple(Decimal(-1) if i == j else Decimal(0) for j in range(10)) for i in range(10)
        )
    )
    monkeypatch.setattr(
        "kleincert.search.dtheta_analytic",
        lambda surface, precision=60: wrong_way,
    )
    cfg = SearchConfig(newton_tol=F(1, 10**40), max_steps=10)
    with pytest.raises(CertificationError, match="diverged"):
        newton_refine(candidate_surface, cfg)
