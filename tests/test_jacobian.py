"""Jacobian of the cone-defect map: analytics, bounds, and the expansion chain.

Layers covered: the packaged reference matrix and its sparsity; the defect
map and its equivariance; analytic vs central-difference Jacobians; the
crude geometric bounds; the second-order constant chain; exact LDLᵀ
singular-value floors (cross-checked against an independent computer-algebra
oracle); and the expansion/existence certificates with their failure modes.
"""

from __future__ import annotations

import dataclasses
import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    corner_partials,
    cosh_enclosure,
    dtheta_enclosure_reference,
    gram_root_bracket_bisection,
    interval_div,
    interval_mul,
    sinh_enclosure,
    smallest_singular_value,
    sqrt_enclosure,
)
from strategies import corners

from kleincert.certify_embed import certify_embeddedness
from kleincert.jacobian import (
    ChainInequality,
    DefectVector,
    ExpansionCertificate,
    JacobianMatrix,
    SECOND_ORDER_CAP,
    _corner_partials,
    _definiteness,
    certify_expansion,
    certify_surface_expansion,
    conclude_existence,
    crude_bounds,
    dtheta_analytic,
    dtheta_enclosure,
    dtheta_fd,
    reference_jacobian,
    second_order_inequalities,
    second_partial_bound,
    singular_lower_bound,
    smallest_gram_root_bracket,
    surface_with_heights,
    theta_map,
)
import kleincert.jacobian as jacobian_module
from kleincert.klein import Point3, cos2_and_sign, distance
from kleincert.mesh import EmbeddedSurface, Triangulation, cone_angle, vertex_link
from kleincert.precision import Bound, CertificationError, sqrt_bounds, two_pi
from kleincert.search import _lu_solve


@pytest.fixture(scope="module")
def reference_matrix():
    return reference_jacobian()


@pytest.fixture(scope="module")
def adjacency(candidate_surface):
    T = candidate_surface.triangulation
    return [set(vertex_link(T, i)) for i in range(T.n_vertices)]


@pytest.fixture(scope="module")
def candidate_crude(candidate_surface):
    return crude_bounds(candidate_surface)


@pytest.fixture(scope="module")
def candidate_enclosure(candidate_surface):
    return dtheta_enclosure(candidate_surface, precision=60)


@pytest.fixture(scope="module")
def expansion_certificate(reference_matrix, candidate_enclosure, candidate_crude):
    return certify_expansion(
        reference_matrix,
        dtheta_center=candidate_enclosure,
        second_order_cap=second_partial_bound(candidate_crude),
    )


# ---------------------------------------------------------------------------
# Packaged reference matrix
# ---------------------------------------------------------------------------


def test_reference_matrix_shape_and_corner_entries(reference_matrix):
    assert len(reference_matrix) == 10
    assert all(len(row) == 10 for row in reference_matrix)
    assert reference_matrix[0][0] == Fraction("-7.526")
    assert reference_matrix[9][9] == Fraction("-11.599")


def test_reference_entries_are_three_decimal_rationals(reference_matrix):
    for row in reference_matrix:
        for entry in row:
            assert 1000 % entry.denominator == 0


def test_reference_zero_pattern_equals_non_adjacency(reference_matrix, adjacency):
    for i in range(10):
        for j in range(10):
            connected = i == j or j in adjacency[i]
            assert (reference_matrix[i][j] != 0) == connected


def test_reference_vertices_one_and_nine_not_adjacent(reference_matrix, adjacency):
    assert 9 not in adjacency[1]
    assert reference_matrix[1][9] == 0
    assert reference_matrix[9][1] == 0


# ---------------------------------------------------------------------------
# The defect map
# ---------------------------------------------------------------------------


def test_defect_is_cone_angle_minus_full_turn(tetrahedron_surface):
    precision = 50
    dv = theta_map(tetrahedron_surface, precision=precision)
    full_turn = two_pi(precision + 10)
    for i, got in enumerate(dv.theta):
        with localcontext(Context(prec=precision + 10)):
            expected = +(cone_angle(tetrahedron_surface, i, precision + 10) - full_turn)
        assert got == expected


def test_candidate_defect_norm_below_cap(candidate_surface):
    dv = theta_map(candidate_surface, precision=120)
    assert dv.norm_sq() < Fraction(1, 10**54)
    assert Fraction(dv.sup_norm()) < Fraction(1, 10**27)


def _permuted_surface(S: EmbeddedSurface, pi: list, relabel_faces: bool) -> EmbeddedSurface:
    """Coordinates of vertex v move to slot pi[v]; faces follow if requested."""
    inv = [0] * len(pi)
    for v, w in enumerate(pi):
        inv[w] = v
    coords = tuple(S.coords[inv[j]] for j in range(len(pi)))
    faces = S.triangulation.faces
    if relabel_faces:
        faces = tuple((pi[a], pi[b], pi[c]) for a, b, c in faces)
    T = Triangulation(n_vertices=S.triangulation.n_vertices, faces=faces)
    return EmbeddedSurface(triangulation=T, coords=coords)


def test_defect_equivariance_under_simultaneous_relabel(candidate_surface):
    pi = [3, 1, 4, 0, 9, 2, 6, 8, 7, 5]
    relabeled = _permuted_surface(candidate_surface, pi, relabel_faces=True)
    base = theta_map(candidate_surface, precision=60)
    moved = theta_map(relabeled, precision=60)
    tol = Fraction(1, 10**60)
    for i in range(10):
        assert abs(Fraction(moved.theta[pi[i]]) - Fraction(base.theta[i])) < tol


def test_defect_equivariance_under_automorphism(tetrahedron_surface):
    # the 3-cycle on vertices 1, 2, 3 maps the oriented face set to itself,
    # so permuting only the coordinates permutes the defects
    pi = [0, 2, 3, 1]
    moved = _permuted_surface(tetrahedron_surface, pi, relabel_faces=False)
    canon = {tuple(sorted(f)) for f in tetrahedron_surface.triangulation.faces}
    assert {tuple(sorted((pi[a], pi[b], pi[c]))) for a, b, c in
            tetrahedron_surface.triangulation.faces} == canon
    base = theta_map(tetrahedron_surface, precision=60)
    after = theta_map(moved, precision=60)
    tol = Fraction(1, 10**60)
    for i in range(4):
        assert abs(Fraction(after.theta[pi[i]]) - Fraction(base.theta[i])) < tol


def test_surface_with_heights_replaces_only_z(tetrahedron_surface):
    new_z = [Fraction(1, 8), Fraction(-1, 8), Fraction(0), Fraction(1, 16)]
    moved = surface_with_heights(tetrahedron_surface, new_z)
    for old, new, z in zip(tetrahedron_surface.coords, moved.coords, new_z):
        assert (new.x, new.y) == (old.x, old.y)
        assert new.z == z
    with pytest.raises(ValueError, match="length"):
        surface_with_heights(tetrahedron_surface, new_z[:3])


# ---------------------------------------------------------------------------
# Analytic Jacobian
# ---------------------------------------------------------------------------


def test_jacobian_matches_reference_entrywise(candidate_enclosure, reference_matrix):
    worst = Fraction(0)
    for i in range(10):
        for j in range(10):
            b = candidate_enclosure[i][j]
            m = reference_matrix[i][j]
            dev = max(abs(Fraction(b.lo) - m), abs(Fraction(b.hi) - m))
            worst = max(worst, dev)
    assert worst < Fraction(1, 1000)


def test_jacobian_zero_pattern_exact(candidate_enclosure, adjacency):
    for i in range(10):
        for j in range(10):
            if i != j and j not in adjacency[i]:
                b = candidate_enclosure[i][j]
                assert b.lo == 0 and b.hi == 0


def test_jacobian_enclosure_is_its_rows_and_names_its_surface(
    candidate_surface, candidate_enclosure
):
    plain = [list(row) for row in candidate_enclosure]
    assert candidate_enclosure == plain and plain == candidate_enclosure
    assert candidate_enclosure.surface_digest == candidate_surface.digest
    assert candidate_enclosure[3] == plain[3]
    assert list(iter(candidate_enclosure)) == plain
    assert type(candidate_enclosure[:9]) is list and candidate_enclosure[:9] == plain[:9]


def test_jacobian_enclosure_widths_certified(candidate_enclosure):
    widths = [Fraction(b.hi) - Fraction(b.lo) for row in candidate_enclosure for b in row]
    assert max(widths) < Fraction(1, 10**30)


def _one_face_surface(corner, labels):
    """The corner's three points as the one face ``labels`` of an 8-vertex
    surface, the other vertices at the origin."""
    return EmbeddedSurface(
        triangulation=Triangulation(n_vertices=8, faces=(labels,)),
        coords=tuple(
            corner[labels.index(v)] if v in labels else Point3.of(0, 0, 0)
            for v in range(8)
        ),
    )


def _root_enclosure(D: Fraction):
    """√D as a point when D is a rational square, else a bisection enclosure
    whose width is at most 10⁻⁶⁰ of √D."""
    a, b = math.isqrt(D.numerator), math.isqrt(D.denominator)
    if a * a == D.numerator and b * b == D.denominator:
        return Fraction(a, b), Fraction(a, b)
    return sqrt_enclosure(D, min(D, 1) / 10**60)


def _exact_entries(S: EmbeddedSurface):
    """{(i, l): [A, B]} around Σ N_l/√D over the corners at vertex i, from the
    oracle's corner partials: each term N/√D lies between N/r_lo and N/r_hi."""
    entries = {}
    for face in S.triangulation.faces:
        for r in range(3):
            i, j, k = face[r], face[(r + 1) % 3], face[(r + 2) % 3]
            numerators, D, _ = corner_partials(*(S.coords[v] for v in (i, j, k)), i, j, k)
            r_lo, r_hi = _root_enclosure(D)
            for l, N in numerators.items():
                a, b = sorted((N / r_hi, N / r_lo))
                lo, hi = entries.get((i, l), (0, 0))
                entries[(i, l)] = (lo + a, hi + b)
    return entries


def _assert_enclosure_holds_the_exact_entries(S, exact, precision):
    rows = dtheta_enclosure(S, precision=precision)
    for i, row in enumerate(rows):
        for l, b in enumerate(row):
            if (i, l) in exact:
                lo, hi = exact[(i, l)]
                assert Fraction(b.lo) <= lo and hi <= Fraction(b.hi), (i, l, b)
            else:
                assert b.lo == b.hi == 0


@pytest.fixture(scope="module")
def candidate_exact_entries(candidate_surface):
    return _exact_entries(candidate_surface)


# at 3 to 8 digits the rounding of each term is as large as the root's
# width, so each end must round away from the entry on its own
@pytest.mark.parametrize("precision", range(3, 9))
def test_jacobian_enclosure_contains_the_exact_entry_on_the_candidate(
    candidate_surface, candidate_exact_entries, precision
):
    _assert_enclosure_holds_the_exact_entries(
        candidate_surface, candidate_exact_entries, precision
    )


@settings(max_examples=60, deadline=None)
@given(corner=corners, precision=st.integers(min_value=3, max_value=8))
def test_jacobian_enclosure_contains_the_exact_entry_on_generated_corners(corner, precision):
    labels = (7, 2, 5)
    S = _one_face_surface(corner, labels)
    for r in range(3):  # no corner below the degeneracy guard
        _, _, d, gg, _ = _corner_partials(S, *labels[r:], *labels[:r])
        assume(d * 10**12 >= gg)
    _assert_enclosure_holds_the_exact_entries(S, _exact_entries(S), precision)


def test_jacobian_matrix_validates_shape():
    with pytest.raises(ValueError, match="square"):
        JacobianMatrix(entries=((Decimal(1), Decimal(2)), (Decimal(3),)))
    m = JacobianMatrix(entries=((Decimal(1), Decimal(2)), (Decimal(3), Decimal(4))))
    assert m[0, 1] == Decimal(2)
    assert m.n == 2


@settings(max_examples=60, deadline=None)
@given(corner=corners)
def test_corner_partials_equal_the_fraction_expansion(corner):
    labels = (7, 2, 5)
    S = _one_face_surface(corner, labels)
    numerators, den, d, gg, a4 = _corner_partials(S, *labels)
    got = {l: Fraction(N, den) for l, N in numerators.items()}, Fraction(d, a4), Fraction(gg, a4)
    want = corner_partials(*corner, *labels)
    assert got == want


def _first_newton_iterate(start):
    """One unrounded Newton step at 400 digits from ``start``.  Each height
    is z − δ taken whole, where ``newton_refine`` would round it to the
    digits the step determined, so the lattice denominator q has hundreds
    of digits."""
    jacobian = dtheta_analytic(start, precision=400)
    delta = _lu_solve(jacobian.entries, list(theta_map(start, 400).theta), 400)
    iterate = surface_with_heights(
        start, [p.z - Fraction(d) for p, d in zip(start.coords, delta)]
    )
    assert iterate.denominator > 10**400
    return iterate


@pytest.mark.parametrize(
    "surface, precision, target_width",
    [("candidate", 60, Fraction(1, 10**40)), ("newton iterate", 400, Fraction(1, 10**150))],
)
def test_jacobian_enclosure_rounds_as_the_whole_fraction_body(
    candidate_surface, refine_input, surface, precision, target_width
):
    # every endpoint, digits and exponent, as when each N was reduced to a
    # Fraction and converted whole; target_width is the width these call
    # sites passed while the enclosure also took one, and each root's
    # digits already met it
    S = candidate_surface if surface == "candidate" else _first_newton_iterate(refine_input)
    corners = []
    for face in S.triangulation.faces:
        for r in range(3):
            i, j, k = face[r], face[(r + 1) % 3], face[(r + 2) % 3]
            numerators, den, d, _, a4 = _corner_partials(S, i, j, k)
            root = sqrt_bounds(Fraction(d, a4), precision)
            assert Fraction(root.hi) - Fraction(root.lo) <= target_width
            corners.append(
                (i, {l: Fraction(N, den) for l, N in numerators.items()}, (root.lo, root.hi))
            )
    want = dtheta_enclosure_reference(S.triangulation.n_vertices, corners, precision)
    got = dtheta_enclosure(S, precision=precision)
    for got_row, want_row in zip(got, want):
        for b, (lo, hi) in zip(got_row, want_row):
            assert (b.lo.as_tuple(), b.hi.as_tuple()) == (lo.as_tuple(), hi.as_tuple())


def test_degenerate_corner_rejected(tetrahedron):
    eps = Fraction(1, 10**9)
    coords = (
        Point3.of(0, 0, 0),
        Point3.of(Fraction(1, 2), 0, 0),
        Point3.of(Fraction(1, 4), eps, 0),
        Point3.of(0, 0, Fraction(1, 2)),
    )
    squashed = EmbeddedSurface(triangulation=tetrahedron, coords=coords)
    with pytest.raises(CertificationError, match="degenerate corner"):
        dtheta_enclosure(squashed, precision=40)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def test_fd_agrees_with_analytic_at_candidate(candidate_surface, candidate_enclosure):
    fd = dtheta_fd(candidate_surface, h=Fraction(1, 10**20), precision=100)
    worst = Fraction(0)
    for i in range(10):
        for j in range(10):
            mid = Fraction(candidate_enclosure[i][j].midpoint(60))
            worst = max(worst, abs(Fraction(fd.entries[i][j]) - mid))
    assert worst <= Fraction(1, 10**25)


def test_fd_reproduces_linear_map_exactly(tetrahedron_surface):
    A = [
        [3, -1, 0, 2],
        [0, 5, -2, 1],
        [7, 0, 1, -4],
        [-2, 6, 0, 3],
    ]
    offsets = [1, -2, 0, 5]

    def linear_map(s, precision=100):
        z = [p.z for p in s.coords]
        with localcontext(Context(prec=precision)):
            theta = tuple(
                sum(
                    (Decimal(a) * Decimal(v.numerator) / Decimal(v.denominator)
                     for a, v in zip(row, z)),
                    Decimal(off),
                )
                for row, off in zip(A, offsets)
            )
        return DefectVector(z=tuple(z), theta=theta)

    fd = dtheta_fd(tetrahedron_surface, h=Fraction(1, 10**20), precision=100,
                   map_fn=linear_map)
    for i in range(4):
        for j in range(4):
            assert fd.entries[i][j] == Decimal(A[i][j])


def test_fd_truncation_error_is_second_order(candidate_surface):
    tight = dtheta_enclosure(candidate_surface, precision=80)

    def deviation(h):
        fd = dtheta_fd(candidate_surface, h=h, precision=60)
        return max(
            abs(Fraction(fd.entries[i][j]) - Fraction(tight[i][j].midpoint(80)))
            for i in range(10)
            for j in range(10)
        )

    d1 = deviation(Fraction(1, 10**10))
    d2 = deviation(Fraction(1, 2 * 10**10))
    assert d1 > 0 and d2 > 0
    ratio = d1 / d2
    assert Fraction(7, 2) < ratio < Fraction(9, 2)


def test_fd_rejects_nonpositive_step(tetrahedron_surface):
    with pytest.raises(ValueError, match="positive"):
        dtheta_fd(tetrahedron_surface, h=Fraction(0), precision=30)


# ---------------------------------------------------------------------------
# Crude geometric bounds
# ---------------------------------------------------------------------------


def test_crude_bound_families_on_candidate(candidate_crude):
    c = candidate_crude
    assert c.ball_radius == Fraction(1, 10**18)
    assert c.center_norm_cap == Fraction(79, 100)
    assert c.coord_cap == Fraction(4, 5)
    assert c.euclidean_edge_range == (Fraction(509, 1000), Fraction(1561, 1000))
    assert c.tangent_norm_range == (Fraction(1, 2), Fraction(13))
    assert c.edge_length_center_range == (Fraction(63, 100), Fraction(208, 100))
    assert c.edge_length_slack == Fraction(16, 10**18)
    assert c.edge_length_range == (Fraction(3, 5), Fraction(21, 10))
    assert c.cos_center_range == (Fraction(-8, 1000), Fraction(96, 100))
    assert c.cos_perturb_slack == Fraction(2, 10**15)
    assert c.cos_range == (Fraction(-1, 100), Fraction(961, 1000))
    assert c.psi_lipschitz == 70
    assert c.sin_floor == Fraction(6, 25)


def test_law_of_cosines_partial_caps():
    half, top = Fraction(1, 2), Fraction(21, 10)
    sh_half = sinh_enclosure(half)
    ch_half = cosh_enclosure(half)
    sh_top = sinh_enclosure(top)
    ch_top = cosh_enclosure(top)
    tanh_half = interval_div(sh_half, ch_half)
    sh_half_sq = interval_mul(sh_half, sh_half)

    far_side = interval_div(sh_top, sh_half_sq)
    assert far_side[1] <= 15

    near_side = interval_div(
        (ch_top[0] + 1, ch_top[1] + 1),
        interval_mul(tanh_half, sh_half_sq),
    )
    assert near_side[1] <= 42

    assert 42**2 + 42**2 + 15**2 <= 70**2


def test_cosine_extremes_consistent_with_squared_tables(candidate_surface):
    T = candidate_surface.triangulation
    negative_seen = False
    for i in range(T.n_vertices):
        cycle = vertex_link(T, i)
        q, lattice = candidate_surface.denominator, candidate_surface.lattice
        for r in range(len(cycle)):
            y = lattice[cycle[r]]
            z = lattice[cycle[(r + 1) % len(cycle)]]
            alpha, sign = cos2_and_sign(q, lattice[i], y, z)
            if sign >= 0:
                assert alpha <= Fraction(96, 100) ** 2
            else:
                negative_seen = True
                assert alpha <= Fraction(8, 1000) ** 2
    assert negative_seen


def test_crude_bounds_failure_names_the_edge(tetrahedron):
    q = Fraction(1, 100)
    tiny = EmbeddedSurface(
        triangulation=tetrahedron,
        coords=(
            Point3(q, q, q),
            Point3(q, -q, -q),
            Point3(-q, q, -q),
            Point3(-q, -q, q),
        ),
    )
    with pytest.raises(CertificationError, match=r"edge \(0, 1\)"):
        crude_bounds(tiny)


def test_crude_bounds_rejects_a_sqrt_argument_out_of_range(tetrahedron):
    # √Δ − b − 2c of edge (0, 1), a diameter of length 1.56, is 6.3368; no
    # premise reads that argument, and the edge fails on its length instead
    wide = EmbeddedSurface(
        triangulation=tetrahedron,
        coords=tuple(
            Point3.of(*p)
            for p in (("-0.78", 0, 0), ("0.78", 0, 0), (0, "0.6", 0), (0, 0, "0.6"))
        ),
    )
    message = r"^crude bound failed: hyperbolic length of edge \(0, 1\)$"
    with pytest.raises(CertificationError, match=message):
        crude_bounds(wide)


def test_crude_bounds_reads_no_log_argument_range(tetrahedron):
    # 4c(a + b + c) = 4(1 − |X|²)(1 − |Y|²) of edge (0, 1) is 0.616225, an ln
    # argument outside [0.62, 2]; no premise reads it, and the mesh passes
    r = Fraction(45, 100)
    regular = EmbeddedSurface(
        triangulation=tetrahedron,
        coords=(Point3(r, r, r), Point3(r, -r, -r), Point3(-r, r, -r), Point3(-r, -r, r)),
    )
    assert crude_bounds(regular).sin_floor == Fraction(6, 25)


def test_crude_bounds_rejects_oversized_ball(candidate_surface):
    with pytest.raises(CertificationError, match="ball escapes"):
        crude_bounds(candidate_surface, ball_radius=Fraction(1, 50))


def test_crude_lengths_at_the_default_width_clear_their_range(candidate_surface):
    # crude_bounds encloses each edge length at the width it states, 10⁻⁸;
    # every enclosure lies at least 10⁻³ inside [0.63, 2.08]
    q, lattice = candidate_surface.denominator, candidate_surface.lattice
    faces = candidate_surface.triangulation.faces
    edges = {tuple(sorted((f[r], f[(r + 1) % 3]))) for f in faces for r in range(3)}
    margin = Fraction(1, 1000)
    for a, b in sorted(edges):
        d = distance(q, lattice[a], lattice[b], Fraction(1, 10**8))
        assert Fraction(63, 100) + margin <= Fraction(d.lo), (a, b)
        assert Fraction(d.hi) <= Fraction(208, 100) - margin, (a, b)


def test_crude_bounds_equal_on_premises_jitters(candidate_surface, candidate_crude):
    # heights moved by k·10⁻²¹, 1 ≤ |k| ≤ 10, as the benchmark's premises
    # workload moves them
    for tag in ("premises:0:0", "premises:0:1", "premises:7:3"):
        rng = Random(tag)
        heights = [
            p.z + Fraction(rng.choice((-1, 1)) * rng.randint(1, 10), 10**21)
            for p in candidate_surface.coords
        ]
        jittered = surface_with_heights(candidate_surface, heights)
        assert crude_bounds(jittered) == candidate_crude, tag


# ---------------------------------------------------------------------------
# Second-order constant chain
# ---------------------------------------------------------------------------


def test_chain_inequalities_all_hold(candidate_crude):
    chain = second_order_inequalities(candidate_crude)
    assert len(chain) == 11
    for step in chain:
        assert isinstance(step, ChainInequality)
        assert step.holds, step.label


def test_chain_recorded_angle_route(candidate_crude):
    by_label = {s.label: s for s in second_order_inequalities(candidate_crude)}
    recorded = by_label["angle partial (recorded constants)"]
    assert recorded.lhs == (2 * Fraction(8, 5) * 10**3 + 10**3) / (
        Fraction(1, 4) * Fraction(17, 50)
    )
    assert recorded.rhs == Fraction(32, 10) * 10**6
    cap = by_label["angle partial cap"]
    assert (cap.lhs, cap.rhs) == (Fraction(32, 10) * 10**6, Fraction(10**7))


def test_chain_certified_angle_route(candidate_crude):
    by_label = {s.label: s for s in second_order_inequalities(candidate_crude)}
    certified = by_label["angle partial (certified constants)"]
    assert certified.lhs == Fraction(27000) / (Fraction(1, 4) * Fraction(6, 25))
    assert certified.lhs == 450000
    assert certified.rhs == Fraction(32, 10) * 10**6


def test_chain_final_cap_and_denominator_floor(candidate_crude):
    assert second_partial_bound(candidate_crude) == Fraction(10**14)
    assert SECOND_ORDER_CAP == Fraction(10**14)
    assert 1 - candidate_crude.coord_cap**2 == Fraction(9, 25)
    final = second_order_inequalities(candidate_crude)[-1]
    assert final.label == "angle second partial"
    assert final.lhs < Fraction(3, 10) * 10**14  # evaluates to ≈ 2.9·10¹³


def test_chain_failure_names_the_inequality(candidate_crude):
    broken = dataclasses.replace(
        candidate_crude, tangent_norm_range=(Fraction(1, 2), Fraction(10**6))
    )
    with pytest.raises(CertificationError, match="angle partial"):
        second_partial_bound(broken)


# ---------------------------------------------------------------------------
# Singular floors
# ---------------------------------------------------------------------------


def test_singular_floor_identity_is_one():
    ident = [[Fraction(int(i == j)) for j in range(10)] for i in range(10)]
    assert singular_lower_bound(ident) == 1


def test_singular_floor_diagonal_is_two():
    diag = [[Fraction(i + 2) if i == j else Fraction(0) for j in range(10)]
            for i in range(10)]
    assert singular_lower_bound(diag) == 2


def test_singular_floor_reference_exceeds_three_halves(reference_matrix):
    sigma = singular_lower_bound(reference_matrix)
    assert sigma > Fraction(3, 2)
    assert sigma**2 > Fraction(9, 4)  # smallest Gram root beyond 2.25
    assert smallest_gram_root_bracket(reference_matrix) == (
        Fraction(2403459, 2**20),
        Fraction(2403460, 2**20),
    )


def test_definiteness_zero_pivot_rule():
    F = Fraction
    assert _definiteness([[F(2), F(1)], [F(1), F(2)]], F(0)) == 1
    assert _definiteness([[F(2), F(1)], [F(1), F(2)]], F(1)) == 0  # eigenvalues 1, 3
    assert _definiteness([[F(2), F(1)], [F(1), F(2)]], F(2)) == -1
    # a zero pivot is semidefinite only when its column below is zero
    assert _definiteness([[F(0), F(0)], [F(0), F(1)]], F(0)) == 0
    assert _definiteness([[F(0), F(1)], [F(1), F(5)]], F(0)) == -1


def test_singular_floor_zero_for_rank_deficient():
    M = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert singular_lower_bound(M) == 0


def test_singular_floor_certifies_clustered_eigenvalues():
    # eigenvalues 1 and (1 + 10⁻⁹)² lie 2·10⁻⁹ apart, far inside one grid cell;
    # the definiteness test at x = 1 is singular, so the bracket is a point
    close = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1) + Fraction(1, 10**9)]]
    assert smallest_gram_root_bracket(close) == (Fraction(1), Fraction(1))
    assert singular_lower_bound(close) == 1


def test_singular_floor_below_oracle_on_random_matrices():
    rng = Random(0x5EED11)
    successes = 0
    attempts = 0
    while successes < 6 and attempts < 40:
        attempts += 1
        n = rng.choice([3, 4, 5])
        M = [[Fraction(rng.randint(-6, 6), rng.choice([1, 2])) for _ in range(n)]
             for _ in range(n)]
        try:
            bound = singular_lower_bound(M)
        except CertificationError:
            continue
        truth = smallest_singular_value(M, digits=100)
        assert bound <= truth + Fraction(1, 10**50)
        if truth >= Fraction(1, 10):
            assert bound >= truth - Fraction(1, 10**4)
        successes += 1
    assert successes >= 6


def _exact_definiteness_calls(monkeypatch):
    """Record the x of every exact (Fraction) definiteness test."""
    calls = []
    real = jacobian_module._definiteness

    def counting(A, x):
        if isinstance(x, Fraction):
            calls.append(x)
        return real(A, x)

    monkeypatch.setattr(jacobian_module, "_definiteness", counting)
    return calls


def test_gram_bracket_takes_two_exact_tests_on_the_reference(reference_matrix, monkeypatch):
    calls = _exact_definiteness_calls(monkeypatch)
    bracket = smallest_gram_root_bracket(reference_matrix)
    assert bracket == (Fraction(2403459, 2**20), Fraction(2403460, 2**20))
    assert bracket == gram_root_bracket_bisection(reference_matrix)
    assert len(calls) <= 4
    assert calls == [Fraction(2403459, 2**20), Fraction(2403460, 2**20)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(
                st.fractions(min_value=-6, max_value=6, max_denominator=8),
                min_size=n,
                max_size=n,
            ),
            min_size=n,
            max_size=n,
        )
    )
)
def test_gram_bracket_equals_the_bisection(M):
    assert smallest_gram_root_bracket(M) == gram_root_bracket_bisection(M)


def _rotated(diagonal):
    """D·Q for the rational rotation Q = (3/5, 4/5): its Gram matrix QᵀD²Q
    has eigenvalues d², and off-diagonal entries."""
    F = Fraction
    d0, d1 = diagonal
    return [[d0 * F(3, 5), d0 * F(4, 5)], [-d1 * F(4, 5), d1 * F(3, 5)]]


GRAM_CASES = {
    "reference": reference_jacobian(),
    # smallest eigenvalue (1537/1024)² = 2362369·2⁻²⁰, a grid point
    "grid-eigenvalue": _rotated((Fraction(1537, 1024), Fraction(2))),
    "grid-eigenvalue-tiny": _rotated((Fraction(3, 1024), Fraction(1))),
    # eigenvalues 1 and (1 + 10⁻⁹)², inside one grid cell
    "clustered": [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1) + Fraction(1, 10**9)]],
    "clustered-off-grid": _rotated(
        (Fraction(1) + Fraction(1, 10**12), Fraction(1) + Fraction(2, 10**12))
    ),
    "singular": [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],
    "zero": [[Fraction(0)] * 3 for _ in range(3)],
}


@pytest.mark.parametrize("name", sorted(GRAM_CASES))
def test_gram_bracket_equals_the_bisection_on_edge_cases(name):
    M = GRAM_CASES[name]
    assert smallest_gram_root_bracket(M) == gram_root_bracket_bisection(M)


def test_gram_bracket_point_cases():
    grid = 2**20
    assert smallest_gram_root_bracket(GRAM_CASES["grid-eigenvalue"]) == (
        Fraction(2362369, grid),
        Fraction(2362369, grid),
    )
    assert smallest_gram_root_bracket(GRAM_CASES["grid-eigenvalue-tiny"]) == (
        Fraction(9, grid),
        Fraction(9, grid),
    )
    assert smallest_gram_root_bracket(GRAM_CASES["singular"]) == (0, 0)


@pytest.mark.parametrize(
    "guess",
    [(), (0, 1), (-1, 0), (1, 0), (2403460, 2403461), (2403458, 2403459), (2403460, 2403459),
     (2362368, 2362369), (2362369, 2362370), (8, 9), (9, 10), (5 * 2**20, 5 * 2**20 + 1),
     (10**9, 10**9 + 7), (-5, 10**12)],
)
@pytest.mark.parametrize("name", sorted(GRAM_CASES))
def test_gram_bracket_survives_a_wrong_float_guess(name, guess, monkeypatch):
    # the float path only picks grid points: whatever it returns, the exact
    # tests decide and the bracket is the bisection's
    monkeypatch.setattr(jacobian_module, "_float_bracket", lambda A, lo, hi, grid: guess)
    M = GRAM_CASES[name]
    assert smallest_gram_root_bracket(M) == gram_root_bracket_bisection(M)


def test_gram_bracket_falls_back_to_exact_bisection_on_float_overflow():
    # 10⁴⁰⁰ overflows a float, so no guess is made
    M = [[Fraction(10**200), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert jacobian_module._float_bracket([[Fraction(10**400)]], -1, 2, 2**20) == ()
    assert smallest_gram_root_bracket(M) == (Fraction(1), Fraction(1))
    assert smallest_gram_root_bracket(M) == gram_root_bracket_bisection(M)


# ---------------------------------------------------------------------------
# Expansion certificate
# ---------------------------------------------------------------------------


def test_expansion_certified_for_reference(expansion_certificate):
    cert = expansion_certificate
    assert cert.sigma_min_bound > Fraction(3, 2)
    assert cert.e_inf == Fraction(2, 1000)
    assert cert.lam == Fraction(1, 2)
    assert cert.radius == Fraction(1, 10**18)
    assert cert.frobenius_cap == Fraction(1, 5)
    assert cert.frobenius_cap_sharp == Fraction(1, 50)
    gap = cert.sigma_min_bound - cert.frobenius_cap
    assert gap > 2 * cert.lam
    assert cert.angle_sine_bound == 2 * cert.frobenius_cap / gap
    assert cert.angle_sine_bound**2 < Fraction(3, 4)


def test_expansion_recorded_arithmetic():
    assert Fraction(15, 10) - Fraction(2, 10) > 1
    sine = Fraction(4, 10) / Fraction(15, 10)
    assert sine**2 < Fraction(3, 4)


def test_expansion_needs_double_lambda_gap(reference_matrix, candidate_enclosure):
    with pytest.raises(CertificationError, match="lambda"):
        certify_expansion(
            reference_matrix,
            lam=Fraction(1),
            dtheta_center=candidate_enclosure,
            second_order_cap=SECOND_ORDER_CAP,
        )


@pytest.mark.parametrize("missing", ["dtheta_center", "second_order_cap"])
def test_expansion_premises_are_required(reference_matrix, candidate_enclosure, missing):
    premises = {"dtheta_center": candidate_enclosure, "second_order_cap": SECOND_ORDER_CAP}
    del premises[missing]
    with pytest.raises(TypeError, match=missing):
        certify_expansion(reference_matrix, **premises)


def test_expansion_center_precheck_catches_corruption(
    reference_matrix, candidate_enclosure
):
    corrupted = [list(row) for row in reference_matrix]
    corrupted[3][4] += Fraction(1, 100)
    with pytest.raises(CertificationError, match=r"\(3, 4\)"):
        certify_expansion(
            corrupted, dtheta_center=candidate_enclosure, second_order_cap=SECOND_ORDER_CAP
        )


@pytest.mark.parametrize(
    "shape, center",
    [
        (r"0 rows of lengths \[\]", lambda rows: []),
        (r"9 rows of lengths \[10\]", lambda rows: rows[:9]),
        (r"10 rows of lengths \[0\]", lambda rows: [[]] * 10),
        (r"10 rows of lengths \[9, 10\]", lambda rows: [*rows[:9], rows[9][:9]]),
    ],
)
def test_expansion_rejects_a_center_enclosure_of_the_wrong_shape(
    reference_matrix, candidate_enclosure, shape, center
):
    # an empty or short enclosure leaves entries unchecked, so it must not certify
    with pytest.raises(ValueError, match=f"dtheta_center has {shape} but M has 10 rows of lengths"):
        certify_expansion(
            reference_matrix,
            dtheta_center=center(candidate_enclosure),
            second_order_cap=SECOND_ORDER_CAP,
        )


def test_expansion_rejects_a_reference_that_is_not_square(candidate_enclosure):
    ragged = [list(row) for row in reference_jacobian()]
    ragged[0].append(Fraction(0))
    with pytest.raises(ValueError, match=r"M has 10 rows of lengths \[10, 11\]"):
        certify_expansion(
            ragged, dtheta_center=candidate_enclosure, second_order_cap=SECOND_ORDER_CAP
        )


def test_expansion_drift_precheck_boundary(reference_matrix, candidate_enclosure):
    # 10 · 10⁻¹⁸ · 10¹⁴ equals the 10⁻³ budget exactly and is accepted;
    # doubling the radius pushes the drift over it
    cert = certify_expansion(
        reference_matrix, dtheta_center=candidate_enclosure, second_order_cap=SECOND_ORDER_CAP
    )
    assert cert.radius == Fraction(1, 10**18)
    assert cert.second_order_cap == SECOND_ORDER_CAP
    with pytest.raises(CertificationError, match="drift"):
        certify_expansion(
            reference_matrix,
            radius=Fraction(2, 10**18),
            dtheta_center=candidate_enclosure,
            second_order_cap=SECOND_ORDER_CAP,
        )


def test_expansion_caps_scale_with_matrix_size():
    # an 11×11 matrix gets n = 11 in every cap, not the candidate's 10
    M = [[Fraction(3) if i == j else Fraction(0) for j in range(11)] for i in range(11)]
    center = [[Bound(Decimal(int(x)), Decimal(int(x))) for x in row] for row in M]
    e_inf = Fraction(1, 1000)
    # 11 · 10⁻¹⁸ · 10¹³ stays inside this e_inf's 5·10⁻⁴ drift budget
    cert = certify_expansion(
        M, e_inf=e_inf, dtheta_center=center, second_order_cap=Fraction(10**13)
    )
    assert cert.n_vertices == 11
    assert cert.sigma_min_bound == 3
    assert cert.frobenius_cap == 121 * e_inf
    assert cert.frobenius_cap_sharp == 11 * e_inf
    # 10 · 10⁻¹⁸ · 10¹⁴ meets the 10⁻³ drift budget exactly; 11 overshoots it
    with pytest.raises(CertificationError, match="11·radius·cap"):
        certify_expansion(
            M, e_inf=Fraction(2, 1000), dtheta_center=center, second_order_cap=SECOND_ORDER_CAP
        )


def test_expansion_certificate_invariants():
    good = dict(
        sigma_min_bound=Fraction(3),
        e_inf=Fraction(1, 1000),
        lam=Fraction(1, 2),
        radius=Fraction(1, 10**18),
        second_order_cap=Fraction(10**13),
        angle_sine_bound=Fraction(2, 29),
        frobenius_cap=Fraction(1, 10),
        frobenius_cap_sharp=Fraction(1, 100),
        n_vertices=10,
    )
    ExpansionCertificate(**good)
    with pytest.raises(ValueError, match="Frobenius caps"):
        ExpansionCertificate(**{**good, "n_vertices": 11})
    with pytest.raises(ValueError, match="gap"):
        ExpansionCertificate(**{**good, "lam": Fraction(3, 2)})
    with pytest.raises(ValueError, match="sine bound must equal"):
        ExpansionCertificate(**{**good, "angle_sine_bound": Fraction(1, 2)})
    steep = dict(
        sigma_min_bound=Fraction(151, 100),
        e_inf=Fraction(1, 200),
        lam=Fraction(1, 2),
        radius=Fraction(1, 10**18),
        second_order_cap=Fraction(10**13),
        angle_sine_bound=Fraction(100, 101) * 2 * Fraction(1, 2),
        frobenius_cap=Fraction(1, 2),
        frobenius_cap_sharp=Fraction(1, 20),
        n_vertices=10,
    )
    with pytest.raises(ValueError, match="sqrt"):
        ExpansionCertificate(**steep)


# ---------------------------------------------------------------------------
# Existence conclusion
# ---------------------------------------------------------------------------


def test_existence_chain_on_candidate(
    flatness_certificate, embedding_certificate, expansion_certificate
):
    report = conclude_existence(
        flatness_certificate, embedding_certificate, expansion_certificate
    )
    assert report.defect_norm_cap == Fraction(1, 10**27)
    assert report.solution_radius == Fraction(2, 10**27)
    assert report.solution_radius <= Fraction(5, 10**19)
    assert report.coverage_radius == Fraction(5, 10**19)
    assert report.defect_norm_cap <= report.coverage_radius
    assert report.coverage_radius < report.robustness == Fraction(1, 10**7)
    assert report.checks == (
        "defect norm cap",
        "second-order premise",
        "robustness slack",
        "coverage",
    )
    assert "flat, embedded surface" in report.statement


def test_existence_inflated_defect_cap_fails_robustness(
    flatness_certificate, embedding_certificate, expansion_certificate
):
    with pytest.raises(CertificationError, match="robustness"):
        conclude_existence(
            flatness_certificate,
            embedding_certificate,
            expansion_certificate,
            defect_norm_cap=Fraction(1, 10**6),
        )


def test_existence_robustness_failure_states_both_radii_and_their_sum(
    flatness_certificate, embedding_certificate, expansion_certificate
):
    # radius 10⁻³ at cap 1/10 keeps the second-order premise, 10·10⁻³/10 ≤
    # e_inf/2, and covers 5·10⁻⁴ of defect: far beyond the slack 10⁻⁷
    wide = dataclasses.replace(
        expansion_certificate, radius=Fraction(1, 10**3), second_order_cap=Fraction(1, 10)
    )
    assert wide.surface_digest == flatness_certificate.surface_digest
    message = (
        r"^solution displacement 2\.000e-27 plus coverage radius 5\.000e-04, together "
        r"5\.000e-04, exceed the embeddedness robustness slack 1\.000e-07$"
    )
    with pytest.raises(CertificationError, match=message):
        conclude_existence(flatness_certificate, embedding_certificate, wide)


def test_existence_inflated_radius_fails_second_order_premise(
    flatness_certificate, embedding_certificate, expansion_certificate
):
    inflated = dataclasses.replace(expansion_certificate, radius=Fraction(1))
    with pytest.raises(CertificationError, match="second-order premise"):
        conclude_existence(flatness_certificate, embedding_certificate, inflated)


def test_existence_requires_flatness_to_force_defect_cap(
    flatness_certificate, embedding_certificate, expansion_certificate
):
    weak = dataclasses.replace(flatness_certificate, epsilon=Fraction(1, 10))
    with pytest.raises(CertificationError, match="does not force"):
        conclude_existence(weak, embedding_certificate, expansion_certificate)


def test_existence_rejects_an_embedding_certificate_of_another_surface(
    candidate_surface,
    manual_normals,
    flatness_certificate,
    embedding_certificate,
    expansion_certificate,
):
    heights = [p.z + Fraction((-1) ** i, 10**20) for i, p in enumerate(candidate_surface.coords)]
    jittered = surface_with_heights(candidate_surface, heights)
    other = certify_embeddedness(jittered, manual_normals=manual_normals)
    assert other.n_vertices == embedding_certificate.n_vertices == 10
    assert other.surface_digest == jittered.digest != candidate_surface.digest
    with pytest.raises(CertificationError, match="^embedding certificate is for surface"):
        conclude_existence(flatness_certificate, other, expansion_certificate)


def _rotated_about_z(S: EmbeddedSurface) -> EmbeddedSurface:
    """S turned about the z-axis by the rational rotation (cos, sin) = (3/5, 4/5)."""
    c, s = Fraction(3, 5), Fraction(4, 5)
    coords = tuple(Point3(c * p.x - s * p.y, s * p.x + c * p.y, p.z) for p in S.coords)
    return EmbeddedSurface(S.triangulation, coords)


def test_surface_expansion_equals_the_recipe_written_out(
    candidate_surface, candidate_enclosure, candidate_crude
):
    # the recipe written out: M is the 60-digit enclosure rounded to 10⁻³,
    # the cap is derived from the crude bounds
    rounded = [
        [Fraction(round(Fraction(b.midpoint(60)) * 1000), 1000) for b in row]
        for row in candidate_enclosure
    ]
    recipe = certify_expansion(
        rounded,
        dtheta_center=candidate_enclosure,
        second_order_cap=second_partial_bound(candidate_crude),
    )
    derived = certify_surface_expansion(candidate_surface)
    for field in dataclasses.fields(ExpansionCertificate):
        assert getattr(derived, field.name) == getattr(recipe, field.name), field.name
    assert derived.surface_digest == candidate_surface.digest


def test_existence_rejects_an_expansion_certificate_of_another_surface(
    candidate_surface, flatness_certificate, embedding_certificate
):
    rotated = _rotated_about_z(candidate_surface)
    other = certify_surface_expansion(rotated)
    assert other.n_vertices == 10
    assert other.surface_digest == rotated.digest != candidate_surface.digest
    with pytest.raises(CertificationError, match="^expansion certificate is for surface"):
        conclude_existence(flatness_certificate, embedding_certificate, other)


def test_existence_rejects_an_expansion_certificate_that_names_no_surface(
    reference_matrix, candidate_enclosure, flatness_certificate, embedding_certificate
):
    unbound = certify_expansion(
        reference_matrix,
        dtheta_center=[list(row) for row in candidate_enclosure],
        second_order_cap=SECOND_ORDER_CAP,
    )
    assert unbound.surface_digest is None
    with pytest.raises(CertificationError, match="^expansion certificate is for surface None"):
        conclude_existence(flatness_certificate, embedding_certificate, unbound)


def test_existence_rejects_a_bare_cap(
    reference_matrix, candidate_enclosure, flatness_certificate, embedding_certificate
):
    # a bare cap of 0 makes the drift n·radius·cap vanish on any ball, so
    # without the binding this chain concluded existence on radius 10⁻⁸
    expansion = certify_expansion(
        reference_matrix,
        radius=Fraction(1, 10**8),
        dtheta_center=candidate_enclosure,
        second_order_cap=0,
    )
    assert expansion.cap_surface_digest is None and expansion.cap_ball_radius is None
    with pytest.raises(CertificationError, match="^second-order cap is for surface None"):
        conclude_existence(flatness_certificate, embedding_certificate, expansion)


def test_existence_rejects_a_cap_checked_on_another_surface(
    candidate_surface,
    reference_matrix,
    candidate_enclosure,
    flatness_certificate,
    embedding_certificate,
):
    rotated = _rotated_about_z(candidate_surface)
    cap = second_partial_bound(crude_bounds(rotated))
    assert cap == SECOND_ORDER_CAP and cap.surface_digest == rotated.digest
    expansion = certify_expansion(
        reference_matrix, dtheta_center=candidate_enclosure, second_order_cap=cap
    )
    assert expansion.surface_digest == candidate_surface.digest
    assert expansion.cap_surface_digest == rotated.digest
    with pytest.raises(CertificationError, match="^second-order cap is for surface"):
        conclude_existence(flatness_certificate, embedding_certificate, expansion)


def test_existence_rejects_a_radius_beyond_the_ball_of_the_cap(
    candidate_surface,
    reference_matrix,
    candidate_enclosure,
    flatness_certificate,
    embedding_certificate,
):
    cap = second_partial_bound(crude_bounds(candidate_surface, ball_radius=Fraction(1, 10**20)))
    assert (cap.surface_digest, cap.ball_radius) == (candidate_surface.digest, Fraction(1, 10**20))
    # the default radius 10⁻¹⁸ keeps every other premise of the chain
    expansion = certify_expansion(
        reference_matrix, dtheta_center=candidate_enclosure, second_order_cap=cap
    )
    assert expansion.cap_ball_radius == Fraction(1, 10**20)
    message = (
        r"^expansion radius 1\.000e-18 exceeds the ball radius 1\.000e-20 on which "
        r"the second-order cap was checked$"
    )
    with pytest.raises(CertificationError, match=message):
        conclude_existence(flatness_certificate, embedding_certificate, expansion)


@pytest.mark.parametrize("name", ["flatness", "embedding"])
def test_existence_rejects_a_certificate_with_another_vertex_count(
    flatness_certificate, embedding_certificate, expansion_certificate, name
):
    certificates = {"flatness": flatness_certificate, "embedding": embedding_certificate}
    certificates[name] = dataclasses.replace(certificates[name], n_vertices=11)
    with pytest.raises(CertificationError, match=f"^{name} certificate has 11 vertices"):
        conclude_existence(
            certificates["flatness"], certificates["embedding"], expansion_certificate
        )
