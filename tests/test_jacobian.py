"""Jacobian of the cone-defect map: analytics, bounds, and the expansion chain.

Layers covered: the packaged reference matrix and its sparsity; the defect
map and its equivariance; analytic vs central-difference Jacobians; the
crude geometric bounds; the second-order constant chain; exact LDLᵀ
singular-value floors (cross-checked against an independent computer-algebra
oracle); and the expansion/existence certificates with their failure modes.
"""

from __future__ import annotations

import dataclasses
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from random import Random

import pytest

from oracles import (
    cosh_enclosure,
    interval_div,
    interval_mul,
    sinh_enclosure,
    smallest_singular_value,
)

from kleincert.jacobian import (
    ChainInequality,
    DefectVector,
    ExpansionCertificate,
    JacobianMatrix,
    SECOND_ORDER_CAP,
    _definiteness,
    certify_expansion,
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
from kleincert.klein import Point3, cos2_and_sign
from kleincert.mesh import EmbeddedSurface, Triangulation, cone_angle, vertex_link
from kleincert.precision import CertificationError, two_pi


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


def test_jacobian_enclosure_widths_certified(candidate_enclosure):
    widths = [b.width_fraction() for row in candidate_enclosure for b in row]
    assert max(widths) < Fraction(1, 10**30)


def test_jacobian_matrix_validates_shape():
    with pytest.raises(ValueError, match="square"):
        JacobianMatrix(entries=((Decimal(1), Decimal(2)), (Decimal(3),)))
    m = JacobianMatrix(entries=((Decimal(1), Decimal(2)), (Decimal(3), Decimal(4))))
    assert m[0, 1] == Decimal(2)
    assert m.n == 2


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
    tight = dtheta_enclosure(candidate_surface, precision=80,
                             target_width=Fraction(1, 10**60))

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
        dtheta_fd(tetrahedron_surface, h=Fraction(0))


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
    assert c.sqrt_arg_range == (Fraction(193, 100), Fraction(63, 10))
    assert c.log_arg_range == (Fraction(62, 100), Fraction(2))
    assert c.edge_length_center_range == (Fraction(63, 100), Fraction(208, 100))
    assert c.edge_length_slack == Fraction(16, 10**18)
    assert c.edge_length_range == (Fraction(3, 5), Fraction(21, 10))
    assert c.cos_center_range == (Fraction(-8, 1000), Fraction(96, 100))
    assert c.cos_perturb_slack == Fraction(2, 10**15)
    assert c.cos_range == (Fraction(-1, 100), Fraction(961, 1000))
    assert c.psi_lipschitz == 70
    assert c.sin_floor == Fraction(6, 25)


def test_log_argument_maximum_needs_outward_rounding(candidate_surface):
    # the true per-edge maximum of 4c² + 4ac + 4bc exceeds 1.99, so the
    # aggregate interval must round up to 2 to contain it
    T = candidate_surface.triangulation
    edges = {tuple(sorted((f[r], f[(r + 1) % 3]))) for f in T.faces for r in range(3)}
    worst = Fraction(0)
    for a, b in edges:
        X, Y = candidate_surface.coords[a], candidate_surface.coords[b]
        D = Y.sub(X)
        qa, qb, qc = D.dot(D), 2 * X.dot(D), X.norm_sq() - 1
        worst = max(worst, 4 * qc * qc + 4 * qa * qc + 4 * qb * qc)
    assert Fraction(199, 100) < worst < Fraction(2)


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
        for r in range(len(cycle)):
            Y = candidate_surface.coords[cycle[r]]
            Z = candidate_surface.coords[cycle[(r + 1) % len(cycle)]]
            alpha, sign = cos2_and_sign(candidate_surface.coords[i], Y, Z)
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


def test_crude_bounds_rejects_oversized_ball(candidate_surface):
    with pytest.raises(CertificationError, match="ball escapes"):
        crude_bounds(candidate_surface, ball_radius=Fraction(1, 50))


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


def test_expansion_needs_double_lambda_gap(reference_matrix):
    with pytest.raises(CertificationError, match="lambda"):
        certify_expansion(reference_matrix, lam=Fraction(1))


def test_expansion_center_precheck_catches_corruption(
    reference_matrix, candidate_enclosure
):
    corrupted = [list(row) for row in reference_matrix]
    corrupted[3][4] += Fraction(1, 100)
    with pytest.raises(CertificationError, match=r"\(3, 4\)"):
        certify_expansion(corrupted, dtheta_center=candidate_enclosure)


def test_expansion_drift_precheck_boundary(reference_matrix):
    # 10 · 10⁻¹⁸ · 10¹⁴ equals the 10⁻³ budget exactly and is accepted;
    # doubling the radius pushes the drift over it
    cert = certify_expansion(reference_matrix, second_order_cap=SECOND_ORDER_CAP)
    assert cert.radius == Fraction(1, 10**18)
    with pytest.raises(CertificationError, match="drift"):
        certify_expansion(
            reference_matrix,
            radius=Fraction(2, 10**18),
            second_order_cap=SECOND_ORDER_CAP,
        )


def test_expansion_caps_scale_with_matrix_size():
    # an 11×11 matrix gets n = 11 in every cap, not the candidate's 10
    M = [[Fraction(3) if i == j else Fraction(0) for j in range(11)] for i in range(11)]
    e_inf = Fraction(1, 1000)
    cert = certify_expansion(M, e_inf=e_inf)
    assert cert.n_vertices == 11
    assert cert.sigma_min_bound == 3
    assert cert.frobenius_cap == 121 * e_inf
    assert cert.frobenius_cap_sharp == 11 * e_inf
    # 10 · 10⁻¹⁸ · 10¹⁴ meets the 10⁻³ drift budget exactly; 11 overshoots it
    with pytest.raises(CertificationError, match="11·radius·cap"):
        certify_expansion(M, e_inf=Fraction(2, 1000), second_order_cap=SECOND_ORDER_CAP)


def test_expansion_certificate_invariants():
    good = dict(
        sigma_min_bound=Fraction(3),
        e_inf=Fraction(1, 1000),
        lam=Fraction(1, 2),
        radius=Fraction(1, 10**18),
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
    flatness_certificate, embedding_certificate, expansion_certificate, candidate_crude
):
    report = conclude_existence(
        flatness_certificate,
        embedding_certificate,
        expansion_certificate,
        second_partial_bound(candidate_crude),
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
    flatness_certificate, embedding_certificate, expansion_certificate, candidate_crude
):
    with pytest.raises(CertificationError, match="robustness"):
        conclude_existence(
            flatness_certificate,
            embedding_certificate,
            expansion_certificate,
            second_partial_bound(candidate_crude),
            defect_norm_cap=Fraction(1, 10**6),
        )


def test_existence_inflated_radius_fails_second_order_premise(
    flatness_certificate, embedding_certificate, expansion_certificate, candidate_crude
):
    inflated = dataclasses.replace(expansion_certificate, radius=Fraction(1))
    cap = second_partial_bound(candidate_crude)
    with pytest.raises(CertificationError, match="second-order premise"):
        conclude_existence(flatness_certificate, embedding_certificate, inflated, cap)


def test_existence_requires_flatness_to_force_defect_cap(
    flatness_certificate, embedding_certificate, expansion_certificate, candidate_crude
):
    weak = dataclasses.replace(flatness_certificate, epsilon=Fraction(1, 10))
    cap = second_partial_bound(candidate_crude)
    with pytest.raises(CertificationError, match="does not force"):
        conclude_existence(weak, embedding_certificate, expansion_certificate, cap)
