"""Tests for the flatness certificate (exact rational arithmetic throughout)."""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import pytest

from kleincert.certify_flat import (
    FlatnessCertificate,
    LinkReference,
    LinkTable,
    beta_values,
    certify_flatness,
    link_winding_number,
    lipschitz_on_range,
)
from kleincert import mesh
from kleincert.jacobian import crude_bounds
from kleincert.mesh import EmbeddedSurface, cone_angle
from kleincert.precision import CertificationError, pi_hp


@pytest.fixture(scope="module")
def candidate_links(reference_links) -> LinkReference:
    return LinkReference(
        tables=tuple(
            LinkTable(vertex=v, cycle=entry["cycle"], vectors=entry["vectors"])
            for v, entry in sorted(reference_links.items())
        )
    )


@pytest.fixture(scope="module")
def certificate(candidate_surface, candidate_links) -> FlatnessCertificate:
    return certify_flatness(candidate_surface, candidate_links)


# ---------------------------------------------------------------------------
# alpha / beta tables
# ---------------------------------------------------------------------------


def _alphas(S):
    return {key: A for key, (A, _) in S.corners.items()}


def test_alpha_table_has_72_entries(candidate_surface):
    assert len(candidate_surface.corners) == 72


def test_corner_table_is_derived_once_per_surface(
    candidate_surface, candidate_links, monkeypatch
):
    # flatness and the crude bounds share one lazily built table
    calls = []
    real = mesh.cos2_and_sign
    monkeypatch.setattr(mesh, "cos2_and_sign", lambda *c: calls.append(c) or real(*c))
    S = EmbeddedSurface(candidate_surface.triangulation, candidate_surface.coords)
    assert calls == []
    certificate = certify_flatness(S, candidate_links)
    crude_bounds(S)
    assert len(calls) == len(S.corners) == 72
    assert S.corners == candidate_surface.corners
    assert (certificate.n_vertices, certificate.surface_digest) == (10, S.digest)
    with pytest.raises(TypeError):
        S.corners[(0, (1, 2))] = (Fraction(0), 0)


def test_alpha_range(candidate_surface):
    alphas = _alphas(candidate_surface)
    assert min(alphas.values()) >= Fraction(Decimal("0.000052"))
    assert max(alphas.values()) <= Fraction(Decimal("0.918"))


def test_beta_orthogonal_and_parallel_vectors():
    L = LinkReference(
        tables=(
            LinkTable(vertex=0, cycle=(1, 2, 3, 4), vectors=((5, 0), (0, 7), (-5, 0), (0, -2))),
        )
    )
    b = beta_values(L)
    assert b[(0, (1, 2))] == 0  # orthogonal
    L2 = LinkReference(
        tables=(
            LinkTable(vertex=0, cycle=(1, 2, 3), vectors=((2, 1), (4, 2), (-1, -1))),
        )
    )
    b2 = beta_values(L2)
    assert b2[(0, (1, 2))] == 1  # parallel (same ray)


def test_beta_table_matches_alpha_to_printed_bound(candidate_surface, candidate_links):
    alphas = _alphas(candidate_surface)
    betas = beta_values(candidate_links)
    assert set(alphas) == set(betas)
    max_delta = max(abs(alphas[k] - betas[k]) for k in alphas)
    assert max_delta <= Fraction(Decimal("2.93e-32"))


def test_link_table_rejects_zero_vector():
    with pytest.raises(ValueError):
        LinkTable(vertex=0, cycle=(1, 2, 3), vectors=((1, 0), (0, 0), (0, 1)))


# ---------------------------------------------------------------------------
# winding
# ---------------------------------------------------------------------------


def test_winding_of_simple_ccw_square():
    assert link_winding_number(((1, 0), (0, 1), (-1, 0), (0, -1))) == 1


def test_winding_of_double_loop():
    vectors = ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1), (-1, -1), (1, -1))
    assert link_winding_number(vectors) == 2


def test_winding_of_clockwise_loop():
    assert link_winding_number(((1, 0), (0, -1), (-1, 0), (0, 1))) == -1


# ---------------------------------------------------------------------------
# lipschitz_on_range
# ---------------------------------------------------------------------------


def test_lipschitz_on_paper_range():
    assert lipschitz_on_range(Fraction(5, 10**5), Fraction(92, 100)) == 71


def test_lipschitz_on_quarter_half():
    # sup of 1/(2 sqrt(x(1-x))) on [1/4, 1/2] is 1/(2 sqrt(3/16)) < 2.
    assert lipschitz_on_range(Fraction(1, 4), Fraction(1, 2)) == 2


def test_lipschitz_at_half():
    assert lipschitz_on_range(Fraction(1, 2), Fraction(1, 2)) == 1


def test_lipschitz_rejects_degenerate_range():
    with pytest.raises(ValueError):
        lipschitz_on_range(Fraction(0), Fraction(1, 2))
    with pytest.raises(ValueError):
        lipschitz_on_range(Fraction(1, 2), Fraction(1))
    with pytest.raises(ValueError):
        lipschitz_on_range(Fraction(2, 3), Fraction(1, 3))


def test_lipschitz_certifying_inequality_holds():
    # 4 K^2 m >= 1 exactly for the returned K, and fails for K - 1 on the
    # paper range (so 71 is the smallest certifiable integer constant there).
    lo, hi = Fraction(5, 10**5), Fraction(92, 100)
    m = min(lo * (1 - lo), hi * (1 - hi))
    K = lipschitz_on_range(lo, hi)
    assert 4 * K * K * m >= 1
    assert 4 * (K - 1) * (K - 1) * m < 1


# ---------------------------------------------------------------------------
# the full certificate
# ---------------------------------------------------------------------------


def test_certificate_headline_numbers(certificate):
    assert certificate.max_delta <= Fraction(Decimal("2.93e-32"))
    assert certificate.lipschitz_bound == 71
    assert certificate.max_degree == 9
    assert certificate.epsilon == 9 * 71 * certificate.max_delta
    assert certificate.epsilon < Fraction(1, 10**28)
    assert certificate.sign_agreements and certificate.winding_valid


def test_certificate_joint_range_is_paper_interval(certificate):
    assert certificate.joint_range == (Fraction(5, 10**5), Fraction(92, 100))


def test_certificate_alpha_range_within_printed(certificate):
    lo, hi = certificate.alpha_range
    assert Fraction(Decimal("0.000052")) <= lo and hi <= Fraction(Decimal("0.918"))


def test_certificate_epsilon_dominates_measured_flatness(candidate_surface, certificate):
    # Independent numeric route: cone angles via the arccos evaluator at 100
    # digits stay within the certified epsilon of 2*pi.
    two_pi = 2 * Fraction(pi_hp(130))
    for i in range(10):
        theta = cone_angle(candidate_surface, i, precision=110)
        assert abs(Fraction(theta) - two_pi) <= certificate.epsilon


def test_certificate_rejects_sign_flip(candidate_surface, candidate_links):
    # Negating one reference vector flips its dot products' signs.
    tampered_tables = []
    for t in candidate_links.tables:
        if t.vertex == 9:
            vectors = ((-t.vectors[0][0], -t.vectors[0][1]),) + t.vectors[1:]
            tampered_tables.append(LinkTable(vertex=9, cycle=t.cycle, vectors=vectors))
        else:
            tampered_tables.append(t)
    tampered = LinkReference(tables=tuple(tampered_tables))
    with pytest.raises(CertificationError, match="sign disagreement at vertex 9"):
        certify_flatness(candidate_surface, tampered)


def test_certificate_rejects_reflected_link(candidate_surface, candidate_links):
    # Reflecting a link across the x-axis reverses its orientation.
    tampered_tables = []
    for t in candidate_links.tables:
        if t.vertex == 3:
            vectors = tuple((a, -b) for a, b in t.vectors)
            tampered_tables.append(LinkTable(vertex=3, cycle=t.cycle, vectors=vectors))
        else:
            tampered_tables.append(t)
    tampered = LinkReference(tables=tuple(tampered_tables))
    with pytest.raises(CertificationError, match="counterclockwise"):
        certify_flatness(candidate_surface, tampered)


def test_certificate_rejects_mismatched_cycle(candidate_surface, candidate_links):
    # Swapping two neighbors breaks the consecutive-pair matching.
    tampered_tables = []
    for t in candidate_links.tables:
        if t.vertex == 9:
            cycle = (t.cycle[0], t.cycle[2], t.cycle[1]) + t.cycle[3:]
            tampered_tables.append(LinkTable(vertex=9, cycle=cycle, vectors=t.vectors))
        else:
            tampered_tables.append(t)
    tampered = LinkReference(tables=tuple(tampered_tables))
    with pytest.raises(CertificationError, match="do not match"):
        certify_flatness(candidate_surface, tampered)


def test_certificate_invariant_enforced():
    with pytest.raises(ValueError):
        FlatnessCertificate(
            max_delta=Fraction(1, 10),
            alpha_range=(Fraction(1, 4), Fraction(1, 2)),
            joint_range=(Fraction(1, 4), Fraction(1, 2)),
            lipschitz_bound=Fraction(2),
            max_degree=9,
            epsilon=Fraction(1),  # below 9 * 2 * 0.1 = 1.8
            sign_agreements=True,
            winding_valid=True,
            n_vertices=10,
            surface_digest="0" * 64,
        )
