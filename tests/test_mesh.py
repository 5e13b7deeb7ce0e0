"""Tests for triangulation combinatorics, links, cone angles, subdivision."""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import pytest

from kleincert.jacobian import surface_with_heights
from kleincert.klein import Point3
from kleincert.mesh import (
    EmbeddedSurface,
    Triangulation,
    cone_angle,
    subdivide,
    validate,
    vertex_link,
)
from kleincert.precision import pi_hp

import oracles


def rotations(cycle: tuple[int, ...]):
    return {cycle[k:] + cycle[:k] for k in range(len(cycle))}


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_candidate_is_a_closed_genus2_surface(candidate_surface):
    report = validate(candidate_surface.triangulation)
    assert report.ok
    assert (report.n_vertices, report.n_edges, report.n_faces) == (10, 36, 24)
    assert report.euler_characteristic == -2
    assert report.genus == 2
    assert report.degree_sequence == (9, 8, 8, 8, 8, 7, 7, 6, 6, 5)


def test_degree_sum_is_three_times_faces(candidate_surface):
    report = validate(candidate_surface.triangulation)
    assert sum(report.degree_sequence) == 3 * report.n_faces == 72


def test_tetrahedron_validates(tetrahedron):
    report = validate(tetrahedron)
    assert report.ok
    assert report.euler_characteristic == 2
    assert report.genus == 0


def test_validate_reports_broken_edge_pairing():
    # Two faces glued along the same directed edge (orientation clash).
    T = Triangulation(n_vertices=4, faces=((0, 1, 2), (0, 1, 3)))
    report = validate(T)
    assert not report.ok
    assert any("(0,1)" in v for v in report.edge_violations)


def test_face_constructor_rejects_degenerate():
    with pytest.raises(ValueError):
        Triangulation(n_vertices=3, faces=((0, 1, 1),))
    with pytest.raises(ValueError):
        Triangulation(n_vertices=3, faces=((0, 1, 5),))


# ---------------------------------------------------------------------------
# vertex_link
# ---------------------------------------------------------------------------


def test_link_of_vertex0_matches_reference(candidate_surface, reference_links):
    cycle = vertex_link(candidate_surface.triangulation, 0)
    assert cycle in rotations(reference_links[0]["cycle"])


def test_link_of_vertex9_matches_reference(candidate_surface, reference_links):
    cycle = vertex_link(candidate_surface.triangulation, 9)
    assert cycle in rotations(reference_links[9]["cycle"])


def test_all_links_match_reference_up_to_rotation(candidate_surface, reference_links):
    for i in range(10):
        cycle = vertex_link(candidate_surface.triangulation, i)
        assert cycle in rotations(reference_links[i]["cycle"]), f"vertex {i}"


def test_link_consecutive_pairs_are_faces(candidate_surface):
    T = candidate_surface.triangulation
    face_set = {f for f in T.faces}
    rotated = {(b, c, a) for a, b, c in face_set} | {(c, a, b) for a, b, c in face_set} | face_set
    for i in range(T.n_vertices):
        cycle = vertex_link(T, i)
        for j, n_j in enumerate(cycle):
            n_next = cycle[(j + 1) % len(cycle)]
            assert (i, n_j, n_next) in rotated, f"({i},{n_j},{n_next}) not a face"


def test_link_starts_at_smallest_neighbor(candidate_surface):
    for i in range(10):
        cycle = vertex_link(candidate_surface.triangulation, i)
        assert cycle[0] == min(cycle)


def test_tetrahedron_links(tetrahedron):
    for i in range(4):
        cycle = vertex_link(tetrahedron, i)
        assert sorted(cycle) == sorted(set(range(4)) - {i})


def test_links_are_every_vertex_link_derived_once(candidate_surface):
    T = candidate_surface.triangulation
    assert T.links == tuple(vertex_link(T, i) for i in range(T.n_vertices))
    assert T.links is T.links


def test_links_raise_the_first_vertex_link_error(tetrahedron):
    # a tetrahedron on vertices 0..3, then two isolated vertices
    T = Triangulation(6, tetrahedron.faces)
    with pytest.raises(ValueError, match=r"^vertex 4 is isolated$"):
        T.links


# ---------------------------------------------------------------------------
# cone_angle
# ---------------------------------------------------------------------------


def test_candidate_cone_angles_are_nearly_two_pi(candidate_surface):
    # The headline flatness figure: every cone angle within 1e-28 of 2*pi.
    two_pi = 2 * Fraction(pi_hp(140))
    for i in range(10):
        theta = cone_angle(candidate_surface, i, precision=120)
        assert abs(Fraction(theta) - two_pi) < Fraction(1, 10**28), f"vertex {i}"


def test_tiny_pyramid_apex_has_angle_deficit():
    # A small square pyramid near the origin: the metric is near-Euclidean
    # there, so the apex cone angle stays close to the Euclidean one (< 2*pi).
    s = Fraction(1, 1000)
    h = Fraction(1, 2000)
    coords = (
        Point3(Fraction(0), Fraction(0), h),   # apex
        Point3(s, Fraction(0), Fraction(0)),
        Point3(Fraction(0), s, Fraction(0)),
        Point3(-s, Fraction(0), Fraction(0)),
        Point3(Fraction(0), -s, Fraction(0)),
    )
    faces = ((0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1), (1, 4, 3), (1, 3, 2))
    S = EmbeddedSurface(Triangulation(5, faces), coords)
    apex = cone_angle(S, 0, precision=60)
    # Euclidean oracle: 4 * angle between (s,0,-h) and (0,s,-h).
    v_norm_sq = s * s + h * h
    cos_euclid = Fraction(h * h, v_norm_sq)
    lo, hi = oracles.arccos_enclosure(cos_euclid, Fraction(1, 10**40))
    assert abs(Fraction(apex) - 4 * (lo + hi) / 2) < Fraction(1, 10**5)
    assert Fraction(apex) < 2 * Fraction(pi_hp(80))


# ---------------------------------------------------------------------------
# subdivide
# ---------------------------------------------------------------------------


def test_subdivide_counts_and_euler(candidate_surface):
    S = subdivide(candidate_surface, 0)
    report = validate(S.triangulation)
    assert report.ok
    assert report.n_vertices == 11
    assert report.n_faces == 26
    assert report.euler_characteristic == -2


def test_subdivide_new_vertex_is_flat(candidate_surface):
    S = subdivide(candidate_surface, 5)
    theta = cone_angle(S, 10, precision=100)
    assert abs(Fraction(theta) - 2 * Fraction(pi_hp(120))) < Fraction(1, 10**30)


def test_subdivide_chain_stays_valid(candidate_surface):
    # Repeated subdivision keeps producing valid genus-2 surfaces (11..20 vertices).
    S = candidate_surface
    for n in range(11, 21):
        S = subdivide(S, (n * 7) % len(S.triangulation.faces))
        report = validate(S.triangulation)
        assert report.ok and report.euler_characteristic == -2
        assert S.triangulation.n_vertices == n


def test_subdivide_preserves_other_cone_angles(candidate_surface):
    # Splitting a face partitions the three corner angles; sums are unchanged.
    face = candidate_surface.triangulation.faces[3]
    S = subdivide(candidate_surface, 3)
    for vertex in face:
        before = cone_angle(candidate_surface, vertex, precision=80)
        after = cone_angle(S, vertex, precision=80)
        assert abs(Fraction(before) - Fraction(after)) < Fraction(1, 10**60)


def test_subdivide_rejects_bad_face(candidate_surface):
    with pytest.raises(ValueError):
        subdivide(candidate_surface, 24)


def test_surface_rejects_outside_ball(tetrahedron):
    with pytest.raises(ValueError):
        EmbeddedSurface(
            tetrahedron,
            (
                Point3.of(2, 0, 0),
                Point3.of(0, "0.1", 0),
                Point3.of(0, 0, "0.1"),
                Point3.of("0.1", 0, 0),
            ),
        )


def test_surface_rejects_a_vertex_on_the_sphere_by_index(tetrahedron):
    inside = (Point3.of(0, "0.1", 0), Point3.of(0, 0, "0.1"), Point3.of("0.1", 0, 0))
    on_sphere = Point3.of("0.6", "0.8", 0)
    with pytest.raises(ValueError, match="^vertex 3 lies outside the open unit ball$"):
        EmbeddedSurface(tetrahedron, inside + (on_sphere,))
    just_inside = Point3(*(c * Fraction(10**40 - 1, 10**40) for c in on_sphere))
    assert EmbeddedSurface(tetrahedron, inside + (just_inside,)).denominator == 5 * 10**40


# ---------------------------------------------------------------------------
# the integer lattice
# ---------------------------------------------------------------------------


def _jittered(S):
    heights = [p.z + Fraction((-1) ** i * (i + 1), 7 * 10**40) for i, p in enumerate(S.coords)]
    return surface_with_heights(S, heights)


@pytest.mark.parametrize(
    "build, denominator",
    [(lambda S: S, 10**32), (lambda S: subdivide(S, 0), 3 * 10**32), (_jittered, 7 * 10**40)],
    ids=["packaged", "subdivided", "jittered"],
)
def test_lattice_is_the_surface_dilated_by_the_lcm(candidate_surface, build, denominator):
    S = build(candidate_surface)
    q = math.lcm(*(c.denominator for p in S.coords for c in p))
    assert S.denominator == q == denominator
    assert len(S.lattice) == len(S.coords)
    for p, x in zip(S.coords, S.lattice):
        assert all(isinstance(i, int) for i in x)
        assert tuple(c * q for c in p) == tuple(x)


def test_lattice_is_derived_not_passed(candidate_surface):
    with pytest.raises(TypeError):
        EmbeddedSurface(candidate_surface.triangulation, candidate_surface.coords, 1, ())
    copy = EmbeddedSurface(candidate_surface.triangulation, candidate_surface.coords)
    assert copy == candidate_surface and copy.lattice == candidate_surface.lattice


def test_digest_names_the_lattice_and_the_faces(candidate_surface):
    S = candidate_surface
    assert len(S.digest) == 64
    assert EmbeddedSurface(S.triangulation, S.coords).digest == S.digest
    T = S.triangulation
    flipped = Triangulation(T.n_vertices, tuple(f[::-1] for f in T.faces))
    others = (_jittered(S), subdivide(S, 0), EmbeddedSurface(flipped, S.coords))
    assert len({S.digest, *(T.digest for T in others)}) == 4
