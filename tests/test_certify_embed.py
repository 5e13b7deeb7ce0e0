"""Tests for integer separating-hyperplane embeddedness certification.

The headline object is the full certificate for the packaged candidate
surface: 240 witnessed pairs (82 vertex-disjoint + 158 one-vertex-sharing),
every margin above the 2·10³⁰ threshold, robustness radius 10⁻⁷.  Witness
soundness is spot-checked against an exact rational triangle-triangle
intersection oracle under random z-perturbations up to the certified budget.
"""

from __future__ import annotations

import dataclasses
import math
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleincert import certify_embed
from kleincert.certify_embed import (
    DEFAULT_CAP,
    NO_CHART,
    ROBUSTNESS,
    EmbeddingCertificate,
    SeparationWitness,
    _admitted,
    _chart,
    _chart_groups,
    _cross,
    _differences,
    _margins,
    _pair_tests,
    _rays,
    _rho_residues,
    _scan_chart,
    _separating_sign,
    _unwitnessable,
    certify_embeddedness,
    classify_pairs,
    rho,
)
from kleincert.jacobian import surface_with_heights
from kleincert.klein import Point3
from kleincert.mesh import EmbeddedSurface, Triangulation
from kleincert.precision import CertificationError

from oracles import (
    DegenerateConfiguration,
    admitted_reference,
    rays_reference,
    rho_two_isqrt,
    sqrt_enclosure,
    triangle_intersection_points,
    triangles_disjoint,
    triangles_meet_only_at,
    witness_scan_reference,
)
from strategies import triangle_pairs

# the candidate's lattice denominator is 10³², so δ = 10⁻⁷·10³²
THRESHOLD = 2 * 10**25 * DEFAULT_CAP  # 2e30


def _dilated(surface):
    """The surface's integer lattice points, as plain triples."""
    return [tuple(p) for p in surface.lattice]


def _dot(p, q):
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _written_margins(coords, witness_pair, N):
    """The margins as the module docstring writes them, from coordinates."""
    f1, f2 = witness_pair
    shared = set(f1) & set(f2)
    if not shared:
        return (
            min(_dot(coords[v], N) for v in f1) - max(_dot(coords[v], N) for v in f2),
        )
    (u,) = shared
    U = _dot(coords[u], N)
    V = [_dot(coords[v], N) for v in f1 if v != u]
    W = [_dot(coords[w], N) for w in f2 if w != u]
    return (min(V) - U, U - max(W))


def _named_pairs(error, kind=r"\w+"):
    """The face pairs of one kind that a CertificationError names."""
    face = r"\((\d+), (\d+), (\d+)\)"
    named = re.findall(r"\{" + face + ", " + face + r"\} \[" + kind + r"\]", str(error))
    return {(tuple(map(int, g[:3])), tuple(map(int, g[3:]))) for g in named}


# ---------------------------------------------------------------------------
# Pair classification
# ---------------------------------------------------------------------------


def test_classify_pairs_candidate_counts(candidate_surface):
    classes = classify_pairs(candidate_surface.triangulation)
    assert len(classes.disjoint) == 82
    assert len(classes.shared_vertex) == 158
    assert len(classes.shared_edge) == 36
    assert classes.total == 276 == math.comb(24, 2)


def test_classify_pairs_tetrahedron(tetrahedron):
    classes = classify_pairs(tetrahedron)
    assert classes.disjoint == ()
    assert classes.shared_vertex == ()
    assert len(classes.shared_edge) == 6


# ---------------------------------------------------------------------------
# The candidate-normal sequence rho(n)
# ---------------------------------------------------------------------------


def _oracle_rho_component(k: int, n: int) -> int:
    """⌊10⁵·(2·frac(n√k) − 1)⌋ from a width-1e-60 rational sqrt enclosure."""
    lo, hi = sqrt_enclosure(Fraction(k), Fraction(1, 10**60))
    lo, hi = n * lo, n * hi
    assert math.floor(lo) == math.floor(hi)
    whole = math.floor(lo)
    vlo = 2 * 10**5 * (lo - whole) - 10**5
    vhi = 2 * 10**5 * (hi - whole) - 10**5
    assert math.floor(vlo) == math.floor(vhi)
    return math.floor(vlo)


def test_rho_first_index_matches_frozen_value():
    expected = tuple(_oracle_rho_component(k, 1) for k in (2, 3, 5))
    assert expected == (-17158, 46410, -52787)
    assert rho(1) == expected


@pytest.mark.parametrize("n", [2, 3, 10, 137, 65537])
def test_rho_matches_oracle(n):
    assert rho(n) == tuple(_oracle_rho_component(k, n) for k in (2, 3, 5))


def test_rho_stays_within_cap():
    for n in range(1, 200):
        assert max(abs(c) for c in rho(n)) <= 10**5


def test_rho_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        rho(0)


def _stepped(cap, limit):
    """ρ(n, cap) for n = 1 … limit − 1 from the scan's recurrence."""
    return [
        (r1 - cap, r2 - cap, r3 - cap)
        for _, (r1, r2, r3) in zip(range(1, limit), _rho_residues(cap))
    ]


def test_rho_equals_the_two_isqrt_formula():
    # ⌊2C·n√k⌋ − 2C·⌊n√k⌋ = ⌊2C·n√k⌋ mod 2C, so one isqrt per coordinate;
    # the scan's recurrence steps the same ⌊2C·n√k⌋
    for n, stepped in enumerate(_stepped(DEFAULT_CAP, 10**5), start=1):
        assert stepped == rho(n) == rho_two_isqrt(n, DEFAULT_CAP), n
    for cap in (1, 2, 3, 7, 1000, 123457, 10**6, 10**9):
        for n, stepped in enumerate(_stepped(cap, 5000), start=1):
            assert stepped == rho(n, cap) == rho_two_isqrt(n, cap), (cap, n)


@settings(max_examples=60, deadline=None)
@given(cap=st.integers(min_value=1, max_value=10**9))
def test_rho_recurrence_equals_the_closed_form_at_any_cap(cap):
    for n, stepped in enumerate(_stepped(cap, 2000), start=1):
        assert stepped == rho(n, cap) == rho_two_isqrt(n, cap), (cap, n)


# ---------------------------------------------------------------------------
# The margin routine (hand-checkable integer examples)
# ---------------------------------------------------------------------------


def test_margin_disjoint_simple():
    # vertices 0-2 form T1 at heights 10..12, vertices 3-5 form T2 at 0..2
    dots = [10, 11, 12, 0, 1, 2]
    assert _margins(_pair_tests((0, 1, 2), (3, 4, 5)), dots, 0) == (10 - 2,)
    assert _margins(_pair_tests((0, 1, 2), (3, 4, 5)), dots, 8) is None
    assert _margins(_pair_tests((3, 4, 5), (0, 1, 2)), dots, -13) == (0 - 12,)


def test_margin_shared_uses_max_on_far_side():
    # U = 0 at height 0, V = 1, 2 above it at 5, 7, W = 3, 4 below at -4, -6
    dots = [0, 5, 7, -4, -6]
    tests = _pair_tests((0, 1, 2), (0, 3, 4))
    assert tests == (((1, 2), (0,)), ((0,), (3, 4)))
    # the far-side margin must clear the *nearest* far vertex (the max dot),
    # not the farthest one: 0 − max(−4, −6) = 4
    assert _margins(tests, dots, 0) == (5, 4)
    assert _margins(tests, dots, 4) is None


def test_margin_shared_negated_normal_swaps_roles():
    dots = [0, 5, 7, -4, -6]
    negated = [-d for d in dots]
    assert _margins(_pair_tests((0, 3, 4), (0, 1, 2)), negated, 0) == (4, 5)
    assert _margins(_pair_tests((0, 1, 2), (0, 3, 4)), negated, -100) == (-7, -6)


# ---------------------------------------------------------------------------
# The embedding scale comes from the surface's lattice
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, value", [("cap", 0)])
def test_certify_rejects_invalid_parameters(name, value):
    S = _two_tetra_surface((Fraction(1, 16), Fraction(1, 16), Fraction(1, 16)))
    with pytest.raises(ValueError, match=f"^{name} must be >= "):
        certify_embeddedness(S, **{name: value})


def _witness_keys(certificate):
    return [(w.pair, w.source, w.n, w.sign) for w in certificate.witnesses]


def test_scale_follows_a_finer_lattice(certificate, candidate_surface, manual_normals):
    # one height moved by 1/(3·10³³) puts the surface on the lattice Q = 3·10³³
    heights = [p.z for p in candidate_surface.coords]
    heights[0] += Fraction(1, 3 * 10**33)
    S = surface_with_heights(candidate_surface, heights)
    assert S.denominator == 3 * 10**33
    shifted = certify_embeddedness(S, manual_normals=manual_normals)
    assert (shifted.scale, shifted.delta) == (3 * 10**33, 3 * 10**26)
    assert shifted.robustness == Fraction(1, 10**7)
    assert _witness_keys(shifted) == _witness_keys(certificate)


# ---------------------------------------------------------------------------
# The full candidate certificate
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def certificate(embedding_certificate) -> EmbeddingCertificate:
    return embedding_certificate


def test_certificate_covers_all_pairs(certificate):
    assert len(certificate.witnesses) == 240
    assert certificate.n_disjoint == 82
    assert certificate.n_shared_vertex == 158
    assert certificate.n_shared_edge == 36


def test_certificate_margins_clear_threshold(certificate):
    assert certificate.threshold == THRESHOLD == 2 * 10**30
    for w in certificate.witnesses:
        assert len(w.margins) == (1 if w.kind == "disjoint" else 2)
        for m in w.margins:
            assert m > THRESHOLD


def test_certificate_robustness_radius(certificate):
    assert certificate.robustness == Fraction(1, 10**7)
    assert certificate.scale == 10**32
    assert certificate.delta == 10**25


def test_certificate_search_indices_within_limits(certificate):
    for w in certificate.witnesses:
        if w.source != "rho":
            continue
        assert 1 <= w.n < 10**5
        if w.kind == "disjoint":
            assert w.n < 2000


def test_certificate_manual_pairs_match_table(certificate, manual_normals):
    manual = [w for w in certificate.witnesses if w.source == "manual"]
    assert len(manual) == 11
    assert {frozenset(w.pair) for w in manual} == set(manual_normals)
    for w in manual:
        base = manual_normals[frozenset(w.pair)]
        assert w.normal in (base, tuple(-c for c in base))


def test_thin_cone_pair_uses_sequence_element(certificate, manual_normals):
    # the hardest pair's manual normal is itself an element of the candidate
    # sequence, found far beyond the batch search horizon
    key = frozenset(((1, 3, 7), (2, 3, 8)))
    assert manual_normals[key] == (-442, 205, 64316)
    assert rho(257226) == manual_normals[key]
    witness = next(w for w in certificate.witnesses if frozenset(w.pair) == key)
    assert witness.source == "manual"
    assert all(m > THRESHOLD for m in witness.margins)


def test_dilated_margins_are_exact(certificate, candidate_surface):
    coords = _dilated(candidate_surface)
    assert len(coords) == 10
    assert candidate_surface.denominator == certificate.scale == 10**32
    for p, q in zip(candidate_surface.coords, coords):
        for c, i in zip(p, q):
            assert c * certificate.scale == i
    for w in certificate.witnesses:
        assert _written_margins(coords, w.pair, w.normal) == w.margins


def test_witnesses_are_first_in_scan_order(certificate, candidate_surface):
    coords = _dilated(candidate_surface)
    rho_cache = {}

    def base(n):
        if n not in rho_cache:
            rho_cache[n] = rho(n)
        return rho_cache[n]

    cheap = [w for w in certificate.witnesses if w.source == "rho" and w.n <= 200]
    assert {w.kind for w in cheap} == {"disjoint", "shared_vertex"}
    assert len(cheap) >= 200
    for w in cheap:
        assert w.normal == tuple(w.sign * c for c in base(w.n))
        order = [(n, sign) for n in range(1, w.n + 1) for sign in (1, -1)]
        for n, sign in order[: order.index((w.n, w.sign))]:
            if max(abs(c) for c in base(n)) >= DEFAULT_CAP:
                continue
            N = tuple(sign * c for c in base(n))
            assert min(_written_margins(coords, w.pair, N)) <= THRESHOLD, (w.pair, n, sign)


def test_scan_alone_leaves_exactly_the_manual_pairs(candidate_surface, manual_normals):
    with pytest.raises(CertificationError, match="no separating normal") as info:
        certify_embeddedness(candidate_surface)
    assert str(info.value).count("{") == 11
    assert {frozenset(pair) for pair in _named_pairs(info.value)} == set(manual_normals)


def test_manual_pairs_skip_the_scan(candidate_surface, manual_normals, monkeypatch):
    # the table pairs are witnessed before the scan, which then stops at the
    # last rho witness (n = 69,265) instead of running to the 10⁵ limit; rho
    # is called once at each n where some pair reaches the exact test, and
    # every exact test of the scan uses the ρ(n) of the last call
    real_rho, real_sign = certify_embed.rho, certify_embed._separating_sign
    calls, tested = [], []

    def counting(n, cap=DEFAULT_CAP):
        calls.append(n)
        return real_rho(n, cap)

    def testing(D, normal, threshold):
        if calls:
            assert normal == real_rho(calls[-1])
            tested.append(calls[-1])
        return real_sign(D, normal, threshold)

    monkeypatch.setattr(certify_embed, "rho", counting)
    monkeypatch.setattr(certify_embed, "_separating_sign", testing)
    cert = certify_embeddedness(candidate_surface, manual_normals=manual_normals)
    assert max(w.n for w in cert.witnesses if w.source == "rho") == 69265
    assert cert.rho_candidates == 69265
    assert len(calls) == len(set(calls)) == 238
    assert max(calls) <= 69265
    assert set(calls) == set(tested)
    assert len(tested) == cert.exact_tests


def test_a_rho_that_differs_from_its_recurrence_stops_the_scan(
    certificate, candidate_surface, manual_normals, monkeypatch
):
    # at the first ρ witness, the recurrence yields the ρ(n) of the last one
    # instead; the last witness's pair is still in the scan, so its chart
    # admits that normal, and the closed form must catch the difference
    witness_ns = sorted(w.n for w in certificate.witnesses if w.source == "rho")
    first, last = witness_ns[0], witness_ns[-1]
    real = certify_embed._rho_residues

    def wrong_at_first(cap):
        for n, residues in enumerate(real(cap), start=1):
            yield tuple(c + cap for c in rho(last, cap)) if n == first else residues

    monkeypatch.setattr(certify_embed, "_rho_residues", wrong_at_first)
    with pytest.raises(CertificationError, match=rf"^rho\({first}, {DEFAULT_CAP}\) = "):
        certify_embeddedness(candidate_surface, manual_normals=manual_normals)


def test_scan_work_counters_on_the_candidate(certificate, candidate_surface):
    # one ρ(n) drawn per n up to the last ρ witness; a (pair, n) decision for
    # every pair still in the scan at each n whose ρ(n) is below the cap, of
    # which the pairs' charts admit under 1% to the exact test
    assert certificate.rho_candidates == 69265
    assert certificate.pair_tests == 331579
    assert certificate.exact_tests == 913 <= certificate.pair_tests // 100
    assert certificate.n_vertices == 10
    assert certificate.surface_digest == candidate_surface.digest


def test_exact_tests_count_the_scan_calls_of_the_exact_test(
    candidate_surface, corrupt_surface, manual_normals, monkeypatch
):
    real = certify_embed._separating_sign
    calls = []

    def counting(D, normal, threshold):
        calls.append(normal)
        return real(D, normal, threshold)

    monkeypatch.setattr(certify_embed, "_separating_sign", counting)
    # the 11 table pairs are tested once each before the scan
    cert = certify_embeddedness(candidate_surface, manual_normals=manual_normals)
    assert cert.exact_tests == len(calls) - 11 == 913
    calls.clear()
    with pytest.raises(CertificationError):
        certify_embeddedness(corrupt_surface, manual_normals=manual_normals)
    # the 60 pairs that no normal can witness leave the scan before n = 1:
    # 20 of the 82 disjoint pairs (17 of them with a zero difference through
    # the moved vertex) and 40 of the shared-vertex pairs; the pairs without
    # a chart are tested at every n until they are witnessed, 213 of these
    # 742 tests
    assert len(calls) - 11 == 742


def test_exact_tests_cannot_exceed_the_decisions(certificate):
    dataclasses.replace(certificate, exact_tests=certificate.pair_tests)
    for wrong in (certificate.pair_tests + 1, -1):
        with pytest.raises(ValueError, match="exact tests"):
            dataclasses.replace(certificate, exact_tests=wrong)


# ---------------------------------------------------------------------------
# Pairs no normal can witness
# ---------------------------------------------------------------------------


def _shared_vertex_tests(surface):
    faces = surface.triangulation.faces
    return {
        (faces[i], faces[j]): _pair_tests(faces[i], faces[j])
        for i, j in classify_pairs(surface.triangulation).shared_vertex
    }


@pytest.fixture(scope="module")
def corrupt_surface(candidate_surface):
    """The candidate with vertex 3 moved onto vertex 5."""
    coords = list(candidate_surface.coords)
    coords[3] = coords[5]
    return EmbeddedSurface(triangulation=candidate_surface.triangulation, coords=tuple(coords))


def test_unwitnessable_is_false_on_the_candidate(candidate_surface):
    coords = _dilated(candidate_surface)
    tests = _shared_vertex_tests(candidate_surface)
    assert len(tests) == 158
    assert not any(_unwitnessable(t, coords) for t in tests.values())


def test_unwitnessable_marks_the_corrupt_mesh_pairs(corrupt_surface, manual_normals):
    coords = _dilated(corrupt_surface)
    marked = {
        pair for pair, t in _shared_vertex_tests(corrupt_surface).items()
        if _unwitnessable(t, coords)
    }
    assert len(marked) == 40
    # the shared-vertex pairs of the failure, whose text is pinned to the
    # exhaustive scan in tests/test_cli_io.py
    with pytest.raises(CertificationError) as info:
        certify_embeddedness(corrupt_surface, manual_normals=manual_normals)
    assert marked == _named_pairs(info.value, "shared_vertex")


def test_corrupt_mesh_scan_stops_at_the_last_rho_witness(
    corrupt_surface, manual_normals, monkeypatch
):
    # without the unwitnessable pairs the scan ends with the last separable
    # pair, (0, 6, 4)/(4, 5, 9) at n = 33,018, instead of running to 10⁵
    real = certify_embed.rho
    calls = []

    def counting(n, cap=DEFAULT_CAP):
        calls.append(n)
        return real(n, cap)

    monkeypatch.setattr(certify_embed, "rho", counting)
    with pytest.raises(CertificationError, match="no separating normal") as info:
        certify_embeddedness(corrupt_surface, manual_normals=manual_normals)
    assert len(calls) <= 33018
    assert len(_named_pairs(info.value, "shared_vertex")) == 40
    assert len(_named_pairs(info.value, "disjoint")) == 21


_small_point = st.tuples(*[st.integers(min_value=-3, max_value=3)] * 3)


@settings(max_examples=400, deadline=None)
@given(points=st.tuples(*[_small_point] * 5))
def test_unwitnessable_agrees_with_the_intersection_oracle(points):
    # triangles (U, V1, V2) and (U, W1, W2) share U = points[0]
    u = points[0]
    t1 = (u, points[1], points[2])
    t2 = (u, points[3], points[4])
    try:
        meet_only_at_u = triangles_meet_only_at(t1, t2, u)
    except DegenerateConfiguration:
        return
    assert _unwitnessable(_pair_tests((0, 1, 2), (0, 3, 4)), points) == (not meet_only_at_u)


@settings(max_examples=600, deadline=None)
@given(pair=triangle_pairs())
def test_a_pair_leaves_the_scan_exactly_when_no_normal_can_witness_it(pair):
    # the rays decide a D that spans R³, the subset search one that spans a
    # plane or a line; both agree with the reference subset search, and with
    # the intersection oracle where it classifies the pair
    coords, f1, f2 = pair
    tests = _pair_tests(f1, f2)
    D = _differences(tests, coords)
    chart = _scan_chart(D)
    assert (chart is None) == _unwitnessable(tests, coords)
    assert chart is None or chart == _chart(D)
    t1, t2 = (tuple(coords[v] for v in f) for f in (f1, f2))
    try:
        if 0 in f2:
            separable = triangles_meet_only_at(t1, t2, coords[0])
        else:
            separable = triangles_disjoint(t1, t2)
    except DegenerateConfiguration:
        return
    assert (chart is None) == (not separable)


def test_the_subset_search_skips_differences_that_span_space(
    candidate_surface, corrupt_surface, manual_normals, monkeypatch
):
    # every pair of both meshes has differences that span R³, so the rays
    # decide them all, the 60 pairs of the corrupt mesh that meet included
    calls = []
    monkeypatch.setattr(certify_embed, "_origin_in_hull", calls.append)
    certify_embeddedness(candidate_surface, manual_normals=manual_normals)
    with pytest.raises(CertificationError):
        certify_embeddedness(corrupt_surface, manual_normals=manual_normals)
    assert calls == []


def test_an_over_cap_manual_normal_fails_before_any_test(
    candidate_surface, manual_normals, monkeypatch
):
    # the table's entries reach 12,086 to 64,316; the first pair in face
    # order whose entry reaches the cap is named, with its normal
    calls = []
    monkeypatch.setattr(certify_embed, "_separating_sign", lambda *args: calls.append(args))
    for cap, named in (
        (10**4, r"\(-40, -67, 14035\) for \{\(0, 2, 1\), \(1, 3, 7\)\}"),
        (64316, r"\(-442, 205, 64316\) for \{\(\d+, \d+, \d+\), \(\d+, \d+, \d+\)\}"),
    ):
        with pytest.raises(ValueError, match=rf"^manual normal {named} reaches the cap {cap}$"):
            certify_embeddedness(candidate_surface, cap=cap, manual_normals=manual_normals)
    assert calls == []


def test_witness_invariants_are_enforced():
    ok = dict(
        pair=((0, 1, 2), (3, 4, 5)),
        kind="disjoint",
        source="rho",
        n=1,
        sign=1,
        normal=(1, 2, 3),
        margins=(101,),
        threshold=100,
        cap=10,
    )
    SeparationWitness(**ok)
    with pytest.raises(ValueError, match="threshold"):
        SeparationWitness(**{**ok, "margins": (100,)})
    with pytest.raises(ValueError, match="cap"):
        SeparationWitness(**{**ok, "normal": (1, 2, 10)})
    with pytest.raises(ValueError, match="kind"):
        SeparationWitness(**{**ok, "kind": "adjacent"})


# ---------------------------------------------------------------------------
# Soundness sampling: every witness survives the perturbations it certifies
# ---------------------------------------------------------------------------


def _perturbed_triangles(coords, witness, rng, delta):
    f1, f2 = witness.pair
    offsets = {v: rng.randrange(-delta, delta + 1) for v in set(f1) | set(f2)}

    def pert(v):
        x, y, z = coords[v]
        return (x, y, z + offsets[v])

    return tuple(pert(v) for v in f1), tuple(pert(v) for v in f2), pert


def test_witness_soundness_under_sampled_perturbations(
    certificate, candidate_surface
):
    coords = _dilated(candidate_surface)
    rng = random.Random(0x5EEDED)
    delta = certificate.delta
    for witness in certificate.witnesses:
        for _ in range(100):
            for _attempt in range(8):
                t1, t2, pert = _perturbed_triangles(coords, witness, rng, delta)
                try:
                    if witness.kind == "disjoint":
                        assert triangles_disjoint(t1, t2)
                    else:
                        shared = set(witness.pair[0]) & set(witness.pair[1])
                        u = shared.pop()
                        assert triangles_meet_only_at(t1, t2, pert(u))
                    break
                except DegenerateConfiguration:
                    continue
            else:
                pytest.fail(f"persistent degenerate draws for {witness.pair}")


# ---------------------------------------------------------------------------
# Toy meshes: honest success and honest failure
# ---------------------------------------------------------------------------

_TETRA_FACES = ((0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2))


def _two_tetra_surface(shift):
    base = [
        Fraction(1, 8),
        Fraction(-1, 8),
    ]
    corners = [
        (base[0], base[0], base[0]),
        (base[0], base[1], base[1]),
        (base[1], base[0], base[1]),
        (base[1], base[1], base[0]),
    ]
    coords = [Point3.of(*c) for c in corners]
    coords += [Point3.of(x + shift[0], y + shift[1], z + shift[2]) for x, y, z in corners]
    faces = _TETRA_FACES + tuple(tuple(v + 4 for v in f) for f in _TETRA_FACES)
    tri = Triangulation(n_vertices=8, faces=faces)
    return EmbeddedSurface(triangulation=tri, coords=tuple(coords))


def test_separated_toy_mesh_certifies():
    S = _two_tetra_surface((0, 0, Fraction(9, 16)))
    cert = certify_embeddedness(S)
    assert cert.n_disjoint == 16
    assert cert.n_shared_vertex == 0
    assert cert.n_shared_edge == 12
    assert len(cert.witnesses) == 16
    assert all(m > 0 for w in cert.witnesses for m in w.margins)


def test_interpenetrating_toy_mesh_fails():
    S = _two_tetra_surface((Fraction(1, 16), Fraction(1, 16), Fraction(1, 16)))
    coords = _dilated(S)
    faces = S.triangulation.faces
    # the oracle confirms a genuine crossing exists, so failure is honest
    crossing = []
    for i in range(4):
        for j in range(4, 8):
            t1 = tuple(coords[v] for v in faces[i])
            t2 = tuple(coords[v] for v in faces[j])
            try:
                crossing.extend(triangle_intersection_points(t1, t2))
            except DegenerateConfiguration:
                crossing.append("degenerate-touch")
    assert crossing
    with pytest.raises(CertificationError, match="no separating normal"):
        certify_embeddedness(S)


# ---------------------------------------------------------------------------
# The sign-first scan against the vertex-dot scan it replaced
# ---------------------------------------------------------------------------


def _witness_table(certificate, faces):
    index = {f: k for k, f in enumerate(faces)}
    return {
        (index[w.pair[0]], index[w.pair[1]]): (w.kind, w.source, w.n, w.sign, w.normal, w.margins)
        for w in certificate.witnesses
    }


def _outcome(S, manual_normals=None, cap=DEFAULT_CAP):
    """The certificate's witnesses by face-index pair, or the failure text."""
    try:
        certificate = certify_embeddedness(S, cap=cap, manual_normals=manual_normals)
    except CertificationError as error:
        return str(error)
    return _witness_table(certificate, S.triangulation.faces)


def _reference_outcome(S, manual_normals=None, cap=DEFAULT_CAP):
    """What oracles.witness_scan_reference certifies, in the form of _outcome."""
    scale = math.lcm(S.denominator, ROBUSTNESS.denominator)
    m = scale // S.denominator
    coords = [tuple(m * c for c in p) for p in S.lattice]
    faces = S.triangulation.faces
    manual = {
        (i, j): manual_normals[frozenset((faces[i], faces[j]))]
        for i, j in combinations(range(len(faces)), 2)
        if manual_normals and frozenset((faces[i], faces[j])) in manual_normals
    }
    skip = frozenset(
        (i, j) for i, j in classify_pairs(S.triangulation).shared_vertex
        if _unwitnessable(_pair_tests(faces[i], faces[j]), coords)
    )
    threshold = 2 * int(scale * ROBUSTNESS) * cap
    witnesses, pending = witness_scan_reference(coords, faces, threshold, cap, manual, skip)
    if pending:
        return "no separating normal found for: " + ", ".join(
            f"{{{faces[i]}, {faces[j]}}} [{kind}]" for (i, j), kind in pending
        )
    return witnesses


def test_candidate_certificate_equals_the_reference_scan(
    certificate, candidate_surface, manual_normals
):
    faces = candidate_surface.triangulation.faces
    expected = _reference_outcome(candidate_surface, manual_normals)
    assert _witness_table(certificate, faces) == expected
    assert all(w.threshold == THRESHOLD and w.cap == DEFAULT_CAP for w in certificate.witnesses)


def test_scan_alone_fails_as_the_reference_scan(candidate_surface):
    expected = _reference_outcome(candidate_surface)
    assert expected.count("{") == 11
    assert _outcome(candidate_surface) == expected


def test_corrupt_mesh_fails_as_the_reference_scan(corrupt_surface, manual_normals):
    expected = _reference_outcome(corrupt_surface, manual_normals)
    assert expected.startswith("no separating normal found for: ")
    assert _outcome(corrupt_surface, manual_normals) == expected


def _tetra_pair_surface(points, glued):
    """Two tetrahedra on lattice points/64, sharing vertex 0 when ``glued``."""
    second = (0, 4, 5, 6) if glued else (4, 5, 6, 7)
    faces = _TETRA_FACES + tuple(tuple(second[v] for v in f) for f in _TETRA_FACES)
    coords = tuple(Point3(*(Fraction(c, 64) for c in p)) for p in points)
    return EmbeddedSurface(Triangulation(n_vertices=len(points), faces=faces), coords)


_TOY_MESHES = {
    "separated": _two_tetra_surface((0, 0, Fraction(9, 16))),
    "interpenetrating": _two_tetra_surface((Fraction(1, 16), Fraction(1, 16), Fraction(1, 16))),
    "glued": _tetra_pair_surface(
        [(0, 0, 0), (8, 8, 24), (8, -8, 24), (-8, 0, 24), (8, 8, -24), (-8, 8, -24), (0, -8, -24)],
        glued=True,
    ),
}


@pytest.mark.parametrize("name", sorted(_TOY_MESHES))
@pytest.mark.parametrize("cap", [DEFAULT_CAP, 7, 3])
def test_toy_meshes_match_the_reference_scan(name, cap):
    # at caps 3 and 7 many ρ(n) have a coordinate −cap and are skipped
    S = _TOY_MESHES[name]
    expected = _reference_outcome(S, cap=cap)
    if cap == DEFAULT_CAP:
        assert isinstance(expected, dict) == (name != "interpenetrating")
    assert _outcome(S, cap=cap) == expected


_lattice_move = st.tuples(*[st.integers(min_value=-6, max_value=6)] * 3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(glued=st.booleans(), moves=st.lists(_lattice_move, min_size=8, max_size=8))
def test_perturbed_toy_meshes_match_the_reference_scan(glued, moves):
    base = [(8, 8, 8), (8, -8, -8), (-8, 8, -8), (-8, -8, 8)]
    base += [(x, y, z + 20) for x, y, z in base] if not glued else [
        (8, 8, -24), (-8, 8, -24), (0, -8, -24)
    ]
    points = [tuple(c + d for c, d in zip(p, move)) for p, move in zip(base, moves)]
    if len(set(points)) < len(points):
        return
    S = _tetra_pair_surface(points, glued)
    assert _outcome(S) == _reference_outcome(S)


def test_perturbed_candidates_match_the_reference_scan(candidate_surface, manual_normals):
    # every coordinate moved by up to 10⁻⁴, and the same moves with vertex 3
    # kept on vertex 5: certified and failing scans with other margins
    rng = random.Random(1)
    coords = [
        Point3(*(c + Fraction(rng.randint(-100, 100), 10**6) for c in p))
        for p in candidate_surface.coords
    ]
    moved = EmbeddedSurface(candidate_surface.triangulation, tuple(coords))
    coords[3] = coords[5]
    collapsed = EmbeddedSurface(candidate_surface.triangulation, tuple(coords))
    for S, certifies in ((moved, True), (collapsed, False)):
        expected = _reference_outcome(S, manual_normals)
        assert isinstance(expected, dict) == certifies
        assert _outcome(S, manual_normals) == expected


# ---------------------------------------------------------------------------
# Charts: the float prefilter never drops a separating normal
# ---------------------------------------------------------------------------


def _assert_charts_admit_every_separating_rho(S, cap=DEFAULT_CAP, limit=3000):
    """Every ρ(n), n ≤ limit, that separates a pair with either sign at
    threshold 0 (every ⟨d, ±ρ(n)⟩ > 0, as for any normal the scan accepts)
    lies in that pair's chart.  Returns the number of such (pair, n) and of
    pairs with a chart."""
    coords = _dilated(S)
    faces = S.triangulation.faces
    classes = classify_pairs(S.triangulation)
    normals = [rho(n, cap) for n in range(1, limit + 1)]
    separating = charted = 0
    for pair in classes.disjoint + classes.shared_vertex:
        D = _differences(_pair_tests(faces[pair[0]], faces[pair[1]]), coords)
        charts = {pair: _chart(D)}
        charted += charts[pair] != NO_CHART
        groups = _chart_groups([pair], charts)
        passed = [N for N in normals if _separating_sign(D, N, 0)]
        missed = [N for N in passed if not _admitted(groups, *N)]
        assert not missed, (pair, charts[pair], missed[:3])
        separating += len(passed)
    return separating, charted


def test_charts_admit_every_separating_rho_on_the_candidates(
    candidate_surface, corrupt_surface
):
    rng = random.Random(1)
    coords = [
        Point3(*(c + Fraction(rng.randint(-100, 100), 10**6) for c in p))
        for p in candidate_surface.coords
    ]
    moved = EmbeddedSurface(candidate_surface.triangulation, tuple(coords))
    coords[3] = coords[5]
    collapsed = EmbeddedSurface(candidate_surface.triangulation, tuple(coords))
    for S in (candidate_surface, corrupt_surface, moved, collapsed):
        separating, charted = _assert_charts_admit_every_separating_rho(S)
        # about 300 of the 3,000 ρ(n) separate each pair, and most pairs have a chart
        assert separating > 70000 and charted > 150


@pytest.mark.parametrize("name", sorted(_TOY_MESHES))
@pytest.mark.parametrize("cap", [DEFAULT_CAP, 7, 3])
def test_charts_admit_every_separating_rho_on_the_toy_meshes(name, cap):
    separating, charted = _assert_charts_admit_every_separating_rho(_TOY_MESHES[name], cap)
    assert separating > 2000 and charted >= 12


def _cone(*rays):
    """D whose closed cone K̄ = {N : ⟨d, N⟩ ≥ 0} is spanned by three rays."""
    a, b, c = rays
    if _dot(a, _cross(b, c)) < 0:
        a, b = b, a
    return [_cross(b, c), _cross(c, a), _cross(a, b)]


def _directions(rays):
    """The rays' primitive integer vectors, each once, sorted."""
    return sorted({tuple(x // math.gcd(*r) for x in r) for r in rays})


def test_chart_is_the_box_of_the_ray_ratios():
    rays = [(2, 1, 1), (1, 2, 1), (1, 1, 2)]
    D = _cone(*rays)
    assert _directions(_rays(D)) == sorted(rays)
    assert _chart(D) == (0, 0.5, 2.0, 0.5, 2.0)
    # the same cone with the opposite sign in every coordinate keeps the box
    assert _chart([tuple(-x for x in d) for d in D]) == (0, 0.5, 2.0, 0.5, 2.0)


def test_coplanar_or_collinear_differences_get_no_chart():
    # K̄ then holds a line: both signs of the plane's normal
    coplanar = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (3, -1, 0)]
    assert _directions(_rays(coplanar)) == [(0, 0, -1), (0, 0, 1)]
    assert _chart(coplanar) == NO_CHART
    collinear = [(1, 2, 3), (2, 4, 6), (-1, -2, -3)]
    assert _rays(collinear) == []
    assert _chart(collinear) == NO_CHART


def test_a_cone_across_every_coordinate_plane_gets_no_chart():
    rays = [(-1, 1, 1), (1, -1, 1), (1, 1, -1)]
    D = _cone(*rays)
    assert _directions(_rays(D)) == sorted(rays)
    assert _chart(D) == NO_CHART


def test_a_cone_that_no_normal_separates_gets_no_chart():
    # D positively spans R³, so K̄ = {0} and R is empty
    D = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    assert _rays(D) == []
    assert _chart(D) == NO_CHART


_ray_coefficient = st.integers(min_value=-4, max_value=4)
_ray_vector = st.tuples(*[_ray_coefficient] * 3)
_vectors = st.lists(_ray_vector, min_size=1, max_size=9)


def _combined(basis, coefficients):
    return [
        tuple(sum(c * b[m] for c, b in zip(cs, basis)) for m in range(3)) for cs in coefficients
    ]


def _one_side(normal, D):
    return [d if _dot(d, normal) >= 0 else tuple(-x for x in d) for d in D]


_difference_sets = st.one_of(
    _vectors,
    _vectors.map(lambda D: D + [(0, 0, 0)]),
    st.builds(  # collinear
        lambda v, ks: _combined([v], [(k,) for k in ks]),
        _ray_vector,
        st.lists(_ray_coefficient, min_size=1, max_size=9),
    ),
    st.builds(  # coplanar
        lambda u, v, cs: _combined([u, v], cs),
        _ray_vector,
        _ray_vector,
        st.lists(st.tuples(_ray_coefficient, _ray_coefficient), min_size=1, max_size=9),
    ),
    st.builds(_one_side, _ray_vector, _vectors),  # in a closed half-space: a nonempty R
)


@settings(max_examples=300, deadline=None)
@given(D=_difference_sets)
def test_rays_equal_the_all_dots_reference(D):
    assert _rays(D) == rays_reference(D)


def test_a_ray_ratio_beyond_float_range_gets_no_chart():
    big = 10**400
    D = _cone((1, big, 1), (big, 1, 1), (1, 1, big))
    assert _chart(D) == NO_CHART  # and no OverflowError
    # when only the first coordinate overflows, the next one makes the chart
    D = _cone((1, big, 1), (1, big, 2), (2, big, 1))
    assert _chart(D)[0] == 1


def test_a_zero_rho_coordinate_is_outside_its_chart():
    # every nonzero N in K̄ has N_0 > 0, so no N with N_0 = 0 separates with
    # either sign, though the box holds (0, 0)
    D = _cone((2, 1, 1), (2, -1, 1), (2, 0, -1))
    charts = {(0, 1): _chart(D), (2, 3): NO_CHART}
    assert charts[(0, 1)] == (0, -0.5, 0.5, -0.5, 0.5)
    groups = _chart_groups([(0, 1), (2, 3)], charts)
    for N in ((0, 1, 1), (0, -1, -1), (0, 0, 5)):
        assert _separating_sign(D, N, 0) == 0
        assert _admitted(groups, *N) == [(2, 3)]
    for N in ((1, 0, 0), (-1, 0, 0)):
        assert _separating_sign(D, N, 0) == N[0]
        assert _admitted(groups, *N) == [(0, 1), (2, 3)]


def test_grouped_admission_equals_the_per_chart_reference(candidate_surface, corrupt_surface):
    # the charts of every pair of the candidate and of the corrupt mesh, some
    # of them NO_CHART, for all pairs and every third one, against ρ(n) for
    # n < 3,000 and the same normals with a zero coordinate
    normals = [rho(n) for n in range(1, 3000)]
    normals += [
        tuple(0 if k == m else c for k, c in enumerate(N)) for N in normals[:500] for m in range(3)
    ]
    for S in (candidate_surface, corrupt_surface):
        coords = _dilated(S)
        faces = S.triangulation.faces
        classes = classify_pairs(S.triangulation)
        pairs = sorted(classes.disjoint + classes.shared_vertex)
        charts = {
            p: _chart(_differences(_pair_tests(faces[p[0]], faces[p[1]]), coords)) for p in pairs
        }
        assert len({c[0] for c in charts.values() if c != NO_CHART}) == 3
        assert NO_CHART in charts.values()
        for chosen in (pairs, pairs[::3]):
            groups = _chart_groups(chosen, charts)
            for N in normals:
                assert _admitted(groups, *N) == admitted_reference(chosen, charts, N), (N, chosen)


def test_charts_on_a_lattice_at_scale_ten_to_the_432(
    certificate, candidate_surface, manual_normals
):
    # a lattice with Q = 10⁴³² on purpose, far longer than any mesh the
    # pipeline writes: ray components near 10⁸⁶⁴, far beyond float range;
    # their ratios are still floats
    heights = [p.z for p in candidate_surface.coords]
    heights[0] += Fraction(1, 10**432)
    S = surface_with_heights(candidate_surface, heights)
    assert S.denominator == 10**432
    fine = certify_embeddedness(S, manual_normals=manual_normals)
    assert _witness_keys(fine) == _witness_keys(certificate)
    assert fine.exact_tests <= fine.pair_tests // 100
