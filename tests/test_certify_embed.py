"""Tests for integer separating-hyperplane embeddedness certification.

The headline object is the full certificate for the packaged candidate
surface: 240 witnessed pairs (82 vertex-disjoint + 158 one-vertex-sharing),
every margin above the 2·10³⁰ threshold, robustness radius 10⁻⁷.  Witness
soundness is spot-checked against an exact rational triangle-triangle
intersection oracle under random z-perturbations up to the certified budget.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleincert import certify_embed
from kleincert.certify_embed import (
    DEFAULT_CAP,
    DEFAULT_DELTA,
    DEFAULT_SCALE,
    EmbeddingCertificate,
    SeparationWitness,
    _margins,
    _pair_tests,
    _unwitnessable,
    certify_embeddedness,
    classify_pairs,
    rho,
)
from kleincert.klein import Point3
from kleincert.mesh import EmbeddedSurface, Triangulation
from kleincert.precision import CertificationError

from oracles import (
    DegenerateConfiguration,
    sqrt_enclosure,
    triangle_intersection_points,
    triangles_disjoint,
    triangles_meet_only_at,
)

THRESHOLD = 2 * DEFAULT_DELTA * DEFAULT_CAP  # 2e30


def _dilated(surface, scale=DEFAULT_SCALE):
    """Integer vertex coordinates of the surface scaled by ``scale``."""
    coords = []
    for p in surface.coords:
        row = tuple(c * scale for c in p)
        assert all(c.denominator == 1 for c in row)
        coords.append(tuple(int(c) for c in row))
    return coords


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
# Integer dilation
# ---------------------------------------------------------------------------


def test_certify_rejects_insufficient_scale(candidate_surface):
    with pytest.raises(ValueError, match=f"is not integral at scale {10**31}$"):
        certify_embeddedness(candidate_surface, scale=10**31)


@pytest.mark.parametrize(
    "name, value", [("scale", 0), ("scale", -16), ("delta", -1), ("cap", 0)]
)
def test_certify_rejects_invalid_parameters(name, value):
    # with delta = -1 the threshold is negative, and the interpenetrating toy
    # mesh would get a "witness" for every pair
    S = _two_tetra_surface((Fraction(1, 16), Fraction(1, 16), Fraction(1, 16)))
    params = {"scale": 16, "delta": 0, **{name: value}}
    with pytest.raises(ValueError, match=f"^{name} must be >= "):
        certify_embeddedness(S, **params)


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
    for p, q in zip(candidate_surface.coords, coords):
        for c, i in zip(p, q):
            assert c * DEFAULT_SCALE == i
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
    # last rho witness (n = 69,265) instead of running to the 10⁵ limit
    real = certify_embed.rho
    calls = []

    def counting(n, cap=DEFAULT_CAP):
        calls.append(n)
        return real(n, cap)

    monkeypatch.setattr(certify_embed, "rho", counting)
    cert = certify_embeddedness(candidate_surface, manual_normals=manual_normals)
    assert len(calls) <= 69265
    assert max(w.n for w in cert.witnesses if w.source == "rho") == 69265


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
    cert = certify_embeddedness(S, scale=16, delta=0)
    assert cert.n_disjoint == 16
    assert cert.n_shared_vertex == 0
    assert cert.n_shared_edge == 12
    assert len(cert.witnesses) == 16
    assert all(m > 0 for w in cert.witnesses for m in w.margins)


def test_interpenetrating_toy_mesh_fails():
    S = _two_tetra_surface((Fraction(1, 16), Fraction(1, 16), Fraction(1, 16)))
    coords = _dilated(S, 16)
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
        certify_embeddedness(S, scale=16, delta=0)
