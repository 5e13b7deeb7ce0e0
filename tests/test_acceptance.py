"""End-to-end acceptance criteria for the certification pipeline.

Each test covers one shipping criterion, re-runs the full computation at
the stated working precision, checks the certified quantities at their
stated tolerances (exact rational comparisons wherever the pipeline is
exact), and prints a single machine-greppable line

    [PASS|FAIL] criterion NN (label): key figures (elapsed)

to the real stdout so the summary survives pytest's capture.  A criterion
that cannot be met must fail loudly here — the printed line and the assert
always agree.
"""

from __future__ import annotations

import math
import random
import sys
import time
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest

from kleincert.certify_embed import (
    DISJOINT_SEARCH_LIMIT,
    SHARED_SEARCH_LIMIT,
    certify_embeddedness,
)
from kleincert.certify_flat import LinkReference, LinkTable, certify_flatness
from kleincert.cli_io import slice_plane
from kleincert.jacobian import (
    SECOND_ORDER_CAP,
    certify_expansion,
    conclude_existence,
    crude_bounds,
    dtheta_analytic,
    dtheta_enclosure,
    dtheta_fd,
    reference_jacobian,
    second_partial_bound,
    smallest_gram_root_bracket,
    singular_lower_bound,
    theta_map,
)
from kleincert.mesh import cone_angle, subdivide, validate
from kleincert.precision import _exp_remainder, hyp_bounds, two_pi
from kleincert.search import SearchConfig, newton_refine


def _emit(capsys, number: int, label: str, elapsed: float, checks: list[tuple[str, bool]]):
    ok = all(flag for _, flag in checks)
    status = "PASS" if ok else "FAIL"
    line = (
        f"[{status}] criterion {number:2d} ({label}): "
        + "; ".join(name for name, _ in checks)
        + f" ({elapsed:.2f}s)"
    )
    with capsys.disabled():
        print(line, flush=True)
    failed = [name for name, flag in checks if not flag]
    assert not failed, f"criterion {number} ({label}) failed: {failed}"


@pytest.fixture(scope="module")
def link_reference(reference_links) -> LinkReference:
    return LinkReference(
        tables=tuple(
            LinkTable(vertex=v, cycle=entry["cycle"], vectors=entry["vectors"])
            for v, entry in sorted(reference_links.items())
        )
    )


@pytest.fixture(scope="module")
def certificates(candidate_surface, link_reference, manual_normals):
    """The three certificates feeding the existence chain (criteria 1, 2, 5);
    the expansion certificate carries the second-order cap checked on the
    candidate's crude bounds."""
    flat = certify_flatness(candidate_surface, link_reference)
    embed = certify_embeddedness(candidate_surface, manual_normals=manual_normals)
    expansion = certify_expansion(
        reference_jacobian(),
        dtheta_center=dtheta_enclosure(candidate_surface, precision=60),
        second_order_cap=second_partial_bound(crude_bounds(candidate_surface)),
    )
    return flat, embed, expansion


def test_criterion_01_flatness(candidate_surface, link_reference, capsys):
    start = time.monotonic()
    cert = certify_flatness(candidate_surface, link_reference)
    elapsed = time.monotonic() - start
    _emit(
        capsys,
        1,
        "flatness certificate",
        elapsed,
        [
            (f"max_delta <= 2.93e-32", cert.max_delta <= Fraction(293, 10**34)),
            (
                "alpha range within [0.000052, 0.918]",
                Fraction(52, 10**6) <= cert.alpha_range[0]
                and cert.alpha_range[1] <= Fraction(918, 1000),
            ),
            (
                "Lipschitz 71 on [0.00005, 0.92]",
                cert.lipschitz_bound == 71
                and Fraction(5, 10**5) <= cert.joint_range[0]
                and cert.joint_range[1] <= Fraction(92, 100),
            ),
            ("epsilon < 1e-28", cert.epsilon < Fraction(1, 10**28)),
            ("exact sign/winding checks", cert.sign_agreements and cert.winding_valid),
            ("runtime <= 30s", elapsed <= 30),
        ],
    )


def test_criterion_02_embeddedness(candidate_surface, manual_normals, capsys):
    start = time.monotonic()
    cert = certify_embeddedness(candidate_surface, manual_normals=manual_normals)
    elapsed = time.monotonic() - start
    manual = [w for w in cert.witnesses if w.source == "manual"]
    searched = [w for w in cert.witnesses if w.source == "rho"]
    floor = 2 * 10**30
    _emit(
        capsys,
        2,
        "robust embeddedness",
        elapsed,
        [
            (
                "pair classes 82/158/36",
                (cert.n_disjoint, cert.n_shared_vertex, cert.n_shared_edge)
                == (82, 158, 36),
            ),
            (
                "search limits 2000/100000",
                DISJOINT_SEARCH_LIMIT == 2000
                and SHARED_SEARCH_LIMIT == 10**5
                and all(w.n < SHARED_SEARCH_LIMIT for w in searched),
            ),
            ("11 manual normals", len(manual) == 11),
            (
                "every margin > 2e30 exactly",
                all(min(w.margins) > floor for w in cert.witnesses),
            ),
            ("lambda = 1e-7", cert.robustness == Fraction(1, 10**7)),
            ("runtime <= 300s", elapsed <= 300),
        ],
    )


def test_criterion_03_jacobian_agreement(candidate_surface, capsys):
    start = time.monotonic()
    analytic = dtheta_analytic(candidate_surface, precision=60)
    elapsed = time.monotonic() - start
    M = reference_jacobian()
    adjacency = {i: {i} for i in range(10)}
    for face in candidate_surface.triangulation.faces:
        for a in range(3):
            i, j = face[a], face[(a + 1) % 3]
            adjacency[i].add(j)
            adjacency[j].add(i)
    deviation = max(
        abs(Fraction(analytic.entries[i][l]) - M[i][l])
        for i in range(10)
        for l in range(10)
    )
    pattern_ok = all(
        (M[i][l] != 0 and Fraction(analytic.entries[i][l]) != 0)
        if l in adjacency[i]
        else (M[i][l] == 0 and Fraction(analytic.entries[i][l]) == 0)
        for i in range(10)
        for l in range(10)
    )
    _emit(
        capsys,
        3,
        "Jacobian vs reference",
        elapsed,
        [
            (f"entrywise deviation {float(deviation):.2e} < 0.001", deviation < Fraction(1, 1000)),
            ("zero pattern matches adjacency", pattern_ok),
            ("runtime <= 10s", elapsed <= 10),
        ],
    )


def test_criterion_04_finite_difference_oracle(candidate_surface, capsys):
    start = time.monotonic()
    h = Fraction(1, 10**20)
    analytic = dtheta_analytic(candidate_surface, precision=100)
    fd_h = dtheta_fd(candidate_surface, h=h, precision=100)
    fd_half = dtheta_fd(candidate_surface, h=h / 2, precision=100)
    elapsed = time.monotonic() - start

    def deviation(a, b):
        return max(
            abs(Fraction(a.entries[i][j]) - Fraction(b.entries[i][j]))
            for i in range(10)
            for j in range(10)
        )

    dev_h = deviation(analytic, fd_h)
    dev_half = deviation(analytic, fd_half)
    ratio = dev_h / dev_half if dev_half else Fraction(4)
    _emit(
        capsys,
        4,
        "finite-difference oracle",
        elapsed,
        [
            (f"max deviation {float(dev_h):.2e} <= 1e-25", dev_h <= Fraction(1, 10**25)),
            (
                f"order-2 decay at h/2 (ratio {float(ratio):.2f})",
                Fraction(35, 10) < ratio < Fraction(45, 10),
            ),
            ("runtime <= 30s", elapsed <= 30),
        ],
    )


def test_criterion_05_expansion_certificate(candidate_surface, capsys):
    start = time.monotonic()
    M = reference_jacobian()
    lo, hi = smallest_gram_root_bracket(M)
    sigma = singular_lower_bound(M)
    cert = certify_expansion(
        M,
        dtheta_center=dtheta_enclosure(candidate_surface, precision=60),
        second_order_cap=SECOND_ORDER_CAP,
    )
    elapsed = time.monotonic() - start
    drift = cert.n_vertices * cert.radius * cert.second_order_cap
    _emit(
        capsys,
        5,
        "expansion certificate",
        elapsed,
        [
            (f"Gram root bracket lower end {float(lo):.5f} > 2.25", lo > Fraction(225, 100)),
            (f"sigma_min bound {float(sigma):.5f} > 1.5", sigma > Fraction(3, 2)),
            (
                "lambda = 1/2 on radius 1e-18",
                cert.lam == Fraction(1, 2) and cert.radius == Fraction(1, 10**18),
            ),
            (
                "second-order premise n·r·cap <= 1e-3",
                drift <= Fraction(1, 1000),
            ),
            ("runtime <= 120s", elapsed <= 120),
        ],
    )


def test_criterion_06_crude_bounds(candidate_surface, capsys):
    start = time.monotonic()
    crude = crude_bounds(candidate_surface)
    elapsed = time.monotonic() - start
    _emit(
        capsys,
        6,
        "crude-bounds suite",
        elapsed,
        [
            (
                "Euclidean edge norms in [0.509, 1.561]",
                crude.euclidean_edge_range == (Fraction(509, 1000), Fraction(1561, 1000)),
            ),
            (
                "tangent norms in [0.5, 13]",
                crude.tangent_norm_range == (Fraction(1, 2), Fraction(13)),
            ),
            (
                "edge lengths in [0.63, 2.08] padded to [0.6, 2.1]",
                crude.edge_length_center_range == (Fraction(63, 100), Fraction(208, 100))
                and crude.edge_length_range == (Fraction(3, 5), Fraction(21, 10)),
            ),
            (
                "cosines in [-0.008, 0.96]",
                crude.cos_center_range == (Fraction(-8, 1000), Fraction(96, 100)),
            ),
            ("|sin| floor 0.24", crude.sin_floor == Fraction(24, 100)),
            ("runtime <= 60s", elapsed <= 60),
        ],
    )


def test_criterion_07_existence_chain(certificates, capsys):
    flat, embed, expansion = certificates
    start = time.monotonic()
    report = conclude_existence(flat, embed, expansion)
    elapsed = time.monotonic() - start
    _emit(
        capsys,
        7,
        "existence chain",
        elapsed,
        [
            (
                "defect cap 1e-27 <= (1/2)·1e-18",
                report.defect_norm_cap == Fraction(1, 10**27)
                and report.defect_norm_cap <= Fraction(1, 2) * Fraction(1, 10**18),
            ),
            (
                "ball 5e-19 < robustness 1e-7",
                report.coverage_radius == Fraction(5, 10**19)
                and report.coverage_radius < Fraction(1, 10**7)
                and report.robustness == Fraction(1, 10**7),
            ),
            (
                "theorem-level report emitted",
                len(report.checks) == 4 and "exists" in report.statement,
            ),
            ("runtime <= 1s", elapsed <= 1),
        ],
    )


def test_criterion_08_newton_refinement(candidate_surface, capsys):
    start = time.monotonic()
    trace: list[Fraction] = []
    refined = newton_refine(candidate_surface, SearchConfig(), trace=trace)
    iterations = len(trace) - 1
    final_norm_sq = theta_map(refined, precision=120).norm_sq()

    deep_trace: list[Fraction] = []
    newton_refine(
        candidate_surface,
        SearchConfig(newton_tol=Fraction(1, 10**150)),
        trace=deep_trace,
    )
    elapsed = time.monotonic() - start

    def log10_norm(norm_sq: Fraction) -> float:
        return (
            math.log10(norm_sq.numerator) - math.log10(norm_sq.denominator)
        ) / 2

    logs = [log10_norm(v) for v in deep_trace]
    ratios = [logs[k + 1] / logs[k] for k in range(len(logs) - 1)]
    _emit(
        capsys,
        8,
        "Newton refinement",
        elapsed,
        [
            (
                f"norm below 1e-35 within {iterations} iteration(s)",
                iterations <= 3 and final_norm_sq < Fraction(1, 10**70),
            ),
            (
                "quadratic decay recorded "
                + "/".join(f"{r:.2f}" for r in ratios),
                len(ratios) >= 3 and all(Fraction(18, 10) < Fraction(r).limit_denominator(10**6) < Fraction(22, 10) for r in ratios),
            ),
            ("runtime <= 60s", elapsed <= 60),
        ],
    )


def test_criterion_09_transcendental_layer(capsys):
    start = time.monotonic()
    at_half = hyp_bounds(Fraction(1, 2), precision=60)
    at_21 = hyp_bounds(Fraction(21, 10), precision=60)
    remainder_2 = Fraction(2**21 * 3**2, math.factorial(21))
    remainder_3 = Fraction(3**21 * 3**3, math.factorial(21))
    elapsed = time.monotonic() - start

    def inside(bound, lo: str, hi: str) -> bool:
        return Fraction(lo) <= Fraction(bound.lo) and Fraction(bound.hi) <= Fraction(hi)

    _emit(
        capsys,
        9,
        "transcendental layer",
        elapsed,
        [
            (
                "sinh/cosh/tanh(0.5) inside printed intervals",
                inside(at_half.sinh, "0.521", "0.522")
                and inside(at_half.cosh, "1.127", "1.128")
                and inside(at_half.tanh, "0.462", "0.463"),
            ),
            (
                "sinh/cosh/tanh(2.1) inside printed intervals",
                inside(at_21.sinh, "4.021", "4.022")
                and inside(at_21.cosh, "4.144", "4.145")
                and inside(at_21.tanh, "0.970", "0.971"),
            ),
            (
                "S20 remainder caps by the stated formula",
                remainder_2 == _exp_remainder(2, 20)
                and remainder_3 == _exp_remainder(3, 20)
                and remainder_2 <= Fraction(1, 10**10)
                and remainder_3 <= Fraction(1, 10**8),
            ),
            ("runtime <= 5s", elapsed <= 5),
        ],
    )


def test_criterion_10_slicer(candidate_surface, capsys):
    start = time.monotonic()
    one = len(slice_plane(candidate_surface, "xy").loops)
    two = len(slice_plane(candidate_surface, "xz").loops)
    rng = random.Random(2026)
    coords = candidate_surface.coords
    closed = True
    for _ in range(100):
        normal = tuple(
            Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(3)
        )
        if all(c == 0 for c in normal):
            normal = (Fraction(1), Fraction(0), Fraction(0))
        a, b = rng.sample(range(len(coords)), 2)
        through = tuple((pa + pb) / 2 for pa, pb in zip(coords[a], coords[b]))
        offset = sum(n * c for n, c in zip(normal, through))
        section = slice_plane(candidate_surface, (normal, offset))
        closed = closed and all(len(loop) >= 3 for loop in section.loops)
    elapsed = time.monotonic() - start
    _emit(
        capsys,
        10,
        "plane slicer",
        elapsed,
        [
            ("z = 0 gives exactly 1 loop", one == 1),
            ("y = 0 gives exactly 2 loops", two == 2),
            ("loop closure on 100 random planes", closed),
            ("runtime <= 30s", elapsed <= 30),
        ],
    )


def test_criterion_11_subdivision(candidate_surface, capsys):
    start = time.monotonic()
    surface = candidate_surface
    all_valid = True
    max_angle_error = Fraction(0)
    for step in range(10):
        surface = subdivide(surface, (7 * step) % len(surface.triangulation.faces))
        report = validate(surface.triangulation)
        all_valid = all_valid and report.ok and report.euler_characteristic == -2
        new_vertex = surface.triangulation.n_vertices - 1
        with localcontext(Context(prec=140)):
            gap = abs(
                cone_angle(surface, new_vertex, precision=100) - two_pi(100)
            )
        max_angle_error = max(max_angle_error, Fraction(gap))
    elapsed = time.monotonic() - start
    _emit(
        capsys,
        11,
        "subdivision",
        elapsed,
        [
            (
                "n = 11..20 all validate with Euler characteristic -2",
                all_valid and surface.triangulation.n_vertices == 20,
            ),
            (
                f"new-vertex cone angle within 1e-30 of 2*pi (worst {float(max_angle_error):.1e})",
                max_angle_error < Fraction(1, 10**30),
            ),
            ("runtime <= 60s", elapsed <= 60),
        ],
    )
