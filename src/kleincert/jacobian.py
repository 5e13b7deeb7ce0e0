"""The cone-defect map, its certified Jacobian, and the expansion certificate.

The cone-defect map sends the n-vector z of vertex heights (n = 10 for the
candidate) to the n-vector of cone-angle defects Θ_i(z) = Σ θ_angles at
vertex i − 2π (x and y vertex coordinates stay fixed).  A flat vertex has
defect 0; the certified search for an exactly-flat surface near the candidate
runs through four stages that live in this module:

1. `dtheta_enclosure` / `dtheta_analytic` — the analytic Jacobian ∂Θ_i/∂z_l.
   Every angle partial reduces to (exact rational) / √(exact rational):
   writing u = ⟨V,W⟩_X, v² = ⟨V,V⟩_X, w² = ⟨W,W⟩_X for the metric quantities
   of one triangle corner, the derivative of θ = arccos(u/(vw)) in any of the
   three heights is [u·(P_v·w² + P_w·v²)/(v²w²) − P_u] / √(v²w² − u²), where
   P_u, P_v, P_w are the rational polynomials assembled below.  Only the
   single square root needs enclosure arithmetic.

2. `crude_bounds` — certified coarse geometry on a height-ball around the
   candidate: Euclidean edge norms, metric tangent norms, hyperbolic edge
   lengths, cosine ranges, and the sine floor |sin θ| ≥ 0.24, each derived
   with exact rational or enclosure arithmetic.

3. `second_partial_bound` — the constant chain that caps every second
   partial |∂²Θ_i/∂z_j∂z_k| by 10¹⁴ on that ball.  Each displayed inequality
   of the chain is one exact rational assertion.

4. `singular_lower_bound` / `certify_expansion` / `conclude_existence` — an
   exact-arithmetic lower bound on the smallest singular value of the
   reference Jacobian: bisection on the 2⁻²⁰ grid for the largest x with
   MᵀM − x·I positive definite, each test one exact LDLᵀ (Sylvester's
   criterion), combined with the deviation caps into a 1/2-expansivity
   certificate and the final existence report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from importlib import resources
from typing import Dict, List, Optional, Sequence, Tuple

from .certify_flat import FlatnessCertificate
from .certify_embed import EmbeddingCertificate
from .klein import Point3, cos2_and_sign, distance
from .mesh import EmbeddedSurface, cone_angle, vertex_link
from .precision import (
    Bound,
    CertificationError,
    DEFAULT_PRECISION,
    hyp_bounds,
    sqrt_bounds,
    two_pi,
)

__all__ = [
    "DefectVector",
    "JacobianMatrix",
    "CrudeBounds",
    "ExpansionCertificate",
    "ExistenceReport",
    "reference_jacobian",
    "theta_map",
    "surface_with_heights",
    "dtheta_enclosure",
    "dtheta_analytic",
    "dtheta_fd",
    "crude_bounds",
    "ChainInequality",
    "second_order_inequalities",
    "second_partial_bound",
    "smallest_gram_root_bracket",
    "singular_lower_bound",
    "certify_expansion",
    "conclude_existence",
]

RationalMatrix = Sequence[Sequence[Fraction]]


def reference_jacobian() -> List[List[Fraction]]:
    """The packaged reference Jacobian as exact rationals (3-decimal entries)."""
    raw = json.loads(
        resources.files("kleincert.data").joinpath("jacobian_reference.json").read_text()
    )
    return [[Fraction(entry) for entry in row] for row in raw["matrix"]]


# ---------------------------------------------------------------------------
# The defect map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DefectVector:
    """Vertex heights z together with the cone defects Θ(z)."""

    z: Tuple[Fraction, ...]
    theta: Tuple[Decimal, ...]

    def sup_norm(self) -> Decimal:
        # copy_abs is context-free, so no digits are shaved off the maximum
        return max(t.copy_abs() for t in self.theta)

    def norm_sq(self) -> Fraction:
        """Exact square of the Euclidean norm of the computed defects."""
        return sum((Fraction(t) ** 2 for t in self.theta), Fraction(0))


@dataclass(frozen=True)
class JacobianMatrix:
    """A dense matrix of defect partials ∂Θ_i/∂z_j."""

    entries: Tuple[Tuple[Decimal, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("Jacobian matrix must be square")

    def __getitem__(self, ij: Tuple[int, int]) -> Decimal:
        return self.entries[ij[0]][ij[1]]

    @property
    def n(self) -> int:
        return len(self.entries)


def theta_map(S: EmbeddedSurface, precision: int = DEFAULT_PRECISION) -> DefectVector:
    """Cone defects Θ_i = (cone angle at vertex i) − 2π for every vertex."""
    full_turn = two_pi(precision + 10)
    with localcontext(Context(prec=precision + 10)):
        theta = tuple(
            +(cone_angle(S, i, precision + 10) - full_turn)
            for i in range(S.triangulation.n_vertices)
        )
    return DefectVector(z=tuple(p.z for p in S.coords), theta=theta)


def surface_with_heights(S: EmbeddedSurface, z: Sequence[Fraction]) -> EmbeddedSurface:
    """Copy of S with the vertex z-coordinates replaced (x, y untouched)."""
    if len(z) != S.triangulation.n_vertices:
        raise ValueError("height vector length must match the vertex count")
    coords = tuple(
        Point3.of(p.x, p.y, h) for p, h in zip(S.coords, z)
    )
    return EmbeddedSurface(triangulation=S.triangulation, coords=coords)


# ---------------------------------------------------------------------------
# Analytic Jacobian
# ---------------------------------------------------------------------------


def _corner_partials(
    S: EmbeddedSurface, i: int, j: int, k: int
) -> Tuple[Dict[int, Fraction], Fraction, Fraction]:
    """Exact data for the angle at vertex i of triangle (i, j, k).

    Returns ({l: N_l}, D, v2w2) with the angle partial in height l equal to
    N_l / √D, where D = v²w² − u² = (vw·sin θ)².
    """
    X, Y, Z = S.coords[i], S.coords[j], S.coords[k]
    V = Y.sub(X)
    W = Z.sub(X)
    zi, zj, zk = X.z, Y.z, Z.z
    a = 1 - X.norm_sq()
    t1 = X.dot(V)
    t2 = X.dot(W)
    t3 = V.dot(W)
    t4 = V.dot(V)
    t5 = W.dot(W)

    u = t3 / a + t1 * t2 / a**2
    v2 = t4 / a + t1**2 / a**2
    w2 = t5 / a + t2**2 / a**2

    # partials of the metric inner product u in the three heights
    pu = {
        i: (2 * zi - zj - zk) / a
        + (2 * zi * t3 + (zj - 2 * zi) * t2 + (zk - 2 * zi) * t1) / a**2
        + 4 * zi * t1 * t2 / a**3,
        j: (zk - zi) / a + zi * t2 / a**2,
        k: (zj - zi) / a + zi * t1 / a**2,
    }
    # half-partials of the squared norms: P_v[l] = v·∂_l v, P_w[l] = w·∂_l w
    pv = {
        i: (zi - zj) / a
        + (zi * t4 + (zj - 2 * zi) * t1) / a**2
        + 2 * zi * t1**2 / a**3,
        j: (zj - zi) / a + zi * t1 / a**2,
        k: Fraction(0),
    }
    pw = {
        i: (zi - zk) / a
        + (zi * t5 + (zk - 2 * zi) * t2) / a**2
        + 2 * zi * t2**2 / a**3,
        j: Fraction(0),
        k: (zk - zi) / a + zi * t2 / a**2,
    }

    v2w2 = v2 * w2
    D = v2w2 - u * u
    numerators = {
        l: u * (pv[l] * w2 + pw[l] * v2) / v2w2 - pu[l] for l in (i, j, k)
    }
    return numerators, D, v2w2


_SIN_FLOOR_GUARD = Fraction(1, 10**6)


def dtheta_enclosure(
    S: EmbeddedSurface,
    precision: int = 60,
    target_width: Fraction = Fraction(1, 10**40),
) -> List[List[Bound]]:
    """Certified enclosures of every Jacobian entry ∂Θ_i/∂z_l.

    Entries outside the sparsity pattern (l neither i nor a neighbor of i)
    stay exactly zero.  Raises on geometrically degenerate corners, i.e.
    sin θ below the 10⁻⁶ guard (far beneath the certified 0.24 floor).
    """
    n = S.triangulation.n_vertices
    zero = Bound.point(0)
    rows: List[List[Bound]] = [[zero] * n for _ in range(n)]
    for face in S.triangulation.faces:
        for r in range(3):
            i, j, k = face[r], face[(r + 1) % 3], face[(r + 2) % 3]
            numerators, D, v2w2 = _corner_partials(S, i, j, k)
            if D * 10**12 < v2w2:  # sin²θ < 10⁻¹²
                raise CertificationError(
                    f"degenerate corner at vertex {i} of face {face}: "
                    f"sin(angle) below {_SIN_FLOOR_GUARD}"
                )
            root = sqrt_bounds(D, target_width, precision=precision)
            for l, numer in numerators.items():
                term = Bound.from_fraction_pair(numer, numer, precision).div(
                    root, precision
                )
                rows[i][l] = rows[i][l].add(term, precision)
    return rows


def dtheta_analytic(
    S: EmbeddedSurface,
    precision: int = 60,
    target_width: Fraction = Fraction(1, 10**40),
) -> JacobianMatrix:
    """The analytic Jacobian as midpoint scalars of the certified enclosures."""
    rows = dtheta_enclosure(S, precision=precision, target_width=target_width)
    return JacobianMatrix(
        entries=tuple(
            tuple(b.midpoint(precision) for b in row) for row in rows
        )
    )


def dtheta_fd(
    S: EmbeddedSurface,
    h: Fraction = Fraction(1, 10**20),
    precision: int = 100,
    map_fn=None,
) -> JacobianMatrix:
    """Central-difference Jacobian (Θ(z + h·e_j) − Θ(z − h·e_j)) / (2h).

    A validation oracle for the analytic formulas, not a certified object.
    ``map_fn`` substitutes the differentiated map (same signature and return
    shape as :func:`theta_map`); the default is the cone-defect map itself.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    if map_fn is None:
        map_fn = theta_map
    n = S.triangulation.n_vertices
    z0 = [p.z for p in S.coords]
    cols: List[Tuple[Decimal, ...]] = []
    with localcontext(Context(prec=precision)):
        for jcol in range(n):
            zp = list(z0)
            zm = list(z0)
            zp[jcol] += h
            zm[jcol] -= h
            tp = map_fn(surface_with_heights(S, zp), precision).theta
            tm = map_fn(surface_with_heights(S, zm), precision).theta
            scale = 2 * Decimal(h.numerator) / Decimal(h.denominator)
            cols.append(tuple((a - b) / scale for a, b in zip(tp, tm)))
    return JacobianMatrix(
        entries=tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    )


# ---------------------------------------------------------------------------
# Crude geometric bounds on a height ball
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrudeBounds:
    """Certified coarse geometry of every surface in a height ball.

    All ranges are exact rationals and hold for every surface whose vertex
    heights lie within ``ball_radius`` of the center surface's (and whose
    x, y coordinates equal the center's).
    """

    ball_radius: Fraction
    center_norm_cap: Fraction  # max ‖X_i‖ of the center surface
    coord_cap: Fraction  # ‖X‖ cap over the whole ball
    euclidean_edge_range: Tuple[Fraction, Fraction]
    tangent_norm_range: Tuple[Fraction, Fraction]
    sqrt_arg_range: Tuple[Fraction, Fraction]
    log_arg_range: Tuple[Fraction, Fraction]
    edge_length_center_range: Tuple[Fraction, Fraction]
    edge_length_slack: Fraction
    edge_length_range: Tuple[Fraction, Fraction]
    cos_center_range: Tuple[Fraction, Fraction]
    cos_perturb_slack: Fraction
    cos_range: Tuple[Fraction, Fraction]
    psi_lipschitz: int
    sin_floor: Fraction


def _req(condition: bool, label: str) -> None:
    if not condition:
        raise CertificationError(f"crude bound failed: {label}")


def crude_bounds(
    S: EmbeddedSurface,
    ball_radius: Fraction = Fraction(1, 10**18),
    precision: int = 80,
) -> CrudeBounds:
    """Certify the coarse bound family used by the second-order cap.

    The chain: vertex norms ≤ 0.79 (so the whole ball stays in ‖X‖ ≤ 0.8);
    Euclidean edge norms in [0.509, 1.561]; metric tangent norms in
    [0.5, 13]; hyperbolic edge lengths in [0.63, 2.08] at the center and
    [0.6, 2.1] over the ball; cosines in [−0.008, 0.96] at the center and
    [−0.01, 0.961] over the ball via the 70-Lipschitz law-of-cosines map;
    finally |sin θ| ≥ 0.24 over the ball.
    """
    T = S.triangulation
    center_cap = Fraction(79, 100)
    coord_cap = Fraction(4, 5)
    for idx, p in enumerate(S.coords):
        _req(p.norm_sq() <= center_cap**2, f"vertex {idx} norm exceeds {center_cap}")
    _req(center_cap + ball_radius <= coord_cap, "ball escapes the coordinate cap")

    edges = sorted({tuple(sorted((f[r], f[(r + 1) % 3]))) for f in T.faces for r in range(3)})

    # Euclidean edge norms (exact squares)
    eu_lo, eu_hi = Fraction(509, 1000), Fraction(1561, 1000)
    for (a, b) in edges:
        t4 = S.coords[b].sub(S.coords[a]).norm_sq()
        _req(eu_lo**2 <= t4 <= eu_hi**2, f"Euclidean norm of edge {(a, b)}")

    # metric tangent norms over the ball, via ‖V‖² ≤ ‖V‖²_X ≤ ‖V‖²/(1−r²)²
    tn_lo, tn_hi = Fraction(1, 2), Fraction(13)
    comparison = (1 - coord_cap**2) ** 2  # = 0.1296
    _req(eu_lo**2 >= tn_lo**2, "tangent norm floor")
    _req(eu_hi**2 / comparison <= tn_hi**2, "tangent norm cap")

    # hyperbolic edge lengths at the center, with certified inner quantities
    # The log-argument cap is 2 (outward-rounded: the true per-edge maximum is
    # 1.99020…); the per-edge length check below uses the certified distance
    # enclosure directly, so this aggregate interval only gates the ln domain.
    sq_lo, sq_hi = Fraction(193, 100), Fraction(63, 10)
    lg_lo, lg_hi = Fraction(62, 100), Fraction(2)
    el_lo, el_hi = Fraction(63, 100), Fraction(208, 100)
    for (ia, ib) in edges:
        X, Y = S.coords[ia], S.coords[ib]
        D = Y.sub(X)
        qa = D.dot(D)
        qb = 2 * X.dot(D)
        qc = X.norm_sq() - 1
        disc = qb * qb - 4 * qa * qc
        root = sqrt_bounds(disc, Fraction(1, 10**32), precision=precision)
        arg1_lo = Fraction(root.lo) - qb - 2 * qc
        arg1_hi = Fraction(root.hi) - qb - 2 * qc
        _req(sq_lo <= arg1_lo and arg1_hi <= sq_hi, f"sqrt argument of edge {(ia, ib)}")
        arg2 = 4 * qc * qc + 4 * qa * qc + 4 * qb * qc
        _req(lg_lo <= arg2 <= lg_hi, f"log argument of edge {(ia, ib)}")
        d = distance(X, Y, target_width=Fraction(1, 10**20), precision=precision)
        _req(
            el_lo <= Fraction(d.lo) and Fraction(d.hi) <= el_hi,
            f"hyperbolic length of edge {(ia, ib)}",
        )

    # length perturbation slack over the ball: metric-vs-Euclidean factor ≤ 8,
    # two endpoints ⇒ |l(e) − l(ê)| ≤ 2·8·ball_radius ≤ 1.6e−17
    slack = Fraction(16, 10**18)
    _req(Fraction(1, 1) / comparison <= 8, "metric comparison factor cap 8")
    _req(16 * ball_radius <= slack, "edge length perturbation slack")
    full_lo, full_hi = Fraction(3, 5), Fraction(21, 10)
    _req(full_lo <= el_lo - slack and el_hi + slack <= full_hi, "edge length range")

    # cosine range at the center from the exact squared-cosine tables
    cos_lo, cos_hi = Fraction(-8, 1000), Fraction(96, 100)
    for i in range(T.n_vertices):
        cycle = vertex_link(T, i)
        for r in range(len(cycle)):
            Y = S.coords[cycle[r]]
            Z = S.coords[cycle[(r + 1) % len(cycle)]]
            alpha, sign = cos2_and_sign(S.coords[i], Y, Z)
            if sign >= 0:
                _req(alpha <= cos_hi**2, f"cosine cap at vertex {i}")
            else:
                _req(alpha <= cos_lo**2, f"cosine floor at vertex {i}")

    # Lipschitz transfer to the ball: ‖(a,b,c)−(â,b̂,ĉ)‖ ≤ √3·1.6e−17 ≤ 2.8e−17,
    # then |cos θ − cos θ̂| ≤ 70·2.8e−17 ≤ 2e−15
    three_slack = Fraction(28, 10**18)
    cos_slack = Fraction(2, 10**15)
    _req(3 * slack**2 <= three_slack**2, "slack aggregation across three edges")
    _req(70 * three_slack <= cos_slack, "Lipschitz cosine slack")
    ball_lo, ball_hi = Fraction(-1, 100), Fraction(961, 1000)
    _req(cos_lo - cos_slack >= ball_lo and cos_hi + cos_slack <= ball_hi, "cosine range")

    # the law-of-cosines map is 70-Lipschitz on [0.6, 2.1]³
    hyp_half = hyp_bounds(Fraction(1, 2), precision=precision)
    hyp_top = hyp_bounds(Fraction(21, 10), precision=precision)
    sh_half_lo = Fraction(hyp_half.sinh.lo)
    th_half_lo = Fraction(hyp_half.tanh.lo)
    sh_top_hi = Fraction(hyp_top.sinh.hi)
    ch_top_hi = Fraction(hyp_top.cosh.hi)
    _req(sh_half_lo > 0 and th_half_lo > 0, "hyperbolic function positivity")
    _req(sh_top_hi / sh_half_lo**2 <= 15, "far-side partial cap 15")
    _req(
        (ch_top_hi + 1) / (th_half_lo * sh_half_lo**2) <= 42,
        "near-side partial cap 42",
    )
    _req(42**2 + 42**2 + 15**2 <= 70**2, "Lipschitz norm aggregation")

    # sine floor over the ball: cos² ≤ 0.961² ⇒ sin² ≥ 1 − 0.961² ≥ 0.24²
    sin_floor = Fraction(6, 25)
    _req(1 - ball_hi**2 >= sin_floor**2, "sine floor")
    _req(ball_lo**2 <= ball_hi**2, "cosine symmetry envelope")

    return CrudeBounds(
        ball_radius=ball_radius,
        center_norm_cap=center_cap,
        coord_cap=coord_cap,
        euclidean_edge_range=(eu_lo, eu_hi),
        tangent_norm_range=(tn_lo, tn_hi),
        sqrt_arg_range=(sq_lo, sq_hi),
        log_arg_range=(lg_lo, lg_hi),
        edge_length_center_range=(el_lo, el_hi),
        edge_length_slack=slack,
        edge_length_range=(full_lo, full_hi),
        cos_center_range=(cos_lo, cos_hi),
        cos_perturb_slack=cos_slack,
        cos_range=(ball_lo, ball_hi),
        psi_lipschitz=70,
        sin_floor=sin_floor,
    )


# ---------------------------------------------------------------------------
# Second-order partial cap
# ---------------------------------------------------------------------------

SECOND_ORDER_CAP = Fraction(10**14)


@dataclass(frozen=True)
class ChainInequality:
    """One exact-rational inequality of the second-order constant chain."""

    label: str
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


def second_order_inequalities(crude: CrudeBounds) -> Tuple[ChainInequality, ...]:
    """The constant chain behind the second-partial cap, one entry per step.

    The chain uses the coordinate cap 0.8, edge-norm cap 1.6, metric
    denominator floor 1 − 0.8² = 0.36, tangent norm range [0.5, 13], and sine
    floor 0.24.  Where a printed constant is looser than the certified one
    (the 0.34 sine denominator and the Euclidean edge cap standing in for the
    metric norm cap), a conservative variant with the certified constants is
    emitted alongside, so the list majorizes both derivations.
    """
    c08 = crude.coord_cap  # 4/5
    c16 = 2 * crude.coord_cap  # 8/5, Euclidean caps ‖V‖, ‖W‖ ≤ 1.6
    _req(crude.euclidean_edge_range[1] + 2 * crude.ball_radius <= c16, "edge cap 1.6")
    a_floor = 1 - c08**2  # 9/25
    v_lo, v_hi = crude.tangent_norm_range  # 1/2, 13
    s_lo = crude.sin_floor  # 6/25

    def ineq(label: str, lhs: Fraction, rhs) -> ChainInequality:
        return ChainInequality(label=label, lhs=Fraction(lhs), rhs=Fraction(rhs))

    return (
        # first-order partials of the metric inner product
        ineq(
            "metric inner partial, center height",
            4 * c08 / a_floor
            + 8 * c08 * c16**2 / a_floor**2
            + 4 * c08 * c16**4 / a_floor**3,
            10**3,
        ),
        ineq(
            "metric inner partial, neighbor height",
            2 * c08 / a_floor + c08 * c16**2 / a_floor**2,
            10**3,
        ),
        # first-order partials of the tangent norms (the 1/(2v) prefactor ≤ 1)
        ineq("norm derivative prefactor", Fraction(1), 2 * v_lo),
        ineq(
            "tangent norm partial, center height",
            4 * c08 / a_floor
            + 8 * c08 * c16**2 / a_floor**2
            + 4 * c08 * c16**4 / a_floor**3,
            10**3,
        ),
        ineq(
            "tangent norm partial, neighbor height",
            4 * c08 / a_floor + 2 * c08 * c16**2 / a_floor**2,
            10**3,
        ),
        # first-order angle partial: the recorded route and a conservative one
        ineq(
            "angle partial (recorded constants)",
            (2 * c16 * 10**3 + 10**3) / (v_lo**2 * Fraction(17, 50)),
            Fraction(32, 10) * 10**6,
        ),
        ineq(
            "angle partial (certified constants)",
            (2 * v_hi * 10**3 + 10**3) / (v_lo**2 * s_lo),
            Fraction(32, 10) * 10**6,
        ),
        ineq("angle partial cap", Fraction(32, 10) * 10**6, 10**7),
        # second-order partials of the metric inner product
        ineq(
            "metric inner second partial",
            2 / a_floor
            + (6 * c16**2 + 34 * c08**2) / a_floor**2
            + (4 * c16**4 + 56 * c16**2 * c08**2) / a_floor**3
            + 24 * c16**4 * c08**2 / a_floor**4,
            10**4,
        ),
        # second-order partials of the tangent norms
        ineq(
            "tangent norm second partial",
            1 / (a_floor * v_lo)
            + (3 * c16**2 + 17 * c08**2) / (a_floor**2 * v_lo)
            + (24 * c16**2 * c08**2 + 2 * c16**4) / (a_floor**3 * v_lo)
            + 12 * c16**4 * c08**2 / (a_floor**4 * v_lo)
            + Fraction(10**6) / v_lo,
            10**7,
        ),
        # the assembled second-order angle partial
        ineq(
            "angle second partial",
            (2 * 10**6 + 2 * v_hi * 10**7 + 2 * v_hi * 10**10 + 10**4)
            / (v_lo**2 * s_lo)
            + ((2 * v_hi * 10**3 + 10**3) * (4 * v_hi * 10**3 + 2 * v_hi**2 * 10**3))
            / (2 * v_lo**6 * s_lo**3),
            SECOND_ORDER_CAP,
        ),
    )


def second_partial_bound(crude: CrudeBounds) -> Fraction:
    """Validate the constant chain capping |∂²Θ_i/∂z_j∂z_k| ≤ 10¹⁴.

    Every inequality of the chain is re-checked as one exact rational
    assertion over the crude-bound constants; any failure aborts naming the
    failing expression.
    """
    for step in second_order_inequalities(crude):
        if not step.holds:
            raise CertificationError(
                f"second-order chain inequality failed: {step.label}: "
                f"{step.lhs} > {step.rhs}"
            )
    return SECOND_ORDER_CAP


# ---------------------------------------------------------------------------
# The singular-value floor
# ---------------------------------------------------------------------------


def _definiteness(A: RationalMatrix, x: Fraction) -> int:
    """Definiteness of the symmetric matrix A − x·I by exact LDLᵀ.

    Returns +1 if every pivot is positive (positive definite), 0 if A − x·I
    is positive semidefinite and singular, −1 otherwise.  A zero pivot is
    admissible only when the rest of its column is zero too; otherwise the
    Schur complement has a 2×2 principal minor below zero.
    """
    n = len(A)
    a = [[A[i][j] - (x if i == j else 0) for j in range(n)] for i in range(n)]
    singular = False
    for k in range(n):
        pivot = a[k][k]
        if pivot < 0:
            return -1
        if pivot == 0:
            if any(a[i][k] for i in range(k + 1, n)):
                return -1
            singular = True
            continue
        for i in range(k + 1, n):
            factor = a[i][k] / pivot
            if factor:
                for j in range(k + 1, i + 1):
                    a[i][j] -= factor * a[j][k]
    return 0 if singular else 1


def smallest_gram_root_bracket(M: RationalMatrix) -> Tuple[Fraction, Fraction]:
    """Bracket [lo, lo + 2⁻²⁰] of the smallest eigenvalue λ of MᵀM.

    Forms the Gram matrix exactly and bisects on the 2⁻²⁰ grid over
    [0, Gershgorin + 2], testing MᵀM − x·I for definiteness (Sylvester's
    criterion by exact LDLᵀ), so lo = ⌊λ·2²⁰⌋/2²⁰.  A grid point that is
    itself an eigenvalue yields the point bracket (λ, λ); a singular Gram
    matrix yields (0, 0).
    """
    n = len(M)
    M = [[Fraction(x) for x in row] for row in M]
    A = [
        [sum((M[k][i] * M[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]
    if _definiteness(A, Fraction(0)) <= 0:
        return Fraction(0), Fraction(0)

    gersh = max(sum(abs(x) for x in row) for row in A)
    grid = 2**20
    lo, hi = 0, (int(gersh) + 2) * grid  # A − lo·I is definite, A − hi·I is not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _definiteness(A, Fraction(mid, grid)) > 0:
            lo = mid
        else:
            hi = mid
    if _definiteness(A, Fraction(hi, grid)) == 0:
        return Fraction(hi, grid), Fraction(hi, grid)
    return Fraction(lo, grid), Fraction(hi, grid)


def singular_lower_bound(M: RationalMatrix) -> Fraction:
    """Certified rational lower bound on the smallest singular value of M.

    The square root of the lower end of the smallest-eigenvalue bracket of
    the Gram matrix, rounded down.
    """
    lo, _ = smallest_gram_root_bracket(M)
    if lo < 0:
        raise CertificationError("negative root bracket for a Gram matrix")
    if lo == 0:
        return Fraction(0)
    root = sqrt_bounds(lo, Fraction(1, 10**12))
    return Fraction(root.lo)


# ---------------------------------------------------------------------------
# Expansion certificate and the final existence report
# ---------------------------------------------------------------------------

SQ3_OVER_2_SQ = Fraction(3, 4)


@dataclass(frozen=True)
class ExpansionCertificate:
    """Witness that the defect map expands distances on a height ball.

    ``sigma_min_bound`` lower-bounds the smallest singular value of the
    reference Jacobian; ``e_inf`` caps the entrywise deviation of the true
    Jacobian from it anywhere on the ball; ``frobenius_cap`` converts that to
    an operator-norm cap for the n×n matrix, n = ``n_vertices`` (the recorded
    convention is the loose n²·e_inf; the sharper n·e_inf is reported
    alongside).
    """

    sigma_min_bound: Fraction
    e_inf: Fraction
    lam: Fraction
    radius: Fraction
    angle_sine_bound: Fraction
    frobenius_cap: Fraction
    frobenius_cap_sharp: Fraction
    n_vertices: int

    def __post_init__(self) -> None:
        n = self.n_vertices
        if not (self.frobenius_cap == n * n * self.e_inf
                and self.frobenius_cap_sharp == n * self.e_inf):
            raise ValueError(f"Frobenius caps must be {n}²·e_inf and {n}·e_inf")
        gap = self.sigma_min_bound - self.frobenius_cap
        if not gap > 2 * self.lam:
            raise ValueError(
                f"expansion gap {gap} does not exceed 2·lambda = {2 * self.lam}"
            )
        if not self.angle_sine_bound == 2 * self.frobenius_cap / gap:
            raise ValueError("angle sine bound must equal 2·frobenius_cap/gap")
        if not self.angle_sine_bound**2 < SQ3_OVER_2_SQ:
            raise ValueError(
                f"angle sine bound {self.angle_sine_bound} reaches sqrt(3)/2"
            )


def certify_expansion(
    M: RationalMatrix,
    e_inf: Fraction = Fraction(2, 1000),
    lam: Fraction = Fraction(1, 2),
    radius: Fraction = Fraction(1, 10**18),
    dtheta_center: Optional[Sequence[Sequence[Bound]]] = None,
    second_order_cap: Optional[Fraction] = None,
) -> ExpansionCertificate:
    """Certify lam-expansivity of the defect map on the height ball.

    When the optional enclosure of the Jacobian at the center and the
    second-order cap are supplied, the two premises that justify ``e_inf``
    are re-checked: entrywise center deviation < e_inf/2 and curvature drift
    n·radius·cap ≤ e_inf/2 across the ball, with n = len(M) vertices.
    """
    n = len(M)
    half = e_inf / 2
    if dtheta_center is not None:
        for i, row in enumerate(dtheta_center):
            for j, b in enumerate(row):
                m = Fraction(M[i][j])
                dev = max(abs(Fraction(b.lo) - m), abs(Fraction(b.hi) - m))
                if not dev < half:
                    raise CertificationError(
                        f"center Jacobian entry ({i}, {j}) deviates by {float(dev):.3e}"
                        f" ≥ {half} from the reference"
                    )
    if second_order_cap is not None:
        drift = n * radius * second_order_cap
        if not drift <= half:
            raise CertificationError(
                f"curvature drift {n}·radius·cap = {drift} exceeds {half}"
            )
    sigma = singular_lower_bound(M)
    fro = n * n * e_inf
    gap = sigma - fro
    if not gap > 2 * lam:
        raise CertificationError(
            f"singular floor {float(sigma):.4f} minus Frobenius cap {float(fro):.4f} "
            f"does not exceed 2·lambda = {float(2 * lam):.4f}"
        )
    sine = 2 * fro / gap
    if not sine**2 < SQ3_OVER_2_SQ:
        raise CertificationError(f"angle sine bound {float(sine):.4f} reaches sqrt(3)/2")
    return ExpansionCertificate(
        sigma_min_bound=sigma,
        e_inf=e_inf,
        lam=lam,
        radius=radius,
        angle_sine_bound=sine,
        frobenius_cap=fro,
        frobenius_cap_sharp=n * e_inf,
        n_vertices=n,
    )


@dataclass(frozen=True)
class ExistenceReport:
    """The combined conclusion: a flat embedded surface exists near the center."""

    defect_norm_cap: Fraction
    lam: Fraction
    radius: Fraction
    solution_radius: Fraction  # height distance from the center to the flat surface
    coverage_radius: Fraction  # radius of the defect ball the expansion covers
    robustness: Fraction  # embeddedness perturbation budget
    checks: Tuple[str, ...]

    @property
    def statement(self) -> str:
        return (
            "a flat, embedded surface exists with vertex heights within "
            f"{float(self.solution_radius):.2e} of the candidate's"
        )


def conclude_existence(
    flat: FlatnessCertificate,
    embed: EmbeddingCertificate,
    expansion: ExpansionCertificate,
    second_order_cap: Fraction,
    defect_norm_cap: Fraction = Fraction(1, 10**27),
) -> ExistenceReport:
    """Chain the three certificates into the existence conclusion.

    ``second_order_cap`` is the cap that :func:`second_partial_bound` checked
    on the crude bounds of the same surface.  Checks, in order: the flatness
    certificate forces ‖Θ(center)‖ below the defect cap; the curvature premise
    of the expansion ball holds; the flat solution's height displacement fits
    inside the embeddedness robustness budget; and the defect cap fits inside
    the ball the expansion covers.
    """
    checks: List[str] = []
    n = expansion.n_vertices

    if not n * flat.epsilon**2 <= defect_norm_cap**2:
        raise CertificationError(
            f"flatness epsilon {float(flat.epsilon):.3e} does not force the "
            f"defect norm below {float(defect_norm_cap):.3e}"
        )
    checks.append("defect norm cap")

    drift = n * expansion.radius * second_order_cap
    if not drift <= Fraction(1, 1000):
        raise CertificationError(
            f"second-order premise fails: {n}·radius·cap = {float(drift):.3e} > 0.001"
        )
    checks.append("second-order premise")

    solution_radius = defect_norm_cap / expansion.lam
    coverage_radius = expansion.lam * expansion.radius
    if not solution_radius + coverage_radius <= embed.robustness:
        raise CertificationError(
            f"solution displacement {float(solution_radius):.3e} exceeds the "
            f"embeddedness robustness slack {float(embed.robustness):.3e}"
        )
    if not expansion.radius <= embed.robustness:
        raise CertificationError("search ball exceeds the embeddedness budget")
    checks.append("robustness slack")

    if not defect_norm_cap <= coverage_radius:
        raise CertificationError(
            f"defect cap {float(defect_norm_cap):.3e} outside the covered ball "
            f"{float(coverage_radius):.3e}"
        )
    checks.append("coverage")

    return ExistenceReport(
        defect_norm_cap=defect_norm_cap,
        lam=expansion.lam,
        radius=expansion.radius,
        solution_radius=solution_radius,
        coverage_radius=coverage_radius,
        robustness=embed.robustness,
        checks=tuple(checks),
    )
