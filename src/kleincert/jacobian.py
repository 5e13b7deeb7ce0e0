"""The cone-defect map, its certified Jacobian, and the expansion certificate.

The cone-defect map sends the n-vector z of vertex heights (n = 10 for the
candidate) to the n-vector of cone-angle defects Θ_i(z) = Σ θ_angles at
vertex i − 2π (x and y vertex coordinates stay fixed).  A flat vertex has
defect 0; the certified search for an exactly-flat surface near the candidate
runs through four stages that live in this module:

1. `dtheta_enclosure` / `dtheta_analytic` — the analytic Jacobian ∂Θ_i/∂z_l.
   Every angle partial reduces to (exact rational) / √(exact rational): a
   corner's cos θ is G_vw/√(G_vv·G_ww), the G's polynomials in the six
   integers β(a, b) = q² − a·b of its lattice points (:mod:`kleincert.klein`),
   and each β is linear in each height, ∂β(a, b)/∂h_l = −([l = a]·h_b +
   [l = b]·h_a).  The product rule gives every ∂G, and the derivative of
   θ = arccos(G_vw/√(G_vv·G_ww)) is a ratio of integers over
   √(G_vv·G_ww − G_vw²).  Only that single square root needs an enclosure.

2. `crude_bounds` — certified coarse geometry on a height-ball around the
   candidate: Euclidean edge norms, metric tangent norms, hyperbolic edge
   lengths, cosine ranges, and the sine floor |sin θ| ≥ 0.24, all read from
   the integer lattice; only the edge lengths need enclosures.

3. `second_partial_bound` — the constant chain that caps every second
   partial |∂²Θ_i/∂z_j∂z_k| by 10¹⁴ on that ball.  Each displayed inequality
   of the chain is one exact rational assertion.

4. `singular_lower_bound` / `certify_expansion` / `conclude_existence` — an
   exact-arithmetic lower bound on the smallest singular value of the
   reference Jacobian: the bracket on the 2⁻²⁰ grid of the largest x with
   MᵀM − x·I positive definite, each deciding test one exact LDLᵀ
   (Sylvester's criterion).  A float bisection only chooses which grid
   points get the exact test, so a right guess costs two of them.
   `certify_surface_expansion` joins it to one surface's deviation caps in a
   1/2-expansivity certificate; the existence report refuses mixed surfaces.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from decimal import Context, Decimal, ROUND_CEILING, ROUND_FLOOR, localcontext
from fractions import Fraction
from importlib import resources
from typing import Dict, List, Optional, Sequence, Tuple

from .certify_flat import FlatnessCertificate
from .certify_embed import EmbeddingCertificate
from .klein import Point3, _betas, _gram, distance, norm_comparison_factor
from .mesh import EmbeddedSurface, cone_angle
from .precision import (
    Bound,
    CertificationError,
    _short_ratio,
    hyp_bounds,
    sqrt_bounds,
    two_pi,
)

__all__ = [
    "DefectVector",
    "JacobianMatrix",
    "CrudeBounds",
    "JacobianEnclosure",
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
    "CurvatureCap",
    "second_partial_bound",
    "smallest_gram_root_bracket",
    "singular_lower_bound",
    "certify_expansion",
    "certify_surface_expansion",
    "conclude_existence",
    "JACOBIAN_DIGITS",
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


def _vertex_defect(S: EmbeddedSurface, i: int, precision: int) -> Decimal:
    """Θ_i = (cone angle at vertex i) − 2π, both taken and rounded at precision + 10 digits."""
    with localcontext(Context(prec=precision + 10)):
        return +(cone_angle(S, i, precision + 10) - two_pi(precision + 10))


def theta_map(S: EmbeddedSurface, precision: int) -> DefectVector:
    """Cone defects Θ_i = (cone angle at vertex i) − 2π for every vertex.

    Each Θ_i is :func:`_vertex_defect`, the one definition of a vertex's
    defect, which ``search.hill_climb`` also calls vertex by vertex.
    """
    theta = tuple(
        _vertex_defect(S, i, precision) for i in range(S.triangulation.n_vertices)
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
) -> Tuple[Dict[int, int], int, int, int, int]:
    """Exact integer data for the angle at vertex i of triangle (i, j, k).

    Returns ({l: N_l}, den, d, gg, a4): the angle partial in height l is
    (N_l/den) / √D with D = d/a4 = v²w² − u² = (vw·sin θ)², and
    v²w² = gg/a4.  den, gg and a4 are positive.  No fraction is reduced:
    on meshes with long lattice denominators these integers run to
    thousands of digits.

    Integer form, on the surface's lattice (denominator q, heights h = q·z;
    see :mod:`kleincert.klein`): u, v², w² = G_vw, G_vv, G_ww over β_xx²,
    so d and gg are G_vv·G_ww − G_vw² and G_vv·G_ww, and a4 = β_xx⁴.  As
    cos θ = G_vw/√(G_vv·G_ww),

        ∂θ/∂z_l = q·[G_vw·(½∂G_vv·G_ww + ½∂G_ww·G_vv) − ∂G_vw·G_vv·G_ww]
                  / (G_vv·G_ww·√(G_vv·G_ww − G_vw²)),

    ∂ in h_l, which is N_l/den over √D with den = β_xx²·G_vv·G_ww.  Each
    ∂G is the product rule on the G's of :func:`klein._gram`, with
    ∂β(a, b)/∂h_l = −([l = a]·h_b + [l = b]·h_a); the diagonal ∂β(a, a)
    are even, so the half-partials ½∂G_vv and ½∂G_ww are integers.
    """
    q, lattice = S.denominator, S.lattice
    x, y, z = lattice[i], lattice[j], lattice[k]
    betas = _betas(q, x, y, z)
    bxx, bxy, bxz, byy, byz, bzz = betas
    g_vw, g_vv, g_ww = _gram(betas)
    gg = g_vv * g_ww
    hx, hy, hz = x[2], y[2], z[2]
    numerators = {}
    # ∂β in h_l, in the order of _betas, with ∂β_xx, ∂β_yy, ∂β_zz halved
    for l, (exx, dxy, dxz, eyy, dyz, ezz) in (
        (i, (-hx, -hy, -hz, 0, 0, 0)),
        (j, (0, -hx, 0, -hy, -hz, 0)),
        (k, (0, 0, -hx, 0, -hy, -hz)),
    ):
        d_vw = dxy * bxz + bxy * dxz - 2 * exx * byz - bxx * dyz
        half_vv = bxy * dxy - exx * byy - bxx * eyy
        half_ww = bxz * dxz - exx * bzz - bxx * ezz
        numerators[l] = q * (g_vw * (half_vv * g_ww + half_ww * g_vv) - d_vw * gg)
    return numerators, bxx * bxx * gg, gg - g_vw * g_vw, gg, bxx**4


_SIN_FLOOR_GUARD = Fraction(1, 10**6)


class JacobianEnclosure(list):
    """The rows of :func:`dtheta_enclosure`: a plain list that names their surface."""

    def __init__(self, rows, surface_digest: str) -> None:
        super().__init__(rows)
        self.surface_digest = surface_digest


def dtheta_enclosure(S: EmbeddedSurface, precision: int) -> JacobianEnclosure:
    """Certified enclosures of every Jacobian entry ∂Θ_i/∂z_l, with ``S.digest``.

    ``precision`` = p is the one accuracy parameter: every root, quotient
    and sum below is rounded at p significant digits.  Each entry Σ N/√D
    is summed twice by directed rounding: its lower end in
    a ``ROUND_FLOOR`` context, its upper end in a ``ROUND_CEILING`` one, so
    every rounding moves that end outward.  A term's lower end divides ⌊N⌋
    by ``root.hi`` when ⌊N⌋ ≥ 0 and by ``root.lo`` otherwise, as
    x/√D ≥ x/root.hi for x ≥ 0 and x/√D ≥ x/root.lo for x < 0, where
    0 < root.lo ≤ √D ≤ root.hi (``sqrt_bounds`` keeps p significant
    digits); the upper end mirrors it with ⌈N⌉.

    ⌊N⌋ and ⌈N⌉ round the exact integer ratio of :func:`_corner_partials`
    from its :func:`~kleincert.precision._short_ratio` pair, a quotient of
    p + 3 digits with a sticky last digit, which rounds to the same Decimal
    as the full ratio.  On a mesh with a long lattice denominator, N and
    its denominator have thousands of digits, and neither is reduced nor
    converted to a Decimal.

    Entries outside the sparsity pattern (l neither i nor a neighbor of i)
    stay exactly zero.  Raises on geometrically degenerate corners, i.e.
    sin θ below the 10⁻⁶ guard (far beneath the certified 0.24 floor).
    """
    n = S.triangulation.n_vertices
    # sin²θ = d/gg against the guard's square, in integers
    guard_num, guard_den = _SIN_FLOOR_GUARD.numerator**2, _SIN_FLOOR_GUARD.denominator**2
    down = Context(prec=precision, rounding=ROUND_FLOOR)
    up = Context(prec=precision, rounding=ROUND_CEILING)
    lo = [[Decimal(0)] * n for _ in range(n)]
    hi = [[Decimal(0)] * n for _ in range(n)]
    for face in S.triangulation.faces:
        for r in range(3):
            i, j, k = face[r], face[(r + 1) % 3], face[(r + 2) % 3]
            numerators, den, d, gg, a4 = _corner_partials(S, i, j, k)
            if d * guard_den < gg * guard_num:
                raise CertificationError(
                    f"degenerate corner at vertex {i} of face {face}: "
                    f"sin(angle) below {_SIN_FLOOR_GUARD}"
                )
            root = sqrt_bounds(Fraction(d, a4), precision)
            for l, numer in numerators.items():
                ratio = _short_ratio(numer, den, precision)
                n_lo, n_hi = down.divide(*ratio), up.divide(*ratio)
                term_lo = down.divide(n_lo, root.hi if n_lo >= 0 else root.lo)
                term_hi = up.divide(n_hi, root.lo if n_hi >= 0 else root.hi)
                lo[i][l] = down.add(lo[i][l], term_lo)
                hi[i][l] = up.add(hi[i][l], term_hi)
    rows = ([Bound(a, b) for a, b in zip(*pair)] for pair in zip(lo, hi))
    return JacobianEnclosure(rows, S.digest)


def dtheta_analytic(S: EmbeddedSurface, precision: int) -> JacobianMatrix:
    """The analytic Jacobian as midpoint scalars of the ``precision``-digit enclosures."""
    rows = dtheta_enclosure(S, precision=precision)
    return JacobianMatrix(
        entries=tuple(
            tuple(b.midpoint(precision) for b in row) for row in rows
        )
    )


def dtheta_fd(
    S: EmbeddedSurface,
    precision: int,
    h: Fraction = Fraction(1, 10**20),
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
    x, y coordinates equal the center's).  ``surface_digest`` names that
    center surface; equality compares the bounds only.
    """

    ball_radius: Fraction
    center_norm_cap: Fraction  # max ‖X_i‖ of the center surface
    coord_cap: Fraction  # ‖X‖ cap over the whole ball
    euclidean_edge_range: Tuple[Fraction, Fraction]
    tangent_norm_range: Tuple[Fraction, Fraction]
    edge_length_center_range: Tuple[Fraction, Fraction]
    edge_length_slack: Fraction
    edge_length_range: Tuple[Fraction, Fraction]
    cos_center_range: Tuple[Fraction, Fraction]
    cos_perturb_slack: Fraction
    cos_range: Tuple[Fraction, Fraction]
    psi_lipschitz: int
    sin_floor: Fraction
    surface_digest: str = field(compare=False)


def _req(condition: bool, label: str) -> None:
    if not condition:
        raise CertificationError(f"crude bound failed: {label}")


def crude_bounds(
    S: EmbeddedSurface,
    ball_radius: Fraction = Fraction(1, 10**18),
) -> CrudeBounds:
    """Certify the coarse bound family used by the second-order cap.

    The chain: vertex norms ≤ 0.79 (so the whole ball stays in ‖X‖ ≤ 0.8);
    Euclidean edge norms in [0.509, 1.561]; metric tangent norms in
    [0.5, 13]; hyperbolic edge lengths in [0.63, 2.08] at the center and
    [0.6, 2.1] over the ball; cosines in [−0.008, 0.96] at the center and
    [−0.01, 0.961] over the ball via the 70-Lipschitz law-of-cosines map;
    finally |sin θ| ≥ 0.24 over the ball.

    It reads ``S.lattice`` only: each edge's integer |y − x|² decides the
    norm check exactly, one ``distance`` per edge its length, and the
    surface's corner table the cosines.
    The lengths are enclosed to width 10⁻⁸: the check reads only whether
    each lies in [0.63, 2.08], and the candidate's lie 0.0087 or more inside
    it.  The two ``hyp_bounds`` run at 4 digits: the partial caps 15 and 42
    they feed lie 0.19 and 1.0 above the true values, and 4 digits move the
    checked quotients by under 0.01 and 0.03.
    """
    T = S.triangulation
    q, lattice = S.denominator, S.lattice
    q2 = q * q
    center_cap = Fraction(79, 100)
    coord_cap = Fraction(4, 5)
    for idx, x in enumerate(lattice):
        _req(x.norm_sq() <= center_cap**2 * q2, f"vertex {idx} norm exceeds {center_cap}")
    _req(center_cap + ball_radius <= coord_cap, "ball escapes the coordinate cap")

    edges = sorted(tuple(sorted(e)) for e in T.edges())

    # Euclidean edge norms (exact squares: |y − x|² is q²·‖Y − X‖²)
    eu_lo, eu_hi = Fraction(509, 1000), Fraction(1561, 1000)
    for ia, ib in edges:
        chord_sq = lattice[ib].sub(lattice[ia]).norm_sq()
        _req(eu_lo**2 * q2 <= chord_sq <= eu_hi**2 * q2, f"Euclidean norm of edge {(ia, ib)}")

    # metric tangent norms over the ball, via ‖V‖² ≤ ‖V‖²_X ≤ ‖V‖²/(1−r²)²
    tn_lo, tn_hi = Fraction(1, 2), Fraction(13)
    factor = norm_comparison_factor(coord_cap)  # = 1/0.1296
    _req(eu_lo**2 >= tn_lo**2, "tangent norm floor")
    _req(eu_hi**2 * factor <= tn_hi**2, "tangent norm cap")

    # hyperbolic edge lengths at the center, one certified distance each
    el_lo, el_hi = Fraction(63, 100), Fraction(208, 100)
    for ia, ib in edges:
        d = distance(q, lattice[ia], lattice[ib], Fraction(1, 10**8))
        _req(
            el_lo <= Fraction(d.lo) and Fraction(d.hi) <= el_hi,
            f"hyperbolic length of edge {(ia, ib)}",
        )

    # length perturbation slack over the ball: metric-vs-Euclidean factor ≤ 8,
    # two endpoints ⇒ |l(e) − l(ê)| ≤ 2·8·ball_radius ≤ 1.6e−17
    slack = Fraction(16, 10**18)
    _req(factor <= 8, "metric comparison factor cap 8")
    _req(16 * ball_radius <= slack, "edge length perturbation slack")
    full_lo, full_hi = Fraction(3, 5), Fraction(21, 10)
    _req(full_lo <= el_lo - slack and el_hi + slack <= full_hi, "edge length range")

    # cosine range at the center from the exact squared-cosine table
    cos_lo, cos_hi = Fraction(-8, 1000), Fraction(96, 100)
    for (i, _), (alpha, sign) in S.corners.items():
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
    hyp_half = hyp_bounds(Fraction(1, 2), precision=4)
    hyp_top = hyp_bounds(Fraction(21, 10), precision=4)
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
        edge_length_center_range=(el_lo, el_hi),
        edge_length_slack=slack,
        edge_length_range=(full_lo, full_hi),
        cos_center_range=(cos_lo, cos_hi),
        cos_perturb_slack=cos_slack,
        cos_range=(ball_lo, ball_hi),
        psi_lipschitz=70,
        sin_floor=sin_floor,
        surface_digest=S.digest,
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


class CurvatureCap(Fraction):
    """The cap of :func:`second_partial_bound`: a Fraction that names the
    surface and the height-ball radius of the crude bounds it was checked on."""

    def __new__(cls, value: Fraction, surface_digest: str, ball_radius: Fraction):
        cap = super().__new__(cls, value)
        cap.surface_digest = surface_digest
        cap.ball_radius = ball_radius
        return cap


def second_partial_bound(crude: CrudeBounds) -> CurvatureCap:
    """Validate the constant chain capping |∂²Θ_i/∂z_j∂z_k| ≤ 10¹⁴.

    Every inequality of the chain is re-checked as one exact rational
    assertion over the crude-bound constants; any failure aborts naming the
    failing expression.  The cap carries the crude bounds' surface digest
    and ball radius.
    """
    for step in second_order_inequalities(crude):
        if not step.holds:
            raise CertificationError(
                f"second-order chain inequality failed: {step.label}: "
                f"{step.lhs} > {step.rhs}"
            )
    return CurvatureCap(SECOND_ORDER_CAP, crude.surface_digest, crude.ball_radius)


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


def _float_bracket(A: RationalMatrix, lo: int, hi: int, grid: int) -> Tuple[int, ...]:
    """The grid bisection's bracket (lo, hi) on a float copy of A.

    A guess only, for :func:`smallest_gram_root_bracket` to confirm exactly;
    () when an entry of A overflows a float.
    """
    try:
        approx = [[float(x) for x in row] for row in A]
    except OverflowError:
        return ()
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _definiteness(approx, mid / grid) > 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def smallest_gram_root_bracket(M: RationalMatrix) -> Tuple[Fraction, Fraction]:
    """Bracket [lo, lo + 2⁻²⁰] of the smallest eigenvalue λ of MᵀM.

    Forms the Gram matrix exactly, over the common denominator of M, and
    closes a bracket on the 2⁻²⁰ grid for the last x with MᵀM − x·I
    positive definite (Sylvester's criterion by exact LDLᵀ), so
    lo = ⌊λ·2²⁰⌋/2²⁰.  A grid point that is itself an eigenvalue yields the
    point bracket (λ, λ); a singular Gram matrix yields (0, 0).  The bracket
    starts at (−2⁻²⁰, Gershgorin + 2], both ends known without a test: MᵀM
    is positive semidefinite, and beyond Gershgorin's bound MᵀM − x·I is
    negative definite.

    Floats only choose which grid points get the exact test: the bisection
    on a float copy (:func:`_float_bracket`) guesses the bracket, the exact
    test is run at its two points, and exact bisection goes on from
    whatever those two tests established.  Definiteness is monotone in x,
    so any sequence of exact tests that closes the bracket to one grid step
    gives the same bracket; a right guess costs two exact tests instead of
    about 26.  The test that set hi also tells whether hi is an eigenvalue.
    """
    n = len(M)
    M = [[Fraction(x) for x in row] for row in M]
    d = math.lcm(*(x.denominator for row in M for x in row))
    N = [[x.numerator * (d // x.denominator) for x in row] for row in M]
    A = [
        [Fraction(sum(N[k][i] * N[k][j] for k in range(n)), d * d) for j in range(n)]
        for i in range(n)
    ]
    gersh = max(sum(abs(x) for x in row) for row in A)
    grid = 2**20
    # A − lo·I is definite; A − hi·I is not, and at_hi is its definiteness
    lo, hi, at_hi = -1, (int(gersh) + 2) * grid, -1

    def test(m: int) -> None:
        nonlocal lo, hi, at_hi
        sign = _definiteness(A, Fraction(m, grid))
        if sign > 0:
            lo = m
        else:
            hi, at_hi = m, sign

    for guess in _float_bracket(A, lo, hi, grid):
        if lo < guess < hi:
            test(guess)
    while hi - lo > 1:
        test((lo + hi) // 2)
    if at_hi == 0:
        return Fraction(hi, grid), Fraction(hi, grid)
    return Fraction(lo, grid), Fraction(hi, grid)


def singular_lower_bound(M: RationalMatrix) -> Fraction:
    """Certified rational lower bound on the smallest singular value of M.

    The square root of the lower end of the smallest-eigenvalue bracket of
    the Gram matrix, rounded down at 20 digits by :func:`sqrt_bounds`: eight
    below the 12 significant digits at which reports quote the bound and
    the angle sine bound derived from it.
    """
    lo, _ = smallest_gram_root_bracket(M)
    if lo < 0:
        raise CertificationError("negative root bracket for a Gram matrix")
    if lo == 0:
        return Fraction(0)
    root = sqrt_bounds(lo, 20)
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
    alongside).  ``second_order_cap`` is the cap on |∂²Θ_i/∂z_j∂z_k| whose
    curvature drift n·radius·cap ≤ e_inf/2 was checked.  ``surface_digest``
    names the surface of the checked center enclosure, None for a hand-built one;
    ``cap_surface_digest`` and ``cap_ball_radius`` name the surface and ball
    radius on which the cap was checked, None for a bare cap.
    """

    sigma_min_bound: Fraction
    e_inf: Fraction
    lam: Fraction
    radius: Fraction
    second_order_cap: Fraction
    angle_sine_bound: Fraction
    frobenius_cap: Fraction
    frobenius_cap_sharp: Fraction
    n_vertices: int
    surface_digest: Optional[str] = None
    cap_surface_digest: Optional[str] = None
    cap_ball_radius: Optional[Fraction] = None

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
    *,
    dtheta_center: Sequence[Sequence[Bound]],
    second_order_cap: Fraction,
) -> ExpansionCertificate:
    """Certify lam-expansivity of the defect map on the height ball.

    ``dtheta_center`` encloses the Jacobian at the center and
    ``second_order_cap`` is the cap :func:`second_partial_bound` checked on
    the same surface (:func:`certify_surface_expansion` derives both from it);
    the certificate keeps the center's ``surface_digest`` and the cap's
    surface digest and ball radius, if any.  The two
    premises of ``e_inf`` are checked first: entrywise center deviation <
    e_inf/2 and curvature drift n·radius·cap ≤ e_inf/2, with n = len(M).
    Before anything else, M and ``dtheta_center`` must both be n×n.
    """
    n = len(M)
    shapes = [(len(A), sorted({len(row) for row in A})) for A in (dtheta_center, M)]
    if shapes != [(n, [n])] * 2:
        (rows_c, lengths_c), (rows_m, lengths_m) = shapes
        raise ValueError(
            f"dtheta_center has {rows_c} rows of lengths {lengths_c} but M has {rows_m}"
            f" rows of lengths {lengths_m}; both must be n×n"
        )
    half = e_inf / 2
    for i, row in enumerate(dtheta_center):
        for j, b in enumerate(row):
            m = Fraction(M[i][j])
            dev = max(abs(Fraction(b.lo) - m), abs(Fraction(b.hi) - m))
            if not dev < half:
                raise CertificationError(
                    f"center Jacobian entry ({i}, {j}) deviates by {float(dev):.3e}"
                    f" ≥ {half} from the reference"
                )
    drift = n * radius * second_order_cap
    if not drift <= half:
        raise CertificationError(f"curvature drift {n}·radius·cap = {drift} exceeds {half}")
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
        second_order_cap=second_order_cap,
        angle_sine_bound=sine,
        frobenius_cap=fro,
        frobenius_cap_sharp=n * e_inf,
        n_vertices=n,
        surface_digest=getattr(dtheta_center, "surface_digest", None),
        cap_surface_digest=getattr(second_order_cap, "surface_digest", None),
        cap_ball_radius=getattr(second_order_cap, "ball_radius", None),
    )


JACOBIAN_DIGITS = 60  # of the center enclosure in certify_surface_expansion and its reports


def certify_surface_expansion(S: EmbeddedSurface) -> ExpansionCertificate:
    """:func:`certify_expansion` on ``S``, with M and the cap derived from ``S``."""
    # M rounds the 60-digit center enclosure to 10⁻³: its ~1e-40 width is
    # invisible next to the 5e-4 rounding slack, so the deviation premise is decisive.
    enclosure = dtheta_enclosure(S, JACOBIAN_DIGITS)
    M = [[Fraction(round(Fraction(b.midpoint(JACOBIAN_DIGITS)) * 1000), 1000) for b in row]
         for row in enclosure]
    cap = second_partial_bound(crude_bounds(S))
    return certify_expansion(M, dtheta_center=enclosure, second_order_cap=cap)


@dataclass(frozen=True)
class ExistenceReport:
    """The combined conclusion: a flat embedded surface exists near the center."""

    defect_norm_cap: Fraction
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
    defect_norm_cap: Fraction = Fraction(1, 10**27),
) -> ExistenceReport:
    """Chain the three certificates into the existence conclusion.

    Checks, in order: the three certificates and the expansion's
    second-order cap name one surface (equal digests; None matches none)
    with the expansion certificate's n vertices; the flatness certificate
    forces ‖Θ(center)‖ below the defect cap; the curvature premise of the
    expansion ball holds for the second-order cap the expansion certificate
    checked, n·radius·cap ≤ e_inf/2; the flat solution's height
    displacement fits inside the embeddedness robustness budget; the defect
    cap fits inside the ball the expansion covers; and the expansion ball
    lies inside the ball on which the cap was checked.  The two cap checks
    add nothing to ``checks``.
    """
    checks: List[str] = []
    n = expansion.n_vertices
    for name, digest in (
        ("embedding certificate", embed.surface_digest),
        ("expansion certificate", expansion.surface_digest),
        ("second-order cap", expansion.cap_surface_digest),
    ):
        if digest != flat.surface_digest:
            raise CertificationError(
                f"{name} is for surface {str(digest)[:16]}…, not the "
                f"flatness certificate's {flat.surface_digest[:16]}…"
            )
    for name, cert in (("flatness", flat), ("embedding", embed)):
        if cert.n_vertices != n:
            raise CertificationError(
                f"{name} certificate has {cert.n_vertices} vertices, the expansion certificate {n}"
            )

    if not n * flat.epsilon**2 <= defect_norm_cap**2:
        raise CertificationError(
            f"flatness epsilon {float(flat.epsilon):.3e} does not force the "
            f"defect norm below {float(defect_norm_cap):.3e}"
        )
    checks.append("defect norm cap")

    drift = n * expansion.radius * expansion.second_order_cap
    if not drift <= expansion.e_inf / 2:
        raise CertificationError(
            f"second-order premise fails: {n}·radius·cap = {float(drift):.3e} > "
            f"{float(expansion.e_inf / 2)}"
        )
    checks.append("second-order premise")

    solution_radius = defect_norm_cap / expansion.lam
    coverage_radius = expansion.lam * expansion.radius
    if not solution_radius + coverage_radius <= embed.robustness:
        raise CertificationError(
            f"solution displacement {float(solution_radius):.3e} plus coverage radius "
            f"{float(coverage_radius):.3e}, together "
            f"{float(solution_radius + coverage_radius):.3e}, exceed the "
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

    if not expansion.radius <= expansion.cap_ball_radius:
        raise CertificationError(
            f"expansion radius {float(expansion.radius):.3e} exceeds the ball radius "
            f"{float(expansion.cap_ball_radius):.3e} on which the second-order cap was checked"
        )

    return ExistenceReport(
        defect_norm_cap=defect_norm_cap,
        solution_radius=solution_radius,
        coverage_radius=coverage_radius,
        robustness=embed.robustness,
        checks=tuple(checks),
    )
