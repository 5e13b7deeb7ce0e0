"""Flatness certification by comparison against exact planar reference links.

The certificate never evaluates an angle.  Instead, for each vertex i with
link neighbors n_0, …, n_{d−1} it compares two exact rational squared
cosines per consecutive link pair:

* α — the squared cosine of the hyperbolic angle at X_i between the rays to
  X_{n_j} and X_{n_{j+1}} (an exact rational, from the Klein-model metric);
* β — the squared cosine of the Euclidean angle between two integer
  reference vectors Y_{n_j}, Y_{n_{j+1}} in the plane.

The reference vectors are a planar development of the link: if they wind
exactly once around the origin, their consecutive Euclidean angles sum to
exactly 2π.  Both angle families are images of the squared cosines under
x ↦ arccos(±√x), which is K-Lipschitz on any range [lo, hi] ⊂ (0, 1) with
4K²·min(lo(1−lo), hi(1−hi)) ≥ 1.  Therefore every cone angle satisfies

    |θ_i − 2π| ≤ max_degree · K · max|α − β| = ε,

provided the metric inner products and the reference dot products agree in
sign pair-by-pair (so both angles sit on the same arccos branch).  Every
check below is an exact integer/rational comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .mesh import CornerKey, EmbeddedSurface
from .precision import CertificationError, _round_significant

__all__ = [
    "LinkTable",
    "LinkReference",
    "FlatnessCertificate",
    "beta_values",
    "link_winding_number",
    "lipschitz_on_range",
    "certify_flatness",
]

IntVec2 = Tuple[int, int]


@dataclass(frozen=True)
class LinkTable:
    """One vertex's reference link: neighbor cycle and planar integer vectors."""

    vertex: int
    cycle: Tuple[int, ...]
    vectors: Tuple[IntVec2, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cycle", tuple(self.cycle))
        object.__setattr__(self, "vectors", tuple(tuple(v) for v in self.vectors))
        if len(self.cycle) != len(self.vectors):
            raise ValueError(
                f"vertex {self.vertex}: {len(self.cycle)} neighbors but {len(self.vectors)} vectors"
            )
        if len(self.cycle) < 3:
            raise ValueError(f"vertex {self.vertex}: link must have at least 3 neighbors")
        for n, (a, b) in zip(self.cycle, self.vectors):
            if not (isinstance(a, int) and isinstance(b, int)):
                raise ValueError(f"vertex {self.vertex}, neighbor {n}: vector must be integer")
            if a == 0 and b == 0:
                raise ValueError(f"vertex {self.vertex}, neighbor {n}: zero reference vector")


@dataclass(frozen=True)
class LinkReference:
    """Reference link tables for every vertex of a triangulation."""

    tables: Tuple[LinkTable, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tables", tuple(self.tables))
        seen = [t.vertex for t in self.tables]
        if len(set(seen)) != len(seen):
            raise ValueError("duplicate vertex in link reference")


@dataclass(frozen=True)
class FlatnessCertificate:
    """Outcome of a successful flatness certification (all fields exact).

    ``n_vertices`` and ``surface_digest`` name the certified surface (see
    :attr:`~kleincert.mesh.EmbeddedSurface.digest`).
    """

    max_delta: Fraction
    alpha_range: Tuple[Fraction, Fraction]
    joint_range: Tuple[Fraction, Fraction]
    lipschitz_bound: Fraction
    max_degree: int
    epsilon: Fraction
    sign_agreements: bool
    winding_valid: bool
    n_vertices: int
    surface_digest: str

    def __post_init__(self) -> None:
        if self.epsilon < self.max_degree * self.lipschitz_bound * self.max_delta:
            raise ValueError("certificate inconsistency: epsilon below the certified product")


def _cross2(u: IntVec2, v: IntVec2) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _dot2(u: IntVec2, v: IntVec2) -> int:
    return u[0] * v[0] + u[1] * v[1]


def beta_values(L: LinkReference) -> Dict[CornerKey, Fraction]:
    """Exact squared cosines of consecutive reference-vector angles."""
    out: Dict[CornerKey, Fraction] = {}
    for t in L.tables:
        d = len(t.cycle)
        for j in range(d):
            y1 = t.vectors[j]
            y2 = t.vectors[(j + 1) % d]
            dot = _dot2(y1, y2)
            out[(t.vertex, (t.cycle[j], t.cycle[(j + 1) % d]))] = Fraction(
                dot * dot, _dot2(y1, y1) * _dot2(y2, y2)
            )
    return out


def link_winding_number(vectors: Tuple[IntVec2, ...]) -> int:
    """Winding number around the origin of the closed polygon Y_0 → … → Y_0.

    Exact integer crossing count against the positive x-axis.  Requires that
    no segment passes through the origin, which the caller guarantees by
    first checking that consecutive cross products are nonzero.
    """
    w = 0
    d = len(vectors)
    for j in range(d):
        p = vectors[j]
        q = vectors[(j + 1) % d]
        if p[1] <= 0 < q[1] and _cross2(p, q) > 0:
            w += 1
        elif p[1] > 0 >= q[1] and _cross2(p, q) < 0:
            w -= 1
    return w


def lipschitz_on_range(lo: Fraction, hi: Fraction) -> Fraction:
    """Smallest integer K with 1/(2√(x(1−x))) ≤ K on [lo, hi] ⊂ (0, 1).

    x(1−x) is concave, so its minimum m over the interval sits at an
    endpoint; K works iff 4K²m ≥ 1, an exact rational inequality.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not (0 < lo <= hi < 1):
        raise ValueError(f"range [{lo}, {hi}] must satisfy 0 < lo <= hi < 1")
    m = min(lo * (1 - lo), hi * (1 - hi))
    target = 1 / (4 * m)  # need k^2 >= target
    k = max(1, math.isqrt(target.numerator // target.denominator))
    while 4 * k * k * m < 1:
        k += 1
    return Fraction(k)


def certify_flatness(S: EmbeddedSurface, L: LinkReference) -> FlatnessCertificate:
    """Certify |θ_i − 2π| ≤ ε for every vertex, entirely in exact arithmetic.

    Steps, each raising :class:`CertificationError` with the offending item:

    1. every reference cycle must match the triangulation's link up to
       rotation (same consecutive pairs);
    2. the metric inner product and the reference dot product must agree in
       sign on every pair, so θ and τ lie on the same arccos branch;
    3. every reference link must make strictly counterclockwise turns
       (consecutive cross products > 0) and wind exactly once around the
       origin — together these force Σ_j τ_{i,j} = 2π exactly;
    4. ε = max_degree · K · max|α − β| with K certified on the joint range
       of all α and β values (endpoints widened outward to short decimals).
    """
    corners = S.corners
    alphas = {key: A for key, (A, _) in corners.items()}
    betas = beta_values(L)
    if set(alphas) != set(betas):
        missing = sorted(set(alphas) ^ set(betas))[:4]
        raise CertificationError(
            f"reference links do not match the triangulation links near {missing}"
        )

    for t in L.tables:
        i = t.vertex
        d = len(t.cycle)
        for j in range(d):
            n_j, n_next = t.cycle[j], t.cycle[(j + 1) % d]
            _, metric_sign = corners[(i, (n_j, n_next))]
            ref_dot = _dot2(t.vectors[j], t.vectors[(j + 1) % d])
            if metric_sign != (ref_dot > 0) - (ref_dot < 0):
                raise CertificationError(
                    f"sign disagreement at vertex {i}, pair ({n_j}, {n_next}): "
                    f"metric inner product and reference dot product differ"
                )

    for t in L.tables:
        d = len(t.cycle)
        for j in range(d):
            c = _cross2(t.vectors[j], t.vectors[(j + 1) % d])
            if c <= 0:
                raise CertificationError(
                    f"vertex {t.vertex}: reference pair ({t.cycle[j]}, {t.cycle[(j + 1) % d]}) "
                    f"does not turn counterclockwise (cross = {c})"
                )
        w = link_winding_number(t.vectors)
        if w != 1:
            raise CertificationError(
                f"vertex {t.vertex}: reference link winds {w} times, expected exactly 1"
            )

    max_delta = max(abs(alphas[k] - betas[k]) for k in alphas)
    all_alpha = list(alphas.values())
    all_values = all_alpha + list(betas.values())
    alpha_range = (min(all_alpha), max(all_alpha))
    joint_lo = _round_significant(min(all_values), 1, up=False)
    joint_hi = _round_significant(max(all_values), 2, up=True)
    K = lipschitz_on_range(joint_lo, joint_hi)
    max_degree = max(map(len, S.triangulation.links))
    epsilon = max_degree * K * max_delta
    return FlatnessCertificate(
        max_delta=max_delta,
        alpha_range=alpha_range,
        joint_range=(joint_lo, joint_hi),
        lipschitz_bound=K,
        max_degree=max_degree,
        epsilon=epsilon,
        sign_agreements=True,
        winding_valid=True,
        n_vertices=S.triangulation.n_vertices,
        surface_digest=S.digest,
    )
