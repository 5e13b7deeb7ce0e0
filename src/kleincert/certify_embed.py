"""Robust-embeddedness certification via integer separating hyperplanes.

The surface's integer lattice (denominator Q, see
:class:`~kleincert.mesh.EmbeddedSurface`) is read at the scale lcm(Q, 10⁷),
so every vertex has integer coordinates; all arithmetic below is exact
integer arithmetic.  A triangle pair is *δ-separated* when it stays disjoint
(or keeps touching only at its shared vertex) under arbitrary per-vertex
z-perturbations of magnitude ≤ δ.  A normal vector N with ‖N‖_∞ < C proves
δ-separation when the relevant dot-product margins exceed 2δC, because a
z-perturbation of ≤ δ moves each dot product by at most δC:

* disjoint pair:      min_{X∈T1} ⟨X,N⟩ − max_{Y∈T2} ⟨Y,N⟩ > 2δC,
* shared vertex U:    min(⟨V1,N⟩, ⟨V2,N⟩) − ⟨U,N⟩ > 2δC   and
                      ⟨U,N⟩ − max(⟨W1,N⟩, ⟨W2,N⟩) > 2δC,

with V's the other vertices of one triangle and W's of the other.  Pairs
sharing a full edge need no test: if all other pairs are separated, two
edge-neighbors can only meet along their common edge (their remaining edges
are covered by the tested pairs).

Witness normals come from a deterministic quasi-random sequence

    ρ(n) = (⌊C·L(n√2)⌋, ⌊C·L(n√3)⌋, ⌊C·L(n√5)⌋),   L(x) = 2(x−⌊x⌋)−1,

with C = 10⁵.  Let a_k(n) = ⌊2C·n√k⌋ = isqrt(4C²n²k).  Then
ρ_k(n) = a_k(n) mod 2C − C, because ⌊⌊2C·x⌋/2C⌋ = ⌊x⌋ for x = n√k makes
⌊2C·x⌋ − 2C·⌊x⌋ the remainder of a_k(n) mod 2C.  So ρ_k(n) ∈ [−C, C−1], and
a normal at the cap has a coordinate −C.  :func:`rho` takes one integer
square root per coordinate.  The scan instead steps ρ(n) from ρ(n − 1) by
additions of integers below 2³⁰.  Let D = 2²⁹ and P_k = isqrt(4C²k·D²),
so P_k < 2C√k·D < P_k + 1 (the middle term is irrational), and write
n·P_k = A·D + R with 0 ≤ R < D.  Then

    A ≤ A + R/D < 2C·n√k < A + (R + n)/D,

so a_k(n) = A whenever R + n ≤ D.  From n − 1 to n, R grows by P_k mod D
and A by q_k = ⌊P_k/D⌋ = isqrt(4C²k), plus 1 when R reaches D (the carry
of ⌊x + y⌋ = ⌊x⌋ + ⌊y⌋ + [frac x + frac y ≥ 1]); the scan keeps R and
A mod 2C.  At an n where R + n > D for some k (16 of the candidate's
69,265 n), it takes the closed form instead.  The closed form still defines
the witnesses: at each n where some pair reaches the exact test, :func:`rho`
recomputes ρ(n), and a value that differs from the stepped one stops the
certification.

A small table of hand-picked normals is tried first, ± for each pair it
names, after every entry for a pair of the surface is checked against the
cap; every pair still unwitnessed is then searched in the order n
ascending, +ρ(n) before −ρ(n), for n below the pair kind's search limit
(2000 for disjoint pairs, 10⁵ for shared-vertex pairs).

One search serves both sources.  Each pair's tests are built once, as
(above, below) vertex sets whose margin is min⟨above,N⟩ − max⟨below,N⟩:
(T1, T2) for a disjoint pair, ((V1,V2), (U,)) and ((U,), (W1,W2)) for a
pair sharing U.  A test's margin is the least ⟨a − b, N⟩ over its above
vertices a and below vertices b, so with D the pair's differences a − b,
every margin clears 2δC exactly when every ⟨d,N⟩ > 2δC.  The search tests
each pair on D, sign first: since 2δC > 0, at most one of ±N passes, and it
is the sign of ⟨d₀,N⟩ for the first d₀ of D, so the pair is rejected at once
when |⟨d₀,N⟩| ≤ 2δC, and otherwise the other d are tested under that one sign
until one fails.  The failing d moves to the front of D (the order of D
decides nothing).  Only a pair that passes gets its vertex dots and margins,
and a :class:`SeparationWitness` (which re-checks its margins and cap).

Floats prune the scan and never decide it.  Each scanned pair gets a
*chart* once, from D: a box that holds the direction of every normal that
separates the pair with either sign, so a ρ(n) outside the box goes to no
exact test.  Every separating N lies in the closed cone
K̄ = {N : ⟨d,N⟩ ≥ 0 for all d ∈ D} and is not 0.

* Rays.  When D spans R³, K̄ is pointed, so it is the conic hull of its
  extreme rays (Minkowski–Weyl; Ziegler, *Lectures on Polytopes*, 1995),
  and each extreme ray is the line d_a⊥ ∩ d_b⊥ of two independent d.  So K̄
  is the conic hull of R = {±(d_a × d_b) ≠ 0 in K̄}, found in exact
  integers.  If D spans only a plane, R holds both signs of its normal; if
  only a line, R is empty.
* Box.  The chart needs a coordinate m and a sign σ with σ·r_m > 0 for
  every r ∈ R; let i < j be the other two coordinates.  A nonzero
  N = Σ λ_r·r ∈ K̄ (λ ≥ 0) then has σ·N_m > 0, and its ratios
  (N_i/N_m, N_j/N_m) are the convex combination, with weights λ_r·r_m/N_m,
  of the rays' ratios: the perspective map keeps convex hulls.  So they lie
  in the box spanned by the rays' ratios.  The ratios do not change under
  N → −N, so the box holds the ratios of both signs of every normal that
  can separate; a ρ(n) with ρ_m = 0 separates with neither sign.
* Floats.  The box ends are the correctly rounded quotients of the rays'
  integers, and so are ρ(n)'s ratios.  Rounding to nearest is monotone, so
  a ≤ x ≤ b for the exact ratios gives fl(a) ≤ fl(x) ≤ fl(b), and the box
  needs no slack.

Before the scan, every pair that no normal can witness leaves it, of either
kind, and stays pending.  A witness needs ⟨d,N⟩ > 2δC > 0 for all d ∈ D,
and by Gordan's alternative such an N exists exactly when 0 ∉ conv(D); for a
disjoint pair conv(D) = T1 − T2, so it leaves exactly when its closed
triangles meet.  The chart's rays decide it.  A zero d rules out every N.
Otherwise, when D spans R³, K̄ is pointed and equals the cone of R, and the
N with every ⟨d,N⟩ > 0 are the interior points of K̄ (a point of K̄ with
⟨d,N⟩ = 0 has N − εd outside it), so they exist exactly when R spans R³.
Only a D that spans just a plane or a line is decided by the subset search:
by Carathéodory's theorem 0 ∈ conv(D) exactly when it lies in the hull of
at most four of the d, decided by exact integer determinants.  Such a D has
no chart: R then holds both signs of the plane's normal, or nothing.

A scanned pair with no chart is tested exactly at every n.  That is the case
when no coordinate has one strict sign over R, or when every such
coordinate has a ray ratio beyond float range, and for a D that spans only a
plane or a line.  This is the filter pattern of exact geometric predicates
(Shewchuk, "Adaptive precision floating-point arithmetic and fast robust
geometric predicates", 1997): floats prune, exact integers decide.

Certified margins transfer back to the undilated surface: δ-separation of
the dilated surface at δ = λ·scale means λ-robust embeddedness of the
original at λ = 10⁻⁷.  The packaged candidate has Q = 10³², so its scale is
10³² and δ = 10²⁵.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from math import inf, isqrt, lcm
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .mesh import EmbeddedSurface, Face, Triangulation
from .precision import CertificationError

__all__ = [
    "PairClassification",
    "SeparationWitness",
    "EmbeddingCertificate",
    "classify_pairs",
    "rho",
    "certify_embeddedness",
    "ROBUSTNESS",
    "DEFAULT_CAP",
    "DISJOINT_SEARCH_LIMIT",
    "SHARED_SEARCH_LIMIT",
]

IntVec3 = Tuple[int, int, int]
PairIdx = Tuple[int, int]  # indices into the face list, lower first

#: λ, the z-perturbation radius certified in the surface's own coordinates.
ROBUSTNESS = Fraction(1, 10**7)
DEFAULT_CAP = 10**5
DISJOINT_SEARCH_LIMIT = 2000
SHARED_SEARCH_LIMIT = 10**5


@dataclass(frozen=True)
class PairClassification:
    """All unordered face pairs, partitioned by shared-vertex count."""

    disjoint: Tuple[PairIdx, ...]
    shared_vertex: Tuple[PairIdx, ...]
    shared_edge: Tuple[PairIdx, ...]

    @property
    def total(self) -> int:
        return len(self.disjoint) + len(self.shared_vertex) + len(self.shared_edge)


@dataclass(frozen=True)
class SeparationWitness:
    """A verified separating normal for one triangle pair."""

    pair: Tuple[Face, Face]
    kind: str  # "disjoint" or "shared_vertex"
    source: str  # "rho" or "manual"
    n: Optional[int]
    sign: Optional[int]
    normal: IntVec3
    margins: Tuple[int, ...]
    threshold: int
    cap: int

    def __post_init__(self) -> None:
        if self.kind not in ("disjoint", "shared_vertex"):
            raise ValueError(f"unknown pair kind {self.kind!r}")
        if max(abs(c) for c in self.normal) >= self.cap:
            raise ValueError(f"normal {self.normal} reaches the cap {self.cap}")
        if not all(m > self.threshold for m in self.margins):
            raise ValueError(
                f"margins {self.margins} do not all exceed the threshold {self.threshold}"
            )


@dataclass(frozen=True)
class EmbeddingCertificate:
    """Outcome of a successful robust-embeddedness certification.

    ``n_vertices`` and ``surface_digest`` name the certified surface (see
    :attr:`~kleincert.mesh.EmbeddedSurface.digest`).  Three deterministic
    work counters describe the scan: ``rho_candidates`` is the number of ρ(n)
    drawn, ``pair_tests`` the number of (pair, n) decisions, and
    ``exact_tests`` the number of those that a pair's chart admitted to the
    exact test.  They go into no report.
    """

    scale: int
    delta: int
    cap: int
    robustness: Fraction  # = delta / scale, the undilated perturbation radius
    threshold: int
    witnesses: Tuple[SeparationWitness, ...]
    n_disjoint: int
    n_shared_vertex: int
    n_shared_edge: int
    n_vertices: int
    surface_digest: str
    rho_candidates: int
    pair_tests: int
    exact_tests: int

    def __post_init__(self) -> None:
        if self.robustness != Fraction(self.delta, self.scale):
            raise ValueError("robustness radius must equal delta/scale")
        if len(self.witnesses) != self.n_disjoint + self.n_shared_vertex:
            raise ValueError("witness count must cover every non-edge-sharing pair")
        if not 0 <= self.exact_tests <= self.pair_tests:
            raise ValueError("exact tests must be among the (pair, n) decisions")


def classify_pairs(T: Triangulation) -> PairClassification:
    """Partition all C(|F|, 2) unordered face pairs by shared-vertex count."""
    disjoint: list[PairIdx] = []
    shared_vertex: list[PairIdx] = []
    shared_edge: list[PairIdx] = []
    F = T.faces
    for i in range(len(F)):
        for j in range(i + 1, len(F)):
            common = len(set(F[i]) & set(F[j]))
            if common == 0:
                disjoint.append((i, j))
            elif common == 1:
                shared_vertex.append((i, j))
            else:
                shared_edge.append((i, j))
    return PairClassification(
        disjoint=tuple(disjoint),
        shared_vertex=tuple(shared_vertex),
        shared_edge=tuple(shared_edge),
    )


def rho(n: int, cap: int = DEFAULT_CAP) -> IntVec3:
    """The deterministic normal-candidate sequence ρ(n); each ρ_k(n) ∈ [−cap, cap − 1]."""
    if n < 1:
        raise ValueError(f"sequence index must be >= 1, got {n}")
    m = 2 * cap
    t = m * m * n * n
    return (isqrt(2 * t) % m - cap, isqrt(3 * t) % m - cap, isqrt(5 * t) % m - cap)


def _rho_residues(cap: int) -> Iterator[IntVec3]:
    """ρ(n) + (cap, cap, cap) = a_k(n) mod 2·cap, k = 2, 3, 5, for
    n = 1, 2, …, stepped as in the module docstring (a residue 0 is a
    coordinate −cap).  Past n = D every n takes the closed form."""
    m = 2 * cap
    c = m * m  # 4C²
    D = 2**29  # so that R_k plus its increment stays below 2³⁰, one digit of a Python int
    (q2, p2), (q3, p3), (q5, p5) = (divmod(isqrt(k * c * D * D), D) for k in (2, 3, 5))
    q2, q3, q5 = q2 % m, q3 % m, q5 % m
    R2 = R3 = R5 = r2 = r3 = r5 = 0  # R_k = n·P_k mod D, r_k = ⌊n·P_k/D⌋ mod 2C
    edge = D  # D − n
    while True:
        edge -= 1
        R2 += p2
        r2 += q2
        if R2 >= D:
            R2 -= D
            r2 += 1
        if r2 >= m:
            r2 -= m
        R3 += p3
        r3 += q3
        if R3 >= D:
            R3 -= D
            r3 += 1
        if r3 >= m:
            r3 -= m
        R5 += p5
        r5 += q5
        if R5 >= D:
            R5 -= D
            r5 += 1
        if r5 >= m:
            r5 -= m
        if R2 > edge or R3 > edge or R5 > edge:
            t = c * (D - edge) ** 2
            yield isqrt(2 * t) % m, isqrt(3 * t) % m, isqrt(5 * t) % m
        else:
            yield r2, r3, r5


PairTests = Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]
ManualTable = Mapping[frozenset, IntVec3]


def _pair_tests(f1: Face, f2: Face) -> PairTests:
    """The (above, below) vertex sets whose margins must clear the threshold.

    A disjoint pair has one test, T1 above T2.  A pair sharing U has two: the
    other vertices V of f1 above U, and U above the other vertices W of f2.
    """
    common = set(f1) & set(f2)
    if not common:
        return ((f1, f2),)
    (u,) = common
    v = tuple(x for x in f1 if x != u)
    w = tuple(x for x in f2 if x != u)
    return ((v, (u,)), ((u,), w))


def _margins(tests: PairTests, dots: Sequence[int], threshold: int) -> Optional[Tuple[int, ...]]:
    """min⟨above,N⟩ − max⟨below,N⟩ for every test, or None at the first ≤ threshold."""
    margins = ()
    for above, below in tests:
        m = min(map(dots.__getitem__, above)) - max(map(dots.__getitem__, below))
        if m <= threshold:
            return None
        margins += (m,)
    return margins


def _cross(a: Sequence[int], b: Sequence[int]) -> IntVec3:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _origin_in_simplex(vs: Sequence[IntVec3]) -> bool:
    """Is 0 in the convex hull of 1–4 vectors that are affinely independent?

    Affinely dependent inputs return False (a smaller subset decides them).
    Three vectors need 0 in their plane and three nonnegative barycentric
    weights n·(b×c), n·(c×a), n·(a×b), which sum to |n|² for n = (b−a)×(c−a);
    four need the signed volumes of the faces seen from 0 to agree in sign
    with their sum, orient3d(a, b, c, d).
    """
    if len(vs) == 1:
        return not any(vs[0])
    if len(vs) == 2:
        a, b = vs
        return not any(_cross(a, b)) and _dot(a, b) < 0
    if len(vs) == 3:
        a, b, c = vs
        weights = (_cross(b, c), _cross(c, a), _cross(a, b))
        n = tuple(map(sum, zip(*weights)))
        coplanar_with_origin = _dot(a, weights[0]) == 0
        return any(n) and coplanar_with_origin and all(_dot(n, w) >= 0 for w in weights)
    a, b, c, d = vs
    weights = (
        _dot(b, _cross(c, d)),
        -_dot(a, _cross(c, d)),
        _dot(a, _cross(b, d)),
        -_dot(a, _cross(b, c)),
    )
    total = sum(weights)
    return total != 0 and all(w * total >= 0 for w in weights)


def _differences(tests: PairTests, coords: Sequence[Sequence[int]]) -> List[IntVec3]:
    """D: a − b for each above vertex a and below vertex b of one test.

    A test's margin for N is the least ⟨a − b, N⟩ over its (a, b), so every
    margin exceeds t exactly when every ⟨d, N⟩ > t.
    """
    return [
        (coords[a][0] - coords[b][0], coords[a][1] - coords[b][1], coords[a][2] - coords[b][2])
        for above, below in tests
        for a in above
        for b in below
    ]


def _origin_in_hull(D: Sequence[IntVec3]) -> bool:
    """Is 0 ∈ conv(D)?  By Carathéodory's theorem, 0 is then in the hull of at
    most four of the d."""
    return any(_origin_in_simplex(s) for k in range(1, 5) for s in combinations(D, k))


def _unwitnessable(tests: PairTests, coords: Sequence[Sequence[int]]) -> bool:
    """True when no normal gives every test a positive margin: 0 ∈ conv(D),
    by the subset search alone (the scan decides it from the rays, see
    :func:`_scan_chart`)."""
    return _origin_in_hull(_differences(tests, coords))


def _spans_space(vectors: Sequence[IntVec3]) -> bool:
    """Do the vectors span R³?  The first two independent ones span a plane,
    and some vector must leave it."""
    for a, b in combinations(vectors, 2):
        normal = _cross(a, b)
        if any(normal):
            return any(_dot(normal, c) for c in vectors)
    return False


#: (m, lo_i, hi_i, lo_j, hi_j): the box in which the ratios (N_i/N_m, N_j/N_m),
#: i < j the other two coordinates, of every normal that can separate a pair lie.
Chart = Tuple[int, float, float, float, float]

#: The chart of a pair without one: it admits every ratio, infinite ones too.
NO_CHART: Chart = (0, -inf, inf, -inf, inf)

#: The hull of a pivot without charts: it holds no ratio.
_EMPTY_BOX = (inf, -inf, inf, -inf)


def _rays(D: Sequence[IntVec3]) -> List[IntVec3]:
    """R: each ±(d_a × d_b) ≠ 0 in K̄ = {N : ⟨d, N⟩ ≥ 0 for all d ∈ D}.

    A candidate's dots with D stop at the first pair of opposite signs:
    then neither ±r lies in K̄.
    """
    rays = []
    for a, b in combinations(D, 2):
        r = _cross(a, b)
        if any(r):
            x, y, z = r
            positive = negative = False
            for p, q, s in D:
                dot = p * x + q * y + s * z
                if dot > 0:
                    if negative:
                        break
                    positive = True
                elif dot < 0:
                    if positive:
                        break
                    negative = True
            else:
                if not negative:
                    rays.append(r)
                if not positive:
                    rays.append((-x, -y, -z))
    return rays


def _chart(D: Sequence[IntVec3]) -> Chart:
    """The chart of D's rays, whether or not a normal can witness the pair."""
    return _ray_chart(_rays(D))


def _ray_chart(rays: Sequence[IntVec3]) -> Chart:
    """The box of the rays' ratios in the first coordinate m in which every
    ray of R has one strict sign, or :data:`NO_CHART` (see the module docstring)."""
    if not rays:
        return NO_CHART
    for m in range(3):
        if not (all(r[m] > 0 for r in rays) or all(r[m] < 0 for r in rays)):
            continue
        i, j = (k for k in range(3) if k != m)
        try:
            xs = [r[i] / r[m] for r in rays]
            ys = [r[j] / r[m] for r in rays]
        except OverflowError:
            continue  # a ratio beyond float range
        return (m, min(xs), max(xs), min(ys), max(ys))
    return NO_CHART


def _scan_chart(D: Sequence[IntVec3]) -> Optional[Chart]:
    """The chart of a pair whose differences are D, or None when no normal
    can witness the pair, which then leaves the scan (see the module docstring)."""
    if (0, 0, 0) in D:
        return None
    rays = _rays(D)
    if _spans_space(rays):
        return _ray_chart(rays)
    if _spans_space(D):
        return None  # K̄ is pointed and is the cone of R, which has no interior
    return None if _origin_in_hull(D) else NO_CHART


#: A scan's pairs by chart: the pairs with :data:`NO_CHART`, and one group
#: (m, i, j, hull, boxes) per pivot m that some chart has, where boxes holds
#: the (pair, lo_i, hi_i, lo_j, hi_j) of each pair with that pivot and hull
#: is the least box (lo_i, hi_i, lo_j, hi_j) that holds them all.
ChartGroups = Tuple[List[PairIdx], List[tuple]]


def _chart_groups(pairs: Sequence[PairIdx], charts: Mapping[PairIdx, Chart]) -> ChartGroups:
    chartless: List[PairIdx] = []
    by_pivot: Tuple[List[tuple], ...] = ([], [], [])
    for pair in pairs:
        chart = charts[pair]
        if chart == NO_CHART:
            chartless.append(pair)
        else:
            by_pivot[chart[0]].append((pair, *chart[1:]))
    groups = []
    for (m, i, j), boxes in zip(((0, 1, 2), (1, 0, 2), (2, 0, 1)), by_pivot):
        if boxes:
            _, lo_i, hi_i, lo_j, hi_j = zip(*boxes)
            groups.append((m, i, j, (min(lo_i), max(hi_i), min(lo_j), max(hi_j)), boxes))
    return chartless, groups


def _admitted(groups: ChartGroups, x: int, y: int, z: int) -> List[PairIdx]:
    """The pairs whose chart's box holds the ratios of the normal (x, y, z),
    in pair order.

    The pairs with :data:`NO_CHART` are always admitted.  Each group's two
    ratios are formed once, and its boxes are looked at only when its hull
    holds them.  A group whose pivot coordinate is 0 admits nothing: the
    ratios over it are infinite, and every box in it has finite ends.  The
    scan calls this only at an n whose ratios some hull holds, or while a
    pair without a chart is in the scan.
    """
    chartless, by_pivot = groups
    admitted = chartless[:]
    normal = (x, y, z)
    for m, i, j, (lo_u, hi_u, lo_v, hi_v), boxes in by_pivot:
        pivot = normal[m]
        if pivot:
            u = normal[i] / pivot
            v = normal[j] / pivot
            if lo_u <= u <= hi_u and lo_v <= v <= hi_v:
                for pair, lo_i, hi_i, lo_j, hi_j in boxes:
                    if lo_i <= u <= hi_i and lo_j <= v <= hi_j:
                        admitted.append(pair)
    if len(admitted) > 1:
        admitted.sort()
    return admitted


def _separating_sign(D: List[IntVec3], normal: IntVec3, threshold: int) -> int:
    """The sign s with ⟨d, s·normal⟩ > threshold for every d ∈ D, else 0.

    threshold > 0, so s can only be the sign of ⟨d₀, normal⟩; the first d
    that fails under it moves to the front of D.
    """
    b0, b1, b2 = normal
    x, y, z = D[0]
    p = x * b0 + y * b1 + z * b2
    if p > threshold:
        sign = 1
    elif p < -threshold:
        sign, b0, b1, b2 = -1, -b0, -b1, -b2
    else:
        return 0
    for k in range(1, len(D)):
        x, y, z = D[k]
        if x * b0 + y * b1 + z * b2 <= threshold:
            D.insert(0, D.pop(k))
            return 0
    return sign


def certify_embeddedness(
    S: EmbeddedSurface,
    cap: int = DEFAULT_CAP,
    manual_normals: Optional[ManualTable] = None,
) -> EmbeddingCertificate:
    """Certify that S is :data:`ROBUSTNESS`-robustly embedded.

    The surface's lattice is read at scale = lcm(Q, 1/λ), with Q its
    denominator, and δ = λ·scale.  Every vertex-disjoint and every
    one-vertex-sharing face pair must obtain a separating-normal witness;
    edge-sharing pairs are covered by the pair-reduction argument and are
    counted, not tested.  Pairs named in the manual table try ± their manual
    normal first.  The scan then walks n once and tests every
    still-unwitnessed pair against +ρ(n), then −ρ(n), so each gets its first
    (n, sign) below its kind's search limit; it stops as soon as no pair is
    left.  A pair that no normal can witness, because 0 ∈ conv(D) for its
    differences D (above minus below vertex), is left out of the scan and
    stays pending: for every N some ⟨d,N⟩ ≤ 0 ≤ 2δC, and likewise for −N.
    This is decided from D's rays when D spans R³ and by the subset search
    otherwise (see the module docstring).  Each scanned pair's chart is built
    once from D; at each n only the pairs whose chart holds ρ(n)'s ratios get
    the exact test, and the others cannot be separated by ±ρ(n), so every
    pair keeps the same first (n, sign).  The charts are grouped by pivot.

    The scan runs in stretches of n between changes of the scan: a pair
    witnessed, or the disjoint pairs leaving at
    :data:`DISJOINT_SEARCH_LIMIT`.  At the start of a stretch the groups are
    built and each pivot's hull is held in locals; an n whose ratios no hull
    holds, while every pair has a chart, costs no call.  ``pair_tests`` is
    added once per stretch, as the stretch's ρ(n) below the cap times the
    pairs in the scan.  ρ(n) is stepped by its recurrence, and :func:`rho` is
    called at every n where some pair reaches the exact test.

    Raises :class:`ValueError` if ``cap`` is below 1 or a manual normal of one
    of S's pairs reaches it (naming the pair and the normal, before any
    test), and :class:`CertificationError` listing the unseparated pairs if
    any pair is separated neither by its manual normal nor by the scan, or
    naming n if ``rho(n, cap)`` differs from the recurrence's value.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    scale = lcm(S.denominator, ROBUSTNESS.denominator)
    delta = int(scale * ROBUSTNESS)
    m = scale // S.denominator
    coords = [(m * x, m * y, m * z) for x, y, z in S.lattice]
    faces = S.triangulation.faces
    classes = classify_pairs(S.triangulation)
    threshold = 2 * delta * cap

    kinds: Dict[PairIdx, str] = {p: "disjoint" for p in classes.disjoint}
    kinds.update((p, "shared_vertex") for p in classes.shared_vertex)
    tests = {(i, j): _pair_tests(faces[i], faces[j]) for i, j in kinds}
    diffs = {p: _differences(t, coords) for p, t in tests.items()}
    witnesses: Dict[PairIdx, SeparationWitness] = {}

    def separate(pairs: List[PairIdx], base: IntVec3, source: str, n: Optional[int]) -> None:
        """Witness each pair that +base or −base separates."""
        for pair in pairs:
            sign = _separating_sign(diffs[pair], base, threshold)
            if not sign:
                continue
            normal = (sign * base[0], sign * base[1], sign * base[2])
            dots = [x * normal[0] + y * normal[1] + z * normal[2] for x, y, z in coords]
            witnesses[pair] = SeparationWitness(
                pair=(faces[pair[0]], faces[pair[1]]), kind=kinds[pair],
                source=source, n=n, sign=sign, normal=normal,
                margins=_margins(tests[pair], dots, threshold), threshold=threshold, cap=cap,
            )

    manual: Dict[PairIdx, IntVec3] = {}
    for i, j in sorted(kinds):
        key = frozenset((faces[i], faces[j]))
        if manual_normals and key in manual_normals:
            normal = manual_normals[key]
            if max(map(abs, normal)) >= cap:
                raise ValueError(
                    f"manual normal {normal} for {{{faces[i]}, {faces[j]}}} reaches the cap {cap}"
                )
            manual[(i, j)] = normal
    for pair, normal in manual.items():
        separate([pair], normal, "manual", None)

    charts: Dict[PairIdx, Chart] = {}
    for pair in sorted(kinds.keys() - witnesses.keys()):
        chart = _scan_chart(diffs[pair])
        if chart is not None:
            charts[pair] = chart
    limit = {"disjoint": DISJOINT_SEARCH_LIMIT, "shared_vertex": SHARED_SEARCH_LIMIT}
    residues = _rho_residues(cap)
    n = pair_tests = exact_tests = 0  # n: the last n whose ρ(n) was drawn
    scan = list(charts)
    while scan:
        groups = _chart_groups(scan, charts)
        chartless = groups[0]
        hulls = {pivot: hull for pivot, _, _, hull, _ in groups[1]}
        (
            (yx_lo, yx_hi, zx_lo, zx_hi),
            (xy_lo, xy_hi, zy_lo, zy_hi),
            (xz_lo, xz_hi, yz_lo, yz_hi),
        ) = (hulls.get(pivot, _EMPTY_BOX) for pivot in range(3))
        first, skipped = n, 0
        for r1, r2, r3 in islice(residues, min(limit[kinds[p]] for p in scan) - 1 - n):
            n += 1
            if not (r1 and r2 and r3):
                skipped += 1  # cannot certify with a normal at the cap
                continue
            x = r1 - cap
            y = r2 - cap
            z = r3 - cap
            if not (
                chartless
                or x and yx_lo <= y / x <= yx_hi and zx_lo <= z / x <= zx_hi
                or y and xy_lo <= x / y <= xy_hi and zy_lo <= z / y <= zy_hi
                or z and xz_lo <= x / z <= xz_hi and yz_lo <= y / z <= yz_hi
            ):
                continue
            admitted = _admitted(groups, x, y, z)
            if not admitted:
                continue
            base = rho(n, cap)
            if base != (x, y, z):
                raise CertificationError(
                    f"rho({n}, {cap}) = {base}, but its recurrence gives {(x, y, z)}"
                )
            exact_tests += len(admitted)
            separate(admitted, base, "rho", n)
            if any(p in witnesses for p in admitted):
                break
        pair_tests += len(scan) * (n - first - skipped)
        scan = [p for p in scan if p not in witnesses and n + 1 < limit[kinds[p]]]

    pending = sorted(kinds.keys() - witnesses.keys())
    if pending:
        named = ", ".join(
            f"{{{faces[i]}, {faces[j]}}} [{kinds[(i, j)]}]" for i, j in pending
        )
        raise CertificationError(f"no separating normal found for: {named}")

    return EmbeddingCertificate(
        scale=scale,
        delta=delta,
        cap=cap,
        robustness=Fraction(delta, scale),
        threshold=threshold,
        witnesses=tuple(witnesses[p] for p in sorted(witnesses)),
        n_disjoint=len(classes.disjoint),
        n_shared_vertex=len(classes.shared_vertex),
        n_shared_edge=len(classes.shared_edge),
        n_vertices=S.triangulation.n_vertices,
        surface_digest=S.digest,
        rho_candidates=n,
        pair_tests=pair_tests,
        exact_tests=exact_tests,
    )
