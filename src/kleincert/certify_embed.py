"""Robust-embeddedness certification via integer separating hyperplanes.

The surface is dilated by an exact integer factor (10³² for the candidate)
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

    ρ(n) = (⌊10⁵·L(n√2)⌋, ⌊10⁵·L(n√3)⌋, ⌊10⁵·L(n√5)⌋),   L(x) = 2(x−⌊x⌋)−1,

computed in closed form by integer square roots (⌊2·10⁵·n√k⌋ is one isqrt).
A small table of hand-picked normals is tried first, ± for each pair it
names; every pair still unwitnessed is then searched in the order n
ascending, +ρ(n) before −ρ(n), for n below the pair kind's search limit
(2000 for disjoint pairs, 10⁵ for shared-vertex pairs).

One search serves both sources.  Each pair's tests are built once, as
(above, below) vertex sets whose margin is min⟨above,N⟩ − max⟨below,N⟩:
(T1, T2) for a disjoint pair, ((V1,V2), (U,)) and ((U,), (W1,W2)) for a
pair sharing U.  The vertex dots are computed once per candidate normal, and
a :class:`SeparationWitness` (which re-checks its margins and cap) is built
only when every margin clears 2δC.

Before the scan, every one-vertex-sharing pair that no normal can witness
leaves it (and stays unwitnessed).  With D the differences a − b of an above
vertex a and a below vertex b of one test, a witness needs ⟨d,N⟩ > 2δC ≥ 0
for all d ∈ D, which Gordan's theorem rules out exactly when 0 ∈ conv(D);
Carathéodory's theorem reduces that to at most four of the d, decided by
exact integer determinants.  Disjoint pairs are not tested: their scan ends at
the lower search limit anyway.

Certified margins transfer back to the undilated surface: δ-separation of
the dilated surface at δ = 10²⁵ means λ-robust embeddedness of the original
at λ = δ/scale = 10⁻⁷.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isqrt
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .mesh import EmbeddedSurface, Face, Triangulation
from .precision import CertificationError

__all__ = [
    "PairClassification",
    "SeparationWitness",
    "EmbeddingCertificate",
    "classify_pairs",
    "rho",
    "certify_embeddedness",
    "DEFAULT_SCALE",
    "DEFAULT_DELTA",
    "DEFAULT_CAP",
    "DISJOINT_SEARCH_LIMIT",
    "SHARED_SEARCH_LIMIT",
]

IntVec3 = Tuple[int, int, int]
PairIdx = Tuple[int, int]  # indices into the face list, lower first

DEFAULT_SCALE = 10**32
DEFAULT_DELTA = 10**25
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
    """Outcome of a successful robust-embeddedness certification."""

    scale: int
    delta: int
    cap: int
    robustness: Fraction  # = delta / scale, the undilated perturbation radius
    threshold: int
    witnesses: Tuple[SeparationWitness, ...]
    n_disjoint: int
    n_shared_vertex: int
    n_shared_edge: int

    def __post_init__(self) -> None:
        if self.robustness != Fraction(self.delta, self.scale):
            raise ValueError("robustness radius must equal delta/scale")
        if len(self.witnesses) != self.n_disjoint + self.n_shared_vertex:
            raise ValueError("witness count must cover every non-edge-sharing pair")


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


def _floor_scaled_sawtooth(k: int, n: int, scale: int) -> int:
    """⌊scale · L(n·√k)⌋ with L(x) = 2(x − ⌊x⌋) − 1, exactly.

    scale·L(x) = 2·scale·x − (2·scale·⌊x⌋ + scale) with an integer in the
    parentheses, and ⌊2·scale·n√k⌋ = isqrt(4·scale²·n²·k), ⌊n√k⌋ = isqrt(n²·k).
    """
    return isqrt(4 * scale * scale * n * n * k) - 2 * scale * isqrt(n * n * k) - scale


def rho(n: int, cap: int = DEFAULT_CAP) -> IntVec3:
    """The deterministic normal-candidate sequence ρ(n); ‖ρ(n)‖_∞ ≤ cap."""
    if n < 1:
        raise ValueError(f"sequence index must be >= 1, got {n}")
    return (
        _floor_scaled_sawtooth(2, n, cap),
        _floor_scaled_sawtooth(3, n, cap),
        _floor_scaled_sawtooth(5, n, cap),
    )


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


def _unwitnessable(tests: PairTests, coords: Sequence[Sequence[int]]) -> bool:
    """True when no normal gives every test a positive margin: 0 ∈ conv(D).

    D holds a − b for each above vertex a and below vertex b of one test; a
    margin is positive for N exactly when every such ⟨a − b, N⟩ > 0.
    """
    D = [
        tuple(p - q for p, q in zip(coords[a], coords[b]))
        for above, below in tests
        for a in above
        for b in below
    ]
    return any(_origin_in_simplex(s) for k in range(1, 5) for s in combinations(D, k))


def certify_embeddedness(
    S: EmbeddedSurface,
    scale: int = DEFAULT_SCALE,
    delta: int = DEFAULT_DELTA,
    cap: int = DEFAULT_CAP,
    manual_normals: Optional[ManualTable] = None,
) -> EmbeddingCertificate:
    """Certify that S is (delta/scale)-robustly embedded.

    Every vertex-disjoint and every one-vertex-sharing face pair must obtain
    a separating-normal witness; edge-sharing pairs are covered by the
    pair-reduction argument and are counted, not tested.  Pairs named in the
    manual table try ± their manual normal first.  The scan then walks n
    once and tests every still-unwitnessed pair against +ρ(n), then −ρ(n),
    so each gets its first (n, sign) below its kind's search limit; it stops
    as soon as no pair is left.  A one-vertex-sharing pair whose differences
    D (above minus below vertex) have 0 in their convex hull is left out of
    the scan: for every N some ⟨d,N⟩ ≤ 0 ≤ 2δC, and likewise for −N.

    Raises :class:`ValueError` if ``scale`` or ``cap`` is below 1, ``delta``
    is negative, or some coordinate is not integral at ``scale``, and
    :class:`CertificationError` listing the unseparated pairs if any pair is
    separated neither by its manual normal nor by the scan.
    """
    for name, value, least in (("scale", scale, 1), ("delta", delta, 0), ("cap", cap, 1)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    coords = []
    for i, p in enumerate(S.coords):
        row = []
        for axis, c in zip("xyz", p):
            v = c * scale
            if v.denominator != 1:
                raise ValueError(
                    f"vertex {i} {axis}-coordinate {c} is not integral at scale {scale}"
                )
            row.append(int(v))
        coords.append(row)
    faces = S.triangulation.faces
    classes = classify_pairs(S.triangulation)
    threshold = 2 * delta * cap

    kinds: Dict[PairIdx, str] = {p: "disjoint" for p in classes.disjoint}
    kinds.update((p, "shared_vertex") for p in classes.shared_vertex)
    tests = {(i, j): _pair_tests(faces[i], faces[j]) for i, j in kinds}
    witnesses: Dict[PairIdx, SeparationWitness] = {}

    def separate(pairs: List[PairIdx], base: IntVec3, source: str, n: Optional[int]) -> bool:
        """Witness each pair that +base, else −base, separates; True if any."""
        plus = [x * base[0] + y * base[1] + z * base[2] for x, y, z in coords]
        signed = ((1, plus), (-1, [-d for d in plus]))
        found = False
        for pair in pairs:
            for sign, dots in signed:
                margins = _margins(tests[pair], dots, threshold)
                if margins is not None:
                    witnesses[pair] = SeparationWitness(
                        pair=(faces[pair[0]], faces[pair[1]]), kind=kinds[pair],
                        source=source, n=n, sign=sign,
                        normal=(sign * base[0], sign * base[1], sign * base[2]),
                        margins=margins, threshold=threshold, cap=cap,
                    )
                    found = True
                    break
        return found

    for i, j in sorted(kinds):
        key = frozenset((faces[i], faces[j]))
        if manual_normals and key in manual_normals:
            separate([(i, j)], manual_normals[key], "manual", None)

    scan = [
        p for p in sorted(kinds.keys() - witnesses.keys())
        if kinds[p] == "disjoint" or not _unwitnessable(tests[p], coords)
    ]
    for n in range(1, SHARED_SEARCH_LIMIT):
        if n == DISJOINT_SEARCH_LIMIT:
            scan = [p for p in scan if kinds[p] != "disjoint"]
        if not scan:
            break
        base = rho(n, cap)
        if max(abs(c) for c in base) >= cap:
            continue  # cannot certify with a normal at the cap
        if separate(scan, base, "rho", n):
            scan = [p for p in scan if p not in witnesses]

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
    )
