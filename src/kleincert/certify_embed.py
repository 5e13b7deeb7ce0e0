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

Certified margins transfer back to the undilated surface: δ-separation of
the dilated surface at δ = 10²⁵ means λ-robust embeddedness of the original
at λ = δ/scale = 10⁻⁷.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    as soon as no pair is left.

    Raises :class:`ValueError` if some coordinate is not integral at
    ``scale``, and :class:`CertificationError` listing the unseparated pairs
    if any pair is separated neither by its manual normal nor by the scan.
    """
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

    scan = sorted(kinds.keys() - witnesses.keys())
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
