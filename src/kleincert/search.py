"""Construction pipeline: lattice rescaling, hill climbing, Newton refinement.

This module houses the non-certified half of the build: it manufactures a
candidate surface whose cone angles are numerically flat, which the
certification modules then verify rigorously.  Three stages:

1. ``prepare_from_lattice`` rescales an integer-lattice embedding into the
   model ball: translate the centroid to the origin, then scale by an exact
   rational so the largest coordinate magnitude becomes exactly 1/2.  Every
   output vertex lies in the cube [-1/2, 1/2]^3, hence strictly inside the
   unit ball (Euclidean norm at most sqrt(3)/2).
2. ``hill_climb`` minimises the maximum absolute cone defect by random
   coordinate perturbations, drawn from a counter-based deterministic
   generator (``sha256-counter``): the k-th uniform is
   ``int(sha256(tag || seed || k)) / 2**256``, and each coordinate delta is
   computed from that integer exactly, in integers.  The entire trajectory
   is a pure function of the seed.  A
   proposal is evaluated one vertex defect at a time and rejected at the
   first vertex whose |Θ_i| reaches the best objective.  Each defect is
   first taken in double precision from the exact Gram integers, and only
   a defect within a proven margin of the best objective is taken in
   Decimal; an accepted proposal takes Decimal defects only at the
   vertices where its maximum can be.  So most proposals cost a few float
   corner angles, and every decision is the one the Decimal defects make.
3. ``newton_refine`` runs Newton's method on the vertex heights at the
   working precision its tolerance needs (``SearchConfig.newton_digits``),
   solving each linear system by LU with partial pivoting, and records the
   defect-norm sequence so quadratic convergence can be checked after the
   fact.  Each new height is rounded exactly to ten digits below the defect
   norm the step predicts, the digits it determined; the stopping test runs
   exactly on the rounded iterate.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import List, MutableMapping, Optional, Sequence, Tuple

from .jacobian import _vertex_defect, dtheta_analytic, surface_with_heights, theta_map
from .klein import Point3, _betas, _gram
from .mesh import EmbeddedSurface, Triangulation
from .precision import CertificationError, _fraction_exponent

__all__ = [
    "RNG_ALGORITHM",
    "SearchConfig",
    "CounterRng",
    "prepare_from_lattice",
    "objective",
    "hill_climb",
    "newton_refine",
]

#: Name of the deterministic generator used by ``hill_climb``, recorded in
#: search outputs alongside the seed.
RNG_ALGORITHM = "sha256-counter"

_TWO_POW_256 = 2**256


class CounterRng:
    """Counter-based deterministic uniform generator.

    Draw ``k`` is ``sha256(b"kleincert-search:<seed>:<k>")`` read as a
    big-endian integer U (:meth:`draw`), the uniform variate U/2**256 in
    [0, 1) scaled to an integer.
    The stream depends only on the seed and the counter, never on platform,
    process, or call history, so searches are bit-reproducible and proposals
    could even be evaluated out of order.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.counter = 0

    def draw(self) -> int:
        """Next integer variate U in [0, 2**256): the draw's digest as an integer."""
        digest = hashlib.sha256(
            b"kleincert-search:%d:%d" % (self.seed, self.counter)
        ).digest()
        self.counter += 1
        return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the hill-climb and Newton stages.

    ``initial_step`` and ``decay_rejections`` define the step-size schedule:
    proposals are uniform in a cube of half-side ``step``, and ``step``
    halves after every ``decay_rejections`` consecutive rejections, never
    dropping below 10**(-climb_precision/2).  ``newton_tol`` is the target
    Euclidean defect norm for Newton and its one accuracy parameter: Newton
    works at :attr:`newton_digits`, which the tolerance sets.
    """

    rng_seed: int = 2026
    initial_step: Fraction = Fraction(1, 10)
    decay_rejections: int = 200
    max_steps: int = 1000
    climb_precision: int = 50
    newton_tol: Fraction = Fraction(1, 10**35)

    def __post_init__(self) -> None:
        object.__setattr__(self, "initial_step", Fraction(self.initial_step))
        object.__setattr__(self, "newton_tol", Fraction(self.newton_tol))
        for name in (
            "rng_seed",
            "initial_step",
            "decay_rejections",
            "max_steps",
            "climb_precision",
            "newton_tol",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def newton_digits(self) -> int:
        """The digits Newton works at: 20 − 2·⌊log10 tol⌋.

        90 at the default tolerance 10^-35, 320 at 10^-150 and 620 at
        10^-300; a tolerance of 1 or more counts as 1 (20 digits).
        :func:`newton_refine` says why the iterates do not depend on it.
        """
        return 20 - 2 * min(_fraction_exponent(self.newton_tol), 0)

    @property
    def step_floor(self) -> Fraction:
        """Smallest step size the decay schedule may reach."""
        return Fraction(1, 10 ** (self.climb_precision // 2))


def prepare_from_lattice(
    triangulation: Triangulation, points: Sequence[Tuple[int, int, int]]
) -> EmbeddedSurface:
    """Rescale an integer-lattice embedding into the model ball.

    Translates so the vertex centroid is exactly the origin, then scales by
    the exact rational that makes the largest coordinate magnitude exactly
    1/2.  The result lies in the cube [-1/2, 1/2]^3 and hence strictly
    inside the unit ball.  Rejects fewer than four points and coincident
    point sets (which admit no such scale).
    """
    pts = [tuple(int(c) for c in p) for p in points]
    if len(pts) < 4:
        raise ValueError(f"need at least 4 points, got {len(pts)}")
    if any(len(p) != 3 for p in pts):
        raise ValueError("points must be integer 3-vectors")
    n = len(pts)
    centroid = tuple(Fraction(sum(p[j] for p in pts), n) for j in range(3))
    centered = [tuple(Fraction(p[j]) - centroid[j] for j in range(3)) for p in pts]
    spread = max(abs(c) for v in centered for c in v)
    if spread == 0:
        raise ValueError("all points coincide; cannot scale to the model ball")
    scale = Fraction(1, 2) / spread
    coords = tuple(
        Point3.of(v[0] * scale, v[1] * scale, v[2] * scale) for v in centered
    )
    return EmbeddedSurface(triangulation, coords)


def objective(surface: EmbeddedSurface, precision: int) -> Decimal:
    """Maximum absolute cone defect, the quantity the hill climb minimises."""
    return theta_map(surface, precision).sup_norm()


def _perturbed(surface: EmbeddedSurface, deltas: Sequence[Fraction]) -> EmbeddedSurface:
    """Apply one perturbation triple per vertex; raises if a vertex escapes the ball."""
    coords = tuple(
        Point3.of(p.x + deltas[3 * i], p.y + deltas[3 * i + 1], p.z + deltas[3 * i + 2])
        for i, p in enumerate(surface.coords)
    )
    return EmbeddedSurface(surface.triangulation, coords)


#: A corner whose float cosine √A_f exceeds this takes the Decimal path:
#: below it, arccos amplifies an error in √A_f by at most 2^10.
_GUARD = 1 - 2.0**-20


def _float_defect(S: EmbeddedSurface, i: int) -> Optional[float]:
    """Θ_f = Σ arccos(σ·√A_f) − 2π at vertex i in doubles, or None past the guard.

    A_f = G_vw²/(G_vv·G_ww) is one int/int true division of the exact Gram
    integers of the corner (:func:`klein._gram` of :func:`klein._betas`):
    correctly rounded, and free of overflow however long the integers; σ
    is the sign of G_vw.  Returns None as soon as a corner has
    √A_f > :data:`_GUARD`.  The corners are those of the link of vertex i
    (``Triangulation.links``).  :func:`hill_climb` proves the error bound
    its margin rests on.
    """
    cycle = S.triangulation.links[i]
    q, lattice = S.denominator, S.lattice
    x = lattice[i]
    thetas = []
    for y, z in zip(cycle, cycle[1:] + cycle[:1]):
        g_vw, g_vv, g_ww = _gram(_betas(q, x, lattice[y], lattice[z]))
        c = math.sqrt(g_vw * g_vw / (g_vv * g_ww))
        if c > _GUARD:
            return None
        thetas.append(math.acos(-c if g_vw < 0 else c))
    return math.fsum(thetas) - math.tau


def hill_climb(
    start: EmbeddedSurface,
    config: SearchConfig,
    steps: Optional[int] = None,
    record: Optional[MutableMapping[str, object]] = None,
    history: Optional[List[Tuple[int, Decimal]]] = None,
) -> EmbeddedSurface:
    """Greedy random search on the maximum absolute cone defect.

    Each step perturbs all ``3n`` coordinates at once, uniformly in the cube
    of half-side ``step`` (quantized toward zero on the decimal grid of
    ``config.climb_precision`` digits, which keeps coordinate denominators
    bounded over arbitrarily long runs), and accepts the proposal only if
    the objective strictly decreases.  Proposals that leave the unit ball,
    or on which the cone angles cannot be evaluated, count as rejections.
    After ``config.decay_rejections`` consecutive rejections the step
    halves (bounded below by ``config.step_floor``) and the rejection
    counter resets; it also resets on every acceptance.  The trajectory is
    a pure function of ``config.rng_seed``; budget exhaustion returns the
    best surface seen.  ``steps`` overrides ``config.max_steps`` (0 returns
    ``start`` untouched); ``record``, if given, is filled with the
    generator name, seed, and summary counters; ``history`` receives an
    ``(iteration, objective)`` pair for every acceptance.

    A proposal's defects are examined one vertex at a time, and it is
    rejected at the first vertex with |Θ_i| ≥ the best objective b, since
    its maximum cannot then be smaller.  Vertices are tried in a kept order:
    ``range(n)`` at first, re-sorted after each acceptance by that
    proposal's |Θ_i| where it was taken and its |Θ_f| (below) elsewhere,
    largest first (a stable sort; a Decimal and a float compare exactly),
    so the vertex most likely to reject comes first.  Θ_i here is the
    Decimal defect ``jacobian._vertex_defect`` at p =
    ``config.climb_precision``, the one :func:`objective` takes.  The order
    changes only the cost, never a decision: any rejecting vertex rejects,
    an accepted proposal passes every vertex, and the float path raises
    only where the Decimal path would.

    Each vertex is first filtered in doubles (Shewchuk's adaptive
    predicates, 1997; Brönnimann, Burnikel and Pion's interval filters,
    2001): :func:`_float_defect` gives Θ_f.  At a vertex of degree d let
    M = (d + 1)·(2⁻⁴⁰ + 2·10^(−8−p)).  The proposal is rejected there if
    |Θ_f| ≥ b + M; the vertex passes if |Θ_f| < b − M; otherwise, or if a
    corner is past the guard, Θ_i is computed and rejects if |Θ_i| ≥ b.
    A proposal that passes every vertex takes the Decimal Θ_j of the
    vertices the filter passed in descending |Θ_f| order, skipping j once
    |Θ_f,j| + M_j ≤ L, the largest |Θ_i| taken so far.  It is accepted
    only if the maximum of the taken |Θ_i|, in vertex order as
    ``DefectVector.sup_norm`` takes it, is < b.  A skipped j has |Θ_j| <
    |Θ_f,j| + M_j ≤ L (below), so it is neither the maximum nor tied with
    it, and that maximum is :func:`objective` of the proposal in value and
    in representation.  Floats never accept, and b ± M and |Θ_f| + M are
    exact Fractions compared exactly with Θ_f and the Decimals.

    Why |Θ_f − Θ_i| < M at a vertex whose corners all pass the guard, so
    that each float decision is the one Θ_i makes.  Let u = 2⁻⁵³, c = √A ≤ 1
    at a corner and Θ the true defect.

    * Float.  A_f = A·(1 + δ), |δ| ≤ u (where A_f is subnormal, its error
      2⁻¹⁰⁷⁵ moves the root by under 2⁻⁵³⁷), and the square root rounds
      once more, so |c_f − c| < 2u.  Between c and c_f, 1 − ξ > 2⁻²⁰ − 2u
      by the guard, so arccos moves by 2u/√(1 − ξ²) ≤ 2u/√(1 − ξ) <
      2⁻⁴²·(1 + 2⁻³⁰) at most; libm's ``acos`` adds an ulp, 2⁻⁵¹ below π.
      Each corner is within 2⁻⁴¹.  ``math.fsum`` rounds the sum, below 4d,
      once (d·2⁻⁵¹); ``math.tau`` is within 2⁻⁵¹ of 2π; the difference,
      below 4d, rounds by d·2⁻⁵¹.  So |Θ_f − Θ| < (d + 1)·2⁻⁴⁰.
    * Decimal.  Θ_i takes d angles at p′ = p + 10 digits, each within
      ``klein.angle``'s 10^(2−p′) = 10^(−8−p) (under the guard, its √A
      midpoint error 10^−(p′+9)/2 moves θ by at most 2^11 times that,
      inside the contract).  The cone angle and its difference with
      ``two_pi`` (within 10^−(p′+4)) each round a number below 4d at p′
      digits, by under 20d·10^−p′ = 0.2d·10^(−8−p); the sum's roundings at
      p′ + 10 digits add under 0.01·10^(−8−p).  So |Θ_i − Θ| <
      (1.4d + 0.01)·10^(−8−p) < 2(d + 1)·10^(−8−p).

    The two add to under M.  Hence |Θ_f| ≥ b + M gives |Θ_i| > b, and
    |Θ_f| < b − M gives |Θ_i| < b; a vertex past the guard, or within M of
    b, is decided by Θ_i itself.  Both paths raise only where
    ``klein._betas`` raises at a corner (Θ_i's square root and arccos take
    A in [0, 1]), and the filter passes a vertex only after taking
    ``_betas`` at each of its corners, so a skipped Θ_j would not have
    raised; a proposal on which a vertex the early exit never reaches
    would raise is rejected either way.
    So every decision, ``record``, ``history``, the order and the result
    are those of evaluating :func:`objective` on every proposal.
    """
    budget = config.max_steps if steps is None else steps
    if budget < 0:
        raise ValueError("steps must be nonnegative")
    rng = CounterRng(config.rng_seed)
    n = len(start.coords)
    precision = config.climb_precision
    best = start
    best_objective = objective(start, precision)
    step = config.initial_step
    floor = config.step_floor
    grid = 10**precision
    rejections = 0
    accepts = 0
    order = list(range(n))
    # the filter's margin M = (d + 1)·(2⁻⁴⁰ + 2·10^(−8−p)) at each vertex
    unit = Fraction(1, 2**40) + Fraction(2, 10 ** (8 + precision))
    margins = [(len(cycle) + 1) * unit for cycle in start.triangulation.links]
    below = [Fraction(best_objective) - m for m in margins]
    above = [Fraction(best_objective) + m for m in margins]
    for iteration in range(budget):
        # int((U/2²⁵⁶·2 − 1)·step·grid) = (2U − 2²⁵⁶)·scale/den, truncated
        # toward zero in integers
        scale, den = step.numerator * grid, step.denominator * _TWO_POW_256
        deltas = []
        for _ in range(3 * n):
            t = (2 * rng.draw() - _TWO_POW_256) * scale
            deltas.append(Fraction(t // den if t >= 0 else -(-t // den), grid))
        accepted = False
        try:
            proposal = _perturbed(best, deltas)
            # |Θ_i| in Decimal where taken, else the |Θ_f| the filter passed
            defects, floats = [None] * n, [None] * n
            for i in order:
                theta = _float_defect(proposal, i)
                if theta is not None:
                    if abs(theta) >= above[i]:
                        break
                    if abs(theta) < below[i]:
                        floats[i] = abs(theta)
                        continue
                defects[i] = _vertex_defect(proposal, i, precision).copy_abs()
                if defects[i] >= best_objective:
                    break
            else:
                top = max((d for d in defects if d is not None), default=Decimal(0))
                passed = [i for i in range(n) if defects[i] is None]
                for i in sorted(passed, key=floats.__getitem__, reverse=True):
                    # else |Θ_i| < |Θ_f| + M ≤ top: neither the maximum nor tied with it
                    if Fraction(floats[i]) + margins[i] > top:
                        defects[i] = _vertex_defect(proposal, i, precision).copy_abs()
                        top = max(top, defects[i])
                # max over the taken defects in vertex order is objective(proposal)
                value = max(d for d in defects if d is not None)
                accepted = value < best_objective
        except (CertificationError, ValueError, ZeroDivisionError):
            pass  # escaped the ball or degenerate geometry: a rejection
        if accepted:
            best, best_objective = proposal, value
            below = [Fraction(best_objective) - m for m in margins]
            above = [Fraction(best_objective) + m for m in margins]
            order.sort(
                key=lambda i: floats[i] if defects[i] is None else defects[i], reverse=True
            )
            accepts += 1
            rejections = 0
            if history is not None:
                history.append((iteration, best_objective))
        else:
            rejections += 1
            if rejections >= config.decay_rejections:
                step = max(step / 2, floor)
                rejections = 0
    if record is not None:
        record["algorithm"] = RNG_ALGORITHM
        record["seed"] = config.rng_seed
        record["steps"] = budget
        record["accepts"] = accepts
        record["final_step"] = step
        record["final_objective"] = best_objective
    return best


def _lu_solve(
    matrix: Sequence[Sequence[Decimal]], rhs: Sequence[Decimal], precision: int
) -> List[Decimal]:
    """Solve a square system by LU with partial pivoting at the given digits."""
    n = len(matrix)
    with localcontext(Context(prec=precision)):
        a = [[+x for x in row] for row in matrix]
        b = [+x for x in rhs]
        for col in range(n):
            pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
            if a[pivot][col] == 0:
                raise CertificationError("singular Jacobian: LU pivot vanished")
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                b[col], b[pivot] = b[pivot], b[col]
            for r in range(col + 1, n):
                factor = a[r][col] / a[col][col]
                if factor == 0:
                    continue
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
                b[r] -= factor * b[col]
        x = [Decimal(0)] * n
        for r in reversed(range(n)):
            acc = b[r]
            for c in range(r + 1, n):
                acc -= a[r][c] * x[c]
            x[r] = acc / a[r][r]
    return x


def newton_refine(
    surface: EmbeddedSurface,
    config: SearchConfig,
    trace: Optional[List[Fraction]] = None,
) -> EmbeddedSurface:
    """Newton's method on the vertex heights at the digits its tolerance needs.

    Iterates ``z <- z - J(z)^{-1} Theta(z)`` on the z-coordinates only
    (x and y stay exactly fixed), with the Jacobian evaluated analytically
    and each linear system solved by LU with partial pivoting.  Every
    ``theta_map``, ``dtheta_analytic`` and LU solve runs at
    P = ``config.newton_digits`` digits, the one accuracy parameter of
    each.  A step from an iterate whose
    squared defect norm is 10^e (e = ⌊log10⌋, exact) predicts a next
    defect norm near 10^e and determines no more digits than that, so each
    new height is rounded half-even to a multiple of 10^(e − 10); unrounded,
    every height would carry the working precision's noise digits, and
    every later kernel call would multiply integers of that length.  Stops
    once the Euclidean defect norm of the rounded iterate is at most
    ``config.newton_tol`` (compared exactly via squared norms), so the
    rounding can slow convergence but never returns a surface that misses
    the tolerance; or after ``config.max_steps`` iterations.  ``trace``, if
    given, receives the squared defect norm after every evaluation, so
    convergence order can be audited.  Raises if an LU pivot vanishes (a
    singular Jacobian), or if the defect norm increases on two consecutive
    iterations.

    Why the iterates are those Newton takes at any more digits: a step is
    taken only from an iterate whose squared norm is above tol², so its
    exponent e is at least 2⌊log10 tol⌋ and its rounding grid 10^(e − 10)
    at least 10^(2⌊log10 tol⌋ − 10).  At P = 20 − 2⌊log10 tol⌋ digits Θ
    is good to about 10^-(P + 8) and J has P significant digits; together
    they move δ by roughly 10^(2⌊log10 tol⌋ − 18), about 10^-8 of the grid,
    so each height rounds to the same grid point unless it lies that close
    to a half-way point.  The stopping and divergence tests see Θ to far
    below tol, since P ≥ 20 − ⌊log10 tol⌋.
    """
    precision = config.newton_digits
    tol_sq = config.newton_tol**2
    defect = theta_map(surface, precision)
    norm_sq = defect.norm_sq()
    if trace is not None:
        trace.append(norm_sq)
    if norm_sq <= tol_sq:
        return surface

    previous = norm_sq
    increases = 0
    current = surface
    for _ in range(config.max_steps):
        jacobian = dtheta_analytic(current, precision=precision)
        rows = jacobian.entries
        delta = _lu_solve(rows, list(defect.theta), precision)
        grid = Fraction(10) ** (_fraction_exponent(norm_sq) - 10)
        heights = tuple(
            round((p.z - Fraction(d)) / grid) * grid for p, d in zip(current.coords, delta)
        )
        current = surface_with_heights(current, heights)
        defect = theta_map(current, precision)
        norm_sq = defect.norm_sq()
        if trace is not None:
            trace.append(norm_sq)
        if norm_sq <= tol_sq:
            return current
        if norm_sq >= previous:
            increases += 1
            if increases >= 2:
                raise CertificationError(
                    "Newton diverged: defect norm increased on two consecutive steps"
                )
        else:
            increases = 0
        previous = norm_sq
    return current
