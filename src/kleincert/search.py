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
   first vertex whose |Θ_i| reaches the best objective, so most proposals
   cost a few cone angles instead of n.
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
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import List, MutableMapping, Optional, Sequence, Tuple

from .jacobian import _vertex_defect, dtheta_analytic, surface_with_heights, theta_map
from .klein import Point3
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


def objective(surface: EmbeddedSurface, precision: int = 50) -> Decimal:
    """Maximum absolute cone defect, the quantity the hill climb minimises."""
    return theta_map(surface, precision).sup_norm()


def _perturbed(surface: EmbeddedSurface, deltas: Sequence[Fraction]) -> EmbeddedSurface:
    """Apply one perturbation triple per vertex; raises if a vertex escapes the ball."""
    coords = tuple(
        Point3.of(p.x + deltas[3 * i], p.y + deltas[3 * i + 1], p.z + deltas[3 * i + 2])
        for i, p in enumerate(surface.coords)
    )
    return EmbeddedSurface(surface.triangulation, coords)


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

    A proposal's defects |Θ_i| are computed one vertex at a time, and it is
    rejected at the first vertex with |Θ_i| ≥ the best objective, since its
    maximum cannot then be smaller.  Vertices are tried in a kept order:
    ``range(n)`` at first, re-sorted after each acceptance by that
    proposal's |Θ_i|, largest first (a stable sort), so the vertex most
    likely to reject comes first.  An accepted proposal has had every defect
    computed, and its objective is their maximum.  The comparisons are exact
    Decimal comparisons, and a proposal on which a vertex the early exit
    never reaches would raise is rejected either way, so every decision,
    ``record``, ``history`` and the result are those of evaluating
    :func:`objective` on every proposal.
    """
    budget = config.max_steps if steps is None else steps
    if budget < 0:
        raise ValueError("steps must be nonnegative")
    rng = CounterRng(config.rng_seed)
    n_coords = 3 * len(start.coords)
    best = start
    best_objective = objective(start, config.climb_precision)
    step = config.initial_step
    floor = config.step_floor
    grid = 10**config.climb_precision
    rejections = 0
    accepts = 0
    order = list(range(len(start.coords)))
    for iteration in range(budget):
        # int((U/2²⁵⁶·2 − 1)·step·grid) = (2U − 2²⁵⁶)·scale/den, truncated
        # toward zero in integers
        scale, den = step.numerator * grid, step.denominator * _TWO_POW_256
        deltas = []
        for _ in range(n_coords):
            t = (2 * rng.draw() - _TWO_POW_256) * scale
            deltas.append(Fraction(t // den if t >= 0 else -(-t // den), grid))
        accepted = False
        try:
            proposal = _perturbed(best, deltas)
            defects = [None] * len(order)
            for i in order:
                defects[i] = _vertex_defect(proposal, i, config.climb_precision).copy_abs()
                if defects[i] >= best_objective:
                    break
            else:
                accepted = True
        except (CertificationError, ValueError, ZeroDivisionError):
            pass  # escaped the ball or degenerate geometry: a rejection
        if accepted:
            # max over the defects in vertex order is objective(proposal)
            best, best_objective = proposal, max(defects)
            order.sort(key=defects.__getitem__, reverse=True)
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
