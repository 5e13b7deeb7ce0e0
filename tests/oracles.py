"""Independent oracles used to derive frozen expected values in the tests.

Everything in this module is written against first principles only — exact
:class:`fractions.Fraction` arithmetic and explicitly bounded Taylor
remainders — and deliberately imports nothing from the package under test.
Tests freeze values computed by these oracles; the oracles stay here so the
frozen constants can be re-derived.

Conventions: every oracle returns an exact rational *enclosure* ``(lo, hi)``
with lo ≤ true value ≤ hi, never a point estimate — except the reference
bodies of replaced kernels (:func:`exp_partial_sum`, :func:`corner_partials`,
:func:`arccos_maclaurin`, :func:`sqrt_bounds_stepped`, :func:`ln_bounds_reference`,
:func:`rho_two_isqrt`,
:func:`witness_scan_reference`, :func:`admitted_reference`,
:func:`decimal_quotient_reference`,
:func:`dtheta_enclosure_reference`, :func:`hill_climb_reference`,
:func:`newton_refine_reference`, :func:`rays_reference`,
:func:`gram_reference`, :func:`distance_reference`,
:func:`gram_root_bracket_bisection`), which return the value the old code
returned.
"""

from __future__ import annotations

import hashlib
import math
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal, localcontext
from fractions import Fraction
from itertools import combinations
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

Enclosure = Tuple[Fraction, Fraction]
Vec3 = Tuple[Fraction, Fraction, Fraction]


def _sub(p: Vec3, r: Vec3) -> Vec3:
    return (p[0] - r[0], p[1] - r[1], p[2] - r[2])


def _dot(p: Vec3, r: Vec3) -> Fraction:
    return p[0] * r[0] + p[1] * r[1] + p[2] * r[2]


def exp_partial_sum(x: Fraction, n: int) -> Fraction:
    """Exact S_n(x) = sum_{k<=n} x^k/k!."""
    term = Fraction(1)
    total = Fraction(1)
    for k in range(1, n + 1):
        term *= x / k
        total += term
    return total


def corner_partials(X: Vec3, Y: Vec3, Z: Vec3, i: int = 0, j: int = 1, k: int = 2):
    """({l: N_l}, D, v2w2) for the angle at X of the corner (X, Y, Z).

    The height partial of the angle in vertex l is N_l / √D, with
    D = v²w² − u² for u = ⟨V,W⟩_X, v² = ⟨V,V⟩_X, w² = ⟨W,W⟩_X.  Rational
    expansion of the metric in the heights, summed term by term.
    """
    V = _sub(Y, X)
    W = _sub(Z, X)
    zi, zj, zk = X[2], Y[2], Z[2]
    a = 1 - _dot(X, X)
    t1 = _dot(X, V)
    t2 = _dot(X, W)
    t3 = _dot(V, W)
    t4 = _dot(V, V)
    t5 = _dot(W, W)

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


def decimal_quotient_reference(num: int, den: int, precision: int, rounding: str) -> Decimal:
    """num/den rounded to ``precision`` digits in ``rounding``, from the whole
    operands: the body ``decimal_from_fraction`` replaced."""
    with localcontext(Context(prec=precision, rounding=rounding)):
        return Decimal(num) / Decimal(den)


def dtheta_enclosure_reference(
    n: int,
    corners: Sequence[Tuple[int, Mapping[int, Fraction], Tuple[Decimal, Decimal]]],
    precision: int,
) -> list:
    """n×n rows of (lo, hi) Decimal pairs around Σ N/√D, from the body
    ``dtheta_enclosure`` replaced: each rational N is converted whole, its
    numerator and denominator to Decimals, and divided in ``ROUND_FLOOR``
    and ``ROUND_CEILING``.

    ``corners`` holds, for every corner, its vertex i, the partial
    numerators {l: N_l} and the enclosure (lo, hi) of its √D.
    """
    down = Context(prec=precision, rounding=ROUND_FLOOR)
    up = Context(prec=precision, rounding=ROUND_CEILING)
    lo = [[Decimal(0)] * n for _ in range(n)]
    hi = [[Decimal(0)] * n for _ in range(n)]
    for i, numerators, (root_lo, root_hi) in corners:
        for l, numer in numerators.items():
            p, q = Decimal(numer.numerator), Decimal(numer.denominator)
            n_lo, n_hi = down.divide(p, q), up.divide(p, q)
            term_lo = down.divide(n_lo, root_hi if n_lo >= 0 else root_lo)
            term_hi = up.divide(n_hi, root_lo if n_hi >= 0 else root_hi)
            lo[i][l] = down.add(lo[i][l], term_lo)
            hi[i][l] = up.add(hi[i][l], term_hi)
    return [list(zip(*rows)) for rows in zip(lo, hi)]


def exp_enclosure(x: Fraction, n: int = 200) -> Enclosure:
    """Enclosure of e^x from S_n(x) with remainder a^(n+1)·3^a/(n+1)!, a = ceil|x|."""
    a = max(1, math.ceil(abs(x)))
    s = exp_partial_sum(x, n)
    r = Fraction(a ** (n + 1) * 3**a, math.factorial(n + 1))
    return s - r, s + r


def ln_enclosure(x: Fraction, width: Fraction) -> Enclosure:
    """Enclosure of ln x by bisection; trial points classified via exp_enclosure."""
    if x <= 0:
        raise ValueError("ln oracle needs x > 0")

    def exp_above(t: Fraction) -> bool:
        lo, hi = exp_enclosure(t)
        if lo >= x:
            return True
        if hi <= x:
            return False
        raise ValueError(f"oracle cannot classify e^{t} against {x}")

    lo, hi = Fraction(-2), Fraction(2)
    while exp_above(lo):
        lo -= 1
    while not exp_above(hi):
        hi += 1
    while hi - lo > width:
        mid = (lo + hi) / 2
        if exp_above(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def sqrt_enclosure(x: Fraction, width: Fraction) -> Enclosure:
    """Enclosure of √x by bisection with exact rational square comparison."""
    if x < 0:
        raise ValueError("sqrt oracle needs x >= 0")
    if x == 0:
        return Fraction(0), Fraction(0)
    lo, hi = Fraction(0), max(Fraction(1), x)
    while hi - lo > width:
        mid = (lo + hi) / 2
        if mid * mid <= x:
            lo = mid
        else:
            hi = mid
    return lo, hi


def fraction_exponent(x: Fraction) -> int:
    """floor(log10 x) for a positive rational, by stepping powers of ten."""
    e = 0
    while Fraction(10) ** e > x:
        e -= 1
    while Fraction(10) ** (e + 1) <= x:
        e += 1
    return e


def sqrt_bounds_stepped(
    x: Fraction, target_width: Fraction | None, precision: int
) -> Tuple[Decimal, Decimal]:
    """(lo, hi) of √x, x > 0, from the package's replaced ``sqrt_bounds`` body.

    The correctly rounded Decimal square root of the rounded x is stepped
    outward by ulps until lo² ≤ x ≤ hi² holds exactly; an exact square
    collapses to a point.  If the result is wider than ``target_width``,
    the precision is raised and the whole computation repeated.
    """
    p = precision
    for _ in range(64):
        ctx = Context(prec=p)
        with localcontext(ctx):
            hint = (Decimal(x.numerator) / Decimal(x.denominator)).sqrt()
        lo = hi = hint
        lo2 = hi2 = Fraction(hint) ** 2
        while lo2 > x:
            lo = ctx.next_minus(lo)
            lo2 = Fraction(lo) ** 2
        while hi2 < x:
            hi = ctx.next_plus(hi)
            hi2 = Fraction(hi) ** 2
        if lo2 == x:
            return lo, lo
        if hi2 == x:
            return hi, hi
        width = Fraction(hi) - Fraction(lo)
        if target_width is None or width <= target_width:
            return lo, hi
        p += max(16, fraction_exponent(width) - fraction_exponent(target_width) + 4)
    raise ArithmeticError(f"sqrt enclosure for {x} did not reach width {target_width}")


def ln_bounds_reference(
    x: Fraction, target_width: Fraction, precision: int
) -> Tuple[Decimal, Decimal]:
    """(lo, hi) of ln x, x > 0, from the package's replaced ``ln_bounds`` body.

    It refused a width below 10^(10 − precision).  The endpoints h ∓ w/3,
    h the library logarithm, were rounded outward at D = max(0, −⌊log10 w⌋)
    + 10 digits, and each was certified by e^t ≶ x with the enclosure
    S_n(t) ± a^(n+1)·3^a/(n+1)!, a = max(1, ⌈|t|⌉) and n the least order
    whose remainder is at most x·min(w, 1)/12, rounded outward at
    ``precision`` digits.  Raises ArithmeticError if that check fails.
    """
    w = target_width
    if w < Fraction(10) ** (10 - precision):
        raise ValueError(f"target width {w} is below what precision {precision} can resolve")
    digits = max(0, -fraction_exponent(w)) + 10
    with localcontext(Context(prec=digits)):
        hint = Fraction((Decimal(x.numerator) / Decimal(x.denominator)).ln())
    lo, hi = (
        decimal_quotient_reference(end.numerator, end.denominator, digits, rounding)
        for end, rounding in ((hint - w / 3, ROUND_FLOOR), (hint + w / 3, ROUND_CEILING))
    )
    tolerance = x * min(w, 1) / 12

    def rounded(value: Fraction, rounding: str) -> Fraction:
        return Fraction(
            decimal_quotient_reference(value.numerator, value.denominator, precision, rounding)
        )

    def exp_vs_x(t: Decimal) -> int:  # -1 if e^t < x, +1 if e^t > x
        tf = Fraction(t)
        if tf == 0:
            return (x < 1) - (x > 1)
        a = max(1, math.ceil(abs(tf)))
        n = 0
        while (remainder := Fraction(a ** (n + 1) * 3**a, math.factorial(n + 1))) > tolerance:
            n += 1
        total = exp_partial_sum(tf, n)
        if rounded(total + remainder, ROUND_CEILING) <= x:
            return -1
        if rounded(total - remainder, ROUND_FLOOR) >= x:
            return 1
        raise ArithmeticError(f"exp enclosure at t = {t} cannot separate e^t from {x}")

    if exp_vs_x(lo) > 0 or exp_vs_x(hi) < 0:
        raise ArithmeticError(f"candidate enclosure [{lo}, {hi}] of ln {x} failed verification")
    return lo, hi


def cos_enclosure(t: Fraction, n: int = 40) -> Enclosure:
    """Enclosure of cos t from the exact degree-2n partial sum.

    Remainder: the tail past k = n is dominated by twice the first omitted
    term whenever t² ≤ (2n+3)(2n+4)/2, which holds for every |t| ≤ 4 and
    n ≥ 2 used here.
    """
    if t * t > Fraction((2 * n + 3) * (2 * n + 4), 2):
        raise ValueError("cos oracle remainder bound needs a larger order n")
    total = Fraction(0)
    for k in range(n + 1):
        total += Fraction((-1) ** k) * t ** (2 * k) / math.factorial(2 * k)
    r = 2 * abs(t) ** (2 * n + 2) / math.factorial(2 * n + 2)
    return total - r, total + r


def arccos_enclosure(x: Fraction, width: Fraction) -> Enclosure:
    """Enclosure of arccos x on (-1, 1) by bisecting the certified cosine."""
    if not -1 < x < 1:
        raise ValueError("arccos oracle handles the open interval (-1, 1)")

    def cos_above(t: Fraction) -> bool:
        lo, hi = cos_enclosure(t)
        if lo >= x:
            return True
        if hi <= x:
            return False
        raise ValueError(f"oracle cannot classify cos {t} against {x}")

    lo, hi = Fraction(0), Fraction(4)  # arccos maps (-1,1) into (0, π) ⊂ (0, 4)
    while hi - lo > width:
        mid = (lo + hi) / 2
        if cos_above(mid):  # cos is decreasing on [0, π]: cos(mid) > x ⟹ arccos x > mid
            lo = mid
        else:
            hi = mid
    return lo, hi


def _machin_pi(precision: int) -> Decimal:
    """π by Machin's formula at scale 10^(precision+15), rounded to precision + 9 digits."""
    scale = 10 ** (precision + 15)

    def arctan_inv(m: int) -> int:
        total, k = 0, 0
        while True:
            term = scale // ((2 * k + 1) * m ** (2 * k + 1))
            if term == 0:
                return total
            total += term if k % 2 == 0 else -term
            k += 1

    with localcontext(Context(prec=precision + 9)):
        return Decimal(16 * arctan_inv(5) - 4 * arctan_inv(239)) / Decimal(scale)


def _arcsin_maclaurin(y: Decimal, work: int) -> Decimal:
    """arcsin y on |y| ≤ 1/2: terms t_{k+1} = t_k·y²·(2k+1)²/((2k+2)(2k+3))."""
    with localcontext(Context(prec=work)):
        if y == 0:
            return Decimal(0)
        eps = Decimal(10) ** (-(work - 2))
        y2 = y * y
        term = total = y
        k = 0
        while abs(term) > eps:
            term = term * y2 * ((2 * k + 1) * (2 * k + 1)) / ((2 * k + 2) * (2 * k + 3))
            total += term
            k += 1
        return total


def arccos_maclaurin(x: Decimal, precision: int) -> Decimal:
    """arccos x = π/2 − arcsin x at precision + 10 digits, rounded to precision.

    The Decimal evaluator that the package's fixed-point ``arccos_hp``
    replaced: arcsin by its Maclaurin series on |x| ≤ 1/2 and by
    arcsin x = π/2 − 2·arcsin(√((1 − x)/2)) otherwise.
    """
    work = precision + 10
    with localcontext(Context(prec=work)):
        if abs(x) <= Decimal("0.5"):
            arcsin = _arcsin_maclaurin(x, work)
        else:
            arcsin = _machin_pi(work) / 2 - 2 * _arcsin_maclaurin(((1 - abs(x)) / 2).sqrt(), work)
            arcsin = arcsin if x > 0 else -arcsin
        value = _machin_pi(work) / 2 - arcsin
    with localcontext(Context(prec=precision)):
        return +value


def artanh_enclosure(r: Fraction, n: int = 200) -> Enclosure:
    """Enclosure of artanh r for |r| < 1 from the odd-power series.

    artanh r = Σ_{k≥0} r^(2k+1)/(2k+1); the tail past k = n is bounded by
    |r|^(2n+3) / ((2n+3)(1 − r²)).
    """
    if not -1 < r < 1:
        raise ValueError("artanh oracle needs |r| < 1")
    total = Fraction(0)
    for k in range(n + 1):
        total += r ** (2 * k + 1) / (2 * k + 1)
    tail = abs(r) ** (2 * n + 3) / ((2 * n + 3) * (1 - r * r))
    return total - tail, total + tail


def cosh_enclosure(t: Fraction, n: int = 60) -> Enclosure:
    """Enclosure of cosh t from exp_enclosure at ±t."""
    p_lo, p_hi = exp_enclosure(t, n)
    m_lo, m_hi = exp_enclosure(-t, n)
    return (p_lo + m_lo) / 2, (p_hi + m_hi) / 2


def sinh_enclosure(t: Fraction, n: int = 60) -> Enclosure:
    """Enclosure of sinh t from exp_enclosure at ±t."""
    p_lo, p_hi = exp_enclosure(t, n)
    m_lo, m_hi = exp_enclosure(-t, n)
    return (p_lo - m_hi) / 2, (p_hi - m_lo) / 2


def interval_mul(a: Enclosure, b: Enclosure) -> Enclosure:
    products = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]]
    return min(products), max(products)


def interval_sub(a: Enclosure, b: Enclosure) -> Enclosure:
    return a[0] - b[1], a[1] - b[0]


def interval_div(a: Enclosure, b: Enclosure) -> Enclosure:
    if b[0] <= 0 <= b[1]:
        raise ZeroDivisionError("oracle interval division by an interval containing zero")
    quotients = [a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1]]
    return min(quotients), max(quotients)


def law_of_cosines_cos(side_a: Enclosure, side_b: Enclosure, side_c: Enclosure) -> Enclosure:
    """Enclosure of cos(angle opposite side c) in a hyperbolic triangle.

    cos ψ = (cosh a · cosh b − cosh c) / (sinh a · sinh b), evaluated in
    rational interval arithmetic from enclosures of the side lengths.
    """
    cosh_a = _monotone_hull(cosh_enclosure, side_a)
    cosh_b = _monotone_hull(cosh_enclosure, side_b)
    cosh_c = _monotone_hull(cosh_enclosure, side_c)
    sinh_a = _monotone_hull(sinh_enclosure, side_a)
    sinh_b = _monotone_hull(sinh_enclosure, side_b)
    num = interval_sub(interval_mul(cosh_a, cosh_b), cosh_c)
    den = interval_mul(sinh_a, sinh_b)
    return interval_div(num, den)


def _monotone_hull(f, interval: Enclosure) -> Enclosure:
    """Hull of f over an interval for f monotone increasing on positives."""
    lo_enc = f(interval[0])
    hi_enc = f(interval[1])
    return min(lo_enc[0], hi_enc[0]), max(lo_enc[1], hi_enc[1])


def dec_floor(value: Fraction, digits: int) -> str:
    """Decimal string of value rounded toward −∞ at `digits` fractional digits."""
    scale = 10**digits
    n = math.floor(value * scale)
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // scale}.{n % scale:0{digits}d}"


def dec_ceil(value: Fraction, digits: int) -> str:
    """Decimal string of value rounded toward +∞ at `digits` fractional digits."""
    scale = 10**digits
    n = math.ceil(value * scale)
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // scale}.{n % scale:0{digits}d}"


# ---------------------------------------------------------------------------
# The separating-normal scan with vertex dots per candidate normal
# ---------------------------------------------------------------------------


def rho_two_isqrt(n: int, cap: int) -> Tuple[int, int, int]:
    """ρ(n) by two isqrt per coordinate: ⌊2·cap·n√k⌋ − 2·cap·⌊n√k⌋ − cap."""
    return tuple(
        math.isqrt(4 * cap * cap * n * n * k) - 2 * cap * math.isqrt(n * n * k) - cap
        for k in (2, 3, 5)
    )


def admitted_reference(
    pairs: Sequence[Tuple[int, int]],
    charts: Mapping[Tuple[int, int], Tuple[int, float, float, float, float]],
    normal: Tuple[int, int, int],
) -> list:
    """The pairs whose chart (m, lo_i, hi_i, lo_j, hi_j) holds the ratios of
    ``normal``, in the order of ``pairs``, each chart looked at on its own.

    A ratio over N_m = 0 is taken as inf: it lies in no chart's box, whose
    ends are finite, and in the box (-inf, inf, -inf, inf) of a pair without
    a chart.
    """
    x, y, z = normal
    ratios = (
        (y / x, z / x) if x else (math.inf, math.inf),
        (x / y, z / y) if y else (math.inf, math.inf),
        (x / z, y / z) if z else (math.inf, math.inf),
    )
    admitted = []
    for pair in pairs:
        m, lo_i, hi_i, lo_j, hi_j = charts[pair]
        ratio_i, ratio_j = ratios[m]
        if lo_i <= ratio_i <= hi_i and lo_j <= ratio_j <= hi_j:
            admitted.append(pair)
    return admitted


def witness_scan_reference(
    coords: Sequence[Tuple[int, int, int]],
    faces: Sequence[Tuple[int, int, int]],
    threshold: int,
    cap: int,
    manual: Mapping[Tuple[int, int], Tuple[int, int, int]],
    skip: frozenset,
    disjoint_limit: int = 2000,
    shared_limit: int = 10**5,
) -> Tuple[Dict[Tuple[int, int], tuple], list]:
    """({pair: (kind, source, n, sign, normal, margins)}, [(pending pair, kind)]).

    The witness search on integer vertices ``coords``: every candidate normal
    forms all vertex dots and their negations, and each pair's margins are
    min⟨above,N⟩ − max⟨below,N⟩ over them, +N before −N.  Pairs are face-index
    pairs (i, j), i < j, sharing at most one vertex; ``manual`` holds the
    normals tried first and ``skip`` the pairs left out of the scan.
    """
    kinds, tests = {}, {}
    for i, j in combinations(range(len(faces)), 2):
        f1, f2 = faces[i], faces[j]
        common = set(f1) & set(f2)
        if not common:
            kinds[(i, j)], tests[(i, j)] = "disjoint", ((f1, f2),)
        elif len(common) == 1:
            (u,) = common
            v = tuple(x for x in f1 if x != u)
            w = tuple(x for x in f2 if x != u)
            kinds[(i, j)], tests[(i, j)] = "shared_vertex", ((v, (u,)), ((u,), w))
    witnesses: Dict[Tuple[int, int], tuple] = {}

    def margins_of(pair, dots) -> Optional[tuple]:
        out = ()
        for above, below in tests[pair]:
            m = min(dots[a] for a in above) - max(dots[b] for b in below)
            if m <= threshold:
                return None
            out += (m,)
        return out

    def separate(pairs, base, source, n) -> None:
        plus = [x * base[0] + y * base[1] + z * base[2] for x, y, z in coords]
        signed = ((1, plus), (-1, [-d for d in plus]))
        for pair in pairs:
            for sign, dots in signed:
                margins = margins_of(pair, dots)
                if margins is not None:
                    normal = tuple(sign * c for c in base)
                    witnesses[pair] = (kinds[pair], source, n, sign, normal, margins)
                    break

    for pair in sorted(kinds):
        if pair in manual:
            separate([pair], manual[pair], "manual", None)
    scan = [p for p in sorted(kinds) if p not in witnesses and p not in skip]
    for n in range(1, shared_limit):
        if n == disjoint_limit:
            scan = [p for p in scan if kinds[p] != "disjoint"]
        if not scan:
            break
        base = rho_two_isqrt(n, cap)
        if max(abs(c) for c in base) >= cap:
            continue
        separate(scan, base, "rho", n)
        scan = [p for p in scan if p not in witnesses]
    return witnesses, [(p, kinds[p]) for p in sorted(kinds) if p not in witnesses]


# ---------------------------------------------------------------------------
# The hill climb with every proposal evaluated in full
# ---------------------------------------------------------------------------


def hill_climb_reference(
    start,
    config,
    objective: Callable,
    perturbed: Callable,
    rejected: Tuple[type, ...],
    steps: Optional[int] = None,
    record: Optional[dict] = None,
    history: Optional[list] = None,
):
    """The body ``hill_climb`` replaced: ``objective(proposal, precision)``,
    every cone defect, on every proposal, and accept when it is smaller.

    ``perturbed(surface, deltas)`` builds a proposal, and a proposal on which
    it or ``objective`` raises one of ``rejected`` is a rejection.  The k-th
    uniform is ``sha256(b"kleincert-search:<seed>:<k>")`` over 2**256.
    """
    budget = config.max_steps if steps is None else steps
    if budget < 0:
        raise ValueError("steps must be nonnegative")
    counter = 0

    def uniform() -> Fraction:
        nonlocal counter
        digest = hashlib.sha256(b"kleincert-search:%d:%d" % (config.rng_seed, counter)).digest()
        counter += 1
        return Fraction(int.from_bytes(digest, "big"), 2**256)

    n_coords = 3 * len(start.coords)
    best = start
    best_objective = objective(start, config.climb_precision)
    step = config.initial_step
    floor = config.step_floor
    grid = 10**config.climb_precision
    rejections = 0
    accepts = 0
    for iteration in range(budget):
        deltas = [
            Fraction(int((uniform() * 2 - 1) * step * grid), grid)
            for _ in range(n_coords)
        ]
        try:
            proposal = perturbed(best, deltas)
            value = objective(proposal, config.climb_precision)
        except rejected:
            value = None
        accepted = value is not None and value < best_objective
        if accepted:
            best, best_objective = proposal, value
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
        record["algorithm"] = "sha256-counter"
        record["seed"] = config.rng_seed
        record["steps"] = budget
        record["accepts"] = accepts
        record["final_step"] = step
        record["final_objective"] = best_objective
    return best


# ---------------------------------------------------------------------------
# Newton on the heights with every evaluation at one given precision
# ---------------------------------------------------------------------------


def newton_refine_reference(
    surface,
    config,
    precision: int,
    theta_map: Callable,
    dtheta_analytic: Callable,
    lu_solve: Callable,
    with_heights: Callable,
    error: type,
    trace: Optional[list] = None,
):
    """The body ``newton_refine`` replaced: ``theta_map``, ``dtheta_analytic``
    and ``lu_solve`` all at ``precision`` digits.

    Each new height is rounded half-even to a multiple of 10^(e − 10), e the
    exponent of the squared norm the step started from; ``with_heights``
    builds the iterate, and ``error`` is raised on two consecutive increases.
    """
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
        rows = dtheta_analytic(current, precision=precision).entries
        delta = lu_solve(rows, list(defect.theta), precision)
        grid = Fraction(10) ** (fraction_exponent(norm_sq) - 10)
        heights = tuple(
            round((p.z - Fraction(d)) / grid) * grid for p, d in zip(current.coords, delta)
        )
        current = with_heights(current, heights)
        defect = theta_map(current, precision)
        norm_sq = defect.norm_sq()
        if trace is not None:
            trace.append(norm_sq)
        if norm_sq <= tol_sq:
            return current
        if norm_sq >= previous:
            increases += 1
            if increases >= 2:
                raise error("Newton diverged: defect norm increased on two consecutive steps")
        else:
            increases = 0
        previous = norm_sq
    return current


def rays_reference(D: Sequence[Tuple[int, int, int]]) -> list:
    """The body ``certify_embed._rays`` replaced: each nonzero d_a × d_b, a < b,
    dotted with every d, kept when no dot is negative, and its negation when
    no dot is positive."""
    rays = []
    for a, b in combinations(D, 2):
        r = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
        if any(r):
            dots = [d[0] * r[0] + d[1] * r[1] + d[2] * r[2] for d in D]
            if min(dots) >= 0:
                rays.append(r)
            if max(dots) <= 0:
                rays.append((-r[0], -r[1], -r[2]))
    return rays


def _ball_factor(q: int, x: Vec3) -> int:
    """a′ = q² − |x|², raising for a point x/q outside the open unit ball."""
    a = q * q - _dot(x, x)
    if a <= 0:
        apex = tuple(Fraction(c, q) for c in x)
        raise ValueError(f"point {apex} lies outside the open unit ball")
    return a


def gram_reference(q: int, x: Vec3, y: Vec3, z: Vec3) -> Tuple[int, int, int]:
    """(G_vw, G_vv, G_ww) of the lattice corner at x, from the body
    ``klein._gram`` replaced: with the rays v = y − x, w = z − x and
    a′ = q² − |x|², G_vw = a′·(v·w) + (x·v)·(x·w), and likewise G_vv, G_ww.
    Raises for a zero ray, then for an apex x/q outside the ball."""
    v, w = _sub(y, x), _sub(z, x)
    if not any(v) or not any(w):
        raise ValueError("angle is undefined when Y = X or Z = X")
    a = _ball_factor(q, x)
    xv, xw = _dot(x, v), _dot(x, w)
    return a * _dot(v, w) + xv * xw, a * _dot(v, v) + xv * xv, a * _dot(w, w) + xw * xw


def distance_reference(
    q: int,
    x: Vec3,
    y: Vec3,
    target_width: Fraction,
    sqrt_bounds: Callable,
    ln_bounds: Callable,
    from_fraction_pair: Callable,
):
    """The Bound of the body ``klein.distance`` replaced, from the chord
    quadratic of the line X + t(Y − X) against the unit sphere.

    With a = ⟨Y−X, Y−X⟩, b = 2⟨X, Y−X⟩, c = ⟨X, X⟩ − 1, (A, B, C) =
    q²·(a, b, c) and Δ = (B² − 4AC)/q⁴, d = ln(√Δ − b − 2c) −
    ½·ln(4c(a + b + c)); √Δ is enclosed to width min(w, 1)·(−c)/2 and each
    logarithm to w/4, and the upper end takes ln v ≤ ln u + (v − u)/u.
    ``sqrt_bounds(x, digits)``, ``ln_bounds(x, width)`` and
    ``from_fraction_pair(lo, hi, digits)`` are the package's enclosures and
    outward rounding.
    """
    C = -_ball_factor(q, x)
    _ball_factor(q, y)
    d = _sub(y, x)
    A, B = _dot(d, d), 2 * _dot(x, d)
    if A == 0:
        raise ValueError("distance requires X != Y")
    w = target_width
    q2 = q * q
    delta = Fraction(B * B - 4 * A * C, q2 * q2)
    root_width = min(w, 1) * Fraction(-C, 2 * q2)
    root_digits = fraction_exponent(delta) // 2 + 1 - fraction_exponent(root_width)
    root = sqrt_bounds(delta, max(1, root_digits))
    s = Fraction(B + 2 * C, q2)
    arg_lo, arg_hi = Fraction(root.lo) - s, Fraction(root.hi) - s
    ln1 = ln_bounds(arg_lo, w / 4)
    ln2 = ln_bounds(Fraction(4 * C * (A + B + C), q2 * q2), w / 4)
    lo = Fraction(ln1.lo) - Fraction(ln2.hi) / 2
    hi = Fraction(ln1.hi) + (arg_hi - arg_lo) / arg_lo - Fraction(ln2.lo) / 2
    digits = fraction_exponent(max(-lo, hi)) + 1 - fraction_exponent(w / 8)
    return from_fraction_pair(lo, hi, max(1, digits))


# ---------------------------------------------------------------------------
# Exact triangle-triangle intersection (integer/rational coordinates)
# ---------------------------------------------------------------------------


class DegenerateConfiguration(Exception):
    """A configuration this oracle declines to classify (e.g. coplanar)."""


def orient3d(a, b, c, d) -> int:
    """Sign of det[b−a; c−a; d−a]: side of plane (a,b,c) that d lies on."""
    ux, uy, uz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    vx, vy, vz = c[0] - a[0], c[1] - a[1], c[2] - a[2]
    wx, wy, wz = d[0] - a[0], d[1] - a[1], d[2] - a[2]
    det = (
        ux * (vy * wz - vz * wy)
        - uy * (vx * wz - vz * wx)
        + uz * (vx * wy - vy * wx)
    )
    return (det > 0) - (det < 0)


def _orient2d(a, b, c) -> int:
    det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (det > 0) - (det < 0)


def _point_in_triangle_on_plane(r: Vec3, tri) -> bool:
    """Is r (known to lie on tri's plane) inside the closed triangle?"""
    a, b, c = tri
    # normal of the triangle plane
    ab = (b[0] - a[0], b[1] - a[1], b[2] - a[2])
    ac = (c[0] - a[0], c[1] - a[1], c[2] - a[2])
    n = (
        ab[1] * ac[2] - ab[2] * ac[1],
        ab[2] * ac[0] - ab[0] * ac[2],
        ab[0] * ac[1] - ab[1] * ac[0],
    )
    axis = max(range(3), key=lambda i: abs(n[i]))
    keep = [i for i in range(3) if i != axis]
    pa = tuple(a[i] for i in keep)
    pb = tuple(b[i] for i in keep)
    pc = tuple(c[i] for i in keep)
    pr = tuple(r[i] for i in keep)
    ref = _orient2d(pa, pb, pc)
    if ref == 0:
        raise DegenerateConfiguration("triangle degenerates under projection")
    signs = (_orient2d(pa, pb, pr), _orient2d(pb, pc, pr), _orient2d(pc, pa, pr))
    return all(ref * s >= 0 for s in signs)


def segment_triangle_points(p, q, tri):
    """Exact intersection points of closed segment [p, q] with a closed triangle.

    Returns a list with the single crossing point (as a Fraction triple) or
    an empty list.  Raises DegenerateConfiguration when the segment lies in
    the triangle's plane, where a single crossing point is not well-defined.
    """
    a, b, c = tri
    d1 = orient3d(a, b, c, p)
    d2 = orient3d(a, b, c, q)
    if d1 == 0 and d2 == 0:
        raise DegenerateConfiguration("segment coplanar with triangle")
    if d1 * d2 > 0:
        return []
    # signed volumes are proportional to distances from the plane, so the
    # segment crosses at parameter t = d1 / (d1 − d2) with exact determinants
    ux, uy, uz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    vx, vy, vz = c[0] - a[0], c[1] - a[1], c[2] - a[2]

    def vol(d):
        wx, wy, wz = d[0] - a[0], d[1] - a[1], d[2] - a[2]
        return (
            ux * (vy * wz - vz * wy)
            - uy * (vx * wz - vz * wx)
            + uz * (vx * wy - vy * wx)
        )

    s1, s2 = vol(p), vol(q)
    t = Fraction(s1, s1 - s2)
    r = tuple(Fraction(pp) + t * (Fraction(qq) - Fraction(pp)) for pp, qq in zip(p, q))
    return [r] if _point_in_triangle_on_plane(r, tri) else []


def triangle_intersection_points(t1, t2):
    """All edge-crossing points between two closed, non-coplanar triangles.

    For non-coplanar triangles, any nonempty intersection includes a point
    where an edge of one pierces (or touches) the other, so an empty return
    proves disjointness.
    """
    pts = []
    for i in range(3):
        pts.extend(segment_triangle_points(t1[i], t1[(i + 1) % 3], t2))
        pts.extend(segment_triangle_points(t2[i], t2[(i + 1) % 3], t1))
    return pts


def triangles_disjoint(t1, t2) -> bool:
    return not triangle_intersection_points(t1, t2)


def triangles_meet_only_at(t1, t2, allowed: Vec3) -> bool:
    allowed_f = tuple(Fraction(c) for c in allowed)
    pts = triangle_intersection_points(t1, t2)
    return bool(pts) and all(p == allowed_f for p in pts)


# ---------------------------------------------------------------------------
# The σ floor's grid bracket by exact bisection alone
# ---------------------------------------------------------------------------


def _ldlt_definiteness(A, x: Fraction) -> int:
    """+1 if A − x·I is positive definite, 0 if semidefinite and singular,
    −1 otherwise, by exact LDLᵀ; a zero pivot is admissible only with a zero
    column below it."""
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


def gram_root_bracket_bisection(M) -> Tuple[Fraction, Fraction]:
    """The body ``smallest_gram_root_bracket`` replaced: the Gram matrix in
    Fractions, one exact definiteness test per bisection step on the 2⁻²⁰
    grid over [0, Gershgorin + 2], and one more at the final upper end."""
    n = len(M)
    M = [[Fraction(x) for x in row] for row in M]
    A = [
        [sum((M[k][i] * M[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]
    if _ldlt_definiteness(A, Fraction(0)) <= 0:
        return Fraction(0), Fraction(0)
    gersh = max(sum(abs(x) for x in row) for row in A)
    grid = 2**20
    lo, hi = 0, (int(gersh) + 2) * grid
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _ldlt_definiteness(A, Fraction(mid, grid)) > 0:
            lo = mid
        else:
            hi = mid
    if _ldlt_definiteness(A, Fraction(hi, grid)) == 0:
        return Fraction(hi, grid), Fraction(hi, grid)
    return Fraction(lo, grid), Fraction(hi, grid)


# ---------------------------------------------------------------------------
# Smallest singular value by an independent route (sympy exact linear algebra)
# ---------------------------------------------------------------------------


def smallest_singular_value(M, digits: int = 100) -> Fraction:
    """Smallest singular value of a rational matrix, to `digits` digits.

    Independent route: sympy builds the Gram matrix exactly, takes the exact
    characteristic polynomial, isolates its real roots algebraically, and
    evaluates the smallest one to the requested precision.  Returned as the
    Fraction of the decimal evaluation (accurate to ~10^-digits).
    """
    import sympy

    A = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in M])
    G = A.T * A
    lam = sympy.symbols("lam")
    chi = G.charpoly(lam).as_expr()
    roots = sympy.real_roots(sympy.Poly(chi, lam))
    smallest = min(roots, key=lambda r: r.evalf(30))
    val = sympy.sqrt(smallest).evalf(digits)
    return Fraction(str(val))
