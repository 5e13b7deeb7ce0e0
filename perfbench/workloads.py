"""The five workloads: inputs made from a seed, the timed operation, output checks.

Each operation calls only public kleincert entry points: ``cli_io.main`` for
the two command-line workloads and the layer functions for the others.  The
module is imported by the child process after ``kleincert`` itself, and every
kleincert function is looked up on its module at call time, so a traced run
sees the wrappers that ``tracer.Tracer.install`` put there.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Callable, List, Mapping, Tuple

#: Hill-climb steps per ``climb`` operation (about 2 s on a 2-core Xeon).
CLIMB_STEPS = 40
#: The ``SearchConfig`` default seed; the ``climb`` operation that uses it is
#: also checked against a golden digest of the result mesh.
DEFAULT_RNG_SEED = 2026
#: The ``(0, 1, 7)`` face pair has no witness once vertex 3 sits on vertex 5.
REJECT_PAIR = "(0, 1, 7)"


@dataclass
class Env:
    """What set-up produced: the package modules and the parsed packaged inputs."""

    cli_io: object
    jacobian: object
    search: object
    candidate: object
    candidate_bytes: bytes
    sketch: object
    golden: Mapping[str, str]


def setup(golden: Mapping[str, str]) -> Env:
    """Import kleincert and read and parse the packaged inputs."""
    from kleincert import cli_io, jacobian, search

    data = resources.files("kleincert.data")
    candidate_bytes = data.joinpath("candidate_surface.json").read_bytes()
    candidate = cli_io.load_mesh(data.joinpath("candidate_surface.json"))
    # parsed only to time set-up; verify-all reads the links itself
    cli_io.load_links(data.joinpath("reference_links.json"))
    return Env(
        cli_io=cli_io,
        jacobian=jacobian,
        search=search,
        candidate=candidate,
        candidate_bytes=candidate_bytes,
        sketch=_lattice_sketch(search, candidate),
        golden=golden,
    )


def _lattice_sketch(search, candidate):
    """The candidate's nearest 5x5x5 lattice points, rescaled into the ball.

    Built the way ``demos/hill_climb_demo.py`` builds its start:
    k = round(3c + 2) per coordinate.
    """
    points = [
        tuple(int(round(3 * float(c) + 2)) for c in (p.x, p.y, p.z))
        for p in candidate.coords
    ]
    return search.prepare_from_lattice(candidate.triangulation, points)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _jittered(env: Env, tag: str, unit_exponent: int):
    """The candidate with each height moved by k·10^-unit_exponent, 1 <= |k| <= 10."""
    rng = random.Random(tag)
    heights = [
        p.z + Fraction(rng.choice((-1, 1)) * rng.randint(1, 10), 10**unit_exponent)
        for p in env.candidate.coords
    ]
    return env.jacobian.surface_with_heights(env.candidate, heights)


# ---------------------------------------------------------------------------
# verify-all and reject: the command line, checked by exit code and report bytes
# ---------------------------------------------------------------------------


def _cli_input(argv: List[str]) -> List[str]:
    Path("report.json").unlink(missing_ok=True)
    return argv


def _run_cli(env: Env, argv: List[str]) -> int:
    return env.cli_io.main(argv)


def _report_checks(
    env: Env, code: int, expected_code: int, outcome_ok: Callable[[str], bool], digest_key: str
) -> List[str]:
    failures = []
    if code != expected_code:
        failures.append(f"exit code {code}, expected {expected_code}")
    report = Path("report.json")
    if not report.is_file():
        return failures + ["no report written"]
    data = report.read_bytes()
    if not outcome_ok(json.loads(data)["outcome"]):
        failures.append("report outcome")
    if _sha256(data) != env.golden[digest_key]:
        failures.append(f"report digest differs from golden {digest_key}")
    return failures


def _verify_all_input(env: Env, seed: int, k: int):
    return _cli_input(["verify-all", "--report", "report.json"])


def _verify_all_check(env: Env, argv, code) -> List[str]:
    return _report_checks(env, code, 0, lambda o: o == "certified", "verify-all.report")


def _reject_input(env: Env, seed: int, k: int):
    doc = json.loads(env.candidate_bytes)
    doc["vertices"][3] = list(doc["vertices"][5])
    # a relative path keeps the report's input label, and so its digest, fixed
    Path("corrupt.json").write_text(json.dumps(doc))
    return _cli_input(["verify-embed", "--mesh", "corrupt.json", "--report", "report.json"])


def _reject_check(env: Env, argv, code) -> List[str]:
    def outcome_ok(outcome: str) -> bool:
        return outcome.startswith("failed: no separating normal") and REJECT_PAIR in outcome

    return _report_checks(env, code, 1, outcome_ok, "reject.report")


# ---------------------------------------------------------------------------
# premises: crude bounds -> second-order cap -> Jacobian enclosure -> expansion
# ---------------------------------------------------------------------------

#: Acceptance criterion 6: the crude ranges the chain must certify.
CRUDE_RANGES = {
    "euclidean_edge_range": (Fraction(509, 1000), Fraction(1561, 1000)),
    "tangent_norm_range": (Fraction(1, 2), Fraction(13)),
    "edge_length_center_range": (Fraction(63, 100), Fraction(208, 100)),
    "edge_length_range": (Fraction(3, 5), Fraction(21, 10)),
    "cos_center_range": (Fraction(-8, 1000), Fraction(96, 100)),
}


def _premises_input(env: Env, seed: int, k: int):
    # at most 1e-20 per height: well inside the 1e-18 ball the bounds cover
    return _jittered(env, f"premises:{seed}:{k}", 21)


def _premises_run(env: Env, surface):
    jacobian = env.jacobian
    crude = jacobian.crude_bounds(surface)
    cap = jacobian.second_partial_bound(crude)
    enclosure = jacobian.dtheta_enclosure(surface, precision=60)
    rounded = [
        [Fraction(round(Fraction(b.midpoint(60)) * 1000), 1000) for b in row]
        for row in enclosure
    ]
    expansion = jacobian.certify_expansion(
        rounded, dtheta_center=enclosure, second_order_cap=cap
    )
    return crude, cap, expansion


def _premises_check(env: Env, surface, out) -> List[str]:
    crude, cap, expansion = out
    failures = []
    if cap != 10**14:
        failures.append(f"derived second-order cap {cap} != 1e14")
    for field, expected in CRUDE_RANGES.items():
        if getattr(crude, field) != expected:
            failures.append(f"crude {field}")
    if crude.sin_floor != Fraction(24, 100):
        failures.append("crude sin_floor")
    if expansion.lam != Fraction(1, 2):
        failures.append("expansion lambda")
    return failures


# ---------------------------------------------------------------------------
# climb: hill climb from the lattice sketch
# ---------------------------------------------------------------------------


def _climb_input(env: Env, seed: int, k: int) -> int:
    return DEFAULT_RNG_SEED + (1000 * seed + k) % 10**9


def _climb_run(env: Env, rng_seed: int):
    search = env.search
    record: dict = {}
    history: list = []
    result = search.hill_climb(
        env.sketch,
        search.SearchConfig(rng_seed=rng_seed),
        steps=CLIMB_STEPS,
        record=record,
        history=history,
    )
    return result, record, history


def _climb_check(env: Env, rng_seed: int, out) -> List[str]:
    result, record, history = out
    search = env.search
    failures = []
    values = [value for _, value in history]
    if any(b >= a for a, b in zip(values, values[1:])):
        failures.append("accept history not strictly decreasing")
    if record["steps"] != CLIMB_STEPS:
        failures.append("step count")
    precision = search.SearchConfig().climb_precision
    if search.objective(result, precision) != record["final_objective"]:
        failures.append("objective(result) != recorded final objective")
    if rng_seed == DEFAULT_RNG_SEED:
        text = env.cli_io.render_mesh(result, name="search-result")
        if _sha256(text.encode()) != env.golden["climb.mesh.2026"]:
            failures.append("result mesh digest differs from golden climb.mesh.2026")
    return failures


# ---------------------------------------------------------------------------
# refine: Newton at 400 digits to the default tolerance
# ---------------------------------------------------------------------------


def _refine_input(env: Env, seed: int, k: int):
    # at most 1e-12 per height: two Newton steps reach 1e-35
    return _jittered(env, f"refine:{seed}:{k}", 13)


def _refine_run(env: Env, surface):
    trace: list = []
    refined = env.search.newton_refine(surface, env.search.SearchConfig(), trace=trace)
    return refined, trace


def _refine_check(env: Env, surface, out) -> List[str]:
    refined, _ = out
    failures = []
    if any((p.x, p.y) != (q.x, q.y) for p, q in zip(surface.coords, refined.coords)):
        failures.append("Newton moved an x or y coordinate")
    norm = cone_defect_norm(refined)
    if not norm <= Fraction(1, 10**35):
        failures.append(f"independent defect norm {float(norm):.3e} > 1e-35")
    return failures


def cone_defect_norm(surface, digits: int = 80) -> Fraction:
    """Euclidean norm of the cone defects, recomputed in mpmath.

    Independent of ``kleincert.klein``: each point lifts to (1, x, y, z) in
    Minkowski space with B(a, b) = a·b - a0·b0, the tangent at X toward Y is
    Y - (B(X, Y) / B(X, X))·X, and the corner angle is the B-angle between
    the two tangents.  The norm is returned as an upper bound on the
    ``digits``-digit value (it is rounded up by 10^-(digits - 10)).
    """
    import mpmath

    with mpmath.workdps(digits):
        lifts = [
            (mpmath.mpf(1),) + tuple(mpmath.mpf(c.numerator) / c.denominator for c in p)
            for p in surface.coords
        ]

        def form(a, b):
            return a[1] * b[1] + a[2] * b[2] + a[3] * b[3] - a[0] * b[0]

        def tangent(x, y):
            t = form(x, y) / form(x, x)
            return tuple(yc - t * xc for xc, yc in zip(x, y))

        cone = [mpmath.mpf(0)] * len(lifts)
        for face in surface.triangulation.faces:
            for r in range(3):
                i, j, k = face[r], face[(r + 1) % 3], face[(r + 2) % 3]
                u = tangent(lifts[i], lifts[j])
                v = tangent(lifts[i], lifts[k])
                cone[i] += mpmath.acos(form(u, v) / mpmath.sqrt(form(u, u) * form(v, v)))
        norm = mpmath.sqrt(sum((c - 2 * mpmath.pi) ** 2 for c in cone))
        return Fraction(str(norm)) + Fraction(1, 10 ** (digits - 10))


# ---------------------------------------------------------------------------
# The table the harness reads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    make_input: Callable
    run: Callable
    check: Callable
    #: layers that must record calls in a traced operation
    required: Tuple[str, ...]
    #: layers that must record no call in a traced operation
    forbidden: Tuple[str, ...]
    #: layers expected to cover most of the operation's wall time
    named: Tuple[str, ...]


_EMBED = ("certify_embed.certify_embeddedness", "certify_embed.rho")

WORKLOADS = {
    "verify-all": Workload(
        _verify_all_input,
        _run_cli,
        _verify_all_check,
        required=(
            "cli_io.main",
            "certify_flat.certify_flatness",
            *_EMBED,
            "jacobian.dtheta_enclosure",
            "jacobian.certify_expansion",
            "jacobian.conclude_existence",
            "klein.cos2_and_sign",
            "precision.sqrt_bounds",
        ),
        forbidden=(),
        named=("certify_embed.certify_embeddedness",),
    ),
    "premises": Workload(
        _premises_input,
        _premises_run,
        _premises_check,
        required=(
            "jacobian.crude_bounds",
            "jacobian.second_partial_bound",
            "jacobian.dtheta_enclosure",
            "jacobian.certify_expansion",
            "klein.distance",
            "klein.cos2_and_sign",
            "precision.ln_bounds",
            "precision.exp_bounds",
            "precision.hyp_bounds",
            "precision.sqrt_bounds",
        ),
        forbidden=_EMBED,
        named=("jacobian.crude_bounds",),
    ),
    "climb": Workload(
        _climb_input,
        _climb_run,
        _climb_check,
        required=(
            "search.hill_climb",
            "search.objective",
            "jacobian.theta_map",
            "mesh.cone_angle",
            "klein.angle",
            "klein.cos2_and_sign",
            "precision.sqrt_bounds",
            "precision.arccos_hp",
        ),
        forbidden=_EMBED,
        named=("jacobian.theta_map",),
    ),
    "refine": Workload(
        _refine_input,
        _refine_run,
        _refine_check,
        required=(
            "search.newton_refine",
            "jacobian.theta_map",
            "jacobian.dtheta_analytic",
            "jacobian.dtheta_enclosure",
            "mesh.cone_angle",
            "klein.angle",
            "precision.sqrt_bounds",
            "precision.arccos_hp",
        ),
        forbidden=_EMBED,
        named=("search.newton_refine",),
    ),
    "reject": Workload(
        _reject_input,
        _run_cli,
        _reject_check,
        required=("cli_io.main", *_EMBED),
        forbidden=(),
        named=("certify_embed.certify_embeddedness",),
    ),
}


def layer_counters(name: str, out, kept: Mapping[str, object], rho_calls: int) -> dict:
    """Work counters read from an operation's results rather than from spans."""
    counters = {
        "certify_embed.witnesses_rho": 0,
        "certify_embed.witnesses_manual": 0,
        "certify_embed.witness_max_n": 0,
        "certify_embed.rho_useful_ratio": 0.0,
        "search.hill_climb.accepts": 0,
        "search.newton_refine.iterations": 0,
    }
    certificate = kept.get("certify_embed.certify_embeddedness")
    if certificate is not None:
        ns = [w.n for w in certificate.witnesses if w.source == "rho"]
        counters["certify_embed.witnesses_rho"] = len(ns)
        counters["certify_embed.witnesses_manual"] = len(certificate.witnesses) - len(ns)
        counters["certify_embed.witness_max_n"] = max(ns, default=0)
        counters["certify_embed.rho_useful_ratio"] = len(set(ns)) / rho_calls if rho_calls else 0.0
    if name == "climb" and out is not None:
        counters["search.hill_climb.accepts"] = out[1]["accepts"]
    if name == "refine" and out is not None:
        counters["search.newton_refine.iterations"] = len(out[1]) - 1
    return counters
