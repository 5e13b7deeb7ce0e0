"""File formats, certificate reports, plane slicing, SVG/OFF export, CLI.

Everything here is deterministic plumbing around the certification and
search modules:

- mesh container: a small JSON document (``kleincert-mesh`` version 1) with
  vertex coordinates as exact number strings — decimal where the rational
  terminates, ``p/q`` otherwise — and oriented face triples.  Files written
  by :func:`save_mesh` are canonical: loading and re-saving reproduces the
  bytes exactly.
- certificate reports: plain JSON objects with six keys (kind, a SHA-256
  digest of the input bytes, parameters, outcome, details with the
  certified margins, tool version), dumped with sorted keys.  Reports
  contain no timestamps, so re-running a verification reproduces the report
  byte for byte.
- plane slicing: exact rational cross-sections of an embedded surface.
  Vertices lying exactly on the plane count as the positive side (a
  symbolic perturbation, so the measure-zero case needs no special
  geometry), per-face segments chain into closed loops by exact endpoint
  matching, and any failure to close is reported with the offending point.
  Loop points are given in the plane's projection chart: the two
  coordinates left after dropping the normal's largest-magnitude one.
- SVG/OFF export: fixed-layout text output (unit disk on a 1000x1000
  canvas, six-decimal coordinates; OFF with truncated fixed-point
  vertices), byte-identical across runs.
- a command line (``kleincert``) that only parses, formats and exits:
  validation, the certification pipeline (premises come from the library),
  Newton refinement, hill-climb search, slicing, and export.  Exit status:
  0 for certified success, 1 for a certification failure, 2 for unusable input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from . import __version__
from .certify_embed import certify_embeddedness
from .certify_flat import LinkReference, LinkTable, certify_flatness
from .jacobian import JACOBIAN_DIGITS, certify_surface_expansion, conclude_existence
from .klein import Point3
from .mesh import EmbeddedSurface, Triangulation, validate
from .precision import CertificationError, _round_significant
from .search import SearchConfig, hill_climb, newton_refine

__all__ = [
    "SlicePolyline",
    "load_mesh",
    "save_mesh",
    "render_mesh",
    "load_links",
    "slice_plane",
    "emit_svg",
    "export_off",
    "main",
]

_MESH_FORMAT = "kleincert-mesh"
_MESH_VERSION = 1

PlaneSpec = Union[str, Tuple[Tuple[Fraction, Fraction, Fraction], Fraction]]

_AXIS_PLANES: Dict[str, Tuple[Tuple[Fraction, Fraction, Fraction], Fraction]] = {
    # --plane names the coordinate plane itself: xy is the z = 0 plane
    "xy": ((Fraction(0), Fraction(0), Fraction(1)), Fraction(0)),
    "xz": ((Fraction(0), Fraction(1), Fraction(0)), Fraction(0)),
    "yz": ((Fraction(1), Fraction(0), Fraction(0)), Fraction(0)),
}


# ---------------------------------------------------------------------------
# Exact number strings
# ---------------------------------------------------------------------------


def fraction_to_text(value: Fraction) -> str:
    """Shortest exact text for a rational: decimal if it terminates, else p/q."""
    value = Fraction(value)
    den = value.denominator
    if den == 1:
        return str(value.numerator)
    twos = fives = 0
    rest = den
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{value.numerator}/{den}"
    places = max(twos, fives)
    scaled = abs(value.numerator) * 10**places // den
    digits = str(scaled).rjust(places + 1, "0")
    sign = "-" if value.numerator < 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def text_to_fraction(text: str) -> Fraction:
    """Parse a decimal or p/q number string exactly."""
    if not isinstance(text, str):
        raise ValueError(f"coordinate must be a number string, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"unreadable coordinate {text!r}") from exc


def _fixed_point(value: Fraction, places: int, toward_zero: bool) -> str:
    """Fixed-point text with exactly ``places`` decimals."""
    scale = 10**places
    scaled = int(value * scale) if toward_zero else round(value * scale)
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def _directed_text(value: Fraction, round_up: bool, digits: int = 12) -> str:
    """Short decimal on the certified side of an exact bound.

    Reports quote certified margins at ``digits`` significant figures;
    rounding a lower bound down (or an upper bound up) keeps the printed
    number a true bound, unlike nearest-rounding.
    """
    return fraction_to_text(_round_significant(value, digits, round_up))


# ---------------------------------------------------------------------------
# Mesh container
# ---------------------------------------------------------------------------


def render_mesh(surface: EmbeddedSurface, name: str = "mesh") -> str:
    """Canonical container text for a surface (what :func:`save_mesh` writes)."""
    lines = [
        "{",
        f'  "format": {json.dumps(_MESH_FORMAT)},',
        f'  "version": {_MESH_VERSION},',
        f'  "name": {json.dumps(name)},',
        '  "vertices": [',
    ]
    vertex_rows = [
        "    [{}]".format(
            ", ".join(json.dumps(fraction_to_text(c)) for c in (p.x, p.y, p.z))
        )
        for p in surface.coords
    ]
    lines.append(",\n".join(vertex_rows))
    lines.append("  ],")
    lines.append('  "faces": [')
    face_cells = ["[{}, {}, {}]".format(*face) for face in surface.triangulation.faces]
    face_rows = [
        "    " + ", ".join(face_cells[k : k + 6]) for k in range(0, len(face_cells), 6)
    ]
    lines.append(",\n".join(face_rows))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _parse_mesh_document(text: str) -> Tuple[str, EmbeddedSurface]:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"mesh parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict) or raw.get("format") != _MESH_FORMAT:
        raise ValueError('not a mesh container (missing "format": "kleincert-mesh")')
    if raw.get("version") != _MESH_VERSION:
        raise ValueError(f"unsupported mesh container version {raw.get('version')!r}")
    vertices = raw.get("vertices")
    faces = raw.get("faces")
    if not isinstance(vertices, list) or not isinstance(faces, list):
        raise ValueError("mesh container needs vertex and face lists")
    coords = []
    for index, row in enumerate(vertices):
        if not isinstance(row, list) or len(row) != 3:
            raise ValueError(f"vertex {index} is not a coordinate triple: {row!r}")
        coords.append(Point3.of(*(text_to_fraction(c) for c in row)))
    for index, face in enumerate(faces):
        if (
            not isinstance(face, list)
            or len(face) != 3
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in face)
        ):
            raise ValueError(f"face {index} is not an index triple: {face!r}")
    triangulation = Triangulation(
        n_vertices=len(coords), faces=tuple(tuple(face) for face in faces)
    )
    name = raw.get("name") if isinstance(raw.get("name"), str) else "mesh"
    return name, EmbeddedSurface(triangulation, tuple(coords))


def load_mesh(path: Union[str, Path]) -> EmbeddedSurface:
    """Load a surface from a mesh container file."""
    _, surface = _parse_mesh_document(Path(path).read_text())
    return surface


def save_mesh(
    surface: EmbeddedSurface, path: Union[str, Path], name: str = "mesh"
) -> None:
    """Write the canonical mesh container (atomically)."""
    _atomic_write_text(Path(path), render_mesh(surface, name=name))


def _packaged_bytes(filename: str) -> bytes:
    from importlib import resources

    return resources.files("kleincert.data").joinpath(filename).read_bytes()


def _link_integer(value, where: str, field: str) -> int:
    """An integer of a links entry: a JSON integer or a string of one."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{where}: {field!r} holds a non-integer {value!r}")


def _load_links_document(text: str) -> LinkReference:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"links parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    entries = raw.get("links") if isinstance(raw, dict) else None
    if not isinstance(entries, list):
        raise ValueError('links container needs a "links" list')
    tables = []
    for index, entry in enumerate(entries):
        where = f"links entry {index}"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} is not an object: {entry!r}")
        for field in ("vertex", "cycle", "vectors"):
            if field not in entry:
                raise ValueError(f"{where} has no {field!r}")
        cycle, vectors = entry["cycle"], entry["vectors"]
        if not isinstance(cycle, list):
            raise ValueError(f"{where}: 'cycle' is not a list: {cycle!r}")
        if not isinstance(vectors, list) or not all(
            isinstance(v, list) and len(v) == 2 for v in vectors
        ):
            raise ValueError(f"{where}: 'vectors' is not a list of pairs: {vectors!r}")
        tables.append(
            LinkTable(
                vertex=_link_integer(entry["vertex"], where, "vertex"),
                cycle=tuple(_link_integer(v, where, "cycle") for v in cycle),
                vectors=tuple(
                    tuple(_link_integer(c, where, "vectors") for c in v) for v in vectors
                ),
            )
        )
    tables.sort(key=lambda t: t.vertex)
    return LinkReference(tables=tuple(tables))


def load_links(path: Union[str, Path]) -> LinkReference:
    """Load reference link tables (vertex cycles plus planar integer vectors)."""
    return _load_links_document(Path(path).read_text())


def _load_manual_normals():
    raw = json.loads(_packaged_bytes("separating_normals.json"))
    table = {}
    for entry in raw["entries"]:
        key = frozenset((tuple(entry["pair"][0]), tuple(entry["pair"][1])))
        table[key] = tuple(entry["normal"])
    return table


def _atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    handle = tempfile.NamedTemporaryFile(
        "w", dir=path.parent or Path("."), prefix=path.name + ".", delete=False
    )
    try:
        handle.write(text)
        handle.close()
        os.replace(handle.name, path)
    except BaseException:
        handle.close()
        os.unlink(handle.name)
        raise


# ---------------------------------------------------------------------------
# Certificate reports
# ---------------------------------------------------------------------------


def _inputs_digest(parts: Sequence[Tuple[str, bytes]]) -> str:
    hasher = hashlib.sha256()
    for label, data in parts:
        hasher.update(label.encode())
        hasher.update(b"\x00")
        hasher.update(hashlib.sha256(data).digest())
    return hasher.hexdigest()


# ---------------------------------------------------------------------------
# Plane slicing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlicePolyline:
    """Closed cross-section loops of a surface in exact plane coordinates.

    ``plane`` is the rational pair (normal, offset) with the plane
    ``normal . p = offset``; ``loops`` are tuples of 2-D rational points,
    the coordinates a point keeps when the normal's largest-magnitude one is
    dropped, each loop implicitly closed (the last point connects back to
    the first).
    """

    plane: Tuple[Tuple[Fraction, Fraction, Fraction], Fraction]
    loops: Tuple[Tuple[Tuple[Fraction, Fraction], ...], ...]


def _resolve_plane(
    plane: PlaneSpec,
) -> Tuple[Tuple[Fraction, Fraction, Fraction], Fraction]:
    if isinstance(plane, str):
        try:
            return _AXIS_PLANES[plane]
        except KeyError:
            raise ValueError(
                f"unknown plane {plane!r}; use xy, xz, yz, or (normal, offset)"
            ) from None
    normal, offset = plane
    normal = tuple(Fraction(c) for c in normal)
    if len(normal) != 3 or all(c == 0 for c in normal):
        raise ValueError("plane normal must be a nonzero rational 3-vector")
    return normal, Fraction(offset)


def slice_plane(surface: EmbeddedSurface, plane: PlaneSpec) -> SlicePolyline:
    """Exact cross-section of the surface with a plane, as closed loops.

    Vertices exactly on the plane are classified on the positive side, so
    every face contributes either nothing or one genuine segment; segments
    chain into loops by exact rational endpoint matching.  Raises
    :class:`CertificationError` if any endpoint fails to pair up (an open
    chain would contradict the surface being closed).
    """
    normal, offset = _resolve_plane(plane)
    # dropping a coordinate whose normal component is nonzero is an affine
    # chart of the plane; for xy, xz and yz it keeps the other two in order
    dropped = max(range(3), key=lambda k: abs(normal[k]))
    kept = [k for k in range(3) if k != dropped]

    def side(p: Point3) -> Fraction:
        return normal[0] * p.x + normal[1] * p.y + normal[2] * p.z - offset

    segments: List[Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]] = []
    for face in surface.triangulation.faces:
        points = [surface.coords[v] for v in face]
        sides = [side(p) for p in points]
        positive = [s >= 0 for s in sides]  # on-plane counts as positive
        if all(positive) or not any(positive):
            continue
        crossings: List[Tuple[Fraction, Fraction]] = []
        for a in range(3):
            b = (a + 1) % 3
            if positive[a] == positive[b]:
                continue
            pa, pb = points[a], points[b]
            t = sides[a] / (sides[a] - sides[b])
            crossings.append(tuple(pa[k] + t * (pb[k] - pa[k]) for k in kept))
        if len(crossings) != 2:
            raise CertificationError(
                f"face {face} crosses the plane {len(crossings)} times"
            )
        if crossings[0] != crossings[1]:
            segments.append((crossings[0], crossings[1]))

    incidence: Dict[Tuple[Fraction, Fraction], List[int]] = {}
    for index, (start, end) in enumerate(segments):
        incidence.setdefault(start, []).append(index)
        incidence.setdefault(end, []).append(index)
    for point, incident in incidence.items():
        if len(incident) != 2:
            raise CertificationError(
                f"open slice chain: point ({fraction_to_text(point[0])}, "
                f"{fraction_to_text(point[1])}) belongs to {len(incident)} "
                "segments instead of 2"
            )

    used = [False] * len(segments)
    loops: List[Tuple[Tuple[Fraction, Fraction], ...]] = []
    for first in range(len(segments)):
        if used[first]:
            continue
        used[first] = True
        start, cursor = segments[first]
        loop = [start]
        while cursor != start:
            loop.append(cursor)
            leg = next(k for k in incidence[cursor] if not used[k])
            used[leg] = True
            a, b = segments[leg]
            cursor = b if a == cursor else a
        loops.append(tuple(loop))
    return SlicePolyline(plane=(normal, offset), loops=tuple(loops))


# ---------------------------------------------------------------------------
# SVG / OFF export
# ---------------------------------------------------------------------------

#: Side of the square SVG canvas, in user units.
_SVG_VIEWPORT = 1000


def emit_svg(polyline: SlicePolyline) -> str:
    """Render slice loops over a unit-circle outline; byte-deterministic.

    The chart square [-1, 1]^2 maps onto a ``_SVG_VIEWPORT`` x
    ``_SVG_VIEWPORT`` canvas with the vertical axis pointing up.
    """
    half = Fraction(_SVG_VIEWPORT, 2)

    def place(point: Tuple[Fraction, Fraction]) -> str:
        x = half + half * point[0]
        y = half - half * point[1]
        return f"{_fixed_point(x, 6, toward_zero=False)},{_fixed_point(y, 6, toward_zero=False)}"

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_VIEWPORT}" '
        f'height="{_SVG_VIEWPORT}" viewBox="0 0 {_SVG_VIEWPORT} {_SVG_VIEWPORT}">',
        f'  <circle cx="{half}" cy="{half}" r="{half}" fill="none" '
        'stroke="#999999" stroke-width="1"/>',
    ]
    for loop in polyline.loops:
        steps = " L ".join(place(point) for point in loop)
        lines.append(
            f'  <path d="M {steps} Z" fill="none" stroke="#000000" stroke-width="2"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def export_off(surface: EmbeddedSurface, digits: int = 32) -> str:
    """OFF-format text: counts, fixed-point vertices, oriented faces.

    Coordinates are truncated toward zero at ``digits`` decimals; faces
    keep their stored orientation and order.
    """
    if digits < 1:
        raise ValueError("digits must be at least 1")
    faces = surface.triangulation.faces
    n_edges = len(surface.triangulation.edges())
    lines = ["OFF", f"{len(surface.coords)} {len(faces)} {n_edges}"]
    for p in surface.coords:
        lines.append(
            " ".join(_fixed_point(c, digits, toward_zero=True) for c in (p.x, p.y, p.z))
        )
    for face in faces:
        lines.append("3 {} {} {}".format(*face))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _read(path: Optional[str], packaged_name: str) -> Tuple[bytes, str, str]:
    """Input bytes, report label and UTF-8 text; the packaged file when ``path`` is None."""
    if path is None:
        data, label = _packaged_bytes(packaged_name), "packaged:" + packaged_name
    else:
        data, label = Path(path).read_bytes(), str(path)
    try:
        return data, label, data.decode()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{label} is not UTF-8 text: {exc}") from exc


def _deliver(text: str, args) -> None:
    """Write a command's output to --report (atomically), else to standard output."""
    if args.report:
        _atomic_write_text(Path(args.report), text)
    else:
        sys.stdout.write(text)


def _report_text(kind: str, parts, parameters, outcome: str, details) -> str:
    """The JSON report of one run.

    Reports deliberately omit timestamps and environment details: running
    the same verification on the same input files reproduces the report
    byte for byte, which is what makes third-party replay meaningful.
    """
    payload = {
        "kind": kind,
        "inputs_digest": _inputs_digest(parts),
        "parameters": dict(parameters),
        "outcome": outcome,
        "details": details,
        "tool_version": __version__,
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _run_flatness(surface, links):
    certificate = certify_flatness(surface, links)
    return {
        "epsilon": _directed_text(certificate.epsilon, round_up=True),
        "max_delta": _directed_text(certificate.max_delta, round_up=True),
        "alpha_range": [
            _directed_text(certificate.alpha_range[0], round_up=False),
            _directed_text(certificate.alpha_range[1], round_up=True),
        ],
        "lipschitz_bound": _directed_text(certificate.lipschitz_bound, round_up=True),
        "max_degree": certificate.max_degree,
    }, certificate


def _run_embeddedness(surface):
    certificate = certify_embeddedness(surface, manual_normals=_load_manual_normals())
    margins = [m for w in certificate.witnesses for m in w.margins]
    return {
        "pairs": {
            "disjoint": certificate.n_disjoint,
            "shared_vertex": certificate.n_shared_vertex,
            "shared_edge": certificate.n_shared_edge,
        },
        "min_margin": _directed_text(Fraction(min(margins)), round_up=False) if margins else None,
        "robustness": fraction_to_text(certificate.robustness),
        "scale": certificate.scale,
        "delta": certificate.delta,
    }, certificate


def _run_expansion(surface):
    certificate = certify_surface_expansion(surface)
    return {
        "sigma_lower_bound": _directed_text(certificate.sigma_min_bound, round_up=False),
        "expansion_lambda": fraction_to_text(certificate.lam),
        "ball_radius": fraction_to_text(certificate.radius),
        "angle_sine_bound": _directed_text(certificate.angle_sine_bound, round_up=True),
    }, certificate


def _run_existence(surface, links):
    flat_details, flat = _run_flatness(surface, links)
    embed_details, embed = _run_embeddedness(surface)
    expansion_details, expansion = _run_expansion(surface)
    existence = conclude_existence(flat, embed, expansion)
    return {
        "flatness": flat_details,
        "embeddedness": embed_details,
        "expansion": expansion_details,
        "existence": {
            "defect_norm_cap": fraction_to_text(existence.defect_norm_cap),
            "solution_radius": fraction_to_text(existence.solution_radius),
            "coverage_radius": fraction_to_text(existence.coverage_radius),
            "robustness": fraction_to_text(existence.robustness),
            "checks": list(existence.checks),
            "statement": existence.statement,
        },
    }, existence


def _certify(kind: str, parameters: Mapping[str, str], runner):
    """The handler of one ``verify-*`` command: run, report, exit 0 or 1.

    Commands that read --links pass the parsed tables to ``runner`` after the
    surface, and their bytes join the report's input digest.
    """

    def handler(args, surface, parts) -> int:
        inputs = [surface]
        if "links" in vars(args):
            links_bytes, label, text = _read(args.links, "reference_links.json")
            parts = parts + [("links:" + label, links_bytes)]
            inputs.append(_load_links_document(text))
        try:
            details, _ = runner(*inputs)
        except CertificationError as exc:
            _deliver(_report_text(kind, parts, parameters, f"failed: {exc}", {}), args)
            print(f"certification failed: {exc}", file=sys.stderr)
            return 1
        _deliver(_report_text(kind, parts, parameters, "certified", details), args)
        return 0

    return handler


def _cmd_validate(args, surface, parts) -> int:
    checks = validate(surface.triangulation)
    details = {
        "ok": checks.ok,
        "vertices": checks.n_vertices,
        "edges": checks.n_edges,
        "faces": checks.n_faces,
        "euler_characteristic": checks.euler_characteristic,
        "genus": checks.genus,
        "violations": list(checks.edge_violations + checks.link_violations),
    }
    outcome = "certified" if checks.ok else "failed: surface checks"
    _deliver(_report_text("validate", parts, {}, outcome, details), args)
    return 0 if checks.ok else 1


def _cmd_refine(args, surface, parts) -> int:
    trace: List[Fraction] = []  # its last entry is the returned mesh's squared norm
    config = SearchConfig()
    refined = newton_refine(surface, config, trace)
    _deliver(render_mesh(refined, name="refined"), args)
    print(
        f"refined at {config.newton_digits} digits; "
        f"squared defect norm <= {float(trace[-1]):.3e}",
        file=sys.stderr,
    )
    return 0


def _cmd_search(args, surface, parts) -> int:
    config = SearchConfig() if args.seed is None else SearchConfig(rng_seed=args.seed)
    record: Dict[str, object] = {}
    result = hill_climb(surface, config, record=record)
    _deliver(render_mesh(result, name="search-result"), args)
    print(
        f"search: algorithm {record['algorithm']}, seed {record['seed']}, "
        f"{record['steps']} steps, {record['accepts']} accepts, "
        f"final objective {record['final_objective']}",
        file=sys.stderr,
    )
    return 0


def _cmd_slice(args, surface, parts) -> int:
    polyline = slice_plane(surface, args.plane)
    _deliver(emit_svg(polyline), args)
    print(f"slice {args.plane}: {len(polyline.loops)} loop(s)", file=sys.stderr)
    return 0


def _cmd_export(args, surface, parts) -> int:
    _deliver(export_off(surface), args)
    return 0


_FLAGS: Dict[str, dict] = {
    "--mesh": dict(help="mesh container path (default: packaged candidate)"),
    "--report": dict(help="output path (certificate report, mesh, SVG, or OFF)"),
    "--links": dict(help="reference link tables path (default: packaged tables)"),
    "--seed": dict(type=int, help="search seed"),
    "--plane": dict(choices=("xy", "xz", "yz"), default="xy", help="slice plane"),
}

_JACOBIAN = {"jacobian_digits": str(JACOBIAN_DIGITS)}

#: Each subcommand's handler and the flags it reads besides --mesh and --report.
_COMMANDS = {
    "validate": (_cmd_validate, ()),
    "verify-flat": (
        _certify("flatness", {"arithmetic": "exact"}, _run_flatness),
        ("--links",),
    ),
    "verify-embed": (_certify("embeddedness", {"arithmetic": "exact"}, _run_embeddedness), ()),
    "verify-expansion": (_certify("expansion", _JACOBIAN, _run_expansion), ()),
    "verify-all": (
        _certify("existence", {"arithmetic": "exact", **_JACOBIAN}, _run_existence),
        ("--links",),
    ),
    "refine": (_cmd_refine, ()),
    "search": (_cmd_search, ("--seed",)),
    "slice": (_cmd_slice, ("--plane",)),
    "export": (_cmd_export, ()),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kleincert",
        description="Certified numerics for triangulated surfaces in the Klein model.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in _COMMANDS.items():
        sub = commands.add_parser(name)
        for flag in ("--mesh", "--report", *flags):
            sub.add_argument(flag, **_FLAGS[flag])
        sub.set_defaults(func=handler, parser=sub)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args, unknown = _build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        mesh_bytes, label, text = _read(args.mesh, "candidate_surface.json")
        _, surface = _parse_mesh_document(text)
        return args.func(args, surface, [("mesh:" + label, mesh_bytes)])
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
