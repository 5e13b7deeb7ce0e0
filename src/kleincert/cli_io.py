"""File formats, certificate reports, plane slicing, SVG/OFF export, CLI.

Everything here is deterministic plumbing around the certification and
search modules:

- mesh container: a small JSON document (``kleincert-mesh`` version 1) with
  vertex coordinates as exact number strings — decimal where the rational
  terminates, ``p/q`` otherwise — and oriented face triples.  Files written
  by :func:`save_mesh` are canonical: loading and re-saving reproduces the
  bytes exactly.
- certificate reports: JSON documents keyed by certification kind, carrying
  a SHA-256 digest of the canonical input bytes, the parameters, the
  outcome, and the certified margins.  Reports contain no timestamps, so
  re-running a verification reproduces the report byte for byte.
- plane slicing: exact rational cross-sections of an embedded surface.
  Vertices lying exactly on the plane count as the positive side (a
  symbolic perturbation, so the measure-zero case needs no special
  geometry), per-face segments chain into closed loops by exact endpoint
  matching, and any failure to close is reported with the offending point.
- SVG/OFF export: fixed-layout text output (unit disk on a 1000x1000
  canvas, six-decimal coordinates; OFF with truncated fixed-point
  vertices), byte-identical across runs.
- a command line (``kleincert``) exposing validation, the certification
  pipeline, Newton refinement, hill-climb search, slicing, and export.
  Exit status: 0 for certified success, 1 for a certification failure,
  2 for unusable input.
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
from .jacobian import (
    certify_expansion,
    conclude_existence,
    crude_bounds,
    dtheta_enclosure,
    second_partial_bound,
    theta_map,
)
from .klein import Point3
from .mesh import EmbeddedSurface, Triangulation, validate
from .precision import CertificationError, _fraction_exponent
from .search import SearchConfig, hill_climb, newton_refine

__all__ = [
    "CertificateReport",
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
    value = Fraction(value)
    if value == 0:
        return "0"
    exponent = _fraction_exponent(abs(value))
    quantum = Fraction(10) ** (exponent - digits + 1)
    steps = value / quantum
    floor_steps = steps.numerator // steps.denominator
    if round_up and steps != floor_steps:
        floor_steps += 1
    return fraction_to_text(floor_steps * quantum)


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
            or not all(isinstance(v, int) for v in face)
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


def _load_links_document(text: str) -> LinkReference:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"links parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    entries = raw.get("links")
    if not isinstance(entries, list):
        raise ValueError('links container needs a "links" list')
    tables = []
    for entry in entries:
        tables.append(
            LinkTable(
                vertex=int(entry["vertex"]),
                cycle=tuple(int(v) for v in entry["cycle"]),
                vectors=tuple((int(a), int(b)) for a, b in entry["vectors"]),
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


@dataclass(frozen=True)
class CertificateReport:
    """Deterministic record of one verification run.

    Reports deliberately omit timestamps and environment details: running
    the same verification on the same input files reproduces the report
    byte for byte, which is what makes third-party replay meaningful.
    """

    kind: str
    inputs_digest: str
    parameters: Mapping[str, str]
    outcome: str
    details: Mapping[str, object]
    tool_version: str

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "inputs_digest": self.inputs_digest,
            "parameters": dict(self.parameters),
            "outcome": self.outcome,
            "details": self.details,
            "tool_version": self.tool_version,
        }
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"

    @property
    def certified(self) -> bool:
        return self.outcome == "certified"


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
    ``normal . p = offset``; ``loops`` are tuples of 2-D rational points in
    a fixed affine chart of the plane, each loop implicitly closed (the
    last point connects back to the first).
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


def _cross(
    u: Tuple[Fraction, Fraction, Fraction], v: Tuple[Fraction, Fraction, Fraction]
) -> Tuple[Fraction, Fraction, Fraction]:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _plane_chart(
    normal: Tuple[Fraction, Fraction, Fraction],
) -> Tuple[Tuple[Fraction, Fraction, Fraction], Tuple[Fraction, Fraction, Fraction]]:
    """Two independent rational in-plane directions (an affine 2-D chart)."""
    if normal[0] == 0 and normal[1] == 0:
        return (Fraction(1), Fraction(0), Fraction(0)), (
            Fraction(0),
            Fraction(1),
            Fraction(0),
        )
    if normal[0] == 0 and normal[2] == 0:
        return (Fraction(1), Fraction(0), Fraction(0)), (
            Fraction(0),
            Fraction(0),
            Fraction(1),
        )
    if normal[1] == 0 and normal[2] == 0:
        return (Fraction(0), Fraction(1), Fraction(0)), (
            Fraction(0),
            Fraction(0),
            Fraction(1),
        )
    axis_index = min(range(3), key=lambda k: abs(normal[k]))
    axis = tuple(Fraction(1 if k == axis_index else 0) for k in range(3))
    first = _cross(normal, axis)
    second = _cross(normal, first)
    return first, second


def slice_plane(surface: EmbeddedSurface, plane: PlaneSpec) -> SlicePolyline:
    """Exact cross-section of the surface with a plane, as closed loops.

    Vertices exactly on the plane are classified on the positive side, so
    every face contributes either nothing or one genuine segment; segments
    chain into loops by exact rational endpoint matching.  Raises
    :class:`CertificationError` if any endpoint fails to pair up (an open
    chain would contradict the surface being closed).
    """
    normal, offset = _resolve_plane(plane)
    chart_u, chart_v = _plane_chart(normal)

    def side(p: Point3) -> Fraction:
        return normal[0] * p.x + normal[1] * p.y + normal[2] * p.z - offset

    def to_chart(
        p: Tuple[Fraction, Fraction, Fraction],
    ) -> Tuple[Fraction, Fraction]:
        return (
            chart_u[0] * p[0] + chart_u[1] * p[1] + chart_u[2] * p[2],
            chart_v[0] * p[0] + chart_v[1] * p[1] + chart_v[2] * p[2],
        )

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
            point3 = (
                pa.x + t * (pb.x - pa.x),
                pa.y + t * (pb.y - pa.y),
                pa.z + t * (pb.z - pa.z),
            )
            crossings.append(to_chart(point3))
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


def emit_svg(
    polyline: SlicePolyline, path: Optional[Union[str, Path]] = None, viewport: int = 1000
) -> str:
    """Render slice loops over a unit-circle outline; byte-deterministic.

    The chart square [-1, 1]^2 maps onto a ``viewport`` x ``viewport``
    canvas with the vertical axis pointing up.  Returns the SVG text and,
    if ``path`` is given, writes it atomically.
    """
    half = Fraction(viewport, 2)

    def place(point: Tuple[Fraction, Fraction]) -> str:
        x = half + half * point[0]
        y = half - half * point[1]
        return f"{_fixed_point(x, 6, toward_zero=False)},{_fixed_point(y, 6, toward_zero=False)}"

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{viewport}" '
        f'height="{viewport}" viewBox="0 0 {viewport} {viewport}">',
        f'  <circle cx="{half}" cy="{half}" r="{half}" fill="none" '
        'stroke="#999999" stroke-width="1"/>',
    ]
    for loop in polyline.loops:
        steps = " L ".join(place(point) for point in loop)
        lines.append(
            f'  <path d="M {steps} Z" fill="none" stroke="#000000" stroke-width="2"/>'
        )
    lines.append("</svg>")
    text = "\n".join(lines) + "\n"
    if path is not None:
        _atomic_write_text(Path(path), text)
    return text


def export_off(
    surface: EmbeddedSurface, path: Optional[Union[str, Path]] = None, digits: int = 32
) -> str:
    """OFF-format text: counts, fixed-point vertices, oriented faces.

    Coordinates are truncated toward zero at ``digits`` decimals; faces
    keep their stored orientation and order.  Returns the text and, if
    ``path`` is given, writes it atomically.
    """
    if digits < 1:
        raise ValueError("digits must be at least 1")
    faces = surface.triangulation.faces
    edges = {
        frozenset((face[a], face[(a + 1) % 3])) for face in faces for a in range(3)
    }
    lines = ["OFF", f"{len(surface.coords)} {len(faces)} {len(edges)}"]
    for p in surface.coords:
        lines.append(
            " ".join(_fixed_point(c, digits, toward_zero=True) for c in (p.x, p.y, p.z))
        )
    for face in faces:
        lines.append("3 {} {} {}".format(*face))
    text = "\n".join(lines) + "\n"
    if path is not None:
        _atomic_write_text(Path(path), text)
    return text


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _mesh_input(args) -> Tuple[bytes, EmbeddedSurface, str]:
    """Mesh bytes, surface, and a label (packaged candidate when --mesh absent)."""
    if args.mesh is None:
        data = _packaged_bytes("candidate_surface.json")
        label = "packaged:candidate_surface.json"
    else:
        data = Path(args.mesh).read_bytes()
        label = str(args.mesh)
    _, surface = _parse_mesh_document(data.decode())
    return data, surface, label


def _links_input(args) -> Tuple[bytes, LinkReference, str]:
    if args.links is None:
        data = _packaged_bytes("reference_links.json")
        label = "packaged:reference_links.json"
    else:
        data = Path(args.links).read_bytes()
        label = str(args.links)
    return data, _load_links_document(data.decode()), label


def _deliver_report(report: CertificateReport, args) -> None:
    text = report.to_json()
    if args.report:
        _atomic_write_text(Path(args.report), text)
    else:
        sys.stdout.write(text)


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
    smallest = min(min(w.margins) for w in certificate.witnesses)
    return {
        "pairs": {
            "disjoint": certificate.n_disjoint,
            "shared_vertex": certificate.n_shared_vertex,
            "shared_edge": certificate.n_shared_edge,
        },
        "min_margin": _directed_text(Fraction(smallest), round_up=False),
        "robustness": fraction_to_text(certificate.robustness),
        "scale": certificate.scale,
        "delta": certificate.delta,
    }, certificate


def _run_expansion(surface):
    # 60 digits leaves the ~1e-40 enclosure width invisible next to the
    # 5e-4 rounding slack, so the reference-deviation premise is decisive.
    enclosure = dtheta_enclosure(surface, precision=60)
    rounded = [
        [Fraction(round(Fraction(b.midpoint(60)) * 1000), 1000) for b in row]
        for row in enclosure
    ]
    cap = second_partial_bound(crude_bounds(surface))
    certificate = certify_expansion(rounded, dtheta_center=enclosure, second_order_cap=cap)
    return {
        "sigma_lower_bound": _directed_text(certificate.sigma_min_bound, round_up=False),
        "expansion_lambda": fraction_to_text(certificate.lam),
        "ball_radius": fraction_to_text(certificate.radius),
        "angle_sine_bound": _directed_text(certificate.angle_sine_bound, round_up=True),
    }, (certificate, cap)  # verify-all's existence chain reuses the checked cap


def _cmd_validate(args) -> int:
    mesh_bytes, surface, label = _mesh_input(args)
    report_data = validate(surface.triangulation)
    payload = {
        "ok": report_data.ok,
        "vertices": report_data.n_vertices,
        "edges": report_data.n_edges,
        "faces": report_data.n_faces,
        "euler_characteristic": report_data.euler_characteristic,
        "genus": report_data.genus,
        "violations": list(report_data.edge_violations + report_data.link_violations),
    }
    report = CertificateReport(
        kind="validate",
        inputs_digest=_inputs_digest([("mesh:" + label, mesh_bytes)]),
        parameters={},
        outcome="certified" if report_data.ok else "failed: surface checks",
        details=payload,
        tool_version=__version__,
    )
    _deliver_report(report, args)
    return 0 if report_data.ok else 1


def _certification_command(kind: str, args, parts, runner, parameters=None) -> int:
    if parameters is None:
        parameters = {"precision": str(args.precision)}
    try:
        details, _ = runner()
        outcome = "certified"
        status = 0
    except CertificationError as exc:
        details = {}
        outcome = f"failed: {exc}"
        status = 1
    report = CertificateReport(
        kind=kind,
        inputs_digest=_inputs_digest(parts),
        parameters=parameters,
        outcome=outcome,
        details=details,
        tool_version=__version__,
    )
    _deliver_report(report, args)
    if status:
        print(f"certification failed: {outcome[8:]}", file=sys.stderr)
    return status


def _cmd_verify_flat(args) -> int:
    mesh_bytes, surface, mesh_label = _mesh_input(args)
    links_bytes, links, links_label = _links_input(args)
    parts = [("mesh:" + mesh_label, mesh_bytes), ("links:" + links_label, links_bytes)]
    return _certification_command(
        "flatness",
        args,
        parts,
        lambda: _run_flatness(surface, links),
        parameters={"arithmetic": "exact"},
    )


def _cmd_verify_embed(args) -> int:
    mesh_bytes, surface, mesh_label = _mesh_input(args)
    parts = [("mesh:" + mesh_label, mesh_bytes)]
    return _certification_command(
        "embeddedness",
        args,
        parts,
        lambda: _run_embeddedness(surface),
        parameters={"arithmetic": "exact"},
    )


def _cmd_verify_expansion(args) -> int:
    mesh_bytes, surface, mesh_label = _mesh_input(args)
    parts = [("mesh:" + mesh_label, mesh_bytes)]
    return _certification_command(
        "expansion",
        args,
        parts,
        lambda: _run_expansion(surface),
        parameters={"jacobian_digits": "60"},
    )


def _cmd_verify_all(args) -> int:
    mesh_bytes, surface, mesh_label = _mesh_input(args)
    links_bytes, links, links_label = _links_input(args)
    parts = [("mesh:" + mesh_label, mesh_bytes), ("links:" + links_label, links_bytes)]

    def runner():
        flat_details, flat = _run_flatness(surface, links)
        embed_details, embed = _run_embeddedness(surface)
        expansion_details, (expansion, cap) = _run_expansion(surface)
        existence = conclude_existence(flat, embed, expansion, cap)
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

    return _certification_command(
        "existence",
        args,
        parts,
        runner,
        parameters={"arithmetic": "exact", "jacobian_digits": "60"},
    )


def _cmd_refine(args) -> int:
    _, surface, _ = _mesh_input(args)
    config = SearchConfig(newton_precision=args.precision)
    refined = newton_refine(surface, config)
    norm_sq = theta_map(refined, args.precision).norm_sq()
    text = render_mesh(refined, name="refined")
    if args.report:
        _atomic_write_text(Path(args.report), text)
    else:
        sys.stdout.write(text)
    print(
        f"refined at {args.precision} digits; squared defect norm <= "
        f"{float(norm_sq):.3e}",
        file=sys.stderr,
    )
    return 0


def _cmd_search(args) -> int:
    _, surface, _ = _mesh_input(args)
    config = SearchConfig() if args.seed is None else SearchConfig(rng_seed=args.seed)
    record: Dict[str, object] = {}
    result = hill_climb(surface, config, record=record)
    text = render_mesh(result, name="search-result")
    if args.report:
        _atomic_write_text(Path(args.report), text)
    else:
        sys.stdout.write(text)
    print(
        f"search: algorithm {record['algorithm']}, seed {record['seed']}, "
        f"{record['steps']} steps, {record['accepts']} accepts, "
        f"final objective {record['final_objective']}",
        file=sys.stderr,
    )
    return 0


def _cmd_slice(args) -> int:
    _, surface, _ = _mesh_input(args)
    polyline = slice_plane(surface, args.plane)
    text = emit_svg(polyline, path=args.report)
    if not args.report:
        sys.stdout.write(text)
    print(f"slice {args.plane}: {len(polyline.loops)} loop(s)", file=sys.stderr)
    return 0


def _cmd_export(args) -> int:
    _, surface, _ = _mesh_input(args)
    text = export_off(surface, path=args.report)
    if not args.report:
        sys.stdout.write(text)
    return 0


def _add_flags(parser: argparse.ArgumentParser, top_level: bool) -> None:
    # Flags live on the main parser (with real defaults) and on every
    # subparser (defaults suppressed so they never clobber a value given
    # before the subcommand); either position works.
    def default(value):
        return value if top_level else argparse.SUPPRESS

    parser.add_argument(
        "--mesh",
        default=default(None),
        help="mesh container path (default: packaged candidate)",
    )
    parser.add_argument(
        "--links",
        default=default(None),
        help="reference link tables path (default: packaged tables)",
    )
    parser.add_argument(
        "--precision", type=int, default=default(400), help="working decimal digits"
    )
    parser.add_argument(
        "--report",
        default=default(None),
        help="output path (certificate report, mesh, SVG, or OFF)",
    )
    parser.add_argument("--seed", type=int, default=default(None), help="search seed")
    parser.add_argument(
        "--plane",
        choices=("xy", "xz", "yz"),
        default=default("xy"),
        help="slice plane",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kleincert",
        description="Certified numerics for triangulated surfaces in the Klein model.",
    )
    _add_flags(parser, top_level=True)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, handler in (
        ("validate", _cmd_validate),
        ("verify-flat", _cmd_verify_flat),
        ("verify-embed", _cmd_verify_embed),
        ("verify-expansion", _cmd_verify_expansion),
        ("verify-all", _cmd_verify_all),
        ("refine", _cmd_refine),
        ("search", _cmd_search),
        ("slice", _cmd_slice),
        ("export", _cmd_export),
    ):
        sub = commands.add_parser(name)
        _add_flags(sub, top_level=False)
        sub.set_defaults(func=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
