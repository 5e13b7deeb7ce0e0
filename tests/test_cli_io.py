"""File-format, slicing, export, and command-line tests.

Expected values come from three kinds of oracle, all independent of the
code under test:

- the packaged candidate container itself (byte-level round trips),
- hand-worked combinatorics on tetrahedra (slice chains, symbolic
  perturbation of on-plane vertices),
- frozen outputs of the certification pipeline already pinned down in the
  other test modules (loop counts, margins, existence radii).
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleincert import cli_io, jacobian, search
from kleincert.cli_io import (
    emit_svg,
    export_off,
    fraction_to_text,
    load_links,
    load_mesh,
    main,
    render_mesh,
    save_mesh,
    slice_plane,
    text_to_fraction,
)
from kleincert.klein import Point3
from kleincert.mesh import EmbeddedSurface, Triangulation

from strategies import ball_points
from kleincert.precision import CertificationError
from kleincert.search import SearchConfig, newton_refine


@pytest.fixture(scope="module")
def candidate_bytes() -> bytes:
    from importlib import resources

    return resources.files("kleincert.data").joinpath("candidate_surface.json").read_bytes()


@pytest.fixture()
def candidate_path(tmp_path, candidate_bytes):
    path = tmp_path / "candidate.json"
    path.write_bytes(candidate_bytes)
    return path


def _tetrahedron(coords) -> EmbeddedSurface:
    tri = Triangulation(
        n_vertices=4, faces=((0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2))
    )
    return EmbeddedSurface(tri, tuple(Point3.of(*c) for c in coords))


# ---------------------------------------------------------------------------
# Number codec
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value, text",
    [
        (Fraction(7), "7"),
        (Fraction(-3), "-3"),
        (Fraction(1, 4), "0.25"),
        (Fraction(-1, 2), "-0.5"),
        (Fraction(1, 8), "0.125"),
        (Fraction(3, 20), "0.15"),
        (Fraction(1, 3), "1/3"),
        (Fraction(-5, 7), "-5/7"),
        (Fraction(22, 7), "22/7"),
    ],
)
def test_fraction_to_text(value, text):
    assert fraction_to_text(value) == text
    assert text_to_fraction(text) == value


def test_text_to_fraction_parses_both_notations():
    assert text_to_fraction("0.28688022781563440615364787558404") == Fraction(
        28688022781563440615364787558404, 10**32
    )
    assert text_to_fraction("-7/12") == Fraction(-7, 12)


@pytest.mark.parametrize("bad", ["", "abc", "1/0", "1.2.3", None, 5])
def test_text_to_fraction_rejects_garbage(bad):
    with pytest.raises(ValueError):
        text_to_fraction(bad)


def test_directed_text_stays_on_the_certified_side():
    third = Fraction(1, 3)
    down = cli_io._directed_text(third, round_up=False)
    up = cli_io._directed_text(third, round_up=True)
    assert down == "0.333333333333"
    assert up == "0.333333333334"
    assert Fraction(down) <= third <= Fraction(up)
    # negative values: "down" still means toward minus infinity
    assert Fraction(cli_io._directed_text(-third, round_up=False)) <= -third
    assert Fraction(cli_io._directed_text(-third, round_up=True)) >= -third
    assert cli_io._directed_text(Fraction(0), round_up=True) == "0"
    exact = Fraction(48299677442400000000000000000000)
    assert cli_io._directed_text(exact, round_up=False) == str(int(exact))


# ---------------------------------------------------------------------------
# Mesh container
# ---------------------------------------------------------------------------


def test_candidate_round_trip_is_byte_identical(candidate_bytes, candidate_surface):
    surface = load_mesh_from_bytes(candidate_bytes)
    text = render_mesh(surface, name="candidate-genus2-surface")
    assert text.encode() == candidate_bytes
    assert surface.coords == candidate_surface.coords
    assert surface.triangulation.faces == candidate_surface.triangulation.faces


def load_mesh_from_bytes(data: bytes) -> EmbeddedSurface:
    _, surface = cli_io._parse_mesh_document(data.decode())
    return surface


def test_save_and_load_preserve_exact_coordinates(tmp_path, candidate_surface):
    path = tmp_path / "out.json"
    save_mesh(candidate_surface, path, name="candidate-genus2-surface")
    again = load_mesh(path)
    assert again.coords == candidate_surface.coords
    # heights carry 32 decimal digits; survival must be exact, not approximate
    z = candidate_surface.coords[0].z
    assert again.coords[0].z == z
    assert z.denominator == 10**32 or 10**32 % z.denominator == 0


def test_save_mesh_leaves_no_temp_files(tmp_path, candidate_surface):
    path = tmp_path / "out.json"
    save_mesh(candidate_surface, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


def test_container_keeps_non_terminating_rationals_exact(tmp_path):
    surface = _tetrahedron(
        [
            (Fraction(1, 3), Fraction(1, 7), Fraction(1, 11)),
            (Fraction(1, 2), Fraction(-1, 4), Fraction(-1, 8)),
            (Fraction(-1, 2), Fraction(1, 4), Fraction(-1, 8)),
            (Fraction(-1, 4), Fraction(-1, 4), Fraction(1, 4)),
        ]
    )
    path = tmp_path / "frac.json"
    save_mesh(surface, path)
    assert '"1/3"' in path.read_text()
    assert load_mesh(path).coords == surface.coords


@settings(max_examples=30, deadline=None)
@given(points=st.lists(ball_points(), min_size=10, max_size=10))
def test_render_parse_render_is_a_fixed_point(points, candidate_surface):
    # ball_points mix 10^k, 3^k and 7·10^k denominators, so the texts are both
    # terminating decimals and p/q fractions
    surface = EmbeddedSurface(candidate_surface.triangulation, tuple(points))
    text = render_mesh(surface, name="generated")
    name, again = cli_io._parse_mesh_document(text)
    assert name == "generated"
    assert render_mesh(again, name=name) == text
    assert again.coords == surface.coords
    assert (again.denominator, again.lattice) == (surface.denominator, surface.lattice)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.__setitem__("format", "other"), "not a mesh container"),
        (lambda d: d.__setitem__("version", 2), "version"),
        (lambda d: d.pop("faces"), "vertex and face lists"),
        (lambda d: d["vertices"].__setitem__(1, ["0.1", "0.2"]), "vertex 1"),
        (lambda d: d["faces"].__setitem__(3, [0, 1]), "face 3"),
        (lambda d: d["faces"].__setitem__(0, [0, 1, "2"]), "face 0"),
        (lambda d: d["faces"].__setitem__(0, [False, 1, 7]), "face 0 is not an index triple"),
        (lambda d: d["vertices"][0].__setitem__(0, "x.y"), "unreadable coordinate"),
    ],
)
def test_malformed_containers_are_named(tmp_path, candidate_bytes, mutate, message):
    doc = json.loads(candidate_bytes)
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_mesh(path)


def test_broken_json_reports_line_and_column(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "format": oops\n}\n')
    with pytest.raises(ValueError, match=r"line 2, column 13"):
        load_mesh(path)


def test_load_links_matches_conftest_reference(reference_links):
    from importlib import resources

    path = resources.files("kleincert.data").joinpath("reference_links.json")
    reference = load_links(str(path))
    assert len(reference.tables) == 10
    for table in reference.tables:
        assert table.cycle == reference_links[table.vertex]["cycle"]
        assert table.vectors == reference_links[table.vertex]["vectors"]


# ---------------------------------------------------------------------------
# Plane slicing
# ---------------------------------------------------------------------------


def test_candidate_slice_loop_counts(candidate_surface):
    assert len(slice_plane(candidate_surface, "xy").loops) == 1
    assert len(slice_plane(candidate_surface, "xz").loops) == 2


def test_missed_plane_gives_no_loops(candidate_surface):
    plane = ((Fraction(1), Fraction(0), Fraction(0)), Fraction(5))
    assert slice_plane(candidate_surface, plane).loops == ()


def test_unknown_plane_name_rejected(candidate_surface):
    with pytest.raises(ValueError, match="unknown plane"):
        slice_plane(candidate_surface, "diagonal")
    with pytest.raises(ValueError, match="nonzero rational 3-vector"):
        slice_plane(candidate_surface, ((0, 0, 0), 0))


def test_tetrahedron_slice_is_one_quad():
    # two vertices above z = 0 and two below: the section is a quadrilateral
    surface = _tetrahedron(
        [
            (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)),
            (Fraction(1, 4), Fraction(-1, 4), Fraction(-1, 4)),
            (Fraction(-1, 4), Fraction(1, 4), Fraction(-1, 4)),
            (Fraction(-1, 4), Fraction(-1, 4), Fraction(1, 4)),
        ]
    )
    result = slice_plane(surface, "xy")
    assert len(result.loops) == 1
    assert len(result.loops[0]) == 4


def test_on_plane_vertex_counts_as_positive_side():
    # v0 sits exactly on z = 0, v1 and v2 above, v3 below: the chain passes
    # through v0's chart point and still closes into a single triangle
    surface = _tetrahedron(
        [
            (Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(1, 4), Fraction(0), Fraction(1, 4)),
            (Fraction(0), Fraction(1, 4), Fraction(1, 4)),
            (Fraction(-1, 4), Fraction(-1, 4), Fraction(-1, 4)),
        ]
    )
    result = slice_plane(surface, "xy")
    assert len(result.loops) == 1
    assert len(result.loops[0]) == 3
    assert (Fraction(0), Fraction(0)) in result.loops[0]


def test_surface_touching_plane_at_one_vertex_slices_empty():
    # apex exactly on the plane, everything else strictly below: the only
    # candidate segments are single points and are dropped
    surface = _tetrahedron(
        [
            (Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(1, 4), Fraction(0), Fraction(-1, 4)),
            (Fraction(0), Fraction(1, 4), Fraction(-1, 4)),
            (Fraction(-1, 4), Fraction(-1, 4), Fraction(-1, 4)),
        ]
    )
    assert slice_plane(surface, "xy").loops == ()


def test_on_plane_edge_contributes_exactly_one_segment():
    # edge v0-v1 lies in z = 0, v2 above, v3 below: the loop is v0, v1 and
    # one genuine crossing, with the on-plane edge traversed exactly once
    surface = _tetrahedron(
        [
            (Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(1, 4), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1, 4), Fraction(1, 4)),
            (Fraction(1, 8), Fraction(-1, 4), Fraction(-1, 8)),
        ]
    )
    result = slice_plane(surface, "xy")
    assert len(result.loops) == 1
    loop = set(result.loops[0])
    assert (Fraction(0), Fraction(0)) in loop
    assert (Fraction(1, 4), Fraction(0)) in loop
    assert (Fraction(1, 12), Fraction(-1, 12)) in loop  # the one true crossing
    assert len(result.loops[0]) == 3


def test_open_surface_raises_open_chain_error():
    tri = Triangulation(n_vertices=3, faces=((0, 1, 2),))
    surface = EmbeddedSurface(
        tri,
        (
            Point3.of(Fraction(0), Fraction(0), Fraction(1, 4)),
            Point3.of(Fraction(1, 4), Fraction(0), Fraction(-1, 4)),
            Point3.of(Fraction(0), Fraction(1, 4), Fraction(-1, 4)),
        ),
    )
    with pytest.raises(CertificationError, match="open slice chain"):
        slice_plane(surface, "xy")


def test_hundred_random_planes_close(candidate_surface):
    rng = random.Random(2026)
    coords = candidate_surface.coords
    for _ in range(100):
        normal = tuple(
            Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(3)
        )
        if all(c == 0 for c in normal):
            normal = (Fraction(1), Fraction(0), Fraction(0))
        a, b = rng.sample(range(len(coords)), 2)
        through = tuple(
            (pa + pb) / 2 for pa, pb in zip(coords[a], coords[b])
        )
        offset = sum(n * c for n, c in zip(normal, through))
        result = slice_plane(candidate_surface, (normal, offset))
        for loop in result.loops:
            assert len(loop) >= 3
            assert len(set(loop)) == len(loop)


@pytest.mark.parametrize(
    "normal",
    [(3, -1, 2), (1, -4, 2), (-1, 2, 5), (2, -2, 1)],
)
def test_general_plane_loops_are_the_kept_coordinates_of_the_crossings(
    candidate_surface, normal
):
    # the chart drops the normal's largest-magnitude coordinate, the first on
    # a tie: x for (2, -2, 1)
    normal = tuple(Fraction(c) for c in normal)
    dropped = max(range(3), key=lambda k: abs(normal[k]))
    kept = [k for k in range(3) if k != dropped]
    coords = candidate_surface.coords
    offset = sum(n * (a + b) / 2 for n, a, b in zip(normal, coords[0], coords[5]))
    side = [sum(n * c for n, c in zip(normal, p)) - offset for p in coords]
    crossings = set()
    for face in candidate_surface.triangulation.faces:
        for a, b in ((face[0], face[1]), (face[1], face[2]), (face[2], face[0])):
            if (side[a] >= 0) != (side[b] >= 0):
                t = side[a] / (side[a] - side[b])
                point = [pa + t * (pb - pa) for pa, pb in zip(coords[a], coords[b])]
                assert sum(n * c for n, c in zip(normal, point)) == offset
                crossings.add(tuple(point[k] for k in kept))
    result = slice_plane(candidate_surface, (normal, offset))
    points = [point for loop in result.loops for point in loop]
    assert result.loops
    assert len(set(points)) == len(points)
    assert set(points) == crossings


# ---------------------------------------------------------------------------
# SVG and OFF export
# ---------------------------------------------------------------------------


def test_svg_is_deterministic_and_structured(candidate_surface):
    section = slice_plane(candidate_surface, "xy")
    first = emit_svg(section)
    assert first == emit_svg(section)
    assert first.count("<path") == len(section.loops)
    assert '<circle cx="500" cy="500" r="500"' in first
    assert first.endswith("</svg>\n")


def test_svg_coordinates_have_six_decimals(candidate_surface):
    text = emit_svg(slice_plane(candidate_surface, "xz"))
    pairs = re.findall(r"(-?\d+\.\d+),(-?\d+\.\d+)", text)
    assert pairs
    for x, y in pairs:
        assert len(x.split(".")[1]) == 6
        assert len(y.split(".")[1]) == 6
        assert Fraction(0) <= Fraction(x) <= Fraction(1000)
        assert Fraction(0) <= Fraction(y) <= Fraction(1000)


def test_svg_of_empty_slice_has_no_paths(candidate_surface):
    plane = ((Fraction(1), Fraction(0), Fraction(0)), Fraction(5))
    text = emit_svg(slice_plane(candidate_surface, plane))
    assert "<path" not in text
    assert "<circle" in text


def test_off_export_counts_and_truncation(candidate_surface):
    text = export_off(candidate_surface, digits=4)
    lines = text.splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "10 24 36"
    assert lines[2].startswith("0.7315 0.0202 0.2868")
    assert len(lines) == 2 + 10 + 24
    for face_line, face in zip(lines[12:], candidate_surface.triangulation.faces):
        assert face_line == "3 {} {} {}".format(*face)


def test_off_truncates_toward_zero():
    surface = _tetrahedron(
        [
            (Fraction(19, 100), Fraction(0), Fraction(1, 4)),
            (Fraction(1, 4), Fraction(0), Fraction(-1, 4)),
            (Fraction(0), Fraction(1, 4), Fraction(-1, 4)),
            (Fraction(-19, 100), Fraction(-1, 4), Fraction(1, 8)),
        ]
    )
    lines = export_off(surface, digits=1).splitlines()
    assert lines[2].split() == ["0.1", "0.0", "0.2"]
    assert lines[5].split() == ["-0.1", "-0.2", "0.1"]
    with pytest.raises(ValueError, match="digits"):
        export_off(surface, digits=0)


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

# SHA-256 of the reports the commands below write, and of the slice SVGs and
# the OFF export on standard output; the verify-all and the coincident-vertex
# verify-embed digests are perfbench/golden.json's "verify-all.report" and
# "reject.report".
_REPORT_SHA256 = {
    "validate": "669c9659e49903ce3ab4af646712124a4be7dc4d7aa8f5fa03233e08088aa04c",
    "verify-flat": "f2f4731bfb438e2b0763d030445b8b9c3bdbbf1255e5a845d47065bd4d380a51",
    "verify-expansion": "f784f75c42399d955dcbefcdf9a2eb90bcd70a8bd54839a72fc46b0b4f206ec8",
    "verify-all": "a4dd4fc6a556c639bf260f2ba2247daf26f008080d9cc8e4c97e107a770f41d1",
    "verify-embed": "15781ad52a195759c955042452a746571032bfbc9c646d0c3d6e547d77040589",
    "slice --plane xy": "f4afb15118f8eddb9b3dad392f805afdcb53d860f6278308a11e167bbb2655e6",
    "slice --plane xz": "2216991ad7a2d4fc0ebb1cc8181ccb11a65ff8194984a7f0d4fdee8386424af3",
    "slice --plane yz": "0f045d8c28baaf080194347a3929454465263039deff42bee380ceb315d9db49",
    "export": "362275820ba3444aaaa0a88e29da0cb6d82737d4488515d34b79f307e8a0f14a",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_cli_validate_defaults_to_packaged_candidate(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert _sha256(out.encode()) == _REPORT_SHA256["validate"]
    payload = json.loads(out)
    assert payload["outcome"] == "certified"
    assert payload["details"]["genus"] == 2
    assert payload["details"]["euler_characteristic"] == -2


def test_cli_verify_flat_writes_replayable_report(tmp_path, candidate_path, monkeypatch):
    # a relative --mesh keeps the report's input label, and so its digest, fixed
    monkeypatch.chdir(tmp_path)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["verify-flat", "--mesh", candidate_path.name, "--report", str(first)]) == 0
    assert main(["verify-flat", "--report", str(second), "--mesh", candidate_path.name]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert _sha256(first.read_bytes()) == _REPORT_SHA256["verify-flat"]
    payload = json.loads(first.read_text())
    assert payload["outcome"] == "certified"
    assert Fraction(payload["details"]["epsilon"]) < Fraction(1, 10**28)
    assert payload["details"]["lipschitz_bound"] == "71"


def test_cli_verify_expansion_certifies(tmp_path):
    report = tmp_path / "expansion.json"
    assert main(["verify-expansion", "--report", str(report)]) == 0
    assert _sha256(report.read_bytes()) == _REPORT_SHA256["verify-expansion"]
    payload = json.loads(report.read_text())
    assert payload["outcome"] == "certified"
    assert Fraction(payload["details"]["sigma_lower_bound"]) > Fraction(3, 2)
    assert Fraction(payload["details"]["angle_sine_bound"]) ** 2 < Fraction(3, 4)


def test_cli_verify_embed_certifies_a_tetrahedron_without_witnesses(tmp_path):
    # every face pair of a tetrahedron shares an edge, so no pair needs a
    # separating normal and there is no margin to quote
    mesh = tmp_path / "tetrahedron.json"
    q = Fraction(1, 4)
    save_mesh(_tetrahedron([(q, q, q), (q, -q, -q), (-q, q, -q), (-q, -q, q)]), mesh)
    report = tmp_path / "report.json"
    assert main(["verify-embed", "--mesh", str(mesh), "--report", str(report)]) == 0
    details = json.loads(report.read_text())["details"]
    assert details["pairs"] == {"disjoint": 0, "shared_edge": 6, "shared_vertex": 0}
    assert details["min_margin"] is None


def test_cli_verify_expansion_checks_second_order_premise(tmp_path, candidate_bytes):
    # scaling by 1.03 puts vertex 0 at norm ≈ 0.81, outside the 0.79 ball the
    # second-order chain is proved on; the Jacobian floor alone would pass
    doc = json.loads(candidate_bytes)
    doc["vertices"] = [
        [fraction_to_text(Fraction(c) * Fraction(103, 100)) for c in v]
        for v in doc["vertices"]
    ]
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    code = main(["verify-expansion", "--mesh", str(scaled), "--report", str(report)])
    assert code == 1
    payload = json.loads(report.read_text())
    assert "crude bound failed: vertex 0" in payload["outcome"]


def test_cli_verify_all_reports_existence(tmp_path):
    report = tmp_path / "all.json"
    assert main(["verify-all", "--report", str(report)]) == 0
    assert _sha256(report.read_bytes()) == _REPORT_SHA256["verify-all"]
    payload = json.loads(report.read_text())
    assert payload["outcome"] == "certified"
    existence = payload["details"]["existence"]
    assert Fraction(existence["defect_norm_cap"]) == Fraction(1, 10**27)
    assert Fraction(existence["solution_radius"]) == Fraction(2, 10**27)
    assert Fraction(existence["coverage_radius"]) == Fraction(5, 10**19)
    assert Fraction(existence["robustness"]) == Fraction(1, 10**7)
    assert existence["checks"] == [
        "defect norm cap",
        "second-order premise",
        "robustness slack",
        "coverage",
    ]
    embed = payload["details"]["embeddedness"]
    assert embed["pairs"] == {"disjoint": 82, "shared_vertex": 158, "shared_edge": 36}
    assert Fraction(embed["min_margin"]) > Fraction(2) * 10**30


# The complete failure outcome for the candidate with vertex 3 moved onto
# vertex 5: 40 one-vertex-sharing pairs no normal can separate, 20 disjoint
# pairs likewise, and (0, 1, 7)/(2, 6, 3), which no rho(n) below 2000 separates.
_REJECT_OUTCOME = (
    "failed: no separating normal found for: "
    "{(0, 1, 7), (2, 3, 8)} [disjoint], "
    "{(0, 1, 7), (2, 6, 3)} [disjoint], "
    "{(0, 1, 7), (3, 4, 7)} [shared_vertex], "
    "{(0, 2, 1), (2, 3, 8)} [shared_vertex], "
    "{(0, 2, 1), (3, 4, 7)} [disjoint], "
    "{(0, 3, 6), (0, 4, 9)} [shared_vertex], "
    "{(0, 3, 6), (0, 8, 5)} [shared_vertex], "
    "{(0, 3, 6), (1, 5, 8)} [disjoint], "
    "{(0, 3, 6), (1, 6, 5)} [shared_vertex], "
    "{(0, 3, 6), (3, 5, 4)} [shared_vertex], "
    "{(0, 3, 6), (4, 5, 9)} [disjoint], "
    "{(0, 3, 6), (5, 6, 9)} [shared_vertex], "
    "{(0, 4, 9), (2, 6, 3)} [disjoint], "
    "{(0, 5, 3), (1, 3, 7)} [shared_vertex], "
    "{(0, 5, 3), (1, 5, 8)} [shared_vertex], "
    "{(0, 5, 3), (1, 6, 5)} [shared_vertex], "
    "{(0, 5, 3), (1, 8, 3)} [shared_vertex], "
    "{(0, 5, 3), (2, 3, 8)} [shared_vertex], "
    "{(0, 5, 3), (2, 6, 3)} [shared_vertex], "
    "{(0, 5, 3), (3, 4, 7)} [shared_vertex], "
    "{(0, 5, 3), (4, 5, 9)} [shared_vertex], "
    "{(0, 5, 3), (5, 6, 9)} [shared_vertex], "
    "{(0, 6, 4), (2, 6, 3)} [shared_vertex], "
    "{(0, 7, 8), (1, 3, 7)} [shared_vertex], "
    "{(0, 7, 8), (3, 4, 7)} [shared_vertex], "
    "{(0, 8, 5), (1, 3, 7)} [disjoint], "
    "{(0, 8, 5), (1, 8, 3)} [shared_vertex], "
    "{(0, 8, 5), (2, 3, 8)} [shared_vertex], "
    "{(0, 8, 5), (2, 6, 3)} [disjoint], "
    "{(0, 8, 5), (3, 4, 7)} [disjoint], "
    "{(0, 8, 5), (3, 5, 4)} [shared_vertex], "
    "{(1, 2, 4), (3, 4, 7)} [shared_vertex], "
    "{(1, 3, 7), (1, 5, 8)} [shared_vertex], "
    "{(1, 3, 7), (1, 6, 5)} [shared_vertex], "
    "{(1, 3, 7), (2, 3, 8)} [shared_vertex], "
    "{(1, 3, 7), (3, 5, 4)} [shared_vertex], "
    "{(1, 3, 7), (4, 5, 9)} [disjoint], "
    "{(1, 3, 7), (5, 6, 9)} [disjoint], "
    "{(1, 5, 8), (2, 3, 8)} [shared_vertex], "
    "{(1, 5, 8), (2, 6, 3)} [disjoint], "
    "{(1, 5, 8), (3, 4, 7)} [disjoint], "
    "{(1, 5, 8), (3, 5, 4)} [shared_vertex], "
    "{(1, 6, 5), (1, 8, 3)} [shared_vertex], "
    "{(1, 6, 5), (2, 3, 8)} [disjoint], "
    "{(1, 6, 5), (2, 6, 3)} [shared_vertex], "
    "{(1, 6, 5), (3, 4, 7)} [disjoint], "
    "{(1, 6, 5), (3, 5, 4)} [shared_vertex], "
    "{(1, 8, 3), (3, 5, 4)} [shared_vertex], "
    "{(1, 8, 3), (4, 5, 9)} [disjoint], "
    "{(1, 8, 3), (5, 6, 9)} [disjoint], "
    "{(2, 3, 8), (2, 7, 4)} [shared_vertex], "
    "{(2, 3, 8), (3, 4, 7)} [shared_vertex], "
    "{(2, 3, 8), (3, 5, 4)} [shared_vertex], "
    "{(2, 3, 8), (4, 5, 9)} [disjoint], "
    "{(2, 3, 8), (5, 6, 9)} [disjoint], "
    "{(2, 6, 3), (3, 5, 4)} [shared_vertex], "
    "{(2, 6, 3), (4, 5, 9)} [disjoint], "
    "{(2, 6, 3), (5, 6, 9)} [shared_vertex], "
    "{(3, 4, 7), (4, 5, 9)} [shared_vertex], "
    "{(3, 4, 7), (5, 6, 9)} [disjoint], "
    "{(3, 5, 4), (5, 6, 9)} [shared_vertex]"
)


def test_cli_verify_embed_fails_on_coincident_vertices(tmp_path, candidate_bytes, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = json.loads(candidate_bytes)
    doc["vertices"][3] = list(doc["vertices"][5])
    Path("corrupt.json").write_text(json.dumps(doc))
    code = main(["verify-embed", "--mesh", "corrupt.json", "--report", "report.json"])
    assert code == 1
    report = Path("report.json")
    assert _sha256(report.read_bytes()) == _REPORT_SHA256["verify-embed"]
    payload = json.loads(report.read_text())
    assert payload["outcome"] == _REJECT_OUTCOME


def test_cli_input_errors_exit_2(tmp_path, capsys):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json")
    assert main(["validate", "--mesh", str(garbage)]) == 2
    assert main(["validate", "--mesh", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("argv", [["validate", "--mesh"], ["verify-flat", "--links"]])
def test_cli_undecodable_input_exits_2_naming_the_file(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_bytes(b"\xff")
    assert main([*argv, "bad.json"]) == 2
    assert "error: bad.json is not UTF-8 text: " in capsys.readouterr().err


def test_cli_derives_no_certification_premise():
    # design rule: the expansion recipe lives in jacobian, the CLI only formats
    source = inspect.getsource(cli_io)
    for name in ("dtheta_enclosure", "crude_bounds", "second_partial_bound", "certify_expansion"):
        assert name not in source, name


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-all", "--precision", "50"],
        ["export", "--precision", "4"],
        ["validate", "--seed", "1"],
        ["slice", "--links", "x.json"],
        ["refine", "--plane", "xy"],
        ["--report", "r.json", "validate"],
        ["refine", "--precision", "400"],
    ],
)
def test_cli_rejects_flags_the_command_does_not_read(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


def test_cli_unread_flag_error_shows_the_command_usage(capsys):
    with pytest.raises(SystemExit) as info:
        main(["export", "--precision", "4"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: kleincert export ")
    assert "unrecognized arguments: --precision 4" in err


@pytest.mark.parametrize(
    "document, message",
    [
        ([], 'needs a "links" list'),
        ({"links": ["x"]}, "links entry 0 is not an object"),
        ({"links": [{"vertex": 0}]}, "links entry 0 has no 'cycle'"),
        (
            {"links": [{"vertex": 0, "cycle": [1, 2.5, 3], "vectors": [[1, 0]] * 3}]},
            "links entry 0: 'cycle' holds a non-integer 2.5",
        ),
        (
            {"links": [{"vertex": 0, "cycle": [1, 2, 3], "vectors": [[1, 0], [0, 1], [1]]}]},
            "links entry 0: 'vectors' is not a list of pairs",
        ),
    ],
)
def test_cli_malformed_links_exit_2_naming_the_entry(tmp_path, capsys, document, message):
    links = tmp_path / "links.json"
    links.write_text(json.dumps(document))
    assert main(["verify-flat", "--links", str(links)]) == 2
    assert message in capsys.readouterr().err


def _readme_flags():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z-]+)` \|([^|]*)\|", text, flags=re.MULTILINE)
    return {command: set(re.findall(r"--[a-z]+", flags)) for command, flags in rows}


def test_readme_command_table_matches_the_parser():
    parser = cli_io._build_parser()
    (subcommands,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    registered = {
        name: {s for a in sub._actions for s in a.option_strings if s != "--help"} - {"-h"}
        for name, sub in subcommands.choices.items()
    }
    assert _readme_flags() == registered


def test_cli_refine_writes_mesh(tmp_path, capsys):
    out = tmp_path / "refined.json"
    assert main(["refine", "--report", str(out)]) == 0
    refined = load_mesh(out)
    assert len(refined.coords) == 10
    assert "refined at 90 digits; " in capsys.readouterr().err


def test_cli_refine_evaluates_theta_once_per_newton_evaluation(
    tmp_path, capsys, candidate_surface, monkeypatch
):
    # the reported norm is Newton's last trace entry, not a re-evaluation
    trace = []
    newton_refine(candidate_surface, SearchConfig(), trace)
    calls = []
    real = jacobian.theta_map

    def counting(surface, precision=90):
        calls.append(precision)
        return real(surface, precision)

    for module in (jacobian, search, cli_io):
        monkeypatch.setattr(module, "theta_map", counting, raising=False)
    out = tmp_path / "refined.json"
    assert main(["refine", "--report", str(out)]) == 0
    assert len(calls) == len(trace) >= 2
    assert f"squared defect norm <= {float(trace[-1]):.3e}" in capsys.readouterr().err


def test_cli_refine_output_passes_verify_all(tmp_path):
    # Newton rounds the refined heights to the digits its last step
    # determined, so the lattice denominator has about 70 digits, not the
    # 90-digit working precision; the embedding scale follows it
    refined = tmp_path / "refined.json"
    assert main(["refine", "--report", str(refined)]) == 0
    report = tmp_path / "report.json"
    assert main(["verify-all", "--mesh", str(refined), "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["outcome"] == "certified"
    embed = doc["details"]["embeddedness"]
    assert embed["robustness"] == "0.0000001"
    assert embed["scale"] == load_mesh(refined).denominator == embed["delta"] * 10**7
    assert embed["scale"] < 10**100


def test_cli_verify_all_certifies_a_mesh_with_a_400_digit_lattice(tmp_path, candidate_bytes):
    # heights moved by k·10⁻⁴²¹ with seeded 1 <= k <= 10²⁰: the embedding
    # scale is the lattice denominator, more than 400 digits long
    rng = random.Random(421)
    doc = json.loads(candidate_bytes)
    doc["vertices"] = [
        [x, y, fraction_to_text(Fraction(z) + Fraction(rng.randint(1, 10**20), 10**421))]
        for x, y, z in doc["vertices"]
    ]
    mesh = tmp_path / "long.json"
    mesh.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    assert main(["verify-all", "--mesh", str(mesh), "--report", str(report)]) == 0
    embed = json.loads(report.read_text())["details"]["embeddedness"]
    assert embed["scale"] == load_mesh(mesh).denominator == embed["delta"] * 10**7
    assert embed["scale"] > 10**400


def test_pyproject_names_the_package_and_its_script():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["name"] == "kleincert"
    module, _, function = project["scripts"]["kleincert"].partition(":")
    assert getattr(importlib.import_module(module), function) is main


def test_cli_search_reports_algorithm_and_seed(tmp_path, capsys, monkeypatch):
    from kleincert.search import SearchConfig

    def small_config(**kwargs):
        kwargs.setdefault("max_steps", 3)
        return SearchConfig(**kwargs)

    monkeypatch.setattr(cli_io, "SearchConfig", small_config)
    out = tmp_path / "searched.json"
    assert main(["search", "--seed", "11", "--report", str(out)]) == 0
    err = capsys.readouterr().err
    assert "algorithm sha256-counter" in err
    assert "seed 11" in err
    assert load_mesh(out).triangulation.faces  # result is a loadable mesh


def test_cli_slice_and_export_to_stdout(capsys):
    assert main(["slice", "--plane", "xy"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("<?xml")
    assert "slice xy: 1 loop(s)" in captured.err
    assert main(["export"]) == 0
    assert capsys.readouterr().out.startswith("OFF\n10 24 36\n")


@pytest.mark.parametrize(
    "command", ["slice --plane xy", "slice --plane xz", "slice --plane yz", "export"]
)
def test_cli_slice_and_export_bytes_are_pinned(capsys, command):
    assert main(command.split()) == 0
    assert _sha256(capsys.readouterr().out.encode()) == _REPORT_SHA256[command]


def test_cli_boolean_face_index_exits_2(tmp_path, capsys, candidate_bytes):
    doc = json.loads(candidate_bytes)
    doc["faces"][0] = [False, 1, 7]
    mesh = tmp_path / "bool-face.json"
    mesh.write_text(json.dumps(doc))
    for command in ("validate", "export", "verify-flat"):
        assert main([command, "--mesh", str(mesh)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: face 0 is not an index triple: [False, 1, 7]" in captured.err


def test_cli_digest_tracks_input_bytes(tmp_path, candidate_bytes):
    first = tmp_path / "a.json"
    assert main(["validate", "--report", str(first)]) == 0
    digest_default = json.loads(first.read_text())["inputs_digest"]

    reordered = tmp_path / "copy.json"
    reordered.write_bytes(candidate_bytes + b"\n")
    second = tmp_path / "b.json"
    assert main(["validate", "--mesh", str(reordered), "--report", str(second)]) == 0
    digest_copy = json.loads(second.read_text())["inputs_digest"]
    assert digest_default != digest_copy
