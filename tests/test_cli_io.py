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

import json
import random
from fractions import Fraction

import pytest

from kleincert import cli_io
from kleincert.cli_io import (
    CertificateReport,
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
from kleincert.precision import CertificationError


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


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.__setitem__("format", "other"), "not a mesh container"),
        (lambda d: d.__setitem__("version", 2), "version"),
        (lambda d: d.pop("faces"), "vertex and face lists"),
        (lambda d: d["vertices"].__setitem__(1, ["0.1", "0.2"]), "vertex 1"),
        (lambda d: d["faces"].__setitem__(3, [0, 1]), "face 3"),
        (lambda d: d["faces"].__setitem__(0, [0, 1, "2"]), "face 0"),
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


# ---------------------------------------------------------------------------
# SVG and OFF export
# ---------------------------------------------------------------------------


def test_svg_is_deterministic_and_structured(candidate_surface, tmp_path):
    section = slice_plane(candidate_surface, "xy")
    first = emit_svg(section)
    second = emit_svg(section, path=tmp_path / "slice.svg")
    assert first == second
    assert (tmp_path / "slice.svg").read_text() == first
    assert first.count("<path") == len(section.loops)
    assert '<circle cx="500" cy="500" r="500"' in first
    assert first.endswith("</svg>\n")


def test_svg_coordinates_have_six_decimals(candidate_surface):
    import re

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


def test_off_export_counts_and_truncation(candidate_surface, tmp_path):
    text = export_off(candidate_surface, path=tmp_path / "mesh.off", digits=4)
    lines = text.splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "10 24 36"
    assert lines[2].startswith("0.7315 0.0202 0.2868")
    assert len(lines) == 2 + 10 + 24
    for face_line, face in zip(lines[12:], candidate_surface.triangulation.faces):
        assert face_line == "3 {} {} {}".format(*face)
    assert (tmp_path / "mesh.off").read_text() == text


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
# Certificate reports
# ---------------------------------------------------------------------------


def test_report_json_is_deterministic_and_timestamp_free():
    report = CertificateReport(
        kind="flatness",
        inputs_digest="00" * 32,
        parameters={"arithmetic": "exact"},
        outcome="certified",
        details={"epsilon": "0.1"},
        tool_version="0.1.0",
    )
    text = report.to_json()
    assert text == report.to_json()
    payload = json.loads(text)
    assert set(payload) == {
        "kind",
        "inputs_digest",
        "parameters",
        "outcome",
        "details",
        "tool_version",
    }
    assert report.certified


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def test_cli_validate_defaults_to_packaged_candidate(capsys):
    assert main(["validate"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] == "certified"
    assert payload["details"]["genus"] == 2
    assert payload["details"]["euler_characteristic"] == -2


def test_cli_verify_flat_writes_replayable_report(tmp_path, candidate_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["verify-flat", "--mesh", str(candidate_path), "--report", str(first)]) == 0
    assert main(["--report", str(second), "verify-flat", "--mesh", str(candidate_path)]) == 0
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["outcome"] == "certified"
    assert Fraction(payload["details"]["epsilon"]) < Fraction(1, 10**28)
    assert payload["details"]["lipschitz_bound"] == "71"


def test_cli_verify_expansion_certifies(tmp_path):
    report = tmp_path / "expansion.json"
    assert main(["verify-expansion", "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["outcome"] == "certified"
    assert Fraction(payload["details"]["sigma_lower_bound"]) > Fraction(3, 2)
    assert Fraction(payload["details"]["angle_sine_bound"]) ** 2 < Fraction(3, 4)


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


def test_cli_verify_embed_fails_on_coincident_vertices(tmp_path, candidate_bytes):
    doc = json.loads(candidate_bytes)
    doc["vertices"][3] = list(doc["vertices"][5])
    bad = tmp_path / "corrupt.json"
    bad.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    code = main(["verify-embed", "--mesh", str(bad), "--report", str(report)])
    assert code == 1
    payload = json.loads(report.read_text())
    assert payload["outcome"].startswith("failed: no separating normal")
    assert "(0, 1, 7)" in payload["outcome"]


def test_cli_input_errors_exit_2(tmp_path, capsys):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json")
    assert main(["validate", "--mesh", str(garbage)]) == 2
    assert main(["validate", "--mesh", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_cli_refine_writes_mesh(tmp_path, capsys):
    out = tmp_path / "refined.json"
    assert main(["refine", "--precision", "120", "--report", str(out)]) == 0
    refined = load_mesh(out)
    assert len(refined.coords) == 10
    assert "refined at 120 digits" in capsys.readouterr().err


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
