"""Shared fixtures: the packaged candidate surface and reference link tables.

Tests parse the packaged JSON directly (independent of the cli_io loaders,
which get their own round-trip tests).
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from random import Random

import pytest

from kleincert.jacobian import surface_with_heights
from kleincert.klein import Point3
from kleincert.mesh import EmbeddedSurface, Triangulation


def _read_packaged(name: str) -> dict:
    return json.loads(resources.files("kleincert.data").joinpath(name).read_text())


@pytest.fixture(scope="session")
def candidate_surface() -> EmbeddedSurface:
    raw = _read_packaged("candidate_surface.json")
    coords = tuple(Point3.of(x, y, z) for x, y, z in raw["vertices"])
    tri = Triangulation(n_vertices=len(coords), faces=tuple(tuple(f) for f in raw["faces"]))
    return EmbeddedSurface(triangulation=tri, coords=coords)


@pytest.fixture(scope="session")
def refine_input(candidate_surface) -> EmbeddedSurface:
    """The candidate with the height jitter of the benchmark's seed-0 refine
    operation: each height moved by k·10⁻¹³, 1 <= |k| <= 10 (tag "refine:0:0")."""
    rng = Random("refine:0:0")
    heights = [
        p.z + Fraction(rng.choice((-1, 1)) * rng.randint(1, 10), 10**13)
        for p in candidate_surface.coords
    ]
    return surface_with_heights(candidate_surface, heights)


@pytest.fixture(scope="session")
def reference_links() -> dict[int, dict]:
    raw = _read_packaged("reference_links.json")
    out: dict[int, dict] = {}
    for entry in raw["links"]:
        out[entry["vertex"]] = {
            "cycle": tuple(entry["cycle"]),
            "vectors": tuple((int(a), int(b)) for a, b in entry["vectors"]),
        }
    return out


@pytest.fixture(scope="session")
def tetrahedron() -> Triangulation:
    return Triangulation(n_vertices=4, faces=((0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)))


@pytest.fixture(scope="session")
def tetrahedron_surface(tetrahedron) -> EmbeddedSurface:
    q = Fraction(1, 4)
    coords = (
        Point3(q, q, q),
        Point3(q, -q, -q),
        Point3(-q, q, -q),
        Point3(-q, -q, q),
    )
    return EmbeddedSurface(triangulation=tetrahedron, coords=coords)


@pytest.fixture(scope="session")
def manual_normals() -> dict[frozenset, tuple[int, int, int]]:
    raw = _read_packaged("separating_normals.json")
    table: dict[frozenset, tuple[int, int, int]] = {}
    for entry in raw["entries"]:
        key = frozenset((tuple(entry["pair"][0]), tuple(entry["pair"][1])))
        table[key] = tuple(entry["normal"])
    return table


@pytest.fixture(scope="session")
def flatness_certificate(candidate_surface, reference_links):
    from kleincert.certify_flat import LinkReference, LinkTable, certify_flatness

    L = LinkReference(
        tables=tuple(
            LinkTable(vertex=v, cycle=entry["cycle"], vectors=entry["vectors"])
            for v, entry in sorted(reference_links.items())
        )
    )
    return certify_flatness(candidate_surface, L)


@pytest.fixture(scope="session")
def embedding_certificate(candidate_surface, manual_normals):
    from kleincert.certify_embed import certify_embeddedness

    return certify_embeddedness(candidate_surface, manual_normals=manual_normals)
