"""Triangulated closed surfaces: combinatorics, links, cone angles.

A :class:`Triangulation` is a list of oriented triangles over vertex indices
0..n−1.  For a valid closed oriented surface, every unordered edge {a, b}
appears in exactly two faces — once as (a, b) and once as (b, a) — and the
neighbors of every vertex form a single cycle (the *link*), read off from the
face orientations.

An :class:`EmbeddedSurface` adds exact rational coordinates inside the open
unit ball (the Klein model).  Its central scalar quantity is the *cone angle*
at a vertex: the sum of the metric angles of the incident triangle corners,
taken in link order.  A surface is flat at a vertex when that sum is exactly
2π; the certification layers bound how far the candidate is from flat.

Subdivision inserts the Euclidean barycenter of a face and retriangulates it
into three triangles.  Because Klein-model triangles are planar Euclidean
triangles lying in totally geodesic planes, the new vertex has cone angle
exactly 2π, so subdividing preserves flatness (and the Euler characteristic).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence, Tuple

from .klein import Point3, angle, cos2_and_sign, dilate

__all__ = [
    "Triangulation",
    "EmbeddedSurface",
    "ValidationReport",
    "validate",
    "vertex_link",
    "cone_angle",
    "subdivide",
]

Face = Tuple[int, int, int]
CornerKey = Tuple[int, Tuple[int, int]]  # (vertex, (n_j, n_{j+1}))


@dataclass(frozen=True)
class Triangulation:
    """An oriented triangulation given by its face list."""

    n_vertices: int
    faces: Tuple[Face, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "faces", tuple(tuple(f) for f in self.faces))
        for f in self.faces:
            if len(f) != 3 or len(set(f)) != 3:
                raise ValueError(f"face {f} is not a triple of distinct vertices")
            if not all(isinstance(v, int) and 0 <= v < self.n_vertices for v in f):
                raise ValueError(f"face {f} references vertices outside 0..{self.n_vertices - 1}")

    @cached_property
    def links(self) -> Tuple[Tuple[int, ...], ...]:
        """Every vertex's :func:`vertex_link`, derived on first use; raises
        the first ``ValueError`` that :func:`vertex_link` raises, in vertex order."""
        return tuple(vertex_link(self, i) for i in range(self.n_vertices))

    def edges(self) -> set[frozenset[int]]:
        out: set[frozenset[int]] = set()
        for a, b, c in self.faces:
            out.update((frozenset((a, b)), frozenset((b, c)), frozenset((c, a))))
        return out


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the closed-oriented-surface checks, report-style."""

    ok: bool
    n_vertices: int
    n_edges: int
    n_faces: int
    euler_characteristic: int
    genus: int | None
    degree_sequence: Tuple[int, ...]
    edge_violations: Tuple[str, ...]
    link_violations: Tuple[str, ...]


def validate(T: Triangulation) -> ValidationReport:
    """Check the closed-oriented-surface invariants and summarize the result.

    Reports (rather than raises): directed-edge pairing violations, vertices
    whose link is not a single cycle, the Euler characteristic and genus, and
    the descending degree sequence.
    """
    directed: dict[Tuple[int, int], int] = {}
    for a, b, c in T.faces:
        for e in ((a, b), (b, c), (c, a)):
            directed[e] = directed.get(e, 0) + 1

    edge_violations: list[str] = []
    for (a, b), count in sorted(directed.items()):
        if count > 1:
            edge_violations.append(f"directed edge ({a},{b}) used by {count} faces")
        if (b, a) not in directed:
            edge_violations.append(f"edge ({a},{b}) lacks the opposite orientation ({b},{a})")

    link_violations: list[str] = []
    degrees: list[int] = []
    for i in range(T.n_vertices):
        try:
            cycle = vertex_link(T, i)
            degrees.append(len(cycle))
        except ValueError as exc:
            link_violations.append(str(exc))
            degrees.append(0)

    n_edges = len(T.edges())
    chi = T.n_vertices - n_edges + len(T.faces)
    genus = (2 - chi) // 2 if chi % 2 == 0 else None
    ok = not edge_violations and not link_violations
    return ValidationReport(
        ok=ok,
        n_vertices=T.n_vertices,
        n_edges=n_edges,
        n_faces=len(T.faces),
        euler_characteristic=chi,
        genus=genus,
        degree_sequence=tuple(sorted(degrees, reverse=True)),
        edge_violations=tuple(edge_violations),
        link_violations=tuple(link_violations),
    )


def vertex_link(T: Triangulation, i: int) -> Tuple[int, ...]:
    """The neighbors of vertex i as a single cycle (n_0, …, n_{d−1}).

    Consecutive entries satisfy (i, n_j, n_{j+1}) ∈ F cyclically, so walking
    the cycle walks the incident triangles in orientation order.  The cycle is
    normalized to start at the smallest neighbor index; rotating it yields the
    other equally valid readings.
    """
    if not 0 <= i < T.n_vertices:
        raise ValueError(f"vertex {i} out of range")
    successor: dict[int, int] = {}
    for f in T.faces:
        for a, b, c in (f, (f[1], f[2], f[0]), (f[2], f[0], f[1])):
            if a == i:
                if b in successor:
                    raise ValueError(f"vertex {i}: neighbor {b} has two successors")
                successor[b] = c
    if not successor:
        raise ValueError(f"vertex {i} is isolated")
    start = min(successor)
    cycle = [start]
    cursor = successor[start]
    while cursor != start:
        if cursor in cycle:
            raise ValueError(f"vertex {i}: link is not a single cycle")
        cycle.append(cursor)
        if cursor not in successor:
            raise ValueError(f"vertex {i}: link chain breaks at neighbor {cursor}")
        cursor = successor[cursor]
    if len(cycle) != len(successor):
        raise ValueError(f"vertex {i}: link splits into multiple cycles")
    return tuple(cycle)


@dataclass(frozen=True)
class EmbeddedSurface:
    """A triangulation with exact rational vertex coordinates in the model.

    The coordinates are also kept once on an integer lattice, derived when
    the surface is built: ``denominator`` is Q, the lcm of every coordinate
    denominator, and ``lattice[i]`` is the integer point Q·X_i.  All surface
    geometry (corner kernels, chords and distances, crude bounds, the
    embedding certificate) reads the lattice, and the unit-ball check is the
    integer test |Q·X_i|² < Q².  ``coords`` is read only where rationals are
    the point: parsing, rendering, export, slicing, subdivision and the
    search's moves.

    Two further derivations are made on first use and then kept: ``digest``
    names the surface in certificates, and ``corners`` is the exact corner
    table that flatness and the crude bounds share.
    """

    triangulation: Triangulation
    coords: Tuple[Point3, ...]
    denominator: int = field(init=False, repr=False, compare=False)
    lattice: Tuple[Point3, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(self.coords))
        if len(self.coords) != self.triangulation.n_vertices:
            raise ValueError(
                f"{len(self.coords)} coordinate rows for {self.triangulation.n_vertices} vertices"
            )
        q, lattice = dilate(self.coords)
        for i, x in enumerate(lattice):
            if x.norm_sq() >= q * q:
                raise ValueError(f"vertex {i} lies outside the open unit ball")
        object.__setattr__(self, "denominator", q)
        object.__setattr__(self, "lattice", lattice)

    @cached_property
    def digest(self) -> str:
        """SHA-256 of Q, the lattice and the faces: the surface a certificate is about."""
        T = self.triangulation
        rows = [f"{T.n_vertices} {len(T.faces)} {self.denominator}"]
        rows += [" ".join(map(str, row)) for row in self.lattice + T.faces]
        return hashlib.sha256("\n".join(rows).encode()).hexdigest()

    @cached_property
    def corners(self) -> Mapping[CornerKey, Tuple[Fraction, int]]:
        """Exact (α, sign) of every consecutive-link corner, from :func:`cos2_and_sign`.

        Keys are (vertex, (n_j, n_{j+1})), which makes the table invariant
        under rotations of the link cycle.
        """
        q, lattice = self.denominator, self.lattice
        out = {}
        for i, cycle in enumerate(self.triangulation.links):
            for j, n_j in enumerate(cycle):
                n_next = cycle[(j + 1) % len(cycle)]
                out[(i, (n_j, n_next))] = cos2_and_sign(
                    q, lattice[i], lattice[n_j], lattice[n_next]
                )
        return MappingProxyType(out)


def cone_angle(S: EmbeddedSurface, i: int, precision: int) -> Decimal:
    """The cone angle θ_i = Σ_j angle(X_i, X_{n_j}, X_{n_{j+1}}) at vertex i."""
    cycle = S.triangulation.links[i]
    q, lattice = S.denominator, S.lattice
    with localcontext(Context(prec=precision + 10)):
        total = Decimal(0)
        for j, n_j in enumerate(cycle):
            n_next = cycle[(j + 1) % len(cycle)]
            total += angle(q, lattice[i], lattice[n_j], lattice[n_next], precision)
    with localcontext(Context(prec=precision)):
        return +total


def subdivide(S: EmbeddedSurface, face_index: int) -> EmbeddedSurface:
    """Split one face at its Euclidean barycenter into three oriented faces.

    Replaces face (i, j, k) by (i, j, m), (j, k, m), (k, i, m) where m is the
    new vertex at the barycenter.  Orientation, the closed-surface invariants
    and the Euler characteristic are all preserved; the new vertex is flat.
    """
    T = S.triangulation
    if not 0 <= face_index < len(T.faces):
        raise ValueError(f"face index {face_index} out of range")
    i, j, k = T.faces[face_index]
    m = T.n_vertices
    barycenter = Point3(
        (S.coords[i].x + S.coords[j].x + S.coords[k].x) / 3,
        (S.coords[i].y + S.coords[j].y + S.coords[k].y) / 3,
        (S.coords[i].z + S.coords[j].z + S.coords[k].z) / 3,
    )
    new_faces = (
        T.faces[:face_index]
        + ((i, j, m), (j, k, m), (k, i, m))
        + T.faces[face_index + 1 :]
    )
    return EmbeddedSurface(
        triangulation=Triangulation(n_vertices=m + 1, faces=new_faces),
        coords=S.coords + (barycenter,),
    )
