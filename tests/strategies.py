"""Hypothesis strategies for exact-kernel differential tests.

Points of the Klein ball whose coordinates mix coprime denominators (10^k,
3^k, 7·10^k), so a corner's common denominator is a genuine lcm, with heights
jittered by up to 10⁻¹² as in the search and Newton runs; corners of three
such points; vertex stars, a vertex with a link of such points, some of
whose corners are near-degenerate; and triangle pairs on small lattice
points, in space, on a plane or on a line.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from kleincert.klein import Point3

_DENOMINATORS = st.one_of(
    st.integers(min_value=0, max_value=12).map(lambda k: 10**k),
    st.integers(min_value=0, max_value=12).map(lambda k: 3**k),
    st.integers(min_value=0, max_value=12).map(lambda k: 7 * 10**k),
)


@st.composite
def _coordinate(draw) -> Fraction:
    # |coordinate| ≤ 0.55 keeps every point inside the ball: 3·0.55² < 1
    den = draw(_DENOMINATORS)
    bound = 55 * den // 100
    return Fraction(draw(st.integers(min_value=-bound, max_value=bound)), den)


@st.composite
def ball_points(draw) -> Point3:
    jitter = Fraction(
        draw(st.integers(min_value=-1000, max_value=1000)),
        10 ** draw(st.integers(min_value=15, max_value=40)),
    )
    return Point3(draw(_coordinate()), draw(_coordinate()), draw(_coordinate()) + jitter)


corners = st.tuples(ball_points(), ball_points(), ball_points()).filter(
    lambda c: c[1] != c[0] and c[2] != c[0]
)


@st.composite
def _vertex_star(draw) -> tuple:
    """A vertex and a link of 3 to 8 ball points.  Half the time one link
    point is moved to within 10⁻ᵉ (e ≤ 9) of the ray from the vertex through
    its predecessor, on either side of the vertex, so that corners run from
    well inside the hill climb's float guard, 1 − √A ≥ 2⁻²⁰, to past it."""
    center = draw(ball_points())
    link = draw(st.lists(ball_points(), min_size=3, max_size=8))
    if draw(st.booleans()):
        j = draw(st.integers(0, len(link) - 2))
        t = Fraction(draw(st.sampled_from((-3, -1, 1, 3, 9))), 10)
        tilt = Fraction(1, 10 ** draw(st.integers(1, 9)))
        off = draw(ball_points())
        link[j + 1] = Point3(
            *(c + t * (r - c) + tilt * o for c, r, o in zip(center, link[j], off))
        )
    return center, tuple(link)


# a moved point may leave the ball or land on the vertex
vertex_stars = _vertex_star().filter(
    lambda v: v[0] not in v[1] and all(p.norm_sq() < 1 for p in v[1])
)


_small = st.integers(min_value=-4, max_value=4)
_small_vector = st.tuples(_small, _small, _small)


@st.composite
def triangle_pairs(draw) -> tuple:
    """(coords, f1, f2): two triangles on integer points, sharing vertex 0 or
    vertex-disjoint.  A quarter of the time all points lie on one plane, and
    a quarter of the time on one line, so the pair's differences span only a
    plane or a line.  Points may repeat."""
    count = 5 if draw(st.booleans()) else 6
    origin, u, v = draw(_small_vector), draw(_small_vector), draw(_small_vector)
    shape = draw(st.sampled_from(("space", "space", "plane", "line")))
    if shape == "space":
        coords = [draw(_small_vector) for _ in range(count)]
    else:
        coords = [
            tuple(o + a * x + (b * y if shape == "plane" else 0) for o, x, y in zip(origin, u, v))
            for a, b in (draw(st.tuples(_small, _small)) for _ in range(count))
        ]
    return coords, (0, 1, 2), (0, 3, 4) if count == 5 else (3, 4, 5)
