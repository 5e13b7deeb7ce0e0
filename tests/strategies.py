"""Hypothesis strategies for exact-kernel differential tests.

Points of the Klein ball whose coordinates mix coprime denominators (10^k,
3^k, 7·10^k), so a corner's common denominator is a genuine lcm, with heights
jittered by up to 10⁻¹² as in the search and Newton runs.
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
