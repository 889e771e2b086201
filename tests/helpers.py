"""Shared generators for the test suite."""

import numpy as np
from hypothesis import strategies as st

from cfkit import CFN, joint_bounds

UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def cfns(draw):
    u = draw(UNIT)
    v = draw(UNIT)
    lo, hi = joint_bounds(u, v)
    j = draw(st.floats(min_value=lo, max_value=hi)) if hi > lo else hi
    return CFN(u, v, j)


@st.composite
def near_pairs(draw):
    """A CFN and a second one moved toward another CFN by 1 down to 1e-12 of the way.

    The admissible CFNs form a convex set, so the second one is admissible
    up to rounding, which construction clamps.
    """
    f, g = draw(cfns()), draw(cfns())
    t = 10.0 ** -draw(st.integers(0, 12))
    return f, CFN(f.u + t * (g.u - f.u), f.v + t * (g.v - f.v), f.j + t * (g.j - f.j))


def random_triples(rng, n):
    """Valid (u, v, j) arrays drawn uniformly."""
    u = rng.random(n)
    v = rng.random(n)
    lo = np.minimum(np.maximum(0.0, u + v - 1.0), np.minimum(u, v))
    hi = np.minimum(u, v)
    j = lo + (hi - lo) * rng.random(n)
    return u, v, j


def random_component_rows(rng, n):
    """(n, 4) rows of (u*, v*, j, h) for valid random CFNs."""
    u, v, j = random_triples(rng, n)
    return np.column_stack([u - j, v - j, j, 1.0 - u - v + j])


def random_cfns(rng, n):
    u, v, j = random_triples(rng, n)
    return [CFN(float(a), float(b), float(c)) for a, b, c in zip(u, v, j)]
