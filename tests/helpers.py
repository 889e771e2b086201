"""Shared generators for the test suite."""

import math

import numpy as np
from hypothesis import strategies as st

from cfkit import CFN, joint_bounds
from cfkit.errors import OutOfRangeError

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


# Offsets of zero, within, exactly at, just beyond and well beyond the
# constructor's clamping tolerance.
NUDGES = (0.0, 5e-10, -5e-10, 1e-9, -1e-9, 1.5e-9, -1.5e-9, 1e-6, -1e-6)


@st.composite
def raw_triples(draw):
    """A raw ``(u, v, j)``, admissible or not, crowded around every edge the
    constructor checks: 0, 1 and the joint bounds (exactly, and nudged within
    or just beyond the tolerance), plus -0.0 and NaN."""

    def coord(lo, hi):
        kind = draw(st.sampled_from(("free", "free", "inside", "near", "near", "near", "nan")))
        if kind == "nan":
            return math.nan
        if kind == "near":
            x, nudge = draw(st.sampled_from((lo, hi, -0.0))), draw(st.sampled_from(NUDGES))
            return x + nudge if nudge else x  # -0.0 + 0.0 would be 0.0
        if kind == "inside":
            return draw(st.floats(lo, hi))
        return draw(st.floats(-0.01, 1.01))

    u, v = coord(0.0, 1.0), coord(0.0, 1.0)
    try:
        lo, hi = joint_bounds(u, v)
    except OutOfRangeError:
        lo, hi = 0.0, 1.0
    return u, v, coord(lo, hi)


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


def solver_rows(u, v, j, blind=False):
    """(n, 4) rows of the CFNs of similarities u, v and joint degrees j; blind zeroes h.

    These are the rows the pain solver scores, built independently of it.
    """
    j = np.asarray(j, dtype=np.float64)
    h = np.zeros_like(j) if blind else 1.0 - u - v + j
    return np.column_stack([u - j, v - j, j, h])


def random_cfns(rng, n):
    u, v, j = random_triples(rng, n)
    return [CFN(float(a), float(b), float(c)) for a, b, c in zip(u, v, j)]
