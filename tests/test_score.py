import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfkit import (
    BEST_ANCHOR,
    CFN,
    CHEBYSHEV,
    DistanceParams,
    WORST_ANCHOR,
    cf_c,
    compare,
    joint_bounds,
    lambda_trend,
    score,
)
from cfkit.distance import component_rows, pairwise
from cfkit.score import EQUAL, FIRST_BETTER, SECOND_BETTER, scores

from helpers import cfns, random_cfns

F1 = CFN(0.8, 0.4, 0.32)
F2 = CFN(0.1, 0.9, 0.09)

PARAM_GRID = [
    DistanceParams(p=p, lam=lam)
    for p in (1, 2, 3, 10, CHEBYSHEV)
    for lam in (0.0, 0.25, 0.5, 1.0)
]


class TestScore:
    def test_reference_scores(self):
        params = DistanceParams(p=2, lam=0.5)
        assert score(F1, params).s == pytest.approx(0.6369, abs=5e-4)
        assert score(F2, params).s == pytest.approx(0.1555, abs=5e-4)

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_anchor_normalization(self, params):
        assert score(BEST_ANCHOR, params).s == 1.0
        assert score(WORST_ANCHOR, params).s == 0.0

    def test_decomposition(self):
        params = DistanceParams(p=2, lam=0.5)
        result = score(F1, params)
        assert result.d_to_worst == cf_c(F1, WORST_ANCHOR, params)
        assert result.d_to_best == cf_c(F1, BEST_ANCHOR, params)
        assert result.s == result.d_to_worst / (result.d_to_worst + result.d_to_best)

    @given(cfns())
    def test_range(self, f):
        for params in (DistanceParams(p=1, lam=0.5), DistanceParams(p=3, lam=0.0)):
            assert 0.0 <= score(f, params).s <= 1.0

    def test_near_anchor_at_high_order(self):
        # 1e-6 from the worst anchor: the p=64 power sum underflows unless scaled
        f = CFN(0.000001, 0.999999, 0.0)
        params = DistanceParams(p=64, lam=1.0)
        assert score(f, params).s > 0.0
        assert compare(f, WORST_ANCHOR, params) == FIRST_BETTER

    def test_range_random_grid(self):
        rng = np.random.default_rng(31)
        for f in random_cfns(rng, 500):
            for params in PARAM_GRID:
                assert 0.0 <= score(f, params).s <= 1.0


class TestCompare:
    def test_reference_pair(self):
        assert compare(F1, F2, DistanceParams(p=2, lam=0.5)) == FIRST_BETTER
        assert compare(F2, F1, DistanceParams(p=2, lam=0.5)) == SECOND_BETTER

    @given(cfns())
    def test_self_comparison(self, f):
        assert compare(f, f, DistanceParams(p=2, lam=0.5)) == EQUAL

    def test_verdict_stable_across_grid(self):
        # the reference ranking holds on the whole (lambda, p) grid
        for lam in np.linspace(0.0, 1.0, 11):
            for p in range(1, 11):
                params = DistanceParams(p=p, lam=float(lam))
                assert compare(F1, F2, params) == FIRST_BETTER

    @given(cfns(), cfns())
    def test_antisymmetric(self, f, g):
        params = DistanceParams(p=2, lam=0.5)
        forward = compare(f, g, params)
        backward = compare(g, f, params)
        if forward == EQUAL:
            assert backward == EQUAL
        else:
            assert {forward, backward} == {FIRST_BETTER, SECOND_BETTER}


@st.composite
def near_anchor_cfns(draw):
    """A CFN whose u and v lie within 1e-5 of an anchor's.

    Every term of its distance to that anchor is below about 2e-5, so the
    power sums at high orders underflow and ``_finish`` rescues them.
    """
    near, far = draw(st.floats(0.0, 1e-5)), 1.0 - draw(st.floats(0.0, 1e-5))
    u, v = (near, far) if draw(st.booleans()) else (far, near)
    lo, hi = joint_bounds(u, v)
    return CFN(u, v, draw(st.floats(lo, hi)) if hi > lo else hi)


ANY_CFNS = st.one_of(cfns(), near_anchor_cfns())
ORDERS = st.integers(0, 64).map(lambda code: CHEBYSHEV if code == 0 else code)
LAMBDAS = st.one_of(st.sampled_from((-0.0, 0.0, 1.0)), st.floats(0.0, 1.0))


def bits(x):
    return np.float64(x).tobytes()


class TestNormalizer:
    """``d(f, worst) + d(f, best) >= d(worst, best) >= 1`` by the triangle
    inequality, so ``score.scores`` never divides by a collapsed normalizer.
    Each computed distance is within 1e-14 of the exact one (see
    ``pain._solve``), hence the slack."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(ANY_CFNS, min_size=1, max_size=20), st.integers(0, 64), LAMBDAS)
    @example([BEST_ANCHOR, WORST_ANCHOR, CFN(1e-6, 1.0 - 1e-6, 0.0)], 64, 5e-17)
    @example([BEST_ANCHOR, WORST_ANCHOR, CFN(0.5, 0.5, 0.0)], 0, 0.3)
    def test_at_least_one(self, fs, code, lam):
        _, d_worst, d_best = scores(component_rows(fs), code, lam)
        assert (d_worst + d_best).min() >= 1.0 - 2e-14


class TestOneCombinedDistance:
    """Every path to a combined distance gives ``cf_c``'s bits."""

    @settings(max_examples=500, deadline=None)
    @given(ANY_CFNS, ANY_CFNS, ORDERS, LAMBDAS)
    @example(CFN(1e-6, 1.0 - 1e-6, 0.0), CFN(1.0, 1e-7, 1e-7), 64, -0.0)
    @example(CFN(0.8, 0.4, 0.32), CFN(0.1, 0.9, 0.09), CHEBYSHEV, 0.35)
    def test_score_trend_and_pairwise_match_cf_c(self, f, g, p, lam):
        params = DistanceParams(p=p, lam=lam)
        result = score(f, params)
        assert bits(result.d_to_worst) == bits(cf_c(f, WORST_ANCHOR, params))
        assert bits(result.d_to_best) == bits(cf_c(f, BEST_ANCHOR, params))

        grid = (lam, 0.0, 1.0)
        for row, lam_i in zip(lambda_trend((f, g), p, grid), grid):
            assert bits(row.lam) == bits(lam_i)  # -0.0 stays -0.0
            assert bits(row.d_c) == bits(cf_c(f, g, DistanceParams(p=p, lam=lam_i)))

        firsts, seconds = (f, g, f, f), (g, f, WORST_ANCHOR, BEST_ANCHOR)
        batch = pairwise("c", component_rows(firsts), component_rows(seconds), params)
        for d, a, b in zip(batch.tolist(), firsts, seconds):
            assert bits(d) == bits(cf_c(a, b, params))
